//! The evaluation-plan IR: what a query batch *needs* before anything
//! runs.
//!
//! A batch of [`Query`]s compiles to a [`Plan`] — the deduplicated
//! query list, the slot map scattering answers back to request order,
//! and the set of unique surface-tile grid nodes the batch will touch.
//! The planner (`crate::planner`) then executes the plan: cold tile
//! nodes across *all* queries fuse into one lane-batched eq. (1)
//! dispatch, and byte-identical queries are answered once.
//!
//! Node keying matches the warm-tile cache grain exactly
//! ([`crate::context`]'s quantized `TileKey`): two queries whose
//! windows differ only by float noise share a node, just as they would
//! share a cache entry on the unplanned path. Everything coarser — the
//! per-cell `(λ, N_tr)` fusion inside a dispatch — is keyed on *bit
//! equality* of the axis values, so fusion can never change a single
//! output bit.
//!
//! Every batch is planned. The planned path is bit-identical to the
//! direct per-query oracle [`crate::Query::evaluate_batch_unplanned`]
//! by contract, enforced by the `plan_fusion` property tests and the
//! serve loopback suite, which diff the two.

use std::collections::HashMap;

use crate::context::TileKey;
use crate::query::{ProductSpec, Query};

/// Grid nodes a batch asked for, before dedup/fusion: every cell of
/// every surface-tile query plus one node per non-tile query. Work
/// counter — determined by batch contents alone.
pub static NODES_REQUESTED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_requested");
/// Grid nodes actually evaluated after cross-request dedup and warm
/// cache elision. The fusion goldens assert this stays well under
/// [`struct@NODES_REQUESTED`] on overlapping batches.
pub static NODES_EVALUATED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_evaluated");
/// Fused kernel dispatches issued (one per batch with ≥ 1 cold tile).
pub static FUSED_DISPATCHES: maly_obs::Counter = maly_obs::Counter::work("plan.fused_dispatches");
/// Queries answered by fan-out from an identical batch-mate instead of
/// re-evaluation (diagnostic: depends on request history).
pub static DEDUPED_QUERIES: maly_obs::Counter = maly_obs::Counter::diag("plan.deduped_queries");

/// One unique surface-tile grid node: the cache-grain key plus the
/// exact ranges that materialize it.
#[derive(Debug, Clone)]
pub(crate) struct TileNode {
    /// Cache-grain identity (quantized endpoints, exact step counts).
    pub key: TileKey,
    /// `(λ min, λ max, steps)` of the first query requesting this node.
    pub lambda_range: (f64, f64, usize),
    /// `(N_tr min, N_tr max, steps)` of that query.
    pub n_tr_range: (f64, f64, usize),
}

/// A compiled batch: what to evaluate, and how to scatter it back.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Unique queries in first-occurrence order.
    pub unique: Vec<Query>,
    /// `slots[i]` = index into `unique` answering input query `i`.
    pub slots: Vec<usize>,
    /// Unique surface-tile nodes in first-occurrence order.
    pub tiles: Vec<TileNode>,
    /// Total grid nodes the raw batch asked for.
    pub nodes_requested: u64,
}

/// A bit-exact query identity: variant tag, the product label when one
/// exists, and every numeric field as raw bits. Strictly finer than
/// (or equal to) wire-format identity — two queries sharing a key
/// serialize to the same bytes, but building the key costs integer
/// moves instead of float formatting, which matters because compile
/// overhead is paid by every batch whether or not anything fuses.
fn dedup_key(q: &Query) -> (u8, String, Vec<u64>) {
    fn spec_bits(spec: &ProductSpec, bits: &mut Vec<u64>) {
        bits.extend([
            spec.transistors.to_bits(),
            spec.lambda_um.to_bits(),
            spec.density.to_bits(),
            spec.radius_cm.to_bits(),
            spec.yield0.to_bits(),
            spec.c0.to_bits(),
            spec.x.to_bits(),
        ]);
    }
    let mut bits: Vec<u64> = Vec::with_capacity(10);
    let mut name = String::new();
    let tag = match q {
        Query::Product(spec) => {
            name.push_str(&spec.name);
            spec_bits(spec, &mut bits);
            0
        }
        Query::Table3Row { id } => {
            bits.push(u64::from(*id));
            1
        }
        Query::Table3 => 2,
        Query::Scenario1Sweep {
            x,
            lambda_min,
            lambda_max,
            steps,
        } => {
            bits.extend([
                x.to_bits(),
                lambda_min.to_bits(),
                lambda_max.to_bits(),
                *steps as u64,
            ]);
            3
        }
        Query::Scenario2Sweep {
            x,
            lambda_min,
            lambda_max,
            steps,
        } => {
            bits.extend([
                x.to_bits(),
                lambda_min.to_bits(),
                lambda_max.to_bits(),
                *steps as u64,
            ]);
            4
        }
        Query::SurfaceTile {
            lambda_min,
            lambda_max,
            lambda_steps,
            n_tr_min,
            n_tr_max,
            n_tr_steps,
        } => {
            bits.extend([
                lambda_min.to_bits(),
                lambda_max.to_bits(),
                *lambda_steps as u64,
                n_tr_min.to_bits(),
                n_tr_max.to_bits(),
                *n_tr_steps as u64,
            ]);
            5
        }
        Query::OptimalLambda {
            spec,
            lambda_min,
            lambda_max,
            steps,
        } => {
            name.push_str(&spec.name);
            spec_bits(spec, &mut bits);
            bits.extend([lambda_min.to_bits(), lambda_max.to_bits(), *steps as u64]);
            6
        }
        Query::McYield {
            products,
            volume_each,
            replications,
            jitter,
            seed,
        } => {
            bits.extend([
                *products as u64,
                volume_each.to_bits(),
                *replications as u64,
                jitter.to_bits(),
                *seed,
            ]);
            7
        }
        Query::Roadmap { from, to } => {
            bits.extend([u64::from(*from), u64::from(*to)]);
            8
        }
        Query::ProductMix {
            products,
            volume_each,
            mono_volume,
        } => {
            bits.extend([
                *products as u64,
                volume_each.to_bits(),
                mono_volume.to_bits(),
            ]);
            9
        }
        Query::ServerStats => 10,
        Query::ChipletCost {
            transistors,
            lambda_um,
            chiplets,
            spares,
            volume,
        } => {
            bits.extend([
                transistors.to_bits(),
                lambda_um.to_bits(),
                *chiplets as u64,
                *spares as u64,
                *volume,
            ]);
            11
        }
        Query::ChipletPartitionSweep {
            transistors,
            volume,
            lambda_min,
            lambda_max,
            lambda_steps,
            max_chiplets,
            max_spares,
        } => {
            bits.extend([
                transistors.to_bits(),
                *volume,
                lambda_min.to_bits(),
                lambda_max.to_bits(),
                *lambda_steps as u64,
                *max_chiplets as u64,
                *max_spares as u64,
            ]);
            12
        }
    };
    (tag, name, bits)
}

impl Plan {
    /// Compiles a batch: dedups bit-identical queries (see
    /// [`dedup_key`] — finer than the wire format's equivalence, so
    /// fan-out can never conflate queries that would serialize
    /// differently) and collects the unique tile nodes, all in
    /// first-occurrence order so execution matches a sequential
    /// left-to-right evaluation of the same batch against a shared
    /// context.
    pub(crate) fn compile(queries: &[Query]) -> Self {
        let mut unique: Vec<Query> = Vec::new();
        let mut slots: Vec<usize> = Vec::with_capacity(queries.len());
        // Lookup-only maps (never iterated): result order comes from
        // the `unique`/`tiles` vectors.
        let mut slot_of: HashMap<(u8, String, Vec<u64>), usize> = HashMap::new();
        let mut seen_tiles: HashMap<TileKey, ()> = HashMap::new();
        let mut tiles: Vec<TileNode> = Vec::new();
        let mut nodes_requested: u64 = 0;
        for q in queries {
            nodes_requested += match q.tile_request() {
                Some((l, n)) => (l.2 * n.2) as u64,
                None => 1,
            };
            let key = dedup_key(q);
            let slot = match slot_of.get(&key) {
                Some(&u) => u,
                None => {
                    let u = unique.len();
                    slot_of.insert(key, u);
                    if let Some((lambda_range, n_tr_range)) = q.tile_request() {
                        let key = TileKey::new(lambda_range, n_tr_range);
                        if seen_tiles.insert(key, ()).is_none() {
                            tiles.push(TileNode {
                                key,
                                lambda_range,
                                n_tr_range,
                            });
                        }
                    }
                    unique.push(q.clone());
                    u
                }
            };
            slots.push(slot);
        }
        Self {
            unique,
            slots,
            tiles,
            nodes_requested,
        }
    }

    /// Input queries answered by fan-out rather than evaluation.
    pub(crate) fn duplicate_queries(&self) -> u64 {
        (self.slots.len() - self.unique.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(lo: f64) -> Query {
        Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        }
    }

    #[test]
    fn compile_dedups_queries_and_tile_nodes() {
        let batch = vec![
            tile(0.5),
            Query::Table3,
            tile(0.5),
            // Float noise within the 1 nm key grain: distinct query
            // text, same tile node.
            Query::SurfaceTile {
                lambda_min: 0.5 + 1e-9,
                lambda_max: 1.0,
                lambda_steps: 9,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 24,
            },
            tile(0.625),
        ];
        let plan = Plan::compile(&batch);
        assert_eq!(plan.slots, vec![0, 1, 0, 2, 3]);
        assert_eq!(plan.unique.len(), 4);
        assert_eq!(plan.duplicate_queries(), 1);
        assert_eq!(plan.tiles.len(), 2, "noise-duplicate shares a node");
        assert_eq!(plan.nodes_requested, 4 * 9 * 24 + 1);
        // First-occurrence ranges win, matching a sequential shared-
        // context evaluation where the first requester computes.
        assert_eq!(plan.tiles[0].lambda_range, (0.5, 1.0, 9));
        assert_eq!(plan.tiles[1].lambda_range, (0.625, 1.125, 9));
    }

    #[test]
    fn malformed_tiles_are_single_nodes() {
        let bad = Query::SurfaceTile {
            lambda_min: 1.0,
            lambda_max: 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        let plan = Plan::compile(&[bad]);
        assert_eq!(plan.tiles.len(), 0);
        assert_eq!(plan.nodes_requested, 1);
    }
}

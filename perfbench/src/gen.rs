//! Seeded input generators. Every stream is a pure function of
//! `(seed, connection)`: the program under test only ever sees the
//! bytes generated here.

use maly_model::json::Json;
use maly_model::query::ProductSpec;
use maly_model::Query;
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};

/// Request lines per connection in the `serve_light` pool (cycled).
pub const LIGHT_LINES: usize = 1024;
/// Request lines per connection in the `serve_heavy` pool (cycled).
pub const HEAVY_LINES: usize = 192;
/// Surface-tile windows `serve_heavy` slides over: more than the 64
/// tiles the server's `EvalContext` keeps, so the cache both hits and
/// flushes.
pub const TILE_WINDOWS: usize = 96;
const _: () = assert!(
    TILE_WINDOWS > 64,
    "the window set must outgrow the tile cache"
);
/// Design-space studies in the `repro_studies` pool (cycled).
pub const STUDIES: usize = 24;
/// The three dense surface sizes a study window is drawn from.
pub const SURFACE_SIZES: [(usize, usize); 3] = [(56, 48), (112, 96), (448, 384)];
/// Contour levels marched on every study surface ($ per transistor).
pub const CONTOUR_LEVELS: [f64; 5] = [2.0e-6, 5.0e-6, 1.0e-5, 2.0e-5, 5.0e-5];
/// Monte Carlo replications per study.
pub const MC_REPLICATIONS: usize = 64;

/// What a request line asks for; timings are also reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Product,
    Table3Row,
    ChipletCost,
    TileBatch,
    ChipletSweep,
    MixedBatch,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Product,
        Kind::Table3Row,
        Kind::ChipletCost,
        Kind::TileBatch,
        Kind::ChipletSweep,
        Kind::MixedBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Product => "product",
            Kind::Table3Row => "table3_row",
            Kind::ChipletCost => "chiplet_cost",
            Kind::TileBatch => "tile_batch",
            Kind::ChipletSweep => "chiplet_sweep",
            Kind::MixedBatch => "mixed_batch",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request line (no trailing newline) and its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub text: String,
    pub kind: Kind,
}

/// One `repro_studies` design-space study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Study {
    /// `(λ min, λ max, steps)` of the dense surface window.
    pub lambda: (f64, f64, usize),
    /// `(N_tr min, N_tr max, steps)` of the dense surface window.
    pub n_tr: (f64, f64, usize),
    /// Partition-search system size.
    pub chiplet_transistors: f64,
    /// Partition-search volume.
    pub chiplet_volume: u64,
    /// Products in the Monte Carlo fab.
    pub mc_products: usize,
    /// Monte Carlo base seed.
    pub mc_seed: u64,
}

/// Partition-search grid of every study: 31 λ points × 16 chiplet
/// counts × 4 spare levels.
pub const STUDY_LAMBDA: (f64, f64, usize) = (0.5, 1.2, 31);
pub const STUDY_MAX_CHIPLETS: usize = 16;
pub const STUDY_MAX_SPARES: usize = 3;
/// Wafer starts per product in the Monte Carlo fab.
pub const MC_VOLUME_EACH: f64 = 2_000.0;
/// Volume jitter of the Monte Carlo study.
pub const MC_JITTER: f64 = 0.3;

fn rng_for(seed: u64, stream: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn pick<T: Copy>(rng: &mut Xoshiro256PlusPlus, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize]
}

/// Line ids are unique per connection and position, so every response
/// is attributable.
fn line_id(conn: u64, i: usize) -> f64 {
    (conn * 1_000_000 + i as u64) as f64
}

fn element(id: f64, query: &Query) -> String {
    Json::obj(vec![("id", Json::Num(id)), ("query", query.to_json())]).write()
}

fn single(id: f64, kind: Kind, query: &Query) -> Line {
    Line {
        text: element(id, query),
        kind,
    }
}

fn batch(kind: Kind, elements: &[String]) -> Line {
    Line {
        text: format!("[{}]", elements.join(", ")),
        kind,
    }
}

fn product(rng: &mut Xoshiro256PlusPlus) -> Query {
    Query::Product(ProductSpec {
        name: "bench".to_string(),
        transistors: pick(rng, &[1.0e6, 2.0e6, 3.1e6, 5.0e6]),
        lambda_um: pick(rng, &[0.5, 0.7, 0.8, 1.0]),
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: pick(rng, &[1.4, 2.4]),
    })
}

fn table3_row(rng: &mut Xoshiro256PlusPlus) -> Query {
    Query::Table3Row {
        id: 1 + (rng.next_u64() % 17) as u8,
    }
}

fn chiplet_cost(rng: &mut Xoshiro256PlusPlus) -> Query {
    Query::ChipletCost {
        transistors: pick(rng, &[1.0e6, 2.0e6]),
        lambda_um: pick(rng, &[0.6, 0.8, 1.0]),
        chiplets: 1 + (rng.next_u64() % 6) as usize,
        spares: (rng.next_u64() % 2) as usize,
        volume: pick(rng, &[50_000, 100_000]),
    }
}

/// `serve_light`: small single queries only, in a fixed 4:3:3 mix of
/// `product`, `table3_row` and `chiplet_cost`.
pub fn light(seed: u64, conn: u64) -> Vec<Line> {
    let mut rng = rng_for(seed, conn);
    (0..LIGHT_LINES)
        .map(|i| {
            let id = line_id(conn, i);
            match i % 10 {
                0..=3 => single(id, Kind::Product, &product(&mut rng)),
                4..=6 => single(id, Kind::Table3Row, &table3_row(&mut rng)),
                _ => single(id, Kind::ChipletCost, &chiplet_cost(&mut rng)),
            }
        })
        .collect()
}

/// The sliding-window tile set shared by both `serve_heavy`
/// connections (a function of the seed alone, so the connections can
/// hit each other's tiles). Windows are distinct by their λ start.
pub fn tile_windows(seed: u64) -> Vec<Query> {
    let mut rng = rng_for(seed, u64::MAX - 1);
    (0..TILE_WINDOWS)
        .map(|j| {
            let lambda_min = 0.4 + 0.004 * j as f64;
            let n_tr_min = 5.0e4 * (1 + rng.next_u64() % 8) as f64;
            Query::SurfaceTile {
                lambda_min,
                lambda_max: lambda_min + 0.4 + 0.05 * (rng.next_u64() % 6) as f64,
                lambda_steps: 12 + (rng.next_u64() % 13) as usize,
                n_tr_min,
                n_tr_max: n_tr_min * (8 + rng.next_u64() % 24) as f64,
                n_tr_steps: 12 + (rng.next_u64() % 13) as usize,
            }
        })
        .collect()
}

/// `serve_heavy`: a fixed 2:1:1 cycle of duplicate-heavy tile batches,
/// partition-search singles and mixed batches.
pub fn heavy(seed: u64, conn: u64) -> Vec<Line> {
    let windows = tile_windows(seed);
    let mut rng = rng_for(seed, conn);
    // The connections start half the window set apart and each slides
    // one window per tile batch.
    let mut position = conn as usize * TILE_WINDOWS / 2;
    let window = |position: usize, rng: &mut Xoshiro256PlusPlus, spread: u64| {
        windows[(position + (rng.next_u64() % spread) as usize) % TILE_WINDOWS].clone()
    };
    (0..HEAVY_LINES)
        .map(|i| {
            let id = line_id(conn, i);
            match i % 4 {
                0 | 2 => {
                    position += 1;
                    let head = window(position, &mut rng, 1);
                    let near = window(position, &mut rng, 6);
                    let far = window(position, &mut rng, 12);
                    let queries = [&head, &near, &head, &far];
                    let elements: Vec<String> = queries
                        .iter()
                        .enumerate()
                        .map(|(k, q)| element(id + k as f64 / 10.0, q))
                        .collect();
                    batch(Kind::TileBatch, &elements)
                }
                1 => single(
                    id,
                    Kind::ChipletSweep,
                    &Query::ChipletPartitionSweep {
                        transistors: pick(&mut rng, &[1.0e6, 2.0e6, 3.0e6]),
                        volume: pick(&mut rng, &[50_000, 100_000]),
                        lambda_min: 0.5,
                        lambda_max: 1.2,
                        lambda_steps: 8,
                        max_chiplets: 6,
                        max_spares: 1,
                    },
                ),
                _ => {
                    let p = product(&mut rng);
                    let tile = window(position, &mut rng, 12);
                    let mix = Query::ProductMix {
                        products: 2 + (rng.next_u64() % 6) as usize,
                        volume_each: 1_000.0,
                        mono_volume: 50_000.0,
                    };
                    let elements = [
                        element(id, &p),
                        element(id + 0.1, &tile),
                        element(id + 0.2, &p),
                        element(id + 0.3, &mix),
                    ];
                    batch(Kind::MixedBatch, &elements)
                }
            }
        })
        .collect()
}

/// `repro_studies`: a balanced cycle over the three surface sizes, with
/// seeded windows, partition-search systems and Monte Carlo seeds.
pub fn studies(seed: u64) -> Vec<Study> {
    let mut rng = rng_for(seed, u64::MAX);
    (0..STUDIES)
        .map(|i| {
            let (lambda_steps, n_tr_steps) = SURFACE_SIZES[i % SURFACE_SIZES.len()];
            let lambda_min = 0.35 + 0.01 * (rng.next_u64() % 20) as f64;
            let n_tr_min = 2.0e4 * (1 + rng.next_u64() % 4) as f64;
            Study {
                lambda: (lambda_min, lambda_min + 1.1, lambda_steps),
                n_tr: (n_tr_min, n_tr_min * 200.0, n_tr_steps),
                chiplet_transistors: pick(&mut rng, &[1.0e6, 2.0e6, 4.0e6, 8.0e6]),
                chiplet_volume: pick(&mut rng, &[5_000, 50_000, 500_000]),
                mc_products: 3 + (rng.next_u64() % 4) as usize,
                mc_seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_seed_and_connection() {
        assert_eq!(light(7, 0), light(7, 0));
        assert_eq!(heavy(7, 1), heavy(7, 1));
        assert_eq!(studies(7), studies(7));
        assert_ne!(light(7, 0), light(7, 1), "connections differ");
        assert_ne!(heavy(7, 0), heavy(8, 0), "seeds differ");
        assert_ne!(studies(7), studies(8), "seeds differ");
    }

    #[test]
    fn every_line_is_protocol_json_of_the_declared_shape() {
        for line in light(3, 0).iter().chain(&heavy(3, 1)) {
            let v = maly_model::json::parse(&line.text).expect("valid JSON");
            let batched = matches!(line.kind, Kind::TileBatch | Kind::MixedBatch);
            assert_eq!(matches!(v, Json::Arr(_)), batched, "{}", line.text);
        }
    }

    #[test]
    fn heavy_tile_set_outgrows_the_tile_cache() {
        let windows = tile_windows(11);
        let mut starts: Vec<u64> = windows
            .iter()
            .map(|w| match w {
                Query::SurfaceTile { lambda_min, .. } => (lambda_min * 1.0e3).round() as u64,
                _ => 0,
            })
            .collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), TILE_WINDOWS);
    }

    #[test]
    fn studies_cycle_over_every_surface_size() {
        let pool = studies(5);
        for (i, s) in pool.iter().enumerate() {
            assert_eq!((s.lambda.2, s.n_tr.2), SURFACE_SIZES[i % 3]);
        }
        assert_eq!(
            STUDY_LAMBDA.2 * STUDY_MAX_CHIPLETS * (STUDY_MAX_SPARES + 1),
            31 * 16 * 4
        );
    }
}

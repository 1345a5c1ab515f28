//! Reproduction harness: regenerates every table and figure of
//! Maly, DAC 1994.
//!
//! Each experiment lives in [`experiments`] as a function returning an
//! [`ExperimentReport`]; the `fig1`…`fig8`, `table1`…`table3`,
//! `product_mix` and `mcm_kgd` binaries print one report each, and the
//! `all` binary concatenates everything into the EXPERIMENTS.md format.
//!
//! Reports deliberately interleave *paper-reported* values with
//! *measured* values so the fidelity of the reproduction is visible line
//! by line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

/// A rendered experiment: identifier, title, and markdown body.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Short identifier (`"fig6"`, `"table3"`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Markdown body (tables, fenced ASCII plots, commentary).
    pub body: String,
}

impl ExperimentReport {
    /// Renders the report as a standalone markdown section.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        format!("## {} — {}\n\n{}\n", self.id, self.title, self.body)
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Every experiment in paper order.
///
/// The reports are generated concurrently on the ambient
/// [`maly_par::Executor`] (`MALY_PAR_THREADS`); results come back in
/// paper order regardless of which thread finished first, and the
/// shared setup in [`maly_model::context`] is derived exactly once however the
/// experiments interleave.
#[must_use]
pub fn all_experiments() -> Vec<ExperimentReport> {
    type Experiment = (&'static str, fn() -> ExperimentReport);
    const EXPERIMENTS: [Experiment; 17] = [
        ("repro.fig1", experiments::fig1::report),
        ("repro.fig2", experiments::fig2::report),
        ("repro.fig3", experiments::fig3::report),
        ("repro.fig4", experiments::fig4::report),
        ("repro.fig5", experiments::fig5::report),
        ("repro.table1", experiments::table1::report),
        ("repro.table2", experiments::table2::report),
        ("repro.fig6", experiments::fig6::report),
        ("repro.fig7", experiments::fig7::report),
        ("repro.fig8", experiments::fig8::report),
        ("repro.table3", experiments::table3::report),
        ("repro.product_mix", experiments::product_mix::report),
        ("repro.mcm_kgd", experiments::mcm_kgd::report),
        ("repro.chiplet", experiments::chiplet::report),
        ("repro.roadmap", experiments::roadmap::report),
        ("repro.system_opt", experiments::system_opt::report),
        ("repro.ablation", experiments::ablation::report),
    ];
    // One span per experiment, all under a single `repro.all` root.
    // When the map goes parallel, each worker's chunk span carries the
    // parent link, so experiment spans nest correctly across threads.
    let all_span = maly_obs::span("repro.all");
    let all_id = all_span.id();
    maly_par::Executor::from_env().map(&EXPERIMENTS, |(name, report)| {
        let _span = maly_obs::span_child(name, maly_obs::current_span().or(all_id));
        report()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_render_nonempty_reports() {
        let reports = all_experiments();
        assert_eq!(reports.len(), 17);
        for r in &reports {
            assert!(!r.body.trim().is_empty(), "{} is empty", r.id);
            assert!(r.to_markdown().starts_with("## "));
        }
    }

    #[test]
    fn experiment_ids_are_unique() {
        let reports = all_experiments();
        let mut ids: Vec<&str> = reports.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reports.len());
    }
}

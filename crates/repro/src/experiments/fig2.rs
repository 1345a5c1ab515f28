//! Fig 2 — fab-line and wafer cost growth; extraction of X.

use maly_tech_trend::datasets;
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::ExperimentReport;
use maly_model::context;

/// Regenerates Fig 2: exponential fab cost growth and the wafer-cost
/// escalation factor `X` the paper extracts from it (quoted band:
/// 1.2–1.4).
#[must_use]
pub fn report() -> ExperimentReport {
    let fab = datasets::FAB_COST_BY_YEAR;
    let fab_trend = context::shared().fab_cost_trend;
    let doubling = 2.0f64.ln() / fab_trend.rate();

    let fab_plot = LinePlot::new("Fig 2a: cost of a new fab line vs year")
        .with_series("fab cost [M$]", fab)
        .log_y()
        .with_labels("year", "M$")
        .render(72, 18);

    let wafer = datasets::WAFER_COST_BY_GENERATION;
    let escalation = context::shared().wafer_cost_escalation;

    let wafer_plot = LinePlot::new("Fig 2b: wafer cost vs technology node")
        .with_series("wafer cost [$]", wafer)
        .log_y()
        .with_labels("λ [µm]", "$")
        .render(72, 18);

    let mut table = TextTable::new(vec!["quantity", "paper", "measured"]);
    table.align(1, Alignment::Right);
    table.align(2, Alignment::Right);
    table.row(vec![
        "fab cost ~1994 [M$]".into(),
        "≈1000 (\"1 billion dollars per fabline\")".into(),
        format!("{:.0}", fab_trend.predict(1995.0)),
    ]);
    table.row(vec![
        "X extracted from Fig 2".into(),
        "1.2 – 1.4".into(),
        format!("{:.3}", escalation.x_factor),
    ]);
    table.row(vec![
        "C₀ (1 µm wafer) [$]".into(),
        "500 – 800".into(),
        format!("{:.0}", escalation.c0),
    ]);

    let body = format!(
        "```text\n{fab_plot}\n```\n\n```text\n{wafer_plot}\n```\n\n{}\n\n\
         Fab cost doubles every {:.1} years (R² = {:.3}); the wafer-cost \
         series linearizes under `C_w = C₀·X^{{5(1−λ)}}` with \
         X = {:.3} (R² = {:.3}) — inside the paper's 1.2–1.4 band.\n",
        table.render(),
        doubling,
        fab_trend.r_squared(),
        escalation.x_factor,
        escalation.r_squared,
    );
    ExperimentReport {
        id: "fig2",
        title: "Fab line and wafer cost growth",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracted_x_lands_in_paper_band() {
        let r = report();
        assert!(r.body.contains("inside the paper's 1.2–1.4 band"));
        let escalation = context::shared().wafer_cost_escalation;
        assert!(escalation.x_factor > 1.2 && escalation.x_factor < 1.4);
        assert!((500.0..=800.0).contains(&escalation.c0));
    }
}

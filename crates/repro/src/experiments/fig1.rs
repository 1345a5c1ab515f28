//! Fig 1 — minimum feature size vs year.

use maly_tech_trend::datasets;
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::ExperimentReport;
use maly_model::context;

/// Regenerates Fig 1: the exponential feature-size shrink.
#[must_use]
pub fn report() -> ExperimentReport {
    let data = datasets::FEATURE_SIZE_BY_YEAR;
    let trend = context::shared().feature_trend;
    let halving_years = -(2.0f64.ln()) / trend.rate();

    let plot = LinePlot::new("Fig 1: minimum feature size vs year")
        .with_series("feature size [µm]", data)
        .log_y()
        .with_labels("year", "µm")
        .render(72, 20);

    let mut table = TextTable::new(vec!["year", "node [µm]", "trend fit [µm]"]);
    table.align(1, Alignment::Right);
    table.align(2, Alignment::Right);
    for (year, node) in data {
        table.row(vec![
            format!("{year:.0}"),
            format!("{node}"),
            format!("{:.2}", trend.predict(*year)),
        ]);
    }

    let body = format!(
        "The paper's Fig 1 shows the feature size falling exponentially \
         from 10 µm (1971) toward 0.25 µm (late 1990s).\n\n```text\n{plot}\n```\n\n\
         {}\n\nFitted exponential: rate {:.4}/year (R² = {:.4}), i.e. the \
         feature size halves every {:.1} years — the classic node cadence.\n",
        table.render(),
        trend.rate(),
        trend.r_squared(),
        halving_years,
    );
    ExperimentReport {
        id: "fig1",
        title: "Minimum feature size trend",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_trend_and_halving_time() {
        let r = report();
        assert!(r.body.contains("halves every"));
        assert!(r.body.contains("Fig 1"));
        // The fitted halving time should be quoted between 4 and 8 years.
        let trend = context::shared().feature_trend;
        let halving = -(2.0f64.ln()) / trend.rate();
        assert!(halving > 4.0 && halving < 8.0);
    }
}

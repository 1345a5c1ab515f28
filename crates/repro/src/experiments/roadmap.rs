//! Calendar projection: when does the transistor-cost decline end?
//!
//! An extension experiment (not a printed figure): composes the Fig 1
//! node cadence with Scenarios #1 and #2 to restate the paper's warning
//! on the calendar axis — "there are some indications that the cost per
//! transistor may no longer decrease."

use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::ExperimentReport;
use maly_model::context;

/// Projects both scenarios over 1986–2002.
#[must_use]
pub fn report() -> ExperimentReport {
    let roadmap = &context::shared().roadmap;
    let points = roadmap
        .project(1986, 2002)
        .expect("projection window valid");

    let optimistic: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.year, p.optimistic.to_micro_dollars().value()))
        .collect();
    let realistic: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.year, p.realistic.to_micro_dollars().value()))
        .collect();

    let plot = LinePlot::new("cost per transistor vs calendar year")
        .with_series("Scenario #1 (X=1.2)", &optimistic)
        .with_series("Scenario #2 (X=2.0)", &realistic)
        .with_labels("year", "µ$/tr")
        .log_y()
        .render(76, 22);

    let turning = roadmap
        .realistic_turning_year(1986, 2002)
        .expect("projection window valid");

    let mut table = TextTable::new(vec![
        "year",
        "λ [µm]",
        "Scenario #1 [µ$]",
        "Scenario #2 [µ$]",
    ]);
    for col in 1..4 {
        table.align(col, Alignment::Right);
    }
    for p in points.iter().step_by(2) {
        table.row(vec![
            format!("{:.0}", p.year),
            format!("{:.2}", p.lambda.value()),
            format!("{:.3}", p.optimistic.to_micro_dollars().value()),
            format!("{:.2}", p.realistic.to_micro_dollars().value()),
        ]);
    }

    let turning_text = turning.map_or_else(
        || "no turning point inside the window".to_string(),
        |year| {
            if year == 1986 {
                "the realistic cost rises from the very first projected \
                 year: at X = 2.0 the historical decline is *already over* \
                 for Scenario #2 products — the strongest possible form of \
                 the paper's warning"
                    .to_string()
            } else {
                format!(
                    "the realistic cost bottoms out around **{year}** and \
                     rises afterwards — riding the cadence past that point \
                     destroys value for Scenario #2 products"
                )
            }
        },
    );

    let body = format!(
        "```text\n{plot}\n```\n\n{}\n\nOn the calendar axis {turning_text}. \
         Scenario #1 keeps falling throughout — the industry's memory-fed \
         intuition — which is precisely why the paper warns against \
         extrapolating it to redundancy-free products.\n",
        table.render()
    );
    ExperimentReport {
        id: "roadmap",
        title: "Cost per transistor vs calendar year (extension)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_has_a_turning_year() {
        let roadmap = &context::shared().roadmap;
        let turning = roadmap.realistic_turning_year(1986, 2002).unwrap();
        // At X = 2.0 the decline is over before the window even starts.
        assert_eq!(turning, Some(1986));
        assert!(report().body.contains("already over"));
    }
}

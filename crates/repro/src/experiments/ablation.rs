//! Ablation study: which modeling choices carry the Table 3 results?
//!
//! DESIGN.md calls out three choices worth stress-testing:
//!
//! 1. the **eq. (3) exponent calibration** (`k = 5 /µm` vs the printed
//!    `0.5`),
//! 2. the **dies-per-wafer model** (eq. 4 vs exact raster vs closed
//!    forms),
//! 3. the **yield statistics** (the `Y₀^A` convention vs a clustered
//!    negative-binomial model of equal 1 cm² yield).
//!
//! The ablation recomputes Table 3's mean |error| against the printed
//! costs under each variant. The calibration is the only choice that
//! matters at the order-of-magnitude level — exactly what a model whose
//! parameters were *measured* (not fitted row by row) should look like.

use maly_cost_model::product::ProductScenario;
use maly_cost_model::{DiesPerWaferMethod, TransistorCostModel, WaferCostModel};
use maly_paper_data::table3;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_viz::table::{Alignment, TextTable};
use maly_yield_model::NegativeBinomialYield;

use crate::ExperimentReport;

/// Mean relative error of Table 3 under a scenario transformation.
fn mean_error(build: impl Fn(&table3::Table3Row) -> Option<f64>) -> f64 {
    let rows = &maly_model::context::shared().table3_rows;
    let mut total = 0.0;
    let mut count = 0usize;
    for row in rows {
        if let Some(measured) = build(row) {
            total += (measured - row.paper_cost_micro_dollars).abs() / row.paper_cost_micro_dollars;
            count += 1;
        }
    }
    total / count.max(1) as f64
}

fn baseline_scenario(row: &table3::Table3Row) -> ProductScenario {
    row.scenario().expect("printed inputs valid")
}

fn with_method(row: &table3::Table3Row, method: DiesPerWaferMethod) -> Option<f64> {
    let scenario = ProductScenario::builder(row.name)
        .transistors(TransistorCount::new(row.transistors).ok()?)
        .feature_size(Microns::new(row.feature_size_um).ok()?)
        .design_density(DesignDensity::new(row.design_density).ok()?)
        .wafer_radius(Centimeters::new(row.wafer_radius_cm).ok()?)
        .reference_yield(Probability::new(row.reference_yield).ok()?)
        .reference_wafer_cost(Dollars::new(row.reference_cost).ok()?)
        .cost_escalation(row.escalation)
        .ok()?
        .dies_per_wafer_method(method)
        .build()
        .ok()?;
    Some(
        scenario
            .evaluate()
            .ok()?
            .cost_per_transistor
            .to_micro_dollars()
            .value(),
    )
}

fn with_generation_rate(row: &table3::Table3Row, k: f64) -> Option<f64> {
    let scenario = ProductScenario::builder(row.name)
        .transistors(TransistorCount::new(row.transistors).ok()?)
        .feature_size(Microns::new(row.feature_size_um).ok()?)
        .design_density(DesignDensity::new(row.design_density).ok()?)
        .wafer_radius(Centimeters::new(row.wafer_radius_cm).ok()?)
        .reference_yield(Probability::new(row.reference_yield).ok()?)
        .reference_wafer_cost(Dollars::new(row.reference_cost).ok()?)
        .cost_escalation(row.escalation)
        .ok()?
        .generation_rate(k)
        .build()
        .ok()?;
    Some(
        scenario
            .evaluate()
            .ok()?
            .cost_per_transistor
            .to_micro_dollars()
            .value(),
    )
}

/// Swaps the yield statistics: a negative-binomial model with clustering
/// `α`, calibrated to the same 1 cm² yield as the row's `Y₀`.
fn with_clustered_yield(row: &table3::Table3Row, alpha: f64) -> Option<f64> {
    let scenario = baseline_scenario(row);
    // Calibrate D so that (1 + D/α)^(−α) = Y₀ at 1 cm².
    let y0 = row.reference_yield;
    let d = alpha * (y0.powf(-1.0 / alpha) - 1.0);
    let nb = NegativeBinomialYield::new(maly_units::DefectDensity::new(d).ok()?, alpha).ok()?;
    let model = TransistorCostModel::new(
        *scenario.wafer(),
        scenario
            .wafer_cost_model()
            .wafer_cost(Microns::new(row.feature_size_um).ok()?),
        nb,
    );
    Some(
        model
            .evaluate(scenario.die(), scenario.transistors())
            .ok()?
            .cost_per_transistor
            .to_micro_dollars()
            .value(),
    )
}

/// Runs the ablation.
#[must_use]
pub fn report() -> ExperimentReport {
    let baseline = mean_error(|row| {
        Some(
            baseline_scenario(row)
                .evaluate()
                .ok()?
                .cost_per_transistor
                .to_micro_dollars()
                .value(),
        )
    });

    let mut table = TextTable::new(vec!["variant", "mean |error| vs printed Table 3"]);
    table.align(1, Alignment::Right);
    table.row(vec![
        "baseline (calibrated model)".into(),
        format!("{:.2}%", baseline * 100.0),
    ]);
    table.row(vec![
        "eq. (3) exponent as printed (k = 0.5)".into(),
        format!(
            "{:.0}%",
            mean_error(|r| with_generation_rate(r, WaferCostModel::AS_PRINTED_GENERATION_RATE))
                * 100.0
        ),
    ]);
    table.row(vec![
        "dies/wafer: exact raster grid".into(),
        format!(
            "{:.1}%",
            mean_error(|r| with_method(r, DiesPerWaferMethod::Raster { offset_steps: 8 })) * 100.0
        ),
    ]);
    table.row(vec![
        "dies/wafer: edge-corrected closed form".into(),
        format!(
            "{:.1}%",
            mean_error(|r| with_method(r, DiesPerWaferMethod::EdgeCorrected)) * 100.0
        ),
    ]);
    table.row(vec![
        "yield: negative binomial, α = 2".into(),
        format!(
            "{:.1}%",
            mean_error(|r| with_clustered_yield(r, 2.0)) * 100.0
        ),
    ]);
    table.row(vec![
        "yield: negative binomial, α = 0.5".into(),
        format!(
            "{:.1}%",
            mean_error(|r| with_clustered_yield(r, 0.5)) * 100.0
        ),
    ]);

    let body = format!(
        "{}\n\nReading: the exponent calibration is load-bearing (the \
         as-printed 0.5 is off by an order of magnitude on sub-micron \
         rows); the dies-per-wafer model moves results by a few percent; \
         clustered yield statistics help big dies moderately (clustering \
         wastes fewer dies) but do not disturb the paper's conclusions. \
         The cost-diversity and Scenario-#2 claims are robust to every \
         choice except the calibration itself.\n",
        table.render()
    );
    ExperimentReport {
        id: "ablation",
        title: "Sensitivity of Table 3 to modeling choices",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_beats_every_ablation() {
        let baseline = mean_error(|row| {
            Some(
                baseline_scenario(row)
                    .evaluate()
                    .ok()?
                    .cost_per_transistor
                    .to_micro_dollars()
                    .value(),
            )
        });
        assert!(baseline < 0.01, "baseline {baseline}");
        let printed_exponent =
            mean_error(|r| with_generation_rate(r, WaferCostModel::AS_PRINTED_GENERATION_RATE));
        assert!(
            printed_exponent > 0.3,
            "printed exponent {printed_exponent}"
        );
        let raster = mean_error(|r| with_method(r, DiesPerWaferMethod::Raster { offset_steps: 8 }));
        assert!(raster < 0.06, "raster {raster}");
        let clustered = mean_error(|r| with_clustered_yield(r, 2.0));
        assert!(clustered < 0.35, "clustered {clustered}");
        assert!(baseline < raster && baseline < clustered);
    }

    #[test]
    fn clustered_yield_calibration_matches_y0_at_reference() {
        // The NB calibration must reproduce Y₀ exactly at 1 cm².
        use maly_yield_model::YieldModel;
        let alpha = 2.0;
        let y0: f64 = 0.7;
        let d = alpha * (y0.powf(-1.0 / alpha) - 1.0);
        let nb =
            NegativeBinomialYield::new(maly_units::DefectDensity::new(d).unwrap(), alpha).unwrap();
        let y = nb
            .die_yield(maly_units::SquareCentimeters::new(1.0).unwrap())
            .value();
        assert!((y - y0).abs() < 1e-12);
    }
}

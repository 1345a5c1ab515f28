//! Fig 7 — Scenario #2: transistor cost *rises* with shrink.

use maly_cost_model::scenario::Scenario2;
use maly_paper_data::figures;
use maly_units::Microns;
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::ExperimentReport;

/// Regenerates Fig 7: `C_tr(λ)` for X = 1.8–2.4 under the realistic
/// custom-logic scenario (eq. 9, no redundancy, growing dies).
#[must_use]
pub fn report() -> ExperimentReport {
    let params = figures::fig7();
    let (lo, hi) = params.lambda_range;
    let lo_um = Microns::new(lo).expect("positive");
    let hi_um = Microns::new(hi).expect("positive");

    let mut plot = LinePlot::new("Fig 7: cost per transistor, Scenario #2 (eq. 9)")
        .with_labels("λ [µm]", "µ$/tr")
        .log_y();
    let mut table = TextTable::new(vec![
        "X",
        "C_tr(0.8) [µ$]",
        "C_tr(0.25) [µ$]",
        "penalty",
        "die yield @0.25",
    ]);
    for col in 1..5 {
        table.align(col, Alignment::Right);
    }

    for &x in &params.x_values {
        let s2 = Scenario2::fig7(x).expect("printed X is valid");
        let series: Vec<(f64, f64)> = s2
            .sweep(lo_um, hi_um, 40)
            .expect("printed λ range is ascending")
            .into_iter()
            .map(|(l, c)| (l, c.to_micro_dollars().value()))
            .collect();
        plot = plot.with_series(format!("X={x}"), &series);
        // Eq. (9) in µ$ and the die yield at a printed node.
        let at = |node: f64| {
            Microns::new(node)
                .and_then(|l| {
                    let cost = s2.cost_per_transistor(l)?.to_micro_dollars().value();
                    Ok((cost, s2.die_yield(l)?))
                })
                .expect("printed nodes lie inside the trend's domain")
        };
        let (at_08, _) = at(0.8);
        let (at_quarter, y) = at(0.25);
        table.row(vec![
            format!("{x}"),
            format!("{at_08:.2}"),
            format!("{at_quarter:.2}"),
            format!("{:.2}×", at_quarter / at_08),
            format!("{:.1}%", y.as_percent()),
        ]);
    }

    let body = format!(
        "```text\n{}\n```\n\n{}\n\nShape check (paper): *\"A decrease in the \
         feature size causes an increase in the transistor cost!\"* — every \
         curve rises toward small λ; the driver is the yield collapse of \
         the growing, redundancy-free die (`Y₀^{{A_ch(λ)}}`) compounded by \
         X ≥ 1.8 wafer-cost escalation.\n",
        plot.render(76, 22),
        table.render()
    );
    ExperimentReport {
        id: "fig7",
        title: "Scenario #2 cost trend (custom logic, X = 1.8–2.4)",
        body,
    }
}

/// The Fig 7 series as CSV (`lambda_um, ctr_x1.8 … ctr_x2.4` in µ$).
#[must_use]
pub fn series_csv() -> String {
    let params = figures::fig7();
    let (lo, hi) = params.lambda_range;
    let scenarios: Vec<Scenario2> = params
        .x_values
        .iter()
        .map(|&x| Scenario2::fig7(x).expect("printed X valid"))
        .collect();
    let steps = 40;
    let rows: Vec<Vec<String>> = (0..steps)
        .map(|i| {
            let l = lo + (hi - lo) * f64::from(i) / f64::from(steps - 1);
            let costs = Microns::new(l)
                .and_then(|lambda| {
                    scenarios
                        .iter()
                        .map(|s| {
                            Ok(format!(
                                "{}",
                                s.cost_per_transistor(lambda)?.to_micro_dollars().value()
                            ))
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .expect("the printed sweep lies inside the trend's domain");
            std::iter::once(format!("{l}")).chain(costs).collect()
        })
        .collect();
    maly_viz::csv::to_csv(
        &["lambda_um", "ctr_x1.8", "ctr_x2.0", "ctr_x2.2", "ctr_x2.4"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_well_formed_and_rising_toward_small_lambda() {
        let csv = series_csv();
        assert_eq!(csv.lines().count(), 41);
        let first_data: Vec<f64> = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .map(|c| c.parse().unwrap())
            .collect();
        let last_data: Vec<f64> = csv
            .lines()
            .last()
            .unwrap()
            .split(',')
            .map(|c| c.parse().unwrap())
            .collect();
        // First row is the smallest λ: every X column is costlier there.
        for k in 1..first_data.len() {
            assert!(first_data[k] > last_data[k]);
        }
    }

    #[test]
    fn every_curve_rises_toward_small_lambda() {
        for x in figures::fig7().x_values {
            let s2 = Scenario2::fig7(x).unwrap();
            let cost = |l: f64| {
                s2.cost_per_transistor(Microns::new(l).unwrap())
                    .unwrap()
                    .value()
            };
            let penalty = cost(0.25) / cost(0.8);
            assert!(penalty > 2.0, "X={x}: penalty {penalty}");
        }
        assert!(report().body.contains("increase in the transistor cost"));
    }
}

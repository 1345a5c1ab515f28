//! Fig 3 — die size growth and the `A_ch(λ)` fit.

use maly_tech_trend::datasets;
use maly_units::Microns;
use maly_viz::lineplot::LinePlot;
use maly_viz::table::{Alignment, TextTable};

use crate::experiments::rel_err_percent;
use crate::ExperimentReport;
use maly_model::context;

/// Regenerates Fig 3 and re-extracts the `A_ch(λ) = 16.5·e^{−5.3λ}` fit
/// that eq. (9) consumes.
#[must_use]
pub fn report() -> ExperimentReport {
    let by_year = datasets::DIE_SIZE_BY_YEAR;
    let fitted = context::shared().die_size_fit;
    let paper = context::shared().die_size_paper;

    let plot = LinePlot::new("Fig 3: die size vs year")
        .with_series("die area [cm²]", by_year)
        .log_y()
        .with_labels("year", "cm²")
        .render(72, 18);

    let mut table = TextTable::new(vec!["coefficient", "paper", "refit", "error"]);
    for col in 1..4 {
        table.align(col, Alignment::Right);
    }
    table.row(vec![
        "amplitude a [cm²]".into(),
        "16.5".into(),
        format!("{:.2}", fitted.amplitude_cm2()),
        rel_err_percent(fitted.amplitude_cm2(), 16.5),
    ]);
    table.row(vec![
        "rate b [1/µm]".into(),
        "−5.3".into(),
        format!("{:.2}", fitted.rate_per_um()),
        rel_err_percent(fitted.rate_per_um(), -5.3),
    ]);
    for node in [0.8, 0.5, 0.25] {
        let (a_paper, a_fitted) = Microns::new(node)
            .and_then(|lam| Ok((paper.area_at(lam)?.value(), fitted.area_at(lam)?.value())))
            .expect("printed nodes lie inside the trend's domain");
        table.row(vec![
            format!("A_ch({node}) [cm²]"),
            format!("{a_paper:.3}"),
            format!("{a_fitted:.3}"),
            rel_err_percent(a_fitted, a_paper),
        ]);
    }

    let body = format!(
        "```text\n{plot}\n```\n\nRe-extracting the exponential from the \
         die-size-vs-node data recovers the paper's eq. (9) coefficients:\n\n{}\n",
        table.render()
    );
    ExperimentReport {
        id: "fig3",
        title: "Die size trend and the A_ch(λ) fit",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_recovers_paper_coefficients() {
        let fitted = context::shared().die_size_fit;
        assert!((fitted.amplitude_cm2() - 16.5).abs() < 1.0);
        assert!((fitted.rate_per_um() + 5.3).abs() < 0.15);
        assert!(report().body.contains("16.5"));
    }
}

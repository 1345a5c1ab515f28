//! Table 3 — the cost diversity study (the reproduction's anchor).

use maly_paper_data::table3::CountProvenance;
use maly_viz::barchart::BarChart;
use maly_viz::table::{Alignment, TextTable};

use crate::experiments::rel_err_percent;
use crate::ExperimentReport;
use maly_model::context;

/// Regenerates all 17 rows of Table 3 and compares with the printed
/// costs.
#[must_use]
pub fn report() -> ExperimentReport {
    let mut table = TextTable::new(vec![
        "#",
        "IC type",
        "N_tr",
        "λ",
        "d_d",
        "R_w",
        "Y0",
        "C0",
        "X",
        "N_ch",
        "Y",
        "paper [µ$]",
        "model [µ$]",
        "error",
    ]);
    for col in 2..14 {
        table.align(col, Alignment::Right);
    }

    let mut worst_printed: f64 = 0.0;
    for row in &context::shared().table3_rows {
        let breakdown = row
            .scenario()
            .expect("printed inputs are valid")
            .evaluate()
            .expect("printed products are manufacturable");
        let measured = breakdown.cost_per_transistor.to_micro_dollars().value();
        let rel = (measured - row.paper_cost_micro_dollars).abs() / row.paper_cost_micro_dollars;
        if row.count_provenance == CountProvenance::Printed {
            worst_printed = worst_printed.max(rel);
        }
        let n_tr_label = if row.transistors >= 1.0e6 {
            format!("{:.2}M", row.transistors / 1.0e6)
        } else {
            format!("{:.0}k", row.transistors / 1.0e3)
        };
        let provenance = match row.count_provenance {
            CountProvenance::Printed => "",
            CountProvenance::Inferred => "*",
        };
        table.row(vec![
            format!("{}", row.id),
            row.name.to_string(),
            format!("{n_tr_label}{provenance}"),
            format!("{}", row.feature_size_um),
            format!("{:.0}", row.design_density),
            format!("{}", row.wafer_radius_cm),
            format!("{:.1}", row.reference_yield),
            format!("{:.0}", row.reference_cost),
            format!("{}", row.escalation),
            format!("{}", breakdown.dies_per_wafer.value()),
            format!("{:.3}", breakdown.die_yield.value()),
            format!("{:.2}", row.paper_cost_micro_dollars),
            format!("{measured:.2}"),
            rel_err_percent(measured, row.paper_cost_micro_dollars),
        ]);
    }

    let mut chart = BarChart::new("cost diversity (µ$/transistor, log scale)").log_scale();
    for row in &context::shared().table3_rows {
        let measured = row
            .scenario()
            .expect("printed inputs valid")
            .evaluate()
            .expect("printed products manufacturable")
            .cost_per_transistor
            .to_micro_dollars()
            .value();
        chart = chart.with_bar(format!("{:>2} {}", row.id, row.name), measured);
    }

    let body = format!(
        "{}\n\n```text\n{}\n```\n\n`*` — transistor count illegible in the scan, back-solved \
         from the printed cost (rows 4 and 16; see DESIGN.md).\n\n\
         Worst relative error over the fully printed rows: {:.2}%. The \
         model is eqs (1) + (3) [calibrated exponent 5(1−λ)] + (4) + the \
         `Y₀^{{A}}` yield convention — no per-row tuning.\n\n\
         Headline conclusions carried by the table:\n\
         * memory transistors (rows 11–14, 0.93–2.18 µ$) are 10–50× \
           cheaper than logic transistors — \"any discussion based on the \
           memory cost data should not be extrapolated onto other types \
           of ICs\";\n\
         * design/manufacturing choices swing cost by 258× end to end \
           (row 11 vs row 17).\n",
        table.render(),
        chart.render(76),
        worst_printed * 100.0
    );
    ExperimentReport {
        id: "table3",
        title: "Cost per transistor — 17 product scenarios",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_includes_all_rows_and_tight_errors() {
        let r = report();
        for id in 1..=17 {
            assert!(
                r.body
                    .lines()
                    .any(|l| l.trim_start().starts_with(&format!("{id} "))),
                "row {id} missing"
            );
        }
        assert!(r.body.contains("Worst relative error"));
    }
}

//! Technology trend datasets and trend fitting (Figs 1–4 of the paper).
//!
//! Section II of the paper sets its stage with four empirical trends:
//!
//! * **Fig 1** — minimum feature size shrinking exponentially with time,
//! * **Fig 2** — fab-line and wafer cost growing exponentially with time,
//! * **Fig 3** — die size growing as features shrink
//!   (`A_ch(λ) = 16.5·e^{−5.3λ}` cm², the fit eq. (9) consumes),
//! * **Fig 4** — process step counts growing and required defect
//!   densities collapsing across generations.
//!
//! This crate carries representative historical series for each trend
//! ([`datasets`]), least-squares trend fitting on log scales ([`fit`]) and
//! the die-size trend model ([`diesize`]). The fit machinery also extracts the
//! paper's `X` (wafer-cost escalation per generation) from cost-vs-node
//! data, reproducing the "1.2–1.4 from Fig 2" observation.
//!
//! # Examples
//!
//! ```
//! use maly_tech_trend::{datasets, fit};
//!
//! // Fig 1: feature size shrinks exponentially — fit the decay rate.
//! let trend = fit::fit_exponential(datasets::FEATURE_SIZE_BY_YEAR).unwrap();
//! assert!(trend.rate() < 0.0); // shrinking
//! assert!(trend.r_squared() > 0.98); // cleanly exponential
//! // Halving time of roughly 5–6 years.
//! let halving = -(2.0f64.ln()) / trend.rate();
//! assert!(halving > 4.0 && halving < 8.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod diesize;
pub mod fit;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_fab_cost_grows_exponentially() {
        let trend = fit::fit_exponential(datasets::FAB_COST_BY_YEAR).unwrap();
        assert!(trend.rate() > 0.0);
        assert!(trend.r_squared() > 0.97);
        // Doubling time around 3–5 years (the "billion-dollar fab" engine).
        let doubling = 2.0f64.ln() / trend.rate();
        assert!(doubling > 2.0 && doubling < 6.0, "doubling {doubling}");
    }

    #[test]
    fn fig2_extracted_x_is_in_paper_band() {
        // "Value of X extracted from the data presented in Fig. 2 is
        // between 1.2 − 1.4."
        let x = fit::extract_cost_escalation(datasets::WAFER_COST_BY_GENERATION).unwrap();
        assert!(
            x.x_factor > 1.2 && x.x_factor < 1.4,
            "extracted X = {}",
            x.x_factor
        );
    }
}

//! Process flows: per-product step sequences.

use crate::equipment::ToolFamily;

/// One manufacturing step: which tool family it runs on.
///
/// Step *duration* comes from the tool's throughput, so the step itself
/// only carries routing information. It has no label: nothing read one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessStep {
    /// Tool family the step occupies.
    pub family: ToolFamily,
}

/// A product's full step sequence and its step count per family.
///
/// Lots route through the ordered steps; fab sizing and pricing read only
/// the counts, so [`steps_on`](Self::steps_on) is O(1), not a scan.
///
/// # Examples
///
/// ```
/// use maly_fabline_sim::process::ProcessFlow;
///
/// let coarse = ProcessFlow::for_generation("cmos-1.0", 1.0);
/// let fine = ProcessFlow::for_generation("cmos-0.35", 0.35);
/// // Fig 4: step counts grow as features shrink.
/// assert!(fine.step_count() > coarse.step_count());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessFlow {
    name: String,
    steps: Vec<ProcessStep>,
    /// In `ToolFamily::ALL` order, which is declaration order.
    per_family: [usize; ToolFamily::ALL.len()],
}

impl ProcessFlow {
    /// Creates a flow from explicit steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty — a product with no steps is not a
    /// product.
    #[must_use]
    pub fn new(name: impl Into<String>, steps: Vec<ProcessStep>) -> Self {
        assert!(!steps.is_empty(), "a process flow needs at least one step");
        let per_family = ToolFamily::ALL.map(|f| steps.iter().filter(|s| s.family == f).count());
        Self {
            name: name.into(),
            steps,
            per_family,
        }
    }

    /// Synthesizes a CMOS-like flow for a technology generation.
    ///
    /// The total step count follows the Fig 4 trend
    /// (≈ `230·λ^{−0.55}`, matching the dataset in `maly-tech-trend`:
    /// ~230 steps at 1 µm rising to ~500 at 0.25 µm), split over tool
    /// families in fixed, typical shares.
    #[must_use]
    pub fn for_generation(name: impl Into<String>, lambda_um: f64) -> Self {
        assert!(
            lambda_um.is_finite() && lambda_um > 0.0,
            "feature size must be positive, got {lambda_um}"
        );
        let total = (230.0 * lambda_um.powf(-0.55)).round() as usize;
        // Shares in `ToolFamily::ALL` order, summing to 1.
        let shares = [0.18, 0.16, 0.10, 0.18, 0.14, 0.09, 0.15];
        let mut steps = Vec::with_capacity(total);
        for (family, share) in ToolFamily::ALL.into_iter().zip(shares) {
            let count = ((total as f64) * share).round().max(1.0) as usize;
            steps.extend(std::iter::repeat_n(ProcessStep { family }, count));
        }
        Self::new(name, steps)
    }

    /// Flow name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered steps.
    #[must_use]
    pub fn steps(&self) -> &[ProcessStep] {
        &self.steps
    }

    /// Total step count.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of steps routed to a given family, in O(1).
    #[must_use]
    pub fn steps_on(&self, family: ToolFamily) -> usize {
        self.per_family[family as usize]
    }

    /// Returns a variant flow that biases `extra` additional steps onto
    /// one family — used to build *deliberately dissimilar* product mixes
    /// (e.g. a BiCMOS flow with extra implant, a DRAM flow with extra
    /// furnace time).
    #[must_use]
    pub fn with_extra_steps(mut self, family: ToolFamily, extra: usize) -> Self {
        self.steps
            .extend(std::iter::repeat_n(ProcessStep { family }, extra));
        self.per_family[family as usize] += extra;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_follow_fig4_trend() {
        let at_1um = ProcessFlow::for_generation("a", 1.0).step_count();
        let at_05 = ProcessFlow::for_generation("b", 0.5).step_count();
        let at_025 = ProcessFlow::for_generation("c", 0.25).step_count();
        assert!((200..=260).contains(&at_1um), "1 µm: {at_1um}");
        assert!(at_05 > at_1um);
        assert!(at_025 > at_05);
        assert!((450..=560).contains(&at_025), "0.25 µm: {at_025}");
    }

    #[test]
    fn every_family_is_used() {
        let flow = ProcessFlow::for_generation("x", 0.8);
        for family in ToolFamily::ALL {
            assert!(flow.steps_on(family) > 0, "family {family} unused");
        }
    }

    const LAMBDAS: [f64; 6] = [1.0, 0.8, 0.65, 0.5, 0.35, 0.25];

    fn assert_counts_match_scan(flow: &ProcessFlow) {
        for family in ToolFamily::ALL {
            let scanned = flow.steps().iter().filter(|s| s.family == family).count();
            assert_eq!(flow.steps_on(family), scanned, "{family}");
        }
        let sum: usize = ToolFamily::ALL.iter().map(|&f| flow.steps_on(f)).sum();
        assert_eq!(sum, flow.step_count());
    }

    #[test]
    fn family_counts_sum_to_total() {
        for lambda in LAMBDAS {
            assert_counts_match_scan(&ProcessFlow::for_generation("x", lambda));
        }
    }

    #[test]
    fn extra_steps_bias_one_family() {
        for lambda in LAMBDAS {
            let base = ProcessFlow::for_generation("x", lambda);
            let implant_before = base.steps_on(ToolFamily::Implant);
            let biased = base.with_extra_steps(ToolFamily::Implant, 40);
            assert_eq!(biased.steps_on(ToolFamily::Implant), implant_before + 40);
            assert_counts_match_scan(&biased);
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_flow_rejected() {
        let _ = ProcessFlow::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "feature size")]
    fn bad_generation_rejected() {
        let _ = ProcessFlow::for_generation("bad", -0.5);
    }
}

//! The paper's qualitative claims, asserted end to end through the
//! facade: who wins, in which direction, and where the crossovers are.

use silicon_cost::cost_model::roadmap::CostRoadmap;
use silicon_cost::prelude::*;
use silicon_cost::tech_trend::diesize::DieSizeTrend;

fn um(v: f64) -> Microns {
    Microns::new(v).unwrap()
}

/// Fig 6 shape: under Scenario #1 the transistor cost FALLS monotonically
/// with feature size for all printed X, and the three curves never cross
/// below the 1 µm reference (higher X is always at least as expensive).
#[test]
fn fig6_shape_monotone_fall_no_crossings() {
    let scenarios: Vec<Scenario1> = [1.1, 1.2, 1.3]
        .iter()
        .map(|&x| Scenario1::fig6(x).unwrap())
        .collect();
    let lambdas: Vec<f64> = (0..40).map(|i| 0.25 + 0.75 * f64::from(i) / 39.0).collect();
    for s in &scenarios {
        // Ascending λ ⇒ ascending cost (equivalently: cost falls as λ
        // shrinks).
        let mut last = f64::NEG_INFINITY;
        for l in &lambdas {
            let c = s.cost_per_transistor(um(*l)).value();
            assert!(c >= last, "cost must grow with λ under Scenario #1");
            last = c;
        }
    }
    for l in &lambdas {
        let c: Vec<f64> = scenarios
            .iter()
            .map(|s| s.cost_per_transistor(um(*l)).value())
            .collect();
        assert!(c[0] <= c[1] && c[1] <= c[2], "X-ordering at λ={l}");
    }
}

/// Fig 7 shape: under Scenario #2 the cost RISES as λ shrinks below
/// ~0.8 µm, with the penalty growing with X; the yield factor explains it.
#[test]
fn fig7_shape_rising_penalty_grows_with_x() {
    let mut last_penalty = 0.0;
    for x in [1.8, 2.0, 2.2, 2.4] {
        let s = Scenario2::fig7(x).unwrap();
        let penalty = s.cost_per_transistor(um(0.25)).unwrap().value()
            / s.cost_per_transistor(um(0.8)).unwrap().value();
        assert!(penalty > 2.0, "X={x}: penalty {penalty}");
        assert!(
            penalty > last_penalty,
            "penalty must grow with X: {penalty} after {last_penalty}"
        );
        last_penalty = penalty;
    }
}

/// The Scenario #1 → #2 flip is driven by yield and X, not by the die
/// trend alone: Scenario #2 with perfect yield behaves like Scenario #1.
#[test]
fn scenario_flip_is_yield_driven() {
    let base = Scenario1::fig6(1.2).unwrap();
    let perfect_yield_s2 = Scenario2::new(base, Probability::ONE, DieSizeTrend::paper_fit());
    let falls = perfect_yield_s2
        .cost_per_transistor(um(0.25))
        .unwrap()
        .value()
        < perfect_yield_s2
            .cost_per_transistor(um(1.0))
            .unwrap()
            .value();
    assert!(falls, "with Y=1, shrinking must stay profitable");
}

/// The crossover X: for the Fig 7 configuration there is an escalation
/// factor below which shrinking 0.8 → 0.5 µm still pays and above which
/// it loses. The paper puts realistic X at 1.8–2.4 (loses) and Scenario
/// #1 at 1.1–1.3; the crossover must sit between.
#[test]
fn shrink_crossover_x_is_between_the_scenarios() {
    let pays = |x: f64| {
        let s = Scenario2::fig7(x).unwrap();
        s.cost_per_transistor(um(0.5)).unwrap().value()
            < s.cost_per_transistor(um(0.8)).unwrap().value()
    };
    // Find the flip on a fine grid.
    let mut crossover = None;
    let mut last = pays(1.0);
    for i in 1..=140 {
        let x = 1.0 + f64::from(i) * 0.01;
        let now = pays(x);
        if last && !now {
            crossover = Some(x);
            break;
        }
        last = now;
    }
    let x_star = crossover.expect("a crossover X must exist");
    assert!(
        (1.05..1.8).contains(&x_star),
        "crossover X = {x_star} out of band"
    );
}

/// Wafer-size lever (§III.A.c): moving the 256 Mb DRAM from 6-inch to
/// 8-inch wafers at equal wafer cost cuts the per-transistor cost, as
/// rows 13 → 14 of Table 3 imply (once their different Y₀ is removed).
#[test]
fn bigger_wafers_cut_cost_at_equal_assumptions() {
    let build = |radius: f64| {
        ProductScenario::builder("DRAM 256Mb")
            .transistors(TransistorCount::new(264.0e6).unwrap())
            .feature_size(Microns::new(0.25).unwrap())
            .design_density(DesignDensity::new(29.0).unwrap())
            .wafer_radius(Centimeters::new(radius).unwrap())
            .reference_yield(Probability::new(0.9).unwrap())
            .reference_wafer_cost(Dollars::new(600.0).unwrap())
            .cost_escalation(1.8)
            .unwrap()
            .build()
            .unwrap()
    };
    let six = build(7.5).evaluate().unwrap().cost_per_transistor.value();
    let eight = build(10.0).evaluate().unwrap().cost_per_transistor.value();
    assert!(eight < six);
    // Gain is roughly the area ratio adjusted for edge effects: 1.5–2.2×.
    let gain = six / eight;
    assert!((1.3..2.4).contains(&gain), "gain {gain}");
}

/// The calendar roadmap behaves per Fig 7's X-dependence: at the
/// realistic X ≥ 1.8 the cost rises from the very start of the window
/// (the decline is already over), while at a milder X = 1.4 the decline
/// continues for years before an *interior* turning point.
#[test]
fn roadmap_turning_year_depends_on_escalation() {
    // Paper default (X = 2.0): the minimum sits at the window start.
    let steep = CostRoadmap::paper_default().unwrap();
    let turning = steep
        .realistic_turning_year(1986, 2002)
        .unwrap()
        .expect("turning year exists");
    assert_eq!(turning, 1986, "at X = 2.0 the decline is already over");

    // Milder escalation: the decline continues, then reverses mid-90s.
    let mild = CostRoadmap::new(
        silicon_cost::tech_trend::datasets::FEATURE_SIZE_BY_YEAR,
        Scenario1::fig6(1.2).unwrap(),
        Scenario2::fig7(1.4).unwrap(),
    )
    .unwrap();
    let turning = mild
        .realistic_turning_year(1986, 2002)
        .unwrap()
        .expect("interior turning year exists");
    assert!(
        (1988..=2000).contains(&turning),
        "interior turn expected, got {turning}"
    );
    let points = mild.project(1986, 2002).unwrap();
    let at = points[(turning - 1986) as usize].realistic.value();
    assert!(points[0].realistic.value() > at, "cost falls into the turn");
    assert!(
        points.last().unwrap().realistic.value() > at,
        "cost rises after the turn"
    );
}

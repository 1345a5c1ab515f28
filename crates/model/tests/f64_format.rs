//! Differential test of the wire codec's `f64` writer against std.
//!
//! `Json::Num(v).write()` must spell every finite double exactly as
//! `format!("{v}")` does — the wire goldens and every deployed client
//! depend on those bytes — and must read back to the same bits. The
//! corpus covers seeded random bit patterns, every power of two and
//! power of ten with their one-ulp neighbours, small and 2⁵³-adjacent
//! integers, subnormals, the extremes and an exact rounding tie. The
//! `#[ignore]`d variant widens the random sweep to 16 M samples:
//!
//! ```sh
//! cargo test --release -p maly-model --test f64_format -- --include-ignored
//! ```

use maly_model::json::{self, Json};
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};

/// Counts mismatches against the std oracle and keeps the first few.
#[derive(Default)]
struct Diff {
    checked: u64,
    mismatches: u64,
    examples: Vec<String>,
}

impl Diff {
    fn check(&mut self, v: f64) {
        self.checked += 1;
        let ours = Json::Num(v).write();
        let expected = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        let round_trips = !v.is_finite()
            || matches!(json::parse(&ours), Ok(Json::Num(back)) if back.to_bits() == v.to_bits());
        if ours != expected || !round_trips {
            self.mismatches += 1;
            if self.examples.len() < 8 {
                self.examples.push(format!(
                    "{:#018x}: wrote {ours}, std {expected}",
                    v.to_bits()
                ));
            }
        }
    }

    /// `v`, `-v` and the next double up and down from each.
    fn check_with_neighbours(&mut self, v: f64) {
        for x in [v, -v] {
            let bits = x.to_bits();
            self.check(x);
            self.check(f64::from_bits(bits.wrapping_add(1)));
            self.check(f64::from_bits(bits.wrapping_sub(1)));
        }
    }

    fn assert_clean(&self) {
        assert!(self.checked > 0, "nothing checked");
        assert_eq!(
            self.mismatches, 0,
            "{} of {} doubles differ from Display: {:#?}",
            self.mismatches, self.checked, self.examples
        );
    }
}

fn random_bit_patterns(seed: u64, samples: u64) -> Diff {
    let mut diff = Diff::default();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    for _ in 0..samples {
        diff.check(f64::from_bits(rng.next_u64()));
    }
    diff
}

#[test]
fn random_bit_patterns_match_display() {
    random_bit_patterns(0x5eed_f64f, 1 << 20).assert_clean();
}

#[test]
#[ignore = "16 M samples; run in release with --include-ignored"]
fn sixteen_million_random_bit_patterns_match_display() {
    random_bit_patterns(0x1600_0000, 16 << 20).assert_clean();
}

#[test]
fn powers_of_two_and_neighbours_match_display() {
    let mut diff = Diff::default();
    for e in -1074..=1023 {
        diff.check_with_neighbours(2f64.powi(e));
    }
    diff.assert_clean();
}

#[test]
fn powers_of_ten_and_neighbours_match_display() {
    let mut diff = Diff::default();
    for k in -323..=308 {
        // Parsing rounds correctly, so this is the double nearest 10^k.
        let v: f64 = format!("1e{k}").parse().unwrap_or(f64::NAN);
        assert!(v.is_finite() && v > 0.0, "1e{k}");
        diff.check_with_neighbours(v);
    }
    diff.assert_clean();
}

#[test]
fn integers_match_display() {
    let mut diff = Diff::default();
    for i in 0..(1u64 << 20) {
        diff.check(i as f64);
    }
    let two53 = 1u64 << 53;
    for i in two53 - 1024..=two53 + 1024 {
        diff.check_with_neighbours(i as f64);
    }
    diff.assert_clean();
}

#[test]
fn edge_values_match_display() {
    let mut diff = Diff::default();
    for v in [
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits((1 << 52) - 1),         // largest subnormal
        f64::from_bits(0x4317_9085_685d_83c9), // exact tie, std rounds up
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        diff.check_with_neighbours(v);
    }
    // A spread of subnormal mantissas.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5ab_0041);
    for _ in 0..100_000 {
        let v = f64::from_bits(rng.next_u64() & ((1 << 52) - 1));
        diff.check_with_neighbours(v);
    }
    diff.assert_clean();
    assert_eq!(
        Json::Num(f64::from_bits(0x4317_9085_685d_83c9)).write(),
        "1658206780088562.3"
    );
    assert_eq!(Json::Num(-0.0).write(), "-0");
}

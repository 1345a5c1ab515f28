//! maly-lanes — the lane-wise polynomial `exp` of the eq. (1) batch
//! kernel.
//!
//! The eq. (1) transistor-cost kernel prices thousands of grid nodes
//! per Fig 8 surface, and each needs one eq. (7) yield `exp`.
//! [`exp_slice`] walks a buffer in `[f64; WIDTH]` blocks and finishes
//! the odd tail with the *same* per-element function, so results never
//! depend on how a slice was chunked.
//!
//! The exp is a branch-free argument-reduction + polynomial kernel
//! evaluated identically on every platform. It is *not* bit-identical
//! to `std`'s libm (which varies by platform anyway); the contract is a
//! documented ulp bound instead: within 2 ulp of the correctly rounded
//! result over the model's `[−40, 0]` exponent window (pinned by the
//! accuracy tests below at ≤ 4 ulp of this platform's libm over the
//! full range, and ≤ 2 ulp on that window). Callers that need
//! bit-exactness keep using the scalar reference path; callers on the
//! lane path document the bound. Exact elementwise arithmetic needs no
//! helpers here: the eq. (4) chord table is a plain loop over the
//! scalar kernel's own expressions.
//!
//! The crate is std-only, dependency-free, `forbid(unsafe_code)`, and
//! has a panic budget of zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of f64 elements processed per lane block.
///
/// Four doubles are one 256-bit vector register (AVX2-class hardware)
/// and two 128-bit ones; the slice drivers below are written so the
/// compiler can keep a whole block in registers.
pub const WIDTH: usize = 4;

// ---------------------------------------------------------------------
// Polynomial exp
// ---------------------------------------------------------------------

/// High bits of ln 2 (Cody–Waite split: `LN2_HI + LN2_LO` carries ~20
/// extra bits so `x − k·ln2` stays accurate for |k| up to ~1100).
const LN2_HI: f64 = 6.931_471_803_691_238_164_9e-1;
/// Low bits of ln 2.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// log2(e), for the exponent split `x = k·ln2 + r`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// Above this, exp(x) overflows f64.
const EXP_OVERFLOW: f64 = 709.782_712_893_384;
/// Below this, exp(x) underflows to zero (even subnormally).
const EXP_UNDERFLOW: f64 = -745.2;

/// `2^e` for `e` in `[-1022, 1023]`, built from the exponent bits.
/// Exact (a power of two has an all-zero mantissa).
fn pow2(e: i64) -> f64 {
    // The callers below keep e in range by splitting the scaling in
    // two; the clamp is belt-and-braces, not a rounding step.
    let e = e.clamp(-1022, 1023);
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Scalar core of the polynomial exp: Cody–Waite reduction
/// `x = k·ln2 + r` with |r| ≤ ln2/2, a degree-13 Taylor kernel on `r`
/// (truncation error < 1e-17 relative), and an exact two-step `2^k`
/// scaling that handles the subnormal range. The arithmetic path is
/// branch-free; the guards only catch NaN/overflow/underflow inputs.
fn exp_core(x: f64) -> f64 {
    if !(x >= EXP_UNDERFLOW) {
        // NaN fails every comparison; tell it apart from deep underflow.
        return if x.is_nan() { f64::NAN } else { 0.0 };
    }
    if x > EXP_OVERFLOW {
        return f64::INFINITY;
    }
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Horner over 1/n! for n = 13 .. 0. Literal reciprocal factorials:
    // shortest decimal round-trips of 1/n!.
    let mut p = 1.605_904_383_682_161_3e-10; // 1/13!
    p = p * r + 2.087_675_698_786_81e-9; // 1/12!
    p = p * r + 2.505_210_838_544_172e-8; // 1/11!
    p = p * r + 2.755_731_922_398_589e-7; // 1/10!
    p = p * r + 2.755_731_922_398_589_3e-6; // 1/9!
    p = p * r + 2.480_158_730_158_73e-5; // 1/8!
    p = p * r + 1.984_126_984_126_984e-4; // 1/7!
    p = p * r + 1.388_888_888_888_889e-3; // 1/6!
    p = p * r + 8.333_333_333_333_333e-3; // 1/5!
    p = p * r + 4.166_666_666_666_666_4e-2; // 1/4!
    p = p * r + 1.666_666_666_666_666_6e-1; // 1/3!
    p = p * r + 0.5; // 1/2!
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^k in two exact halves so each factor stays in the normal
    // exponent range even when the result is subnormal (k ≥ −1075).
    let ki = k as i64;
    let k1 = ki >> 1;
    p * pow2(k1) * pow2(ki - k1)
}

/// Lane exp: the polynomial exp kernel applied elementwise.
fn exp(a: [f64; WIDTH]) -> [f64; WIDTH] {
    [
        exp_core(a[0]),
        exp_core(a[1]),
        exp_core(a[2]),
        exp_core(a[3]),
    ]
}

/// In-place exp over a slice: full lanes first, then the odd tail
/// through the same per-element core, so chunking never changes bits.
pub fn exp_slice(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(WIDTH);
    for c in &mut chunks {
        let out = exp([c[0], c[1], c[2], c[3]]);
        c.copy_from_slice(&out);
    }
    for x in chunks.into_remainder() {
        *x = exp_core(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* sampler (no external deps).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [lo, hi).
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    /// Monotone integer key over the f64 line (±0 both map to 0), so
    /// ulp distance is a key difference.
    fn ordered_key(x: f64) -> i64 {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    }

    fn ulps(a: f64, b: f64) -> u64 {
        ordered_key(a).abs_diff(ordered_key(b))
    }

    #[test]
    fn exp_matches_std_within_4_ulp() {
        let mut rng = Rng(0x9e3779b97f4a7c15);
        let mut worst = 0u64;
        for _ in 0..200_000 {
            let x = rng.uniform(-700.0, 700.0);
            let got = exp_core(x);
            let want = x.exp();
            let d = ulps(got, want);
            worst = worst.max(d);
            assert!(d <= 4, "exp({x}) = {got:e}, std {want:e}, {d} ulp apart");
        }
        // The documented bound: the kernel tracks libm to ≤ 4 ulp.
        assert!(worst <= 4, "worst exp deviation {worst} ulp");
    }

    #[test]
    fn exp_model_domain_is_tight() {
        // The eq. (7) exponents the yield kernel feeds in: −A·D/λ^p
        // for the Fig 8 window is roughly [−40, 0].
        let mut rng = Rng(7);
        for _ in 0..100_000 {
            let x = rng.uniform(-40.0, 0.0);
            assert!(ulps(exp_core(x), x.exp()) <= 2, "x = {x}");
        }
    }

    #[test]
    fn exp_edge_cases() {
        assert_eq!(exp_core(0.0), 1.0);
        assert_eq!(exp_core(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_core(f64::INFINITY), f64::INFINITY);
        assert!(exp_core(f64::NAN).is_nan());
        assert_eq!(exp_core(-800.0), 0.0);
        assert_eq!(exp_core(800.0), f64::INFINITY);
        // Subnormal results round-trip through the two-step scaling.
        let deep = exp_core(-744.0);
        assert!(deep > 0.0 && deep < f64::MIN_POSITIVE);
        assert!(ulps(deep, (-744.0f64).exp()) <= 4);
        // Just inside the overflow threshold stays finite.
        assert!(exp_core(709.7).is_finite());
    }

    #[test]
    fn slice_drivers_match_scalar_at_odd_lengths() {
        let mut rng = Rng(99);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13, 64, 65] {
            let xs: Vec<f64> = (0..len).map(|_| rng.uniform(-50.0, 5.0)).collect();
            let mut exp_buf = xs.clone();
            exp_slice(&mut exp_buf);
            for (x, got) in xs.iter().zip(&exp_buf) {
                assert_eq!(got.to_bits(), exp_core(*x).to_bits(), "len {len}");
            }
        }
    }
}

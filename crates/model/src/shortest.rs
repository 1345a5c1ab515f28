//! Shortest round-trip `f64` text, byte-identical to `Display`.
//!
//! The wire codec prints every number the way `format!("{v}")` does:
//! the shortest digit string that parses back to the same bits, laid
//! out without an exponent (`1`, `0.0000123`, `100000000000000000000`,
//! `-0`). `core::fmt` spends most of a tile batch's serialization time
//! getting there, so this module computes the same digits with Ryu
//! (Adams, PLDI 2018): two 64×128-bit multiplications against a
//! power-of-5 table and a short digit-removal loop.
//!
//! One deliberate departure from reference Ryu keeps the bytes equal
//! to std's: when the exact value sits halfway between the two
//! shortest candidates, std rounds the last digit **up** (bits
//! `0x43179085685d83c9` print `1658206780088562.3`), so Ryu's
//! round-half-even branch is left out.
//!
//! The 125-bit power-of-5 tables are `const`-evaluated when the crate
//! compiles, from a `u32`-limb bignum: `5^q` by repeated ×5 and
//! `⌊2^B / 5^q⌋` by repeated ÷5 from `2^B`, exact because nested floor
//! divisions compose. Nothing is committed as a literal and nothing is
//! built at run time. `tests/f64_format.rs` checks the output against
//! `format!("{v}")`, which stays the oracle.

/// Explicit mantissa bits of an IEEE-754 double.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an IEEE-754 double.
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept per table entry.
const POW5_BITCOUNT: i32 = 125;
/// Entries of `⌊2^j / 5^q⌋ + 1`, indexed by `q` (binary exponent ≥ 0).
const INV_LEN: usize = 342;
/// Entries of the top bits of `5^i`, indexed by `i` (binary exponent < 0).
const POS_LEN: usize = 326;

/// Little-endian `u32` limbs: 960 bits, enough for `5^341` and for the
/// `2^B` the inverse table divides down from.
const LIMBS: usize = 30;
type Big = [u32; LIMBS];

const fn big_mul5(mut a: Big) -> Big {
    let mut carry = 0u64;
    let mut i = 0;
    while i < LIMBS {
        let p = a[i] as u64 * 5 + carry;
        a[i] = p as u32;
        carry = p >> 32;
        i += 1;
    }
    a
}

const fn big_div5(mut a: Big) -> Big {
    let mut rem = 0u64;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 32) | a[i] as u64;
        a[i] = (cur / 5) as u32;
        rem = cur % 5;
    }
    a
}

const fn big_bit_len(a: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as u32 * 32 + (32 - a[i].leading_zeros());
        }
    }
    0
}

/// `⌊a / 2^shift⌋ mod 2^128`.
const fn big_bits(a: &Big, shift: u32) -> u128 {
    let limb = (shift / 32) as usize;
    let off = shift % 32;
    let mut out = 0u128;
    let mut j = 0;
    while j < 4 {
        let lo = if limb + j < LIMBS { a[limb + j] } else { 0 };
        let hi = if limb + j + 1 < LIMBS {
            a[limb + j + 1]
        } else {
            0
        };
        let word = if off == 0 {
            lo
        } else {
            (lo >> off) | (hi << (32 - off))
        };
        out |= (word as u128) << (32 * j);
        j += 1;
    }
    out
}

struct Pow5Tables {
    /// `⌊2^(bitlen(5^q) − 1 + 125) / 5^q⌋ + 1`.
    inv: [u128; INV_LEN],
    /// `5^i` scaled to exactly 125 significant bits (truncated).
    pos: [u128; POS_LEN],
}

impl Pow5Tables {
    const fn build() -> Pow5Tables {
        let top = LIMBS as u32 * 32 - 1;
        let mut inv = [0u128; INV_LEN];
        let mut pos = [0u128; POS_LEN];
        let mut pow = [0u32; LIMBS];
        pow[0] = 1;
        let mut floor = [0u32; LIMBS];
        floor[LIMBS - 1] = 1 << 31; // 2^top
        let mut q = 0;
        while q < INV_LEN {
            // pow = 5^q, floor = ⌊2^top / 5^q⌋.
            let len = big_bit_len(&pow);
            let j = len - 1 + POW5_BITCOUNT as u32;
            inv[q] = big_bits(&floor, top - j) + 1;
            if q < POS_LEN {
                pos[q] = if len >= POW5_BITCOUNT as u32 {
                    big_bits(&pow, len - POW5_BITCOUNT as u32)
                } else {
                    big_bits(&pow, 0) << (POW5_BITCOUNT as u32 - len)
                };
            }
            pow = big_mul5(pow);
            floor = big_div5(floor);
            q += 1;
        }
        Pow5Tables { inv, pos }
    }
}

static POW5: Pow5Tables = Pow5Tables::build();

/// `⌈log2 5^e⌉` (1 for `e` = 0), exact for `0 ≤ e ≤ 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `value` (`value` > 0).
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value % 5 == 0 {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j` ≥ 64.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let m = u128::from(m);
    let low = m * (mul & u128::from(u64::MAX));
    let high = m * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `digits × 10^exponent` that reads back as the
/// finite, nonzero double with these IEEE fields; among equally short
/// candidates the closest, ties rounded up.
fn to_decimal(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing accepts the interval's ends when m2 is even.
    let accept_bounds = m2 & 1 == 0;
    // The interval is [mm, mp] around mv in units of 2^e2; it is
    // asymmetric only at a power of two above `f64::MIN_POSITIVE`,
    // whose gap below is half the gap above.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = mv - 1 - mm_shift;
    let mp = mv + 2;

    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5.inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // Only one of mp, mv and mm can be a multiple of 5. If it is mm
        // or mp and divisible by 5^q, that bound is exact in decimal.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5.pos[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            // A bound is exact in decimal iff it has q trailing zero
            // bits: mm has one iff mm_shift == 1, and mp = mv + 2 always
            // has one, so an excluded upper bound steps down.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number,
    // keeping the last removed digit of vr to round by.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_trailing_zeros {
        // The lower bound is an exact decimal and may itself be the
        // shortest candidate: track whether its removed digits are all
        // zero, then keep stripping while they stay zero.
        loop {
            let (vp10, vm10) = (vp / 10, vm / 10);
            if vp10 <= vm10 {
                break;
            }
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp = vp10;
            vm = vm10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
    } else {
        // Common case: only vr's last removed digit matters, so digits
        // go in steps of 8, 4, 2 and 1. The test is monotone in the
        // step (⌊⌊x/a⌋/b⌋ = ⌊x/ab⌋), so the greedy steps remove exactly
        // as many digits as one at a time would.
        for (scale, digits) in [(100_000_000, 8), (10_000, 4), (100, 2), (10, 1)] {
            while vp / scale > vm / scale {
                last_removed = vr / (scale / 10) % 10;
                vr /= scale;
                vp /= scale;
                vm /= scale;
                removed += digits;
            }
        }
    }
    // vr + 1 when vr is the excluded lower bound or the removed digits
    // were half or more (exact halves included: std rounds them up).
    let round_up = (vr == vm && !vm_trailing_zeros) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes the decimal digits of `v` right-aligned at the end of `buf`
/// and returns how many there are.
fn write_digits(mut v: u64, buf: &mut [u8]) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    buf.len() - at
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    // Always ASCII digits, `.` and `0`s, so this never fails.
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Appends `v` exactly as `format!("{v}")` would spell it. `v` must be
/// finite; JSON has no spelling for the others.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push('0');
        return;
    }
    let (mantissa, exponent) = to_decimal(ieee_mantissa, ieee_exponent);
    // The text is laid out in `buf` around the right-aligned digits, so
    // the common shapes cost one `push_str`; the `'0'` fill doubles as
    // the leading zeros of small numbers.
    let mut buf = [b'0'; 48];
    let len = write_digits(mantissa, &mut buf);
    let start = buf.len() - len;
    // Digits before the decimal point; `Display` never uses an exponent.
    let point = len as i32 + exponent;
    if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        if zeros + 2 <= start {
            buf[start - zeros - 1] = b'.';
            push_ascii(out, &buf[start - zeros - 2..]);
        } else {
            out.push_str("0.");
            out.extend(std::iter::repeat_n('0', zeros));
            push_ascii(out, &buf[start..]);
        }
    } else if (point as usize) < len {
        let int = point as usize;
        buf.copy_within(start..start + int, start - 1);
        buf[start - 1 + int] = b'.';
        push_ascii(out, &buf[start - 1..]);
    } else {
        push_ascii(out, &buf[start..]);
        out.extend(std::iter::repeat_n('0', point as usize - len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_reference_ryu_entries() {
        assert_eq!(POW5.inv[0], (1u128 << 125) + 1);
        // ⌊2^127 / 5⌋ + 1 = 0x1999…999A.
        assert_eq!(POW5.inv[1], 0x1999_9999_9999_9999_9999_9999_9999_999A);
        assert_eq!(POW5.pos[0], 1u128 << 124);
        assert_eq!(POW5.pos[1], 5u128 << 122);
        // Powers of 5 below 2^125 are held exactly, shifted up.
        let mut pow = 1u128;
        for q in 0..=53 {
            let len = 128 - pow.leading_zeros();
            assert_eq!(POW5.pos[q], pow << (125 - len), "pos[{q}]");
            pow *= 5;
        }
        // 5^q is no power of two past q = 0, so every other entry has
        // exactly 125 significant bits.
        for (q, entry) in POW5.inv.iter().skip(1).chain(&POW5.pos).enumerate() {
            assert_eq!(128 - entry.leading_zeros(), 125, "entry {q} width");
        }
    }
}

//! IEEE 754 binary16 ("half precision") implemented in software.
//!
//! The representation is the raw 16-bit pattern (1 sign, 5 exponent, 10
//! mantissa bits). Conversions implement round-to-nearest-even including
//! subnormal handling, matching what the `cvt.rn.f16.f32` PTX instruction
//! produces on NVIDIA GPUs.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Arithmetic is performed by widening to `f32`, operating, and rounding back
/// — the same datapath as scalar half-precision ALUs. Tensor-core MMA does
/// *not* round intermediate products back to f16; kernels model that by
/// widening operands with [`F16::to_f32`] and accumulating in `f32`.
///
/// **Equality is bitwise** (`F16` is a storage type): `+0.0 != -0.0` and
/// `NAN == NAN` under `==`. Use [`F16::to_f32`] for IEEE comparison
/// semantics.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

/// `f32` bit patterns of all 65 536 halves, indexed by the half's bits.
static TO_F32_BITS: [u32; 1 << 16] = to_f32_table();

const fn to_f32_table() -> [u32; 1 << 16] {
    let mut table = [0u32; 1 << 16];
    let mut bits = u16::MAX;
    loop {
        table[bits as usize] = F16(bits).to_f32_bits_soft();
        if bits == 0 {
            return table;
        }
        bits -= 1;
    }
}

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(SIGN_MASK);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(EXP_MASK);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(SIGN_MASK | EXP_MASK);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value (-65504).
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2^-24).
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Create from the raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Return the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow (from 65520 up) gives a signed infinity, values below
    /// 2^-25 flush to a signed zero, and a NaN stays NaN with the quiet
    /// bit set and the top 9 payload bits kept.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let abs = bits & 0x7FFF_FFFF;
        let magnitude = if abs > 0x7F80_0000 {
            u32::from(EXP_MASK | 0x0200) | ((abs >> 13) & u32::from(MAN_MASK))
        } else if abs >= 0x4780_0000 {
            // |value| >= 2^16, or infinite.
            u32::from(EXP_MASK)
        } else if abs < 0x3880_0000 {
            // |value| < 2^-14: adding 0.5 rounds it to a multiple of
            // 2^-24 (RNE), which leaves the f16 subnormal mantissa in the
            // low bits (0x400, the smallest normal, on a carry).
            (f32::from_bits(abs) + 0.5).to_bits() - 0x3F00_0000
        } else {
            // Normal: rebias the exponent by 15 - 127 and round the 13
            // dropped bits to nearest even; a mantissa carry steps the
            // exponent, up to infinity from 65520.
            let odd = (abs >> 13) & 1;
            (abs - (112 << 23) + 0x0FFF + odd) >> 13
        };
        // Both halves fit in 16 bits: the magnitude is at most 0x7FFF.
        F16((((bits >> 16) & 0x8000) | magnitude) as u16)
    }

    /// Convert to `f32` exactly (every binary16 value is representable).
    ///
    /// One lookup in a 65 536-entry table filled at compile time by the
    /// soft-float conversion, so the result is that conversion bit for
    /// bit (NaNs come back quieted, payload kept).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(TO_F32_BITS[self.0 as usize])
    }

    /// The soft-float `f32` bit pattern of `self`: the branchy
    /// reference conversion that builds the [`F16::to_f32`] table and
    /// serves as its oracle in tests.
    const fn to_f32_bits_soft(self) -> u32 {
        let sign = ((self.0 & SIGN_MASK) as u32) << 16;
        let exp = ((self.0 & EXP_MASK) >> 10) as u32;
        let man = (self.0 & MAN_MASK) as u32;

        if exp == 0 {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: value is man × 2^-24. Normalize so the MSB of
                // `man` becomes the implicit leading 1.
                let lz = man.leading_zeros() - 21; // shift placing MSB at bit 10
                let man_norm = (man << lz) & MAN_MASK as u32;
                let exp32 = 127 - 14 - lz; // 2^(msb-24) has exponent msb-24 = -14-lz
                sign | (exp32 << 23) | (man_norm << 13)
            }
        } else if exp == 0x1F {
            if man == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7F80_0000 | (man << 13) | 0x0040_0000
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        }
    }

    /// Convert from `f64` (via f32; double rounding is acceptable here because
    /// the kernels never produce f64 inputs).
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK != 0
    }

    /// `true` if this value is +∞ or −∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0 & EXP_MASK == EXP_MASK && self.0 & MAN_MASK == 0
    }

    /// `true` if this value is neither NaN nor infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0 & EXP_MASK != EXP_MASK
    }

    /// `true` for +0.0 and −0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & !SIGN_MASK == 0
    }

    /// `true` if the value is subnormal.
    #[inline]
    pub fn is_subnormal(self) -> bool {
        self.0 & EXP_MASK == 0 && self.0 & MAN_MASK != 0
    }

    /// Sign bit set (including −0.0 and NaNs with sign).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & SIGN_MASK != 0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32().$method(rhs.to_f32()))
            }
        }
    };
}

impl_binop!(Add, add);
impl_binop!(Sub, sub);
impl_binop!(Mul, mul);
impl_binop!(Div, div);

impl AddAssign for F16 {
    #[inline]
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl MulAssign for F16 {
    #[inline]
    fn mul_assign(&mut self, rhs: F16) {
        *self = *self * rhs;
    }
}

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branchy soft-float `F16::from_f32`: the oracle for the
    /// bit-manipulating one.
    fn from_f32_soft(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet mantissa bit.
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | EXP_MASK | 0x0200 | ((man >> 13) as u16 & MAN_MASK))
            };
        }

        // Unbiased exponent, then re-bias for f16 (bias 15 vs 127).
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow → infinity (RNE never rounds to MAX from above overflow
            // threshold; values in (65504, 65520) round to 65504).
            // The exact threshold: anything >= 65520 becomes inf; handle via
            // full rounding below for the edge exponent.
            if unbiased > 16 {
                return F16(sign | EXP_MASK);
            }
        }

        if unbiased >= -14 {
            // Candidate normal number.
            let exp16 = (unbiased + 15) as u16;
            // 23-bit mantissa → 10-bit with RNE on the dropped 13 bits.
            let man16 = man >> 13;
            let round_bits = man & 0x1FFF;
            let halfway = 0x1000;
            let mut result = ((exp16 << 10) | man16 as u16) | sign;
            if round_bits > halfway || (round_bits == halfway && (man16 & 1) == 1) {
                // Mantissa carry may overflow into the exponent; that is the
                // correct behaviour (e.g. 2047.5 rounds up a binade).
                result = result.wrapping_add(1);
            }
            // Overflow past the largest finite exponent becomes infinity.
            if result & EXP_MASK == EXP_MASK && result & MAN_MASK != 0 {
                // Can't happen from the carry path, but guard anyway.
                result = sign | EXP_MASK;
            }
            if exp16 >= 31 {
                // We were already at/above the overflow binade before rounding.
                return F16(sign | EXP_MASK);
            }
            return F16(result);
        }

        if unbiased >= -25 {
            // Subnormal range: shift the implicit leading 1 into the mantissa.
            let full_man = man | 0x0080_0000;
            let shift = (-14 - unbiased + 13) as u32; // total right shift
            let man16 = (full_man >> shift) as u16;
            let round_mask = (1u32 << shift) - 1;
            let round_bits = full_man & round_mask;
            let halfway = 1u32 << (shift - 1);
            let mut result = man16 | sign;
            if round_bits > halfway || (round_bits == halfway && (man16 & 1) == 1) {
                result = result.wrapping_add(1);
            }
            return F16(result);
        }

        // Too small: flush to (signed) zero.
        F16(sign)
    }

    #[test]
    fn from_f32_matches_soft_float_on_rounding_boundaries() {
        // Every f32 whose top 19 bits name a half-width mantissa, with
        // the 13 dropped bits at zero, just off zero, around the halfway
        // point and at their maximum.
        for hi in 0u32..1 << 19 {
            for lo in [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF] {
                let x = f32::from_bits(hi << 13 | lo);
                assert_eq!(F16::from_f32(x), from_f32_soft(x), "{:#010x}", x.to_bits());
            }
        }
    }

    #[test]
    fn from_f32_matches_soft_float_on_a_sweep_of_all_f32() {
        for bits in (0..=u32::MAX).step_by(4099) {
            let x = f32::from_bits(bits);
            assert_eq!(F16::from_f32(x), from_f32_soft(x), "{bits:#010x}");
        }
    }

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn special_values() {
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
        assert!(!F16::ONE.is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
    }

    #[test]
    fn exact_small_integers() {
        for i in -2048..=2048 {
            let h = F16::from_f32(i as f32);
            assert_eq!(h.to_f32(), i as f32, "integer {i} must be exact in f16");
        }
    }

    #[test]
    fn rne_rounding() {
        // 2049 is exactly between 2048 and 2050 → rounds to even (2048).
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        // 2051 is between 2050 and 2052 → rounds to even (2052).
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
        // 2049.5 is above halfway between 2048 and 2050 → 2050.
        assert_eq!(F16::from_f32(2049.5).to_f32(), 2050.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e30), F16::NEG_INFINITY);
        // 65504 + something below half-ULP stays MAX.
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        assert_eq!(F16::from_f32(65519.9), F16::MAX);
    }

    #[test]
    fn subnormal_roundtrip() {
        // All subnormal bit patterns roundtrip exactly through f32.
        for bits in 1u16..0x0400 {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            assert_eq!(h, back, "subnormal {bits:#06x} roundtrip");
            assert!(h.is_subnormal());
        }
    }

    #[test]
    fn table_to_f32_matches_soft_float_on_all_halves() {
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            assert_eq!(h.to_f32().to_bits(), h.to_f32_bits_soft(), "bits {bits:#06x}");
        }
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip() {
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_finite() {
                let back = F16::from_f32(h.to_f32());
                assert_eq!(h.to_bits(), back.to_bits(), "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn flush_to_zero_below_subnormal_range() {
        assert_eq!(F16::from_f32(1e-10), F16::ZERO);
        assert_eq!(F16::from_f32(-1e-10), F16::NEG_ZERO);
        assert!(F16::from_f32(-1e-10).is_sign_negative());
    }

    #[test]
    fn arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn precision_loss_is_modelled() {
        // 1 + 2^-11 is not representable; rounds back to 1.
        let one = F16::ONE;
        let tiny = F16::from_f32(2.0f32.powi(-11));
        assert_eq!(one + tiny, one);
        // but 1 + 2^-10 is representable.
        let eps = F16::EPSILON;
        assert!((one + eps).to_f32() > 1.0);
    }

    #[test]
    fn special_value_arithmetic() {
        // Infinity and NaN propagate through the widening datapath.
        assert!((F16::INFINITY + F16::NEG_INFINITY).is_nan());
        assert_eq!(F16::INFINITY + F16::ONE, F16::INFINITY);
        assert!((F16::ZERO / F16::ZERO).is_nan());
        assert_eq!(F16::ONE / F16::ZERO, F16::INFINITY);
        assert_eq!(F16::NEG_ONE / F16::ZERO, F16::NEG_INFINITY);
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::NAN * F16::ZERO).is_nan());
        // Overflowing multiply saturates to infinity after rounding.
        assert_eq!(F16::MAX * F16::from_f32(2.0), F16::INFINITY);
    }

    #[test]
    fn signed_zero_semantics() {
        // Equality on F16 is bitwise (storage semantics): the two zeros
        // are distinct patterns but equal as IEEE values via f32.
        assert_ne!(F16::ZERO, F16::NEG_ZERO);
        assert_eq!(F16::ZERO.to_f32(), F16::NEG_ZERO.to_f32());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(F16::NEG_ZERO.is_zero() && F16::ZERO.is_zero());
        assert_eq!((-F16::NEG_ZERO).to_bits(), F16::ZERO.to_bits());
    }

    #[test]
    fn abs_strips_sign_only() {
        assert_eq!(F16::from_f32(-3.5).abs().to_f32(), 3.5);
        assert_eq!(F16::NEG_INFINITY.abs(), F16::INFINITY);
        assert!(F16::NAN.abs().is_nan());
    }

    #[test]
    fn ordering() {
        assert!(F16::from_f32(1.0) < F16::from_f32(2.0));
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert!(F16::MAX < F16::INFINITY);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
    }
}

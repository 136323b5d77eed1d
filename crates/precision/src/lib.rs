//! Software implementations of the reduced-precision numeric types used by
//! NVIDIA tensor cores: IEEE 754 binary16 ([`F16`]) and TensorFloat-32
//! ([`Tf32`]).
//!
//! The FlashSparse paper evaluates its kernels in FP16 and TF32. On real
//! hardware these conversions happen inside the tensor core datapath; here we
//! model them exactly so the simulated kernels produce the same rounding
//! behaviour:
//!
//! * **FP16 MMA** (`m16n8k8` / `m16n8k16`): operands are binary16; products
//!   and accumulation are performed in f32.
//! * **TF32 MMA** (`m16n8k4` / `m16n8k8`): operands are f32 values whose
//!   mantissa has been rounded to 10 bits (TF32 keeps the f32 exponent range);
//!   products and accumulation are f32.
//!
//! The [`Scalar`] trait abstracts over storage precision so kernels can be
//! written once and instantiated for FP16, TF32, or plain f32 (the precision
//! used by the CUDA-core baselines).

pub mod fp16;
pub mod scalar;
pub mod tf32;

pub use fp16::F16;
pub use scalar::Scalar;
pub use tf32::Tf32;

/// Round an `f32` to TF32 precision (10-bit mantissa, round-to-nearest-even)
/// and return it as an `f32`. Convenience free function mirroring CUDA's
/// `__float_to_tf32`.
#[inline]
pub fn f32_to_tf32(x: f32) -> f32 {
    Tf32::from_f32(x).to_f32()
}

/// Round an `f32` to binary16 and back, i.e. the value a tensor core would
/// see after an FP16 register load. Convenience free function.
#[inline]
pub fn f32_through_f16(x: f32) -> f32 {
    F16::from_f32(x).to_f32()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fast kernels widen stored operands with a plain `to_f32` where
    // the simulator rounds every MMA operand again; these exhaustive
    // checks are what make the two bit-identical.

    #[test]
    fn f16_rounding_is_identity_on_every_stored_half() {
        for bits in 0u16..=0xFFFF {
            let x = F16::from_bits(bits).to_f32();
            assert_eq!(f32_through_f16(x).to_bits(), x.to_bits(), "half {bits:#06x}");
        }
    }

    #[test]
    fn tf32_rounding_is_identity_on_the_tf32_lattice() {
        // 1 sign + 8 exponent + 10 mantissa bits, in f32 position. NaN
        // patterns are skipped: `Tf32::from_f32` stores the canonical NaN.
        for pattern in 0u32..1 << 19 {
            let t = f32::from_bits(pattern << 13);
            if !t.is_nan() {
                assert_eq!(f32_to_tf32(t).to_bits(), t.to_bits(), "pattern {pattern:#07x}");
            }
        }
        let nan = Tf32::from_f32(f32::NAN).to_f32();
        assert_eq!(nan.to_bits(), f32::NAN.to_bits());
        assert_eq!(f32_to_tf32(nan).to_bits(), nan.to_bits());
    }
}

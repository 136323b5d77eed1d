//! Mapping from storage precision to the MMA shape and format spec the
//! FlashSparse kernels use for it (the paper's Section 2.1: "we utilize
//! MMA with m16n8k4 for TF32 and MMA with m16n8k8 for FP16").

use fs_format::TcFormatSpec;
use fs_precision::{Scalar, Tf32, F16};
use fs_tcu::cost::ComputeClass;
use fs_tcu::{MmaShape, Precision};

/// A storage precision the FlashSparse tensor-core kernels support.
pub trait TcuPrecision: Scalar {
    /// The `mma.sync` shape used (swap-and-transpose: the sparse block is
    /// the `k×n` right operand, so the vector height is `n = 8` and the
    /// sparse block width is `k`).
    const SHAPE: MmaShape;
    /// The ME-BCRS format spec: 8×1 vectors, `k`-wide TC blocks.
    const SPEC: TcFormatSpec;
    /// Operand precision tag.
    const PRECISION: Precision;

    /// Cost-model compute class.
    fn compute_class() -> ComputeClass {
        ComputeClass::tcu(Self::PRECISION)
    }

    /// The MMA shape the SpMM kernel runs on a matrix laid out with
    /// `spec`: [`Self::SHAPE`] for [`Self::SPEC`], plus FP16's wide
    /// `m16n8k16` on [`TcFormatSpec::FLASH_FP16_K16`] (the block-width
    /// ablation).
    ///
    /// # Panics
    /// Panics when this precision has no kernel for `spec`.
    fn mma_shape(spec: TcFormatSpec) -> MmaShape {
        match (Self::PRECISION, spec) {
            (_, spec) if spec == Self::SPEC => Self::SHAPE,
            (Precision::Fp16, TcFormatSpec::FLASH_FP16_K16) => MmaShape::M16N8K16_F16,
            (precision, spec) => {
                panic!("format spec must match the kernel precision: {precision:?} has no {spec:?}")
            }
        }
    }
}

impl TcuPrecision for F16 {
    const SHAPE: MmaShape = MmaShape::M16N8K8_F16;
    const SPEC: TcFormatSpec = TcFormatSpec::FLASH_FP16;
    const PRECISION: Precision = Precision::Fp16;
}

impl TcuPrecision for Tf32 {
    const SHAPE: MmaShape = MmaShape::M16N8K4_TF32;
    const SPEC: TcFormatSpec = TcFormatSpec::FLASH_TF32;
    const PRECISION: Precision = Precision::Tf32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_uses_m16n8k8() {
        assert_eq!(<F16 as TcuPrecision>::SHAPE, MmaShape::M16N8K8_F16);
        assert_eq!(<F16 as TcuPrecision>::SPEC.vector_len, 8);
        assert_eq!(<F16 as TcuPrecision>::SPEC.block_k, 8);
    }

    #[test]
    fn tf32_uses_m16n8k4() {
        assert_eq!(<Tf32 as TcuPrecision>::SHAPE, MmaShape::M16N8K4_TF32);
        assert_eq!(<Tf32 as TcuPrecision>::SPEC.block_k, 4);
    }

    #[test]
    fn spec_matches_shape() {
        // The format's block width must equal the MMA k dimension, and the
        // vector height must equal the MMA n dimension (the swap).
        fn check<P: TcuPrecision>() {
            assert_eq!(P::SPEC.block_k, P::SHAPE.k);
            assert_eq!(P::SPEC.vector_len, P::SHAPE.n);
        }
        check::<F16>();
        check::<Tf32>();
    }
}

//! Fast-vs-simulate bit identity on dense operands full of IEEE special
//! values: NaN, ±Inf, −0.0, f16 subnormals, f32 subnormals and f32
//! values that overflow f16 (stored as ±Inf under FP16, kept finite and
//! large enough to overflow f32 products under TF32).
//!
//! `exec_mode_props.rs` draws only small finite values, where any
//! summation order gives the same bits; here the order of every f32
//! operation in a cell decides whether a NaN, an infinity, an overflow
//! or the sign of a zero reaches the output, so the fast kernels' loop
//! order is pinned against the simulator's.
//!
//! NaN results are compared as NaN, not by bit pattern. The sign and
//! payload of a NaN produced by f32 arithmetic are unspecified in Rust
//! (RFC 3514): LLVM may commute the operands of an add or multiply, and
//! x86 returns the first operand's NaN when both are NaN, so two builds
//! of the same summation order can differ in the NaN's sign bit (the
//! simulator and the fast path differed this way on SDDMM in release
//! builds before the fast kernels were rewritten). Every other bit —
//! which cells are NaN, infinities and their signs, signed zeros,
//! subnormals — is compared exactly.
//!
//! No sanitize/chaos scope is held here (see `exec_mode_props.rs` for
//! why that keeps the tests parallel-safe).

use flashsparse::{
    sddmm_with_mode, spmm_overlapped, spmm_with_mode, SchedMode, TcuPrecision, ThreadMapping,
    TranslatedMatrix, TuneChoice,
};
use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
use fs_precision::{Scalar, Tf32, F16};
use fs_tcu::{ExecMode, Precision};

const MAPPINGS: [ThreadMapping; 2] = [ThreadMapping::Direct, ThreadMapping::MemoryEfficient];

/// Dense column counts: below one 16-wide tile, ragged, exactly one
/// tile, and several tiles with a ragged tail.
const WIDTHS: [usize; 5] = [1, 7, 16, 19, 40];

/// Special values the dense operands draw from.
const SPECIALS: [f32; 14] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    5.960_464_5e-8,  // 2^-24: the smallest f16 subnormal
    -1.788_139_3e-7, // -3 * 2^-24: a negative f16 subnormal
    3.051_757_8e-5,  // 2^-15: the largest binade of f16 subnormals
    1.0e5,           // overflows f16 to +Inf
    -7.0e4,          // overflows f16 to -Inf
    65504.0,         // f16::MAX: sums of two overflow
    3.0e38,          // near f32::MAX: products overflow f32
    -2.0e38,
    1.0e-40, // an f32 subnormal (flushes to +0 in f16)
    -1.0e-41,
];

/// Magnitudes of the finite dense values.
const DECADES: [f32; 7] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];

/// A dense operand where about one element in 25 is special and the
/// rest are finite: ±32768 mixed with values spread over seven decades.
/// Against the dyadic sparse values of [`sparse`], products of ±32768
/// cancel exactly while the small products round against them, so
/// regrouping any sum changes bits that survive the output cast.
///
/// Specials stay rare because a window's padded vector rows multiply
/// every gathered B element by zero: one Inf or NaN among a window's
/// columns makes NaN of its whole output column tile.
fn special_dense<S: Scalar>(rows: usize, cols: usize, seed: usize) -> DenseMatrix<S> {
    DenseMatrix::<S>::from_fn(rows, cols, |r, c| {
        let h = (r * 31 + c * 17 + seed * 7) % 97;
        match h % 25 {
            0 => SPECIALS[(r + c + seed) % SPECIALS.len()],
            1 | 6 | 11 => 32768.0,
            2 | 7 | 12 => -32768.0,
            _ => ((h % 9) as f32 - 4.3) * 0.3 * DECADES[h % DECADES.len()],
        }
    })
}

/// A sparse pattern with ragged windows, ragged last blocks and padded
/// vector rows (explicit zeros that meet the dense specials), holding
/// values from a small dyadic set so that products cancel exactly.
fn sparse(rows: usize, cols: usize, nnz: usize, seed: usize) -> CsrMatrix<f32> {
    const VALUES: [f32; 4] = [1.0, -1.0, 0.5, -0.5];
    let entries = random_uniform::<f32>(rows, cols, nnz, seed as u64)
        .into_entries()
        .into_iter()
        .map(|(r, c, v)| (r, c, VALUES[(v.to_bits() % 4) as usize]))
        .collect();
    CsrMatrix::from_coo(&CooMatrix::from_entries(rows, cols, entries))
}

/// Bit pattern of a widened stored value, with every NaN mapped to one
/// pattern (see the module doc).
fn bits<S: Scalar>(v: &S) -> u32 {
    let x = v.to_f32();
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn dense_bits<S: Scalar>(m: &DenseMatrix<S>) -> Vec<u32> {
    m.as_slice().iter().map(bits).collect()
}

fn value_bits<S: Scalar>(m: &MeBcrs<S>) -> Vec<u32> {
    m.values().iter().map(bits).collect()
}

/// Number of NaN or Inf outputs, to guard against vacuous cases.
fn non_finite(bits: &[u32]) -> usize {
    bits.iter().filter(|&&b| !f32::from_bits(b).is_finite()).count()
}

fn check_spmm<S: TcuPrecision>(csr: &CsrMatrix<f32>, seed: usize) {
    let me = MeBcrs::from_csr(&csr.cast::<S>(), S::SPEC);
    let mut specials = 0;
    for n in WIDTHS {
        let b = special_dense::<S>(csr.cols(), n, seed + n);
        for mapping in MAPPINGS {
            let (c_sim, k_sim) = spmm_with_mode(&me, &b, mapping, ExecMode::Simulate);
            let (c_fast, k_fast) = spmm_with_mode(&me, &b, mapping, ExecMode::Fast);
            let what = format!("{} n={n} {mapping:?}", S::NAME);
            assert_eq!(dense_bits(&c_sim), dense_bits(&c_fast), "{what} output");
            assert_eq!(k_sim, k_fast, "{what} counters");
            specials += non_finite(&dense_bits(&c_fast));
        }
    }
    assert!(specials > 0, "{}: no NaN or Inf reached any output", S::NAME);
}

#[test]
fn spmm_fp16_specials_are_bit_identical() {
    for seed in 0..3 {
        check_spmm::<F16>(&sparse(45, 37, 260, seed), seed);
    }
}

#[test]
fn spmm_tf32_specials_are_bit_identical() {
    for seed in 0..3 {
        check_spmm::<Tf32>(&sparse(45, 37, 260, seed), seed);
    }
}

#[test]
fn spmm_k16_specials_are_bit_identical() {
    for seed in 0..3 {
        let csr = sparse(45, 37, 260, seed);
        let me = MeBcrs::from_csr(&csr.cast::<F16>(), TcFormatSpec::FLASH_FP16_K16);
        let mut specials = 0;
        for n in WIDTHS {
            let b = special_dense::<F16>(csr.cols(), n, seed + n);
            for mapping in MAPPINGS {
                let (c_sim, k_sim) = spmm_with_mode(&me, &b, mapping, ExecMode::Simulate);
                let (c_fast, k_fast) = spmm_with_mode(&me, &b, mapping, ExecMode::Fast);
                let what = format!("k16 n={n} {mapping:?}");
                assert_eq!(dense_bits(&c_sim), dense_bits(&c_fast), "{what} output");
                assert_eq!(k_sim, k_fast, "{what} counters");
                specials += non_finite(&dense_bits(&c_fast));
            }
        }
        assert!(specials > 0, "k16: no NaN or Inf reached any output");
    }
}

fn check_sddmm<S: TcuPrecision>(csr: &CsrMatrix<f32>, seed: usize) {
    let mask = MeBcrs::from_csr(&csr.cast::<S>(), S::SPEC);
    let mut specials = 0;
    // Inner dimensions below, at and across the 4/8-wide k-chunks.
    for kk in [1, 3, 8, 13, 32] {
        let a = special_dense::<S>(csr.rows(), kk, seed + kk);
        let b = special_dense::<S>(csr.cols(), kk, seed + 2 * kk + 1);
        let (o_sim, k_sim) = sddmm_with_mode(&mask, &a, &b, ExecMode::Simulate);
        let (o_fast, k_fast) = sddmm_with_mode(&mask, &a, &b, ExecMode::Fast);
        let what = format!("{} kk={kk}", S::NAME);
        assert_eq!(value_bits(&o_sim), value_bits(&o_fast), "{what} values");
        assert_eq!(k_sim, k_fast, "{what} counters");
        specials += non_finite(&value_bits(&o_fast));
    }
    assert!(specials > 0, "{}: no NaN or Inf reached any output", S::NAME);
}

#[test]
fn sddmm_specials_are_bit_identical() {
    for seed in 0..3 {
        let csr = sparse(45, 37, 260, seed);
        check_sddmm::<F16>(&csr, seed);
        check_sddmm::<Tf32>(&csr, seed);
    }
}

#[test]
fn overlapped_specials_match_monolithic_launch() {
    // Enough rows for several 256-row slabs plus a ragged final window.
    let csr = sparse(600, 90, 2400, 11);
    for (precision, block_k) in [(Precision::Fp16, 8), (Precision::Fp16, 16), (Precision::Tf32, 4)]
    {
        for mapping in MAPPINGS {
            let choice = TuneChoice { precision, block_k, mapping, sampled_time: 0.0 };
            let mono = TranslatedMatrix::translate(&csr, &choice);
            for n in [7, 19] {
                let b = special_dense::<f32>(csr.cols(), n, n);
                let (want, want_k) = mono.spmm_f32(&b, mapping);
                for sched in [SchedMode::Sequential, SchedMode::WorkStealing { workers: 2 }] {
                    let (got, got_k, _) = spmm_overlapped(&csr, &b, &choice, sched);
                    let what = format!("{} n={n} {mapping:?} {sched:?}", choice.variant_name());
                    assert_eq!(dense_bits(&got), dense_bits(&want), "{what} output");
                    assert_eq!(got_k.mma_count, want_k.mma_count, "{what} mma count");
                    assert_eq!(got_k.tcu_flops, want_k.tcu_flops, "{what} flops");
                    assert!(non_finite(&dense_bits(&got)) > 0, "{what}: no NaN or Inf");
                }
            }
        }
    }
}

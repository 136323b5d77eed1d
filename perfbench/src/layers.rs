//! Per-layer probes shared by the workloads: each times direct calls
//! into one layer's public functions on the workload's own inputs.

use flashsparse::{auto_tune, spmm_with_sched, SchedMode, ThreadMapping, TranslatedMatrix};
use fs_format::{MeBcrs, MemoryFootprint};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::{Tf32, F16};
use fs_serve::protocol::{Request, Response, FRAME_HEADER_BYTES};
use fs_tcu::GpuSpec;
use fs_trace::{Site, TraceCounter, TraceSnapshot};

use crate::report::{Layers, TRACE_COUNTERS, TRACE_SITES};
use crate::spans::Span;
use crate::stats::median_ms;

/// Repetitions of each probe; the probe reports their median.
const REPS: usize = 5;

/// fs-precision round trips (f32 → F16/Tf32 → f32) over a buffer the
/// size of the workload's dense operand, in ns per element.
pub fn precision(layers: &mut Layers, b: &DenseMatrix<f32>) {
    let xs = b.as_slice();
    let per_elem = |total_ms: f64| total_ms * 1e6 / xs.len().max(1) as f64;
    let f16 = median_ms(REPS, || xs.iter().map(|&x| F16::from_f32(x).to_f32()).sum::<f32>());
    let tf32 = median_ms(REPS, || xs.iter().map(|&x| f32::from(Tf32::from_f32(x))).sum::<f32>());
    layers.set("precision.f16_round_ns", per_elem(f16));
    layers.set("precision.tf32_round_ns", per_elem(tf32));
}

/// Fill ratio of a translated matrix's stored blocks.
pub fn fill_ratio(t: &TranslatedMatrix) -> f64 {
    match t {
        TranslatedMatrix::Fp16K8(me) | TranslatedMatrix::Fp16K16(me) => me.fill_ratio(),
        TranslatedMatrix::Tf32K4(me) => me.fill_ratio(),
    }
}

/// Auto-tune and translation of the workload's matrix at operand width
/// `n`, plus the translated format's fill and footprint.
pub fn format(layers: &mut Layers, csr: &CsrMatrix<f32>, n: usize) {
    let choice = auto_tune(csr, n, GpuSpec::RTX4090);
    let tune_ms = median_ms(REPS, || auto_tune(csr, n, GpuSpec::RTX4090));
    let translate_ms = median_ms(REPS, || TranslatedMatrix::translate(csr, &choice));
    let translated = TranslatedMatrix::translate(csr, &choice);
    layers.set("tune.ms", tune_ms);
    layers.set("format.translate_ns_per_nnz", translate_ms * 1e6 / csr.nnz().max(1) as f64);
    layers.set("format.fill_ratio", fill_ratio(&translated));
    layers.set("format.footprint_bytes", translated.footprint_bytes() as f64);
}

/// Encode + decode of one request and its response, timed directly on
/// the protocol types, and their framed size.
pub fn codec(layers: &mut Layers, req: &Request, resp: &Response) -> Result<(), String> {
    let req_bytes = req.encode().map_err(|e| format!("encode request: {e}"))?;
    let resp_bytes = resp.encode().map_err(|e| format!("encode response: {e}"))?;
    let us = 1e3
        * median_ms(REPS, || {
            let a = req.encode().map(|p| Request::decode(&p).is_ok());
            let b = resp.encode().map(|p| Response::decode(&p).is_ok());
            matches!((a, b), (Ok(true), Ok(true)))
        });
    layers.set("wire.codec_us", us);
    layers.set(
        "wire.bytes_per_op",
        (req_bytes.len() + resp_bytes.len() + 2 * FRAME_HEADER_BYTES) as f64,
    );
    Ok(())
}

/// The window scheduler on one translated matrix: the same FP16 launch
/// under `Sequential` and under `WorkStealing { workers: 2 }`.
pub fn pipeline(layers: &mut Layers, label: &str, csr: &CsrMatrix<f32>, b: &DenseMatrix<f32>) {
    let a: MeBcrs<F16> = MeBcrs::from_csr(&csr.cast(), fs_format::TcFormatSpec::FLASH_FP16);
    let b16: DenseMatrix<F16> = b.cast();
    let mapping = ThreadMapping::MemoryEfficient;
    let seq = median_ms(REPS, || spmm_with_sched(&a, &b16, mapping, SchedMode::Sequential));
    let ws = median_ms(REPS, || {
        spmm_with_sched(&a, &b16, mapping, SchedMode::WorkStealing { workers: 2 })
    });
    layers.set(format!("pipeline.seq_ms.{label}"), seq);
    layers.set(format!("pipeline.ws_ms.{label}"), ws);
}

/// The fs-trace registry's span sites whose names start with `prefix`,
/// and with an empty prefix also its counters.
pub fn trace_sites(layers: &mut Layers, snap: &TraceSnapshot, prefix: &str) {
    for name in TRACE_SITES.into_iter().filter(|n| n.starts_with(prefix)) {
        if let Some(site) = Site::ALL.into_iter().find(|s| s.name() == name) {
            let hist = &snap.site(site).hist;
            layers.set(format!("trace.{name}.p50_us"), hist.p50_ns() as f64 / 1e3);
            layers.set(format!("trace.{name}.count"), hist.count as f64);
        }
    }
    if !prefix.is_empty() {
        return;
    }
    for name in TRACE_COUNTERS {
        if let Some(c) = TraceCounter::ALL.into_iter().find(|c| c.name() == name) {
            layers.set(format!("trace.{name}"), snap.counter(c) as f64);
        }
    }
}

/// Self time of every benchmark span name.
pub fn self_times(layers: &mut Layers, spans: &[Span]) {
    for (name, us) in crate::spans::self_times_us(spans) {
        layers.set(format!("self_us.{name}"), us);
    }
}

/// Run `f` with fs-trace armed on a fresh registry; returns its result
/// and the registry snapshot taken before disarming.
pub fn armed<R>(f: impl FnOnce() -> R) -> (R, TraceSnapshot) {
    fs_trace::reset();
    fs_trace::set_armed(true);
    let r = f();
    let snap = fs_trace::snapshot();
    fs_trace::set_armed(false);
    (r, snap)
}

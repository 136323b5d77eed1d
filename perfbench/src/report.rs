//! What a run reports, and the one JSON line that ends its output.

use std::collections::BTreeMap;
use std::time::Instant;

use fs_matrix::gen::random_uniform;
use fs_matrix::CsrMatrix;
use fs_trace::export::JsonWriter;

use crate::spans::Span;
use crate::stats::{
    median, median_ms, operand, peak_rss_mb, percentile, quiet, sorted, Digest, Sample, Windowed,
};
use crate::Config;

/// The end-to-end metrics every workload reports (see README.md for
/// what "operation", "miss" and "register" mean on each workload).
#[derive(Clone, Copy, Debug, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub useful_gflops: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub miss_latency_p50_ms: f64,
    pub miss_latency_p90_ms: f64,
    pub register_latency_p50_ms: f64,
}

impl E2e {
    /// Miss-latency percentiles from the quiet cold samples.
    pub fn set_miss(&mut self, miss: &[Sample]) {
        let m = sorted(quiet(miss));
        self.miss_latency_p50_ms = percentile(&m, 50.0);
        self.miss_latency_p90_ms = percentile(&m, 90.0);
    }

    /// Register-latency median from the quiet registration samples.
    pub fn set_register(&mut self, register: &[Sample]) {
        self.register_latency_p50_ms = median(quiet(register));
    }
}

/// The per-layer metrics of a traced run, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            per_layer_names().iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued and checked.
    pub attempted: u64,
    /// Operations that failed, timed out, were shed, came back degraded,
    /// or returned a wrong output.
    pub failed: u64,
    /// Failed self-checks (exact counts, designed cache shares).
    pub problems: Vec<String>,
    /// Every set-up; `setup_s` is the median of the quiet ones.
    pub setups: Vec<Sample>,
    /// The measured phase's windows: steal ticks, operations, kept.
    pub windows: Vec<(f64, usize, bool)>,
    /// Peak RSS taken before the benchmark's own post-run checks, when
    /// those allocate more than the program did.
    pub peak_rss_mb: Option<f64>,
    pub e2e: E2e,
    pub layers: Layers,
    /// Digest of the counts that must repeat exactly at one seed, for
    /// comparing runs of one commit.
    pub digest: Option<Digest>,
    /// The traced run's benchmark spans.
    pub spans: Vec<Span>,
    /// Engine workers of the servers the workload started (0: none).
    pub workers: usize,
}

impl Outcome {
    /// Record a failed self-check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record the exact-counts digest, computed once before the measured
    /// phase (`first`) and again after it (`again`): the two must agree.
    pub fn counts(&mut self, first: Digest, again: Digest) {
        if first.value() != again.value() {
            self.problem(format!(
                "exact counts differ between two computations in one run: {:016x} then {:016x}",
                first.value(),
                again.value()
            ));
        }
        self.digest = Some(first);
    }

    /// Take the measured phase's rates and latency percentiles.
    pub fn set_windowed(&mut self, w: Windowed) {
        self.e2e.useful_gflops = w.gflops;
        self.e2e.ops_per_s = w.ops_per_s;
        self.e2e.latency_p50_ms = w.p50_ms;
        self.e2e.latency_p99_ms = w.p99_ms;
        self.windows = w.windows;
    }

    /// Record one set-up that began at `t0` (and its span, when traced).
    pub fn setup_done(&mut self, traced: bool, epoch: Instant, t0: Instant) {
        let end = Instant::now();
        self.setups.push(Sample { start: t0, end });
        let mut log = crate::spans::SpanLog::new(traced, epoch, 0);
        let id = log.id();
        log.record(id, "setup", t0, end, 0, 0);
        self.spans.extend(log.into_spans());
    }
}

/// Kernel cases of the `kernel` workload: `(operation, case)`.
pub const KERNEL_CASES: [(&str, &str); 4] = [
    ("spmm", "rmat-s12-fp16"),
    ("spmm", "uniform-4k-fp16"),
    ("spmm", "rmat-s12-tf32"),
    ("sddmm", "rmat-s12-fp16"),
];

/// The existing fs-trace span sites a traced run reports.
pub const TRACE_SITES: [&str; 16] = [
    "translate",
    "tune",
    "window_batch",
    "serve.decode",
    "serve.queue",
    "serve.batch",
    "serve.execute",
    "serve.encode",
    "cluster.route",
    "cluster.scatter",
    "cluster.gather",
    "cluster.shard_wait",
    "pipeline.stage",
    "pipeline.overlap",
    "serve.gnn_layer",
    "serve.gnn_cache",
];

/// The fs-trace counters a traced run reports.
pub const TRACE_COUNTERS: [&str; 6] =
    ["steals", "overlaps", "cache_hits", "cache_misses", "gnn_cache_hits", "gnn_cache_misses"];

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        vec![("precision.f16_round_ns".into(), "ns"), ("precision.tf32_round_ns".into(), "ns")];
    for (op, case) in KERNEL_CASES {
        v.push((format!("kernel.{op}_ms.{case}"), "ms"));
    }
    for ds in ["rmat-s12", "uniform-4k"] {
        v.push((format!("kernel.ref_ms.{ds}"), "ms"));
        v.push((format!("kernel.fast_over_ref.{ds}"), "ratio"));
    }
    for (metric, unit) in [
        ("mma_count", "count"),
        ("sectors", "count"),
        ("bytes_moved", "bytes"),
        ("cost_model_us", "us"),
    ] {
        for (op, case) in KERNEL_CASES {
            v.push((format!("kernel.{metric}.{op}.{case}"), unit));
        }
    }
    for (name, unit) in [
        ("pipeline.seq_ms.rmat-s12", "ms"),
        ("pipeline.ws_ms.rmat-s12", "ms"),
        ("pipeline.seq_ms.small", "ms"),
        ("pipeline.ws_ms.small", "ms"),
        ("pipeline.overlaps", "count"),
        ("format.translate_ns_per_nnz", "ns"),
        ("format.fill_ratio", "ratio"),
        ("format.footprint_bytes", "bytes"),
        ("tune.ms", "ms"),
        ("engine.queue_ms_p50", "ms"),
        ("engine.service_ms_p50", "ms"),
        ("engine.batch_size_mean", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions", "count"),
        ("cache.resident_bytes", "bytes"),
        ("wire.ms_p50", "ms"),
        ("wire.codec_us", "us"),
        ("wire.bytes_per_op", "bytes"),
        ("gnn.layer_ms_p50", "ms"),
        ("gnn.offline_forward_ms", "ms"),
        ("gnn.hit_ratio", "ratio"),
        ("cluster.router_overhead_ms", "ms"),
        ("cluster.shards_ok_mean", "count"),
    ] {
        v.push((name.into(), unit));
    }
    for site in TRACE_SITES {
        v.push((format!("trace.{site}.p50_us"), "us"));
        v.push((format!("trace.{site}.count"), "count"));
    }
    for counter in TRACE_COUNTERS {
        v.push((format!("trace.{counter}"), "count"));
    }
    for name in crate::spans::NAMES {
        v.push((format!("self_us.{name}"), "us"));
    }
    v.push(("trace_overhead".into(), "ratio"));
    v
}

/// The end-to-end metrics with their units, in report order.
fn e2e_metrics(e: &E2e) -> [(&'static str, f64, &'static str); 8] {
    [
        ("setup_s", e.setup_s, "s"),
        ("useful_gflops", e.useful_gflops, "GFLOP/s"),
        ("ops_per_s", e.ops_per_s, "1/s"),
        ("latency_p50_ms", e.latency_p50_ms, "ms"),
        ("latency_p99_ms", e.latency_p99_ms, "ms"),
        ("miss_latency_p50_ms", e.miss_latency_p50_ms, "ms"),
        ("miss_latency_p90_ms", e.miss_latency_p90_ms, "ms"),
        ("register_latency_p50_ms", e.register_latency_p50_ms, "ms"),
    ]
}

/// This host's sequential `spmm_reference` throughput: the plain
/// baseline that makes numbers from different hosts comparable.
fn host_ref_gflops() -> f64 {
    let csr = CsrMatrix::from_coo(&random_uniform::<f32>(1024, 1024, 16_384, 7));
    let b = operand(1024, 64, 7);
    let ms = median_ms(5, || csr.spmm_reference(&b));
    2.0 * csr.nnz() as f64 * 64.0 / (ms * 1e-3) / 1e9
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Print the summary and run record, write the timeline, and return the
/// result line.
pub fn finish(cfg: &Config, mut out: Outcome) -> String {
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: could not create {}: {e}", cfg.out_dir.display());
    }
    out.e2e.setup_s = median(quiet(&out.setups)) / 1e3;
    let peak_rss = out.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    let ref_gflops = host_ref_gflops();
    let steal_ticks = crate::steal::total();
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    let tag = format!("{}-s{}-t{}", cfg.workload.name(), cfg.seed, u8::from(cfg.trace));
    let digest = out.digest.map_or(String::new(), |d| format!("{:016x}", d.value()));

    let metrics: Vec<(String, f64, &'static str)> = if cfg.trace {
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let v = out.layers.0.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        e2e_metrics(&out.e2e).iter().map(|&(n, v, u)| (n.to_string(), v, u)).collect()
    };

    let mut line = JsonWriter::new();
    line.begin_object();
    line.field_bool("correct", correct);
    line.field_u64("attempted", out.attempted);
    line.field_u64("failed", out.failed);
    line.key("metrics").begin_object();
    for (name, value, unit) in &metrics {
        line.key(name).begin_object();
        line.field_f64("value", *value);
        line.field_str("unit", unit);
        line.end_object();
    }
    line.end_object();
    line.end_object();
    let line = line.finish();

    // The run record: the result plus what is needed to compare it.
    let mut rec = JsonWriter::new();
    rec.begin_object();
    rec.field_str("workload", cfg.workload.name());
    rec.field_u64("seed", cfg.seed);
    rec.field_bool("trace", cfg.trace);
    rec.field_f64("seconds", cfg.measure.as_secs_f64());
    rec.field_u64("nproc", nproc() as u64);
    rec.field_u64("engine_workers", out.workers as u64);
    rec.field_f64("host_ref_gflops", ref_gflops);
    rec.field_u64("steal_ticks", steal_ticks);
    rec.field_f64("peak_rss_mb", peak_rss);
    rec.field_str("counts_digest", &digest);
    rec.field_f64("error_rate", out.failed as f64 / out.attempted.max(1) as f64);
    rec.key("windows").begin_array();
    for &(steal, ops, kept) in &out.windows {
        rec.begin_object();
        rec.field_f64("steal_ticks", steal);
        rec.field_u64("ops", ops as u64);
        rec.field_bool("kept", kept);
        rec.end_object();
    }
    rec.end_array();
    rec.key("setups_ms").begin_array();
    for setup in &out.setups {
        rec.value_f64(setup.ms());
    }
    rec.end_array();
    rec.key("problems").begin_array();
    for p in &out.problems {
        rec.value_str(p);
    }
    rec.end_array();
    rec.key("result").value_raw(&line);
    rec.end_object();
    let rec = rec.finish();
    let rec_path = cfg.out_dir.join(format!("run-{tag}.json"));
    if let Err(e) = std::fs::write(&rec_path, format!("{rec}\n")) {
        eprintln!("perfbench: could not write {}: {e}", rec_path.display());
    }
    if cfg.trace {
        let path = cfg.out_dir.join(format!("spans-{tag}.json"));
        if let Err(e) = std::fs::write(&path, crate::spans::chrome_json(&out.spans)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    eprintln!(
        "perfbench {} seed={} nproc={} engine_workers={} host_ref_gflops={ref_gflops:.3} \
         steal_ticks={steal_ticks} counts_digest={digest}",
        cfg.workload.name(),
        cfg.seed,
        nproc(),
        out.workers
    );
    eprintln!(
        "  attempted={} failed={} error_rate={:.6} correct={correct} peak_rss_mb={peak_rss:.1}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for p in &out.problems {
        eprintln!("  PROBLEM: {p}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
    }
    line
}

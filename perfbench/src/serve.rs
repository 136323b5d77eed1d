//! Loopback serving: the shared closed-loop harness, and the
//! `serve-churn` workload.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use flashsparse::{outputs_match, TranslatedMatrix, TuneChoice, DEFAULT_TOLERANCE};
use fs_format::MemoryFootprint;
use fs_matrix::gen::{rmat, RmatConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::protocol::{Request, Response};
use fs_serve::{EngineConfig, ServeClient, ServeEngine, Server, ServerConfig};
use fs_trace::TraceSnapshot;

use crate::layers;
use crate::report::Outcome;
use crate::spans::{Span, SpanLog};
use crate::stats::{mean, median, ms, operand, windowed, Digest, Done, Sample, Windowed};
use crate::Config;

/// Closed-loop client connections per serving workload (the host has
/// two cores; so does every engine the benchmark starts).
pub const CONNS: usize = 2;
/// Engine worker threads of a standalone server.
pub const WORKERS: usize = 2;
/// Per-request deadline: generous, so a deadline miss means a stall.
pub const DEADLINE_MS: u32 = 10_000;
/// Tenant name every request is accounted to.
pub const TENANT: &str = "bench";
/// Segments an untraced run's measured phase is cut into. The workload
/// pauses between segments to time spare set-ups and a share of its
/// registration or cold probes, so those samples are spread over the run
/// as the measured windows are, and the steal filter (`stats::quiet`)
/// has quiet ones to keep.
pub const SEGMENTS: usize = 5;
/// Spare set-ups timed after each segment.
pub const SPARE_SETUPS: usize = 2;
/// Windows per segment that rates and percentiles are taken over.
const WINDOWS_PER_SEGMENT: usize = 2;

/// An in-process `fs-serve` server on `127.0.0.1:0`.
pub struct Running {
    pub addr: SocketAddr,
    pub engine: Arc<ServeEngine>,
    handle: thread::JoinHandle<io::Result<()>>,
}

impl Running {
    pub fn start(engine: EngineConfig) -> Result<Running, String> {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server bind: {e}"))?;
        let addr = server.local_addr();
        let engine = Arc::clone(server.engine());
        let handle = thread::Builder::new()
            .name("perfbench-server".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("server thread: {e}"))?;
        Ok(Running { addr, engine, handle })
    }

    pub fn connect(&self) -> Result<ServeClient, String> {
        connect(self.addr)
    }

    /// Wait for the accept loop to end (after a router propagated its
    /// shutdown).
    pub fn wait(self) -> Result<(), String> {
        join(self.handle)
    }

    /// Ask the server to drain, then wait for its accept loop to end.
    pub fn stop(self) -> Result<(), String> {
        connect(self.addr)?.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        join(self.handle)
    }
}

pub fn connect(addr: SocketAddr) -> Result<ServeClient, String> {
    ServeClient::connect_with_retry(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))
}

pub fn join(handle: thread::JoinHandle<io::Result<()>>) -> Result<(), String> {
    handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server run: {e}"))
}

/// What the closed-loop connections of one phase measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every operation that completed and checked out.
    pub ops: Vec<Done>,
    /// Cold operations, timed individually.
    pub miss: Vec<Sample>,
    /// Server-reported parts of SpMM responses, and the rest (wire).
    pub queue_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub wire_ms: Vec<f64>,
    pub batch: Vec<usize>,
    /// Workload-specific samples (GNN layer time, shards answering).
    pub extra: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Cache-designed events: cold first requests and warm repeats.
    pub misses: u64,
    pub hits: u64,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
    /// The measured stretches of time: when the connections were
    /// released, and the wall time from then to the last one's end.
    pub segments: Vec<(Instant, Duration)>,
}

impl Tally {
    /// Count a failed operation (its message is printed for the first few).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failed operation: {msg}");
        }
    }

    /// Record a completed, checked operation.
    pub fn complete(&mut self, at: Instant, lat_ms: f64, flops: f64) {
        self.ops.push(Done { at, lat_ms, flops });
    }

    pub fn merge(&mut self, o: Tally) {
        self.ops.extend(o.ops);
        self.miss.extend(o.miss);
        self.queue_ms.extend(o.queue_ms);
        self.service_ms.extend(o.service_ms);
        self.wire_ms.extend(o.wire_ms);
        self.batch.extend(o.batch);
        self.extra.extend(o.extra);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.misses += o.misses;
        self.hits += o.hits;
        self.problems.extend(o.problems);
        self.spans.extend(o.spans);
        self.segments.extend(o.segments);
    }

    pub fn p50(&self) -> f64 {
        median(self.ops.iter().map(|o| o.lat_ms).collect())
    }

    /// The phase's rates and latency percentiles over its segments'
    /// windows.
    pub fn windowed(&self) -> Windowed {
        windowed(&self.ops, &self.segments, WINDOWS_PER_SEGMENT, false)
    }
}

/// Run `conns` closed-loop connections, released together by a barrier,
/// and merge what they measured into one segment.
pub fn run_conns<F>(conns: usize, f: F) -> Tally
where
    F: Fn(usize, &Barrier) -> Tally + Sync,
{
    let barrier = Barrier::new(conns);
    let started = Instant::now();
    let tallies: Vec<Tally> = thread::scope(|s| {
        let (f, barrier) = (&f, &barrier);
        let handles: Vec<_> = (0..conns).map(|c| s.spawn(move || f(c, barrier))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut t = Tally::default();
                    t.fail("client thread panicked".to_string());
                    t
                })
            })
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    let begin = all.segments.iter().map(|s| s.0).min().unwrap_or(started);
    let end = all.segments.iter().map(|s| s.0 + s.1).max().unwrap_or_else(Instant::now);
    all.segments = vec![(begin, end.saturating_duration_since(begin))];
    all
}

/// A traced run measures twice: untraced, then with fs-trace armed and
/// the benchmark's spans on. An untraced run measures in [`SEGMENTS`]
/// segments and calls `between` after each.
pub struct Phases {
    pub main: Tally,
    pub untraced: Option<Tally>,
    pub snap: Option<TraceSnapshot>,
}

impl Phases {
    pub fn run(
        cfg: &Config,
        mut phase: impl FnMut(Duration, bool) -> Tally,
        mut between: impl FnMut() -> Result<(), String>,
    ) -> Result<Phases, String> {
        if !cfg.trace {
            let mut main = Tally::default();
            for _ in 0..SEGMENTS {
                main.merge(phase(cfg.measure / SEGMENTS as u32, false));
                between()?;
            }
            return Ok(Phases { main, untraced: None, snap: None });
        }
        let half = cfg.measure / 2;
        let untraced = phase(half, false);
        let (main, snap) = layers::armed(|| phase(half, true));
        Ok(Phases { main, untraced: Some(untraced), snap: Some(snap) })
    }

    /// Fold the phases' counts and findings into the outcome.
    pub fn account(&mut self, out: &mut Outcome) {
        for t in std::iter::once(&mut self.main).chain(self.untraced.as_mut()) {
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.problems.append(&mut t.problems);
        }
    }

    /// The end-to-end metrics of the measured phase.
    pub fn e2e(&self, out: &mut Outcome) {
        let t = &self.main;
        out.set_windowed(t.windowed());
        out.e2e.set_miss(&t.miss);
    }

    /// Per-layer metrics every serving workload shares: the fs-trace
    /// registry, the benchmark's self times, server-reported SpMM parts,
    /// and the tracing overhead.
    pub fn common_layers(&mut self, out: &mut Outcome) {
        if let Some(snap) = &self.snap {
            layers::trace_sites(&mut out.layers, snap, "");
        }
        out.spans.append(&mut self.main.spans);
        layers::self_times(&mut out.layers, &out.spans);
        let t = &self.main;
        if !t.queue_ms.is_empty() {
            out.layers.set("engine.queue_ms_p50", median(t.queue_ms.clone()));
            out.layers.set("engine.service_ms_p50", median(t.service_ms.clone()));
            out.layers.set("wire.ms_p50", median(t.wire_ms.clone()));
            let sizes: Vec<f64> = t.batch.iter().map(|&b| b as f64).collect();
            out.layers.set("engine.batch_size_mean", mean(&sizes));
        }
        if let Some(u) = &self.untraced {
            out.layers.set("trace_overhead", t.p50() / u.p50().max(1e-9) - 1.0);
        }
    }
}

/// One checked SpMM over a connection. Records latency, the server's
/// queue/service split, spans, and the useful FLOPs; checks the output
/// against `reference` at `DEFAULT_TOLERANCE` and, when given, the
/// cache flag against the workload's design.
#[allow(clippy::too_many_arguments)]
pub fn spmm_op(
    client: &mut ServeClient,
    log: &mut SpanLog,
    t: &mut Tally,
    req: u64,
    matrix_id: u64,
    nnz: usize,
    b: &DenseMatrix<f32>,
    reference: &DenseMatrix<f32>,
    expect_hit: Option<bool>,
) -> Option<Sample> {
    let (op, call) = (log.id(), log.id());
    let t0 = Instant::now();
    t.attempted += 1;
    let res = client.spmm(TENANT, matrix_id, b.rows(), b.cols(), b.as_slice(), DEADLINE_MS);
    let t1 = Instant::now();
    log.record(call, "call", t0, t1, op, req);
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            t.fail(format!("spmm on matrix {matrix_id}: {e}"));
            return None;
        }
    };
    let lat = ms(t1 - t0);
    let (queue, service) =
        (Duration::from_micros(r.queue_micros), Duration::from_micros(r.service_micros));
    log.server_parts(call, t0, t1, req, &[("queue", queue), ("service", service)]);
    t.queue_ms.push(ms(queue));
    t.service_ms.push(ms(service));
    t.wire_ms.push((lat - ms(queue) - ms(service)).max(0.0));
    t.batch.push(r.batch_size);
    let v0 = Instant::now();
    let out = DenseMatrix::from_vec(r.rows, r.n, r.out);
    let ok = outputs_match(&out, reference, DEFAULT_TOLERANCE);
    let v1 = Instant::now();
    let verify = log.id();
    log.record(verify, "verify", v0, v1, op, req);
    log.record(op, "op", t0, v1, 0, req);
    if !ok {
        t.fail(format!("spmm on matrix {matrix_id}: output differs from the reference"));
        return None;
    }
    t.complete(t1, lat, 2.0 * nnz as f64 * b.cols() as f64);
    if let Some(hit) = expect_hit {
        if r.cache_hit != hit {
            t.problems.push(format!(
                "matrix {matrix_id}: cache_hit={} where the workload design says {hit}",
                r.cache_hit
            ));
        }
    }
    Some(Sample { start: t0, end: t1 })
}

/// The `kernel` workload's power-law matrix, for the scheduler probe.
pub fn rmat_s12(cfg: &Config) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&rmat::<f32>(12, 8, RmatConfig::GRAPH500, true, cfg.sub_seed(2)))
}

/// Protocol cost of one SpMM request/response pair of this shape.
pub fn spmm_codec(
    l: &mut crate::report::Layers,
    matrix_id: u64,
    b: &DenseMatrix<f32>,
    out: &DenseMatrix<f32>,
) -> Result<(), String> {
    let req = Request::Spmm {
        tenant: TENANT.to_string(),
        matrix_id,
        deadline_ms: DEADLINE_MS,
        b_rows: b.rows() as u32,
        n: b.cols() as u32,
        b: b.as_slice().to_vec(),
    };
    let resp = Response::Spmm {
        cache_hit: true,
        batch_size: 1,
        queue_micros: 10,
        service_micros: 10,
        fallback_level: 0,
        verified: false,
        rows: out.rows() as u32,
        n: out.cols() as u32,
        out: out.as_slice().to_vec(),
    };
    layers::codec(l, &req, &resp)
}

/// Fold a matrix's shape and the fill and footprint of its cold-path
/// (FALLBACK) translation into the exact-counts digest; returns the
/// footprint.
pub fn exact_format_counts(d: &mut Digest, csr: &CsrMatrix<f32>) -> usize {
    let t = TranslatedMatrix::translate(csr, &TuneChoice::FALLBACK);
    for word in [
        csr.rows() as u64,
        csr.cols() as u64,
        csr.nnz() as u64,
        t.footprint_bytes() as u64,
        layers::fill_ratio(&t).to_bits(),
    ] {
        d.add(word);
    }
    t.footprint_bytes()
}

// ---------------------------------------------------------------- serve-churn

/// R-MAT scale of the churned matrices (2048 rows).
const CHURN_SCALE: u32 = 11;
/// Matrices each connection cycles through; far more than the format
/// cache holds, so each comes back cold.
const CHURN_POOL: usize = 8;
/// SpMMs per Load (the first misses, the rest hit).
const CHURN_K: usize = 4;
const CHURN_N: usize = 16;
/// The format cache holds this many FALLBACK-sized translations.
const CHURN_CACHE_ENTRIES: usize = 6;
/// Loads timed on their own between the measured segments.
const CHURN_REGISTER_PROBES: usize = 100;

/// The cold-path translation digest of the churned matrices (see
/// [`exact_format_counts`]), and the largest translation's footprint.
fn churn_counts(pools: &[Vec<CsrMatrix<f32>>]) -> (Digest, usize) {
    let mut digest = Digest::new();
    let mut max_footprint = 0usize;
    for m in pools.iter().flatten() {
        max_footprint = max_footprint.max(exact_format_counts(&mut digest, m));
    }
    (digest, max_footprint)
}

/// `serve-churn`: each connection repeats Load → K SpMMs → Evict on its
/// own seeded R-MAT matrices, so translation, tuning, the overlapped
/// cold path and cache insert/replace/evict dominate.
pub fn run_churn(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome { workers: WORKERS, ..Outcome::default() };
    let gen =
        |s: u64| CsrMatrix::from_coo(&rmat::<f32>(CHURN_SCALE, 8, RmatConfig::GRAPH500, true, s));
    let pools: Vec<Vec<CsrMatrix<f32>>> = (0..CONNS)
        .map(|c| {
            (0..CHURN_POOL).map(|i| gen(cfg.sub_seed(10_000 + (c * 100 + i) as u64))).collect()
        })
        .collect();
    let dim = 1usize << CHURN_SCALE;
    let operands: Vec<DenseMatrix<f32>> =
        (0..2).map(|i| operand(dim, CHURN_N, cfg.sub_seed(200 + i))).collect();
    let refs: Vec<Vec<Vec<DenseMatrix<f32>>>> = pools
        .iter()
        .map(|pool| {
            pool.iter().map(|m| operands.iter().map(|b| m.spmm_reference(b)).collect()).collect()
        })
        .collect();
    let warm_csr = gen(cfg.sub_seed(9));
    let warm_refs: Vec<DenseMatrix<f32>> =
        operands.iter().map(|b| warm_csr.spmm_reference(b)).collect();
    let (digest, max_footprint) = churn_counts(&pools);
    let engine_cfg = EngineConfig {
        workers: WORKERS,
        cache_budget_bytes: CHURN_CACHE_ENTRIES * max_footprint,
        ..EngineConfig::default()
    };

    // Set-up: a server and one warm-up cycle on a matrix of its own.
    let epoch = Instant::now();
    let mut warm = Tally::default();
    let mut setup = |out: &mut Outcome| -> Result<Running, String> {
        let t0 = Instant::now();
        let running = Running::start(engine_cfg)?;
        let mut client = running.connect()?;
        let mut log = SpanLog::new(false, epoch, 0);
        churn_cycle(&mut client, &mut log, &mut warm, 0, &warm_csr, &operands, &warm_refs);
        out.setup_done(cfg.trace, epoch, t0);
        Ok(running)
    };
    let running = setup(&mut out)?;
    let engine = Arc::clone(&running.engine);
    // Let the warm-up's background tuner land before measuring.
    thread::sleep(Duration::from_millis(50));

    // Register latency: Loads (each then evicted) on one connection with
    // nothing else running, so how the two connections' cycles happen to
    // line up does not set it.
    let mut register = Vec::new();
    let mut probed = 0usize;
    let mut register_probes = |out: &mut Outcome, count: usize| -> Result<(), String> {
        let mut client = running.connect()?;
        for _ in 0..count {
            let m = &pools[probed % CONNS][(probed / CONNS) % CHURN_POOL];
            probed += 1;
            out.attempted += 2;
            let t0 = Instant::now();
            let loaded = client.load_matrix(TENANT, m);
            let end = Instant::now();
            match loaded {
                Ok(l) if l.nnz as usize == m.nnz() => {
                    register.push(Sample { start: t0, end });
                    if !matches!(client.evict_matrix(TENANT, l.matrix_id), Ok(true)) {
                        out.failed += 1;
                        eprintln!(
                            "perfbench: register probe: evict of matrix {} failed",
                            l.matrix_id
                        );
                    }
                }
                other => {
                    out.failed += 2;
                    eprintln!("perfbench: register probe: load failed or miscounted: {other:?}");
                }
            }
        }
        Ok(())
    };

    // Each connection walks its pool round-robin across phases, so a
    // matrix always comes back after the seven others of its pool and
    // the eight of the other connection's: long evicted from the cache.
    let next_cycle: [AtomicUsize; CONNS] = Default::default();
    let phase = |measure: Duration, traced: bool| {
        let before = engine.cache_stats();
        let mut t = run_conns(CONNS, |c, barrier| {
            let mut t = Tally::default();
            let mut client = match running.connect() {
                Ok(cl) => cl,
                Err(e) => {
                    barrier.wait();
                    t.fail(e);
                    return t;
                }
            };
            let mut log = SpanLog::new(traced, epoch, c as u64 + 1);
            barrier.wait();
            let start = Instant::now();
            let mut cycle = next_cycle[c].load(Ordering::Relaxed);
            while start.elapsed() < measure {
                let i = cycle % CHURN_POOL;
                let req = ((c as u64) << 32) | cycle as u64;
                churn_cycle(
                    &mut client,
                    &mut log,
                    &mut t,
                    req,
                    &pools[c][i],
                    &operands,
                    &refs[c][i],
                );
                cycle += 1;
            }
            next_cycle[c].store(cycle, Ordering::Relaxed);
            t.segments = vec![(start, start.elapsed())];
            t.spans = log.into_spans();
            t
        });
        // Designed share: per cycle one miss (the first SpMM after the
        // Load) and K-1 hits, each SpMM its own batch.
        let after = engine.cache_stats();
        let (misses, hits) = (after.misses - before.misses, after.hits - before.hits);
        if misses != t.misses || hits != t.hits {
            t.problems.push(format!(
                "format cache: {misses} misses / {hits} hits in the phase, designed {} / {}",
                t.misses, t.hits
            ));
        }
        t
    };
    let between = || {
        for _ in 0..SPARE_SETUPS {
            setup(&mut out)?.stop()?;
        }
        register_probes(&mut out, CHURN_REGISTER_PROBES / SEGMENTS)
    };
    let mut phases = Phases::run(cfg, phase, between)?;
    phases.account(&mut out);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    out.problems.append(&mut warm.problems);
    let cache = engine.cache_stats();
    let overlaps = engine.overlap_count();
    running.stop()?;
    out.counts(digest, churn_counts(&pools).0);

    phases.e2e(&mut out);
    out.e2e.set_register(&register);
    if cfg.trace {
        phases.common_layers(&mut out);
        let l = &mut out.layers;
        l.set("cache.hit_ratio", cache.hit_rate());
        l.set("cache.evictions", cache.evictions as f64);
        l.set("cache.resident_bytes", cache.resident_bytes as f64);
        l.set("pipeline.overlaps", overlaps as f64);
        layers::precision(l, &operands[0]);
        layers::format(l, &pools[0][0], CHURN_N);
        spmm_codec(l, 1, &operands[0], &refs[0][0][0])?;
        // The cluster layers are measured here, on a serving workload;
        // no listed workload runs a router of its own.
        crate::cluster::layer_probe(cfg, &mut out)?;
    }
    Ok(out)
}

/// One churn cycle: Load, K checked SpMMs (the first must miss), Evict.
fn churn_cycle(
    client: &mut ServeClient,
    log: &mut SpanLog,
    t: &mut Tally,
    req: u64,
    csr: &CsrMatrix<f32>,
    operands: &[DenseMatrix<f32>],
    refs: &[DenseMatrix<f32>],
) {
    let (op, call) = (log.id(), log.id());
    t.attempted += 1;
    let t0 = Instant::now();
    let loaded = client.load_matrix(TENANT, csr);
    let t1 = Instant::now();
    log.record(call, "call", t0, t1, op, req);
    log.record(op, "op", t0, t1, 0, req);
    let loaded = match loaded {
        Ok(l) if l.nnz as usize == csr.nnz() => l,
        Ok(l) => {
            t.fail(format!("load: server counted {} nonzeros, expected {}", l.nnz, csr.nnz()));
            return;
        }
        Err(e) => {
            t.fail(format!("load: {e}"));
            return;
        }
    };
    t.complete(t1, ms(t1 - t0), 0.0);
    for s in 0..CHURN_K {
        let i = s % operands.len();
        let cold = spmm_op(
            client,
            log,
            t,
            req,
            loaded.matrix_id,
            csr.nnz(),
            &operands[i],
            &refs[i],
            Some(s > 0),
        );
        if s == 0 {
            t.misses += 1;
            t.miss.extend(cold);
        } else {
            t.hits += 1;
        }
    }
    let (op, call) = (log.id(), log.id());
    t.attempted += 1;
    let t0 = Instant::now();
    let evicted = client.evict_matrix(TENANT, loaded.matrix_id);
    let t1 = Instant::now();
    log.record(call, "call", t0, t1, op, req);
    log.record(op, "op", t0, t1, 0, req);
    match evicted {
        Ok(true) => t.complete(t1, ms(t1 - t0), 0.0),
        Ok(false) => t.fail(format!("evict: matrix {} was not resident", loaded.matrix_id)),
        Err(e) => t.fail(format!("evict: {e}")),
    }
}

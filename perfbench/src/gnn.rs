//! `gnn-mixed`: server-side GCN and AGNN inference over loopback, with a
//! designed embedding-cache miss share and ~0.5 MB request frames.

use std::time::{Duration, Instant};

use fs_gnn::{normalize_adjacency, AgnnModel, GcnModel, GnnWeights, SparseOps};
use fs_matrix::gen::{sbm, SbmConfig};
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::protocol::{Request, Response};
use fs_serve::{backend_for_precision, EngineConfig, GnnConfig, ServeClient};
use fs_tcu::GpuSpec;

use crate::layers;
use crate::report::Outcome;
use crate::serve::{
    Phases, Running, Tally, CONNS, DEADLINE_MS, SEGMENTS, SPARE_SETUPS, TENANT, WORKERS,
};
use crate::spans::SpanLog;
use crate::stats::{median, median_ms, mix, ms, operand, peak_rss_mb, Digest, Sample};
use crate::Config;

const NODES: usize = 2048;
const FEATURES: usize = 64;
const HIDDEN: usize = 32;
const CLASSES: usize = 4;
const AGNN_LAYERS: usize = 2;
/// FP16 (the wire's precision code 2).
const PRECISION: u8 = 2;
/// Feature matrices the cache-hitting requests repeat.
const HIT_VARIANTS: usize = 2;
/// Nodes scored by a subset request.
const SUBSET: usize = 64;
/// Embedding-cache budget: the four hit-set entries (~2.2 MB) plus about
/// fourteen misses, twice as many as arrive between two uses of any
/// hit-set entry, so LRU only ever evicts misses. Small, so the cache
/// fills (and its memory levels off) early in the measured phase.
const EMBEDDING_CACHE_BYTES: usize = 12 << 20;
/// Model registrations timed between the measured segments.
const REGISTER_PROBES: usize = 100;

/// The request schedule of one connection: request `j` goes to model
/// `j % 2` (GCN, AGNN); `j % 16` in {3, 7, 8, 11} carries never-seen
/// features, a designed 1-in-4 miss share. One miss in four is a GCN
/// pass and three are AGNN passes, so the miss-latency percentiles fall
/// inside the AGNN population instead of on the gap between the two.
/// The other requests cycle through the hit variants; half of all
/// requests score a node subset.
struct Shape {
    model: usize,
    miss: bool,
    variant: usize,
    subset: bool,
}

fn shape(j: usize) -> Shape {
    Shape {
        model: j % 2,
        miss: matches!(j % 16, 3 | 7 | 8 | 11),
        variant: (j >> 2) % HIT_VARIANTS,
        subset: (j / 2) % 2 == 1,
    }
}

fn fresh_seed(cfg: &Config, conn: usize, j: usize) -> u64 {
    cfg.sub_seed(mix(((conn as u64) << 32) | j as u64) | 1 << 63)
}

fn subset(cfg: &Config, conn: usize, j: usize) -> Vec<u32> {
    (0..SUBSET).map(|i| (mix(fresh_seed(cfg, conn, j) ^ i as u64) % NODES as u64) as u32).collect()
}

fn select(logits: &[f32], ids: &[u32]) -> Vec<f32> {
    if ids.is_empty() {
        return logits.to_vec();
    }
    ids.iter()
        .flat_map(|&id| logits[id as usize * CLASSES..(id as usize + 1) * CLASSES].iter().copied())
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Useful sparse FLOPs of one forward pass.
fn model_flops(model: usize, nnz: usize) -> f64 {
    let nnz = nnz as f64;
    if model == 0 {
        2.0 * nnz * (HIDDEN + CLASSES) as f64
    } else {
        AGNN_LAYERS as f64 * 2.0 * 2.0 * nnz * HIDDEN as f64
    }
}

/// A miss awaiting its offline reference (computed after the phase).
struct Pending {
    conn: usize,
    j: usize,
    model: usize,
    scores: Vec<f32>,
}

/// Offline logits of every model on every hit-set feature matrix:
/// `[model][variant]`, full graph.
fn hit_logits(
    models: &[GnnWeights],
    ops: &SparseOps,
    adj: &CsrMatrix<f32>,
    variants: &[DenseMatrix<f32>],
) -> Vec<Vec<Vec<f32>>> {
    models
        .iter()
        .map(|w| variants.iter().map(|f| w.forward(ops, adj, f).as_slice().to_vec()).collect())
        .collect()
}

/// The exact-counts digest: the graph's cold-path translation and the
/// hit set's offline logits, bit for bit.
fn counts(adj: &CsrMatrix<f32>, hit_refs: &[Vec<Vec<f32>>]) -> Digest {
    let mut digest = Digest::new();
    crate::serve::exact_format_counts(&mut digest, adj);
    for x in hit_refs.iter().flatten().flatten() {
        digest.add(u64::from(x.to_bits()));
    }
    digest
}

/// The embedding-cache counters from the metrics document's `gnn`
/// section: `(hits, misses)`.
fn gnn_cache_counts(client: &mut ServeClient) -> Result<(u64, u64), String> {
    let json = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let gnn = json.find("\"gnn\":").map(|i| &json[i..]).ok_or("metrics has no gnn section")?;
    let field = |name: &str| -> Option<u64> {
        let at = gnn.find(&format!("\"{name}\":"))? + name.len() + 3;
        gnn[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
    };
    Ok((field("hits").ok_or("no gnn hits")?, field("misses").ok_or("no gnn misses")?))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome { workers: WORKERS, ..Outcome::default() };
    let ds = sbm(
        SbmConfig {
            nodes: NODES,
            classes: CLASSES,
            p_in: 0.02,
            p_out: 0.001,
            feature_dim: FEATURES,
            ..SbmConfig::default()
        },
        cfg.sub_seed(20),
    );
    let adj = normalize_adjacency(&ds.adjacency);
    let models: [GnnWeights; 2] = [
        GcnModel::new(&[FEATURES, HIDDEN, CLASSES], 0.01, cfg.sub_seed(21)).export_weights(),
        AgnnModel::new(FEATURES, HIDDEN, CLASSES, AGNN_LAYERS, 0.01, cfg.sub_seed(22))
            .export_weights(),
    ];
    let backend = backend_for_precision(PRECISION).ok_or("no backend for FP16")?;
    let ops = SparseOps::new(backend, GpuSpec::RTX4090);
    let variants: Vec<DenseMatrix<f32>> =
        (0..HIT_VARIANTS).map(|v| operand(NODES, FEATURES, cfg.sub_seed(30 + v as u64))).collect();
    let hit_refs = hit_logits(&models, &ops, &adj, &variants);
    let digest = counts(&adj, &hit_refs);

    // Set-up: a server, the graph `Load`, both models registered, and
    // one checked warm-up inference per model and hit variant.
    let epoch = Instant::now();
    let setup = |out: &mut Outcome| -> Result<(Running, [u64; 2]), String> {
        let t0 = Instant::now();
        let running = Running::start(EngineConfig {
            workers: WORKERS,
            gnn: GnnConfig { cache_budget_bytes: EMBEDDING_CACHE_BYTES, ..GnnConfig::default() },
            ..EngineConfig::default()
        })?;
        let mut client = running.connect()?;
        let loaded = client.load_matrix(TENANT, &adj).map_err(|e| format!("load graph: {e}"))?;
        let mut ids = [0u64; 2];
        for (m, w) in models.iter().enumerate() {
            let (kind, wire, scalars) = w.export_wire();
            let wire = wire.into_iter().map(|(r, c, d)| (r as u32, c as u32, d)).collect();
            ids[m] = client
                .gnn_register(TENANT, loaded.matrix_id, kind, wire, scalars)
                .map_err(|e| format!("register {}: {e}", w.kind()))?
                .0;
        }
        for (m, &id) in ids.iter().enumerate() {
            for (v, f) in variants.iter().enumerate() {
                out.attempted += 1;
                match client.gnn_infer(
                    TENANT,
                    id,
                    PRECISION,
                    DEADLINE_MS,
                    &[],
                    NODES,
                    FEATURES,
                    f.as_slice(),
                ) {
                    Ok(r) if same_bits(&r.scores, &hit_refs[m][v]) => {}
                    Ok(_) => {
                        out.failed += 1;
                        eprintln!("perfbench: warm-up logits differ from the offline forward");
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("perfbench: warm-up inference: {e}");
                    }
                }
            }
        }
        out.setup_done(cfg.trace, epoch, t0);
        Ok((running, ids))
    };
    let (running, model_ids) = setup(&mut out)?;

    // Register latency: what makes a graph model servable, a `Load` of the
    // graph and a `gnn_register` of a GCN on it (the graph is evicted
    // again after each; the register alone is a ~60 us call that only
    // thread wake-ups time). One connection, nothing else running, on a
    // freshly set-up server: models outlive their graph's eviction, so
    // one server would fill its model registry.
    let mut register = Vec::new();
    let mut probed = 0u64;
    let mut register_probes = |out: &mut Outcome, on: &Running| -> Result<(), String> {
        let mut client = on.connect()?;
        for _ in 0..REGISTER_PROBES / SEGMENTS {
            let w = GcnModel::new(&[FEATURES, HIDDEN, CLASSES], 0.01, cfg.sub_seed(40 + probed))
                .export_weights();
            probed += 1;
            let (kind, wire, scalars) = w.export_wire();
            let wire = wire.into_iter().map(|(r, c, d)| (r as u32, c as u32, d)).collect();
            out.attempted += 3;
            let t0 = Instant::now();
            let registered = client.load_matrix(TENANT, &adj).and_then(|g| {
                client.gnn_register(TENANT, g.matrix_id, kind, wire, scalars).map(|_| g.matrix_id)
            });
            let end = Instant::now();
            match registered.and_then(|g| client.evict_matrix(TENANT, g)) {
                Ok(true) => register.push(Sample { start: t0, end }),
                other => {
                    out.failed += 1;
                    eprintln!("perfbench: register probe: {other:?}");
                }
            }
        }
        Ok(())
    };
    let flops = [model_flops(0, adj.nnz()), model_flops(1, adj.nnz())];

    let mut pending: Vec<Pending> = Vec::new();
    let mut phase_j0 = 0usize;
    // Cache-missing requests take turns across the two connections: a
    // miss never overlaps the other connection's miss. Two overlapping
    // AGNN passes share the two cores and each takes about half again as
    // long, and how often the connections' misses happened to overlap
    // changed from run to run, which moved the miss median by a quarter.
    let cold_turn = std::sync::Mutex::new(());
    let phase = |measure: Duration, traced: bool| {
        let j0 = phase_j0;
        let mut probe = match running.connect() {
            Ok(c) => c,
            Err(e) => {
                let mut t = Tally::default();
                t.fail(e);
                return t;
            }
        };
        let before = gnn_cache_counts(&mut probe);
        let (mut t, mut misses): (Tally, Vec<Pending>) = {
            let results = std::sync::Mutex::new(Vec::new());
            let t = crate::serve::run_conns(CONNS, |c, barrier| {
                let mut t = Tally::default();
                let mut mine = Vec::new();
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
                let mut j = j0;
                while start.elapsed() < measure {
                    let s = shape(j);
                    let req = ((c as u64) << 32) | j as u64;
                    let (op, call) = (log.id(), log.id());
                    let o0 = Instant::now();
                    let fresh;
                    let features = if s.miss {
                        fresh = operand(NODES, FEATURES, fresh_seed(cfg, c, j));
                        &fresh
                    } else {
                        &variants[s.variant]
                    };
                    let ids = if s.subset { subset(cfg, c, j) } else { Vec::new() };
                    t.attempted += 1;
                    // Misses take turns (see `cold_turn`); the wait for
                    // the turn is not part of the request's latency.
                    let turn = s.miss.then(|| cold_turn.lock().unwrap_or_else(|p| p.into_inner()));
                    let t0 = Instant::now();
                    let res = client.gnn_infer(
                        TENANT,
                        model_ids[s.model],
                        PRECISION,
                        DEADLINE_MS,
                        &ids,
                        NODES,
                        FEATURES,
                        features.as_slice(),
                    );
                    let t1 = Instant::now();
                    drop(turn);
                    log.record(call, "call", t0, t1, op, req);
                    match res {
                        Ok(r) => {
                            let lat = ms(t1 - t0);
                            let layer_us: u64 = r.layer_micros.iter().sum();
                            log.server_parts(
                                call,
                                t0,
                                t1,
                                req,
                                &[("gnn_layers", Duration::from_micros(layer_us))],
                            );
                            t.complete(t1, lat, flops[s.model]);
                            if r.cache_hit == s.miss {
                                t.problems.push(format!(
                                    "request {j}: cache_hit={} where the schedule says miss={}",
                                    r.cache_hit, s.miss
                                ));
                            }
                            let rows_ok = r.rows == if s.subset { SUBSET } else { NODES }
                                && r.classes == CLASSES;
                            if s.miss {
                                t.misses += 1;
                                t.miss.push(Sample { start: t0, end: t1 });
                                t.extra.extend(r.layer_micros.iter().map(|&us| us as f64 / 1e3));
                                if rows_ok {
                                    mine.push(Pending {
                                        conn: c,
                                        j,
                                        model: s.model,
                                        scores: r.scores,
                                    });
                                } else {
                                    t.fail(format!("request {j}: {}x{} logits", r.rows, r.classes));
                                }
                            } else {
                                t.hits += 1;
                                t.wire_ms.push(lat - layer_us as f64 / 1e3);
                                let v0 = Instant::now();
                                let expected = select(&hit_refs[s.model][s.variant], &ids);
                                if !rows_ok || !same_bits(&r.scores, &expected) {
                                    t.fail(format!(
                                        "request {j}: logits differ from the offline forward"
                                    ));
                                }
                                let verify = log.id();
                                log.record(verify, "verify", v0, Instant::now(), op, req);
                            }
                        }
                        Err(e) => t.fail(format!("request {j}: {e}")),
                    }
                    log.record(op, "op", o0, Instant::now(), 0, req);
                    j += 1;
                }
                t.segments = vec![(start, start.elapsed())];
                t.spans = log.into_spans();
                results.lock().unwrap_or_else(|p| p.into_inner()).append(&mut mine);
                t
            });
            (t, results.into_inner().unwrap_or_else(|p| p.into_inner()))
        };
        // Designed share: the embedding cache saw exactly the scheduled
        // misses and hits.
        match (before, gnn_cache_counts(&mut probe)) {
            (Ok((h0, m0)), Ok((h1, m1))) => {
                if m1 - m0 != t.misses || h1 - h0 != t.hits {
                    t.problems.push(format!(
                        "embedding cache: {} misses / {} hits in the phase, designed {} / {}",
                        m1 - m0,
                        h1 - h0,
                        t.misses,
                        t.hits
                    ));
                }
            }
            (a, b) => t.problems.push(format!(
                "embedding-cache counters unavailable: {:?} {:?}",
                a.err(),
                b.err()
            )),
        }
        phase_j0 = j0 + (1 << 20);
        pending.append(&mut misses);
        t
    };
    let between = || {
        let (spare, _) = setup(&mut out)?;
        register_probes(&mut out, &spare)?;
        spare.stop()?;
        for _ in 1..SPARE_SETUPS {
            setup(&mut out)?.0.stop()?;
        }
        Ok(())
    };
    let mut phases = Phases::run(cfg, phase, between)?;
    phases.account(&mut out);

    running.stop()?;
    out.peak_rss_mb = Some(peak_rss_mb());

    // Misses against the offline forward, after every timed region, on
    // one thread per core.
    let total = pending.len();
    let wrong: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|w| {
                let (pending, models, ops, adj) = (&pending, &models, &ops, &adj);
                s.spawn(move || {
                    pending
                        .iter()
                        .skip(w)
                        .step_by(CONNS)
                        .filter(|p| {
                            let features = operand(NODES, FEATURES, fresh_seed(cfg, p.conn, p.j));
                            let logits = models[p.model].forward(ops, adj, &features);
                            let ids = if shape(p.j).subset {
                                subset(cfg, p.conn, p.j)
                            } else {
                                Vec::new()
                            };
                            !same_bits(&p.scores, &select(logits.as_slice(), &ids))
                        })
                        .count()
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap_or(total)).sum()
    });
    if wrong > 0 {
        out.failed += wrong.min(total) as u64;
        eprintln!("perfbench: {wrong} cache-missing requests returned logits that differ from the offline forward");
    }
    out.counts(digest, counts(&adj, &hit_logits(&models, &ops, &adj, &variants)));

    phases.e2e(&mut out);
    out.e2e.set_register(&register);
    if cfg.trace {
        phases.common_layers(&mut out);
        let t = &phases.main;
        let l = &mut out.layers;
        l.set("gnn.layer_ms_p50", median(t.extra.clone()));
        l.set(
            "gnn.offline_forward_ms",
            median_ms(3, || models[0].forward(&ops, &adj, &variants[0])),
        );
        l.set("gnn.hit_ratio", t.hits as f64 / (t.hits + t.misses).max(1) as f64);
        l.set("wire.ms_p50", median(t.wire_ms.clone()));
        layers::precision(l, &variants[0]);
        layers::format(l, &adj, HIDDEN);
        let req = Request::GnnInfer {
            tenant: TENANT.to_string(),
            model_id: model_ids[0],
            precision: PRECISION,
            deadline_ms: DEADLINE_MS,
            node_ids: Vec::new(),
            f_rows: NODES as u32,
            f_cols: FEATURES as u32,
            features: variants[0].as_slice().to_vec(),
        };
        let resp = Response::GnnInfer {
            rows: NODES as u32,
            classes: CLASSES as u32,
            scores: hit_refs[0][0].clone(),
            layer_micros: Vec::new(),
            cache_hit: true,
        };
        layers::codec(l, &req, &resp)?;
    }
    Ok(out)
}

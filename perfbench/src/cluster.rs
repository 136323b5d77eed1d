//! The cluster layers: an in-process router over three `fs-serve`
//! shards, sent scatter-gather SpMMs on one connection and compared with
//! the same requests on a standalone server.

use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use flashsparse::{outputs_match, DEFAULT_TOLERANCE};
use fs_cluster::{Router, RouterConfig};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_serve::{EngineConfig, ServeClient};

use crate::layers;
use crate::report::Outcome;
use crate::serve::{connect, join, Running, Tally, DEADLINE_MS, TENANT};
use crate::spans::SpanLog;
use crate::stats::{ms, operand};
use crate::Config;

const SHARDS: usize = 3;
/// Uniform, so every slab costs the same wherever placement puts it.
const DIM: usize = 1536;
const NNZ: usize = 24_576;
const N: usize = 16;
const OPERANDS: usize = 8;
/// Requests per side of the router-overhead comparison.
const OVERHEAD_REQS: usize = 60;

fn matrix(seed: u64) -> CsrMatrix<f32> {
    CsrMatrix::from_coo(&random_uniform::<f32>(DIM, DIM, NNZ, seed))
}

fn shard_config() -> EngineConfig {
    EngineConfig { workers: 1, ..EngineConfig::default() }
}

/// Three shards and a router, all on `127.0.0.1:0`.
struct Cluster {
    addr: SocketAddr,
    router: thread::JoinHandle<std::io::Result<()>>,
    shards: Vec<Running>,
}

impl Cluster {
    fn start() -> Result<Cluster, String> {
        let shards =
            (0..SHARDS).map(|_| Running::start(shard_config())).collect::<Result<Vec<_>, _>>()?;
        let router =
            Router::bind(&RouterConfig::default()).map_err(|e| format!("router bind: {e}"))?;
        for s in &shards {
            router.state().join_shard(s.addr.to_string(), 0);
        }
        let addr = router.local_addr();
        let router = thread::Builder::new()
            .name("perfbench-router".to_string())
            .spawn(move || router.run())
            .map_err(|e| format!("router thread: {e}"))?;
        Ok(Cluster { addr, router, shards })
    }

    /// The router's shutdown drains every shard too.
    fn stop(self) -> Result<(), String> {
        connect(self.addr)?.shutdown().map_err(|e| format!("router shutdown: {e}"))?;
        join(self.router)?;
        for s in self.shards {
            s.wait()?;
        }
        Ok(())
    }
}

/// One checked scatter-gather SpMM, recorded in `t` when the output is
/// whole and right.
fn cluster_op(
    client: &mut ServeClient,
    t: &mut Tally,
    matrix_id: u64,
    nnz: usize,
    b: &DenseMatrix<f32>,
    reference: &DenseMatrix<f32>,
) {
    t.attempted += 1;
    let t0 = Instant::now();
    let res = client.cluster_spmm(TENANT, matrix_id, b.rows(), b.cols(), b.as_slice(), DEADLINE_MS);
    let t1 = Instant::now();
    let r = match res {
        Ok(r) => r,
        Err(e) => return t.fail(format!("cluster spmm: {e}")),
    };
    if r.degraded || r.shards_failed > 0 {
        return t.fail(format!("cluster spmm: degraded ({} shards failed)", r.shards_failed));
    }
    let out = DenseMatrix::from_vec(r.rows, r.n, r.out);
    if !outputs_match(&out, reference, DEFAULT_TOLERANCE) {
        return t.fail("cluster spmm: output differs from the reference".to_string());
    }
    t.complete(t1, ms(t1 - t0), 2.0 * nnz as f64 * b.cols() as f64);
    t.extra.push(f64::from(r.shards_ok));
}

/// The cluster matrix, its dense operands and their references.
fn inputs(cfg: &Config) -> (CsrMatrix<f32>, Vec<DenseMatrix<f32>>, Vec<DenseMatrix<f32>>) {
    let csr = matrix(cfg.sub_seed(50));
    let operands: Vec<DenseMatrix<f32>> =
        (0..OPERANDS).map(|i| operand(DIM, N, cfg.sub_seed(300 + i as u64))).collect();
    let refs = operands.iter().map(|b| csr.spmm_reference(b)).collect();
    (csr, operands, refs)
}

/// Router overhead: the same requests, one connection, through the
/// router (`client`) and on a standalone one-worker server holding the
/// whole matrix. Returns both tallies.
fn router_overhead(
    client: &mut ServeClient,
    matrix_id: u64,
    csr: &CsrMatrix<f32>,
    operands: &[DenseMatrix<f32>],
    refs: &[DenseMatrix<f32>],
) -> Result<(Tally, Tally), String> {
    let mut via_router = Tally::default();
    for j in 0..OVERHEAD_REQS {
        let i = j % OPERANDS;
        cluster_op(client, &mut via_router, matrix_id, csr.nnz(), &operands[i], &refs[i]);
    }
    let single = Running::start(shard_config())?;
    let mut sc = single.connect()?;
    let id = sc.load_matrix(TENANT, csr).map_err(|e| format!("standalone load: {e}"))?.matrix_id;
    let mut log = SpanLog::new(false, Instant::now(), 0);
    let mut standalone = Tally::default();
    // The first requests take the cold path; time the warm ones only.
    for j in 0..OVERHEAD_REQS + 4 {
        let i = j % OPERANDS;
        let mut t = Tally::default();
        crate::serve::spmm_op(
            &mut sc,
            &mut log,
            &mut t,
            0,
            id,
            csr.nnz(),
            &operands[i],
            &refs[i],
            None,
        );
        if j >= 4 {
            standalone.merge(t);
        }
    }
    drop(sc);
    single.stop()?;
    Ok((via_router, standalone))
}

/// The cluster layers, for a workload that runs no router of its own:
/// start a router over three shards, and with fs-trace armed send the
/// router-overhead requests; report the `cluster.*` span sites of that
/// traffic, `cluster.shards_ok_mean` and `cluster.router_overhead_ms`.
pub fn layer_probe(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let (csr, operands, refs) = inputs(cfg);
    let cluster = Cluster::start()?;
    let mut client = connect(cluster.addr)?;
    let matrix_id =
        client.load_matrix(TENANT, &csr).map_err(|e| format!("cluster load: {e}"))?.matrix_id;
    let mut warm = Tally::default();
    for (b, r) in operands.iter().zip(&refs).take(4) {
        cluster_op(&mut client, &mut warm, matrix_id, csr.nnz(), b, r);
    }
    let (measured, snap) =
        layers::armed(|| router_overhead(&mut client, matrix_id, &csr, &operands, &refs));
    let (via_router, standalone) = measured?;
    drop(client);
    cluster.stop()?;
    for t in [&warm, &via_router, &standalone] {
        out.attempted += t.attempted;
        out.failed += t.failed;
    }
    layers::trace_sites(&mut out.layers, &snap, "cluster.");
    out.layers.set("cluster.shards_ok_mean", crate::stats::mean(&via_router.extra));
    out.layers.set("cluster.router_overhead_ms", via_router.p50() - standalone.p50());
    Ok(())
}

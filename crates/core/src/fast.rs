//! The fast execution path ([`fs_tcu::ExecMode::Fast`]).
//!
//! Bit-identical to the simulator — the same operand values, the same f32
//! summation order in every output cell, the same output cast — but with
//! all simulator scaffolding removed:
//!
//! * **No fragment materialization.** `Fragment::from_tile`/`to_tile`
//!   are exact bijections, so the MMA semantics reduce to a plain
//!   triple loop over the gathered tiles. Skipping the zero-filled tail
//!   of ragged blocks is safe because an accumulator that starts at
//!   `+0.0` can never become `-0.0` (IEEE round-to-nearest returns `+0`
//!   for any exactly-zero sum unless both addends are `-0`), so the
//!   skipped `+0.0` products can never flip a sign bit.
//! * **Each dense element converted once per launch.** The simulator
//!   calls [`round_operand`](fs_tcu::mma::round_operand) on every
//!   operand of every MMA. For a value already stored as F16 or TF32
//!   that rounding is the identity — `round_operand(S::to_f32(x), P) ==
//!   S::to_f32(x)` bit for bit, which fs-precision's exhaustive tests
//!   prove for all 65 536 halves and all TF32 lattice values — so the
//!   launch widens each dense operand to one `f32` copy up front
//!   (`DenseMatrix::to_f32_vec`) and each window widens its sparse
//!   values once. No gather rounds anything.
//! * **Column-vectorised tiles.** The simulator computes output cell
//!   `(i, j)` of a window tile as `c += Σ_t b[t][i] · s[j][t]`: a fresh
//!   `+0.0` accumulator per MMA walks `t` in ascending order, and the
//!   block's sum is added to the running tile value. The SpMM loop keeps
//!   exactly that per-cell order but runs it for all 16 columns of a
//!   tile at once — for each window row `j`, a `[f32; N_TILE]`
//!   accumulator walks the block's columns `t` in ascending order over
//!   contiguous rows of the widened B — so the innermost loop is an
//!   elementwise multiply-add over 16 lanes that LLVM auto-vectorises.
//!   SDDMM does the same over the 8 window rows: the window's A rows are
//!   stored `t`-major in 8 lanes, and each sampled column runs its
//!   chunk sums, then the fold over chunks, across all lanes at once.
//!   Lanes never mix, so every cell sees the simulator's sequence of
//!   f32 operations and the output bits cannot change.
//! * **Analytic counters.** MMA counts follow from block geometry;
//!   memory transactions come from [`AnalyticCounter`] over closed-form
//!   request spans ([`block_request_spans`]) instead of replaying
//!   per-lane accesses. Full 16-column tiles shift every address by
//!   16 elements × 2 or 4 bytes — a multiple of the 32-byte sector — so
//!   one computation is committed once per full tile (`times`).
//! * **No per-launch validation walk.** Matrices carrying the
//!   [`MeBcrs::is_validated`] witness skip it; unwitnessed ones are
//!   checked once up front (the fast path has no sanitizer to report
//!   violations, so it refuses malformed input outright).
//!
//! Scratch buffers live in a thread-local arena reused across windows
//! and launches: a window allocates nothing.

use std::cell::RefCell;

use fs_format::MeBcrs;
use fs_matrix::DenseMatrix;
use fs_precision::Scalar;
use fs_tcu::{AnalyticCounter, KernelCounters, MmaShape, TrafficClass};
use rayon::steal;

use crate::pipeline::SchedMode;
use crate::sddmm::VEC_GROUP;
use crate::spmm::N_TILE;
use crate::thread_map::{block_request_spans, RequestSpan, ThreadMapping};
use crate::variant::TcuPrecision;

/// Row windows per sequential work unit (the `window_batch` span
/// granularity). Small matrices stop paying per-window span overhead;
/// large ones still expose plenty of parallelism (see DESIGN.md §9 for
/// the measurement behind the value). The work-stealing scheduler
/// ignores this and schedules single windows, weighted by population.
pub(crate) const WINDOW_BATCH: usize = 8;

/// Rows of a row window: the MMA `n` of every FlashSparse shape, and
/// the lane count of the SDDMM accumulators.
const V: usize = 8;

/// Reusable per-thread scratch for the fused kernels.
#[derive(Default)]
struct FastScratch {
    /// Widened sparse values of the current window (SpMM) or the
    /// window's A rows, `t`-major in [`V`] lanes (SDDMM).
    widened: Vec<f32>,
    /// 8×16 (SpMM) or group×8 (SDDMM) output accumulator tile.
    c_tile: Vec<f32>,
    /// Closed-form transaction accounting.
    counter: AnalyticCounter,
}

thread_local! {
    static SCRATCH: RefCell<FastScratch> = RefCell::new(FastScratch::default());
}

/// Grow-only resize: never shrinks, so steady-state launches stop
/// allocating entirely.
#[inline]
fn reserve(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// The fast path's stand-in for the per-launch `validate_format` walk:
/// witnessed matrices skip it; unwitnessed ones are checked once.
///
/// # Panics
/// Panics when an unwitnessed matrix fails validation — the fast path
/// has no sanitizer to record violations against.
fn ensure_valid<S: Scalar>(m: &MeBcrs<S>) {
    if !m.is_validated() {
        let violations = m.validate();
        assert!(
            violations.is_empty(),
            "fast path requires a well-formed ME-BCRS matrix: {violations:?}"
        );
    }
}

/// Forward the pool's steal observations to the trace registry (a
/// relaxed load and nothing else when disarmed or steal-free).
fn record_steals(stats: &steal::StealStats) {
    if stats.steals == 0 {
        return;
    }
    fs_trace::add(fs_trace::TraceCounter::Steals, stats.steals);
    for d in &stats.steal_durations {
        fs_trace::record_duration(fs_trace::Site::PipelineSteal, *d);
    }
}

/// Fused SpMM (`C = A × B`), bit-identical to the simulated kernel, on
/// the given window scheduler. Dimension assertions are the launcher's
/// job.
pub(crate) fn spmm_fast_sched<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    mapping: ThreadMapping,
    sched: SchedMode,
) -> (DenseMatrix<S>, KernelCounters) {
    let mut out = DenseMatrix::<S>::zeros(a.rows(), b.cols());
    let counters = spmm_fast_into(a, b, &b.to_f32_vec(), mapping, out.as_mut_slice(), sched);
    (out, counters)
}

/// Fused SpMM into a caller-owned `rows × n` output slice — the slab
/// entry point the overlapped cold path uses to execute one translated
/// row-window slab directly into its region of the full output.
///
/// `b_f32` is `b.to_f32_vec()`: the launch's one widened copy of B,
/// which every window reads instead of converting `b` itself (`b`
/// still supplies the shape and the addresses the counters model). The
/// MMA shape follows from `a`'s layout ([`TcuPrecision::mma_shape`]).
pub(crate) fn spmm_fast_into<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    b_f32: &[f32],
    mapping: ThreadMapping,
    out: &mut [S],
    sched: SchedMode,
) -> KernelCounters {
    let shape = S::mma_shape(a.spec());
    ensure_valid(a);
    let v = shape.n;
    let n = b.cols();
    let rows = a.rows();
    assert_eq!(v, V, "FlashSparse windows are {V} rows tall");
    assert_eq!(out.len(), rows * n, "output slice must be rows × n");
    assert_eq!(b_f32.len(), b.len(), "widened B must match B");
    if n == 0 || rows == 0 {
        return KernelCounters::default();
    }
    let load_spans = block_request_spans(mapping, shape.k);
    let store_spans = block_request_spans(mapping, 8);

    // Exact per-window output slices: every window (including the ragged
    // final one) gets its true `window_rows × n` length, so no work unit
    // spans output slots for windows that don't exist.
    let mut windows: Vec<(usize, &mut [S])> = Vec::with_capacity(a.num_windows());
    let mut rest = out;
    for w in 0..a.num_windows() {
        let len = (rows - w * v).min(v) * n;
        let (head, tail) = rest.split_at_mut(len);
        windows.push((w, head));
        rest = tail;
    }

    match sched {
        SchedMode::Sequential => SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut counters = KernelCounters::default();
            for group in windows.chunks_mut(WINDOW_BATCH) {
                let _span = fs_trace::span(fs_trace::Site::WindowBatch);
                for (w, out_window) in group.iter_mut() {
                    spmm_window(
                        a,
                        b,
                        b_f32,
                        *w,
                        out_window,
                        shape,
                        &load_spans,
                        &store_spans,
                        scratch,
                        &mut counters,
                    );
                }
            }
            counters
        }),
        SchedMode::WorkStealing { workers } => {
            let tasks: Vec<(u64, (usize, &mut [S]))> = windows
                .into_iter()
                .map(|(w, slice)| (a.vectors_in_window(w) as u64 + 1, (w, slice)))
                .collect();
            let (parts, stats) = steal::run(workers, tasks, |(w, out_window)| {
                let _span = fs_trace::span(fs_trace::Site::WindowBatch);
                SCRATCH.with(|cell| {
                    let scratch = &mut *cell.borrow_mut();
                    let mut counters = KernelCounters::default();
                    spmm_window(
                        a,
                        b,
                        b_f32,
                        w,
                        out_window,
                        shape,
                        &load_spans,
                        &store_spans,
                        scratch,
                        &mut counters,
                    );
                    counters
                })
            });
            record_steals(&stats);
            parts.into_iter().sum()
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spmm_window<S: TcuPrecision>(
    a: &MeBcrs<S>,
    b: &DenseMatrix<S>,
    b_f32: &[f32],
    w: usize,
    out_window: &mut [S],
    shape: MmaShape,
    load_spans: &[RequestSpan],
    store_spans: &[RequestSpan],
    scratch: &mut FastScratch,
    counters: &mut KernelCounters,
) {
    let v = shape.n;
    let k = shape.k;
    let n = b.cols();
    let window_rows = (a.rows() - w * v).min(v);
    let num_blocks = a.blocks_in_window(w);
    if num_blocks == 0 {
        return;
    }

    let full_tiles = n / N_TILE;
    let ragged = n % N_TILE;
    let n_tiles = (full_tiles + usize::from(ragged > 0)) as u64;

    // ---- MMA counters from block geometry. ----
    counters.mma_count += num_blocks as u64 * n_tiles;
    counters.tcu_flops += num_blocks as u64 * n_tiles * shape.flops();

    let FastScratch { widened, c_tile, counter: ac } = scratch;

    // ---- Widen the window's sparse values once. ----
    let vals = &a.values()[a.window_ptr()[w] * v..a.window_ptr()[w + 1] * v];
    widened.clear();
    widened.extend(vals.iter().map(|x| x.to_f32()));

    // ---- Memory traffic, one pass over the blocks. ----
    for blk in 0..num_blocks {
        let w_b = a.block_width(w, blk);
        let cols = a.block_cols(w, blk);

        // Column indices: one request per block, once per window.
        ac.range((a.window_ptr()[w] + blk * k) as u64 * 4, w_b as u64 * 4);
        ac.load(TrafficClass::Indices, counters, 1);

        // Sparse values: one warp request per block whose lanes cover,
        // for each of the 8 fragment rows, the row's full `w_b` elements
        // contiguously (FP16 paired 4-byte loads + ragged 2-byte tail,
        // TF32 per-lane 4-byte loads — both unions are the whole row).
        // The request addresses are tile-independent, so it repeats
        // verbatim at every column tile.
        for g in 0..8 {
            ac.range(a.value_addr(w, blk, g, 0), (w_b * S::BYTES) as u64);
        }
        ac.load(TrafficClass::SparseValues, counters, n_tiles);

        // Dense operand: full tiles shift addresses by 32 or 64 bytes —
        // whole sectors — so one computation covers them all; the ragged
        // tail tile is computed separately.
        if full_tiles > 0 {
            dense_loads(ac, counters, b, cols, w_b, 0, N_TILE, load_spans, full_tiles as u64);
        }
        if ragged > 0 {
            dense_loads(ac, counters, b, cols, w_b, full_tiles * N_TILE, ragged, load_spans, 1);
        }
    }

    // ---- Output stores: same tile-shift collapse. ----
    let out_base = (w * v) as u64 * n as u64 * S::BYTES as u64;
    let store = |ac: &mut AnalyticCounter,
                 counters: &mut KernelCounters,
                 j0: usize,
                 tile_cols: usize,
                 times: u64| {
        for span in store_spans {
            let width = span.col_hi.min(tile_cols).saturating_sub(span.col_lo);
            if width > 0 {
                for &r in &span.rows {
                    if r < window_rows {
                        ac.range(
                            out_base + ((r * n + j0 + span.col_lo) * S::BYTES) as u64,
                            (width * S::BYTES) as u64,
                        );
                    }
                }
            }
            ac.store(counters, times);
        }
    };
    if full_tiles > 0 {
        store(ac, counters, 0, N_TILE, full_tiles as u64);
    }
    if ragged > 0 {
        store(ac, counters, full_tiles * N_TILE, ragged, 1);
    }

    // ---- Numerics: column-vectorised tiles over the widened B. ----
    reserve(c_tile, V * N_TILE);
    let c_tile = &mut c_tile[..V * N_TILE];
    for j0 in (0..n).step_by(N_TILE) {
        let tile_cols = (n - j0).min(N_TILE);
        c_tile.fill(0.0);
        for blk in 0..num_blocks {
            let w_b = a.block_width(w, blk);
            let cols = a.block_cols(w, blk);
            let svals = &widened[blk * k * v..][..window_rows * w_b];
            // A constant width lets LLVM unroll and vectorise full tiles.
            if tile_cols == N_TILE {
                block_tile(c_tile, svals, w_b, cols, b_f32, n, j0, N_TILE);
            } else {
                block_tile(c_tile, svals, w_b, cols, b_f32, n, j0, tile_cols);
            }
        }
        for (j, crow) in c_tile.chunks_exact(N_TILE).take(window_rows).enumerate() {
            let orow = &mut out_window[j * n + j0..][..tile_cols];
            for (o, &c) in orow.iter_mut().zip(crow) {
                *o = S::from_f32(c);
            }
        }
    }
}

/// One sparse block's MMA on one column tile: for each window row `j`,
/// `c_tile[j][i] += Σ_t b[cols[t]][j0 + i] · s[j][t]` with `t` ascending
/// from a `+0.0` accumulator — `mma_execute`'s per-cell order, run over
/// the tile's `width` columns at once. Entries past `w_b` are `+0.0`
/// products in the simulator and cannot change any sum.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_tile(
    c_tile: &mut [f32],
    svals: &[f32],
    w_b: usize,
    cols: &[u32],
    b_f32: &[f32],
    n: usize,
    j0: usize,
    width: usize,
) {
    for (srow, crow) in svals.chunks(w_b).zip(c_tile.chunks_exact_mut(N_TILE)) {
        let mut acc = [0.0f32; N_TILE];
        for (&s, &c) in srow.iter().zip(cols) {
            let brow = &b_f32[c as usize * n + j0..][..width];
            for (acc, &bv) in acc.iter_mut().zip(brow) {
                *acc += bv * s;
            }
        }
        for (c, acc) in crow.iter_mut().zip(acc) {
            *c += acc;
        }
    }
}

/// Commit one column tile's dense-operand requests from the closed-form
/// spans, clipped to the valid row (`w_b`) and column (`tile_cols`)
/// prefixes.
#[allow(clippy::too_many_arguments)]
fn dense_loads<S: TcuPrecision>(
    ac: &mut AnalyticCounter,
    counters: &mut KernelCounters,
    b: &DenseMatrix<S>,
    cols: &[u32],
    w_b: usize,
    j0: usize,
    tile_cols: usize,
    spans: &[RequestSpan],
    times: u64,
) {
    for span in spans {
        let width = span.col_hi.min(tile_cols).saturating_sub(span.col_lo);
        if width > 0 {
            for &r in &span.rows {
                if r < w_b {
                    ac.range(
                        b.addr_of(cols[r] as usize, j0 + span.col_lo),
                        (width * S::BYTES) as u64,
                    );
                }
            }
        }
        ac.load(TrafficClass::DenseOperand, counters, times);
    }
}

/// Fused SDDMM (`C = (A × Bᵀ) ⊙ mask`), bit-identical to the simulated
/// kernel, on the given window scheduler. Dimension/spec assertions are
/// the launcher's job.
pub(crate) fn sddmm_fast_sched<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    b: &DenseMatrix<S>,
    sched: SchedMode,
) -> (MeBcrs<S>, KernelCounters) {
    ensure_valid(mask);
    let v = S::SHAPE.n;
    assert_eq!(v, V, "FlashSparse windows are {V} rows tall");
    let (a_f32, b_f32) = (a.to_f32_vec(), b.to_f32_vec());
    let num_windows = mask.num_windows();
    let mut values = vec![S::ZERO; mask.values().len()];

    // Each window owns a disjoint slice of the output values array.
    let mut slices: Vec<(usize, &mut [S])> = Vec::with_capacity(num_windows);
    let mut rest = values.as_mut_slice();
    for w in 0..num_windows {
        let len = (mask.window_ptr()[w + 1] - mask.window_ptr()[w]) * v;
        let (head, tail) = rest.split_at_mut(len);
        slices.push((w, head));
        rest = tail;
    }

    let counters = match sched {
        SchedMode::Sequential => SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut counters = KernelCounters::default();
            for group in slices.chunks_mut(WINDOW_BATCH) {
                let _span = fs_trace::span(fs_trace::Site::WindowBatch);
                for (w, out) in group.iter_mut() {
                    sddmm_window(mask, a, &a_f32, b, &b_f32, *w, out, scratch, &mut counters);
                }
            }
            counters
        }),
        SchedMode::WorkStealing { workers } => {
            let tasks: Vec<(u64, (usize, &mut [S]))> = slices
                .into_iter()
                .map(|(w, slice)| (mask.vectors_in_window(w) as u64 + 1, (w, slice)))
                .collect();
            let (parts, stats) = steal::run(workers, tasks, |(w, out)| {
                let _span = fs_trace::span(fs_trace::Site::WindowBatch);
                SCRATCH.with(|cell| {
                    let scratch = &mut *cell.borrow_mut();
                    let mut counters = KernelCounters::default();
                    sddmm_window(mask, a, &a_f32, b, &b_f32, w, out, scratch, &mut counters);
                    counters
                })
            });
            record_steals(&stats);
            parts.into_iter().sum()
        }
    };

    (mask.with_values(values), counters)
}

/// One SDDMM row window. `a_f32`/`b_f32` are the launch's widened
/// copies of `a`/`b`; `a` and `b` themselves only supply addresses.
#[allow(clippy::too_many_arguments)]
fn sddmm_window<S: TcuPrecision>(
    mask: &MeBcrs<S>,
    a: &DenseMatrix<S>,
    a_f32: &[f32],
    b: &DenseMatrix<S>,
    b_f32: &[f32],
    w: usize,
    out: &mut [S],
    scratch: &mut FastScratch,
    counters: &mut KernelCounters,
) {
    let shape = S::SHAPE;
    let v = shape.n;
    let k = shape.k;
    let kk = a.cols();
    let window_rows = (mask.rows() - w * v).min(v);
    let nv = mask.vectors_in_window(w);
    let window_val_base = mask.window_ptr()[w] * v;
    if nv == 0 {
        return;
    }

    let FastScratch { widened, c_tile, counter: ac } = scratch;

    // Column indices: one request for the whole window.
    let win_range = mask.window_ptr()[w]..mask.window_ptr()[w + 1];
    let win_cols = &mask.col_indices()[win_range.clone()];
    ac.range(win_range.start as u64 * 4, nv as u64 * 4);
    ac.load(TrafficClass::Indices, counters, 1);

    let chunks = kk.div_ceil(k) as u64;

    // The window's rows of A, t-major in V lanes (lanes past the ragged
    // final window's rows stay +0.0 and are never written back).
    widened.clear();
    widened.resize(kk * V, 0.0);
    for i in 0..window_rows {
        let arow = &a_f32[(w * v + i) * kk..][..kk];
        for (lanes, &x) in widened.chunks_exact_mut(V).zip(arow) {
            lanes[i] = x;
        }
    }
    let (a_lanes, _) = widened.as_chunks::<V>();
    reserve(c_tile, VEC_GROUP * V);

    for jj0 in (0..nv).step_by(VEC_GROUP) {
        let group = (nv - jj0).min(VEC_GROUP);

        counters.mma_count += chunks;
        counters.tcu_flops += chunks * shape.flops();

        // Dense loads: one A-rows and one B-rows request per k-chunk
        // (the k-chunk stride is below a sector, so no tile collapse).
        for k0 in (0..kk).step_by(k) {
            let kw = (kk - k0).min(k);
            for jj in 0..group {
                ac.range(b.addr_of(win_cols[jj0 + jj] as usize, k0), (kw * S::BYTES) as u64);
            }
            ac.load(TrafficClass::DenseOperand, counters, 1);
            for i in 0..window_rows {
                ac.range(a.addr_of(w * v + i, k0), (kw * S::BYTES) as u64);
            }
            ac.load(TrafficClass::DenseOperand, counters, 1);
        }

        // Numerics: per-chunk partial sums folded in chunk order, the
        // exact accumulation the chained MMAs perform, for all window
        // rows at once.
        for (jj, crow) in c_tile.chunks_exact_mut(V).take(group).enumerate() {
            let brow = &b_f32[win_cols[jj0 + jj] as usize * kk..][..kk];
            let mut d = [0.0f32; V];
            for (b_chunk, a_chunk) in brow.chunks(k).zip(a_lanes.chunks(k)) {
                let mut acc = [0.0f32; V];
                for (&bv, lanes) in b_chunk.iter().zip(a_chunk) {
                    for (acc, &av) in acc.iter_mut().zip(lanes) {
                        *acc += bv * av;
                    }
                }
                for (d, acc) in d.iter_mut().zip(acc) {
                    *d += acc;
                }
            }
            crow.copy_from_slice(&d);
        }

        // Algorithm 1 writeback, identical to the simulated kernel
        // (including the sign of masked zero products).
        for jj in 0..group {
            let jv = jj0 + jj;
            let (blk, jl) = (jv / k, jv % k);
            for i in 0..window_rows {
                let m = mask.block_row(w, blk, i)[jl];
                if !m.is_zero() {
                    let idx = mask.value_index(w, blk, i, jl) - window_val_base;
                    out[idx] = S::from_f32(c_tile[jj * V + i] * m.to_f32());
                }
            }
        }

        // Store traffic: the scatter is mask-dependent, so enumerate the
        // surviving lanes of the 4 register requests directly.
        for reg in 0..4usize {
            for lane in 0..32usize {
                let g = lane >> 2;
                let t = lane & 3;
                let jj = g + 8 * (reg >> 1);
                let i = t * 2 + (reg & 1);
                if jj < group && i < window_rows {
                    let jv = jj0 + jj;
                    let (blk, jl) = (jv / k, jv % k);
                    if !mask.block_row(w, blk, i)[jl].is_zero() {
                        ac.range(mask.value_addr(w, blk, i, jl), S::BYTES as u64);
                    }
                }
            }
            ac.store(counters, 1);
        }
    }
}

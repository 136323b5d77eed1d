//! `kernel`: library calls on pre-translated ME-BCRS matrices. No wire,
//! queue or cache: the kernel, fs-precision rounding and the window
//! scheduler do nearly all the work.

use std::time::{Duration, Instant};

use flashsparse::{
    auto_tune, outputs_match, sddmm, spmm, spmm_overlapped, SchedMode, ThreadMapping,
    TranslatedMatrix, TuneChoice, DEFAULT_TOLERANCE,
};
use fs_format::{MeBcrs, TcFormatSpec};
use fs_matrix::gen::random_uniform;
use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::Scalar;
use fs_precision::{Tf32, F16};
use fs_tcu::cost::{ComputeClass, CostModel};
use fs_tcu::{GpuSpec, KernelCounters};

use crate::layers;
use crate::report::{Outcome, KERNEL_CASES};
use crate::serve::{rmat_s12, SEGMENTS, SPARE_SETUPS};
use crate::spans::SpanLog;
use crate::stats::{median, ms, operand, windowed, Digest, Done, Sample};
use crate::Config;

/// Dense operand width of the SpMM cases.
const N: usize = 128;
/// Inner dimension of the SDDMM case.
const K: usize = 32;
/// Cold calls (tune + translate, then overlapped SpMM from CSR) between
/// the measured segments.
const COLD_PROBES: usize = 30;
const MAPPING: ThreadMapping = ThreadMapping::MemoryEfficient;

/// The three translated matrices (the SDDMM mask is the rmat-s12 FP16
/// translation).
struct Formats {
    r16: MeBcrs<F16>,
    u16: MeBcrs<F16>,
    r32: MeBcrs<Tf32>,
}

fn translate(rmat: &CsrMatrix<f32>, uni: &CsrMatrix<f32>) -> Formats {
    Formats {
        r16: MeBcrs::from_csr(&rmat.cast(), TcFormatSpec::FLASH_FP16),
        u16: MeBcrs::from_csr(&uni.cast(), TcFormatSpec::FLASH_FP16),
        r32: MeBcrs::from_csr(&rmat.cast(), TcFormatSpec::FLASH_TF32),
    }
}

fn format_digest<S: Scalar>(d: &mut Digest, me: &MeBcrs<S>) {
    d.add(me.num_windows() as u64);
    d.add(me.num_vectors() as u64);
    d.add(me.num_blocks() as u64);
    d.add(me.footprint_bytes() as u64);
    d.add(me.fill_ratio().to_bits());
    for &c in me.col_indices() {
        d.add(u64::from(c));
    }
}

fn counters_digest(d: &mut Digest, k: &KernelCounters) {
    for v in [
        k.mma_count,
        k.wmma_count,
        k.tcu_flops,
        k.cuda_flops,
        k.load_transactions,
        k.store_transactions,
        k.bytes_loaded,
        k.bytes_stored,
    ] {
        d.add(v);
    }
}

/// SDDMM reference laid out like the mask's ME-BCRS values: the sampled
/// dot product scaled by the mask value, 0 in padding.
fn sddmm_expected(mask: &MeBcrs<F16>, a: &DenseMatrix<F16>, b: &DenseMatrix<F16>) -> Vec<f32> {
    let v = mask.spec().vector_len;
    let mut expected = vec![0.0f32; mask.values().len()];
    for w in 0..mask.num_windows() {
        for blk in 0..mask.blocks_in_window(w) {
            let cols = mask.block_cols(w, blk);
            for lr in 0..v {
                let r = w * v + lr;
                if r >= mask.rows() {
                    break;
                }
                for (jl, &c) in cols.iter().enumerate() {
                    let m = mask.block_row(w, blk, lr)[jl].to_f32();
                    if m != 0.0 {
                        let dot: f32 =
                            (0..a.cols()).map(|t| a.get_f32(r, t) * b.get_f32(c as usize, t)).sum();
                        expected[mask.value_index(w, blk, lr, jl)] = dot * m;
                    }
                }
            }
        }
    }
    expected
}

/// Dense operands and the references every launch is checked against.
struct Inputs {
    b16: DenseMatrix<F16>,
    b32: DenseMatrix<Tf32>,
    sa: DenseMatrix<F16>,
    sb: DenseMatrix<F16>,
    ref_r16: DenseMatrix<f32>,
    ref_u16: DenseMatrix<f32>,
    ref_r32: DenseMatrix<f32>,
    ref_sddmm: Vec<f32>,
}

/// One library call of kernel case `case` (see `KERNEL_CASES`): when it
/// returned, whether its output matches the reference, its counters.
fn launch(case: usize, f: &Formats, x: &Inputs) -> (Instant, bool, KernelCounters) {
    match case {
        0 => {
            let (o, k) = spmm(&f.r16, &x.b16, MAPPING);
            let t1 = Instant::now();
            (t1, outputs_match(&o.cast(), &x.ref_r16, DEFAULT_TOLERANCE), k)
        }
        1 => {
            let (o, k) = spmm(&f.u16, &x.b16, MAPPING);
            let t1 = Instant::now();
            (t1, outputs_match(&o.cast(), &x.ref_u16, DEFAULT_TOLERANCE), k)
        }
        2 => {
            let (o, k) = spmm(&f.r32, &x.b32, MAPPING);
            let t1 = Instant::now();
            (t1, outputs_match(&o.cast(), &x.ref_r32, DEFAULT_TOLERANCE), k)
        }
        _ => {
            let (o, k) = sddmm(&f.r16, &x.sa, &x.sb);
            let t1 = Instant::now();
            let ok = o.values().len() == x.ref_sddmm.len()
                && o.values()
                    .iter()
                    .zip(&x.ref_sddmm)
                    .all(|(v, e)| (v.to_f32() - e).abs() <= DEFAULT_TOLERANCE);
            (t1, ok, k)
        }
    }
}

/// What one measured phase of library calls produced.
#[derive(Default)]
struct Calls {
    /// Per-case call latencies.
    case_ms: [Vec<f64>; 4],
    /// Per call: when it returned, its latency and its useful FLOPs.
    calls: Vec<Done>,
    /// The measured stretches of time: start and length.
    segments: Vec<(Instant, Duration)>,
    attempted: u64,
    failed: u64,
    counters: [Option<KernelCounters>; 4],
    problems: Vec<String>,
    spans: Vec<crate::spans::Span>,
}

impl Calls {
    /// Check that a call's counters match the first launch's.
    fn counted(&mut self, case: usize, counters: KernelCounters) {
        match &self.counters[case] {
            None => self.counters[case] = Some(counters),
            Some(first) if *first != counters => self.problems.push(format!(
                "{:?}: KernelCounters differ between launches of the same call",
                KERNEL_CASES[case]
            )),
            Some(_) => {}
        }
    }

    fn merge(&mut self, o: Calls) {
        for (mine, theirs) in self.case_ms.iter_mut().zip(o.case_ms) {
            mine.extend(theirs);
        }
        self.calls.extend(o.calls);
        self.segments.extend(o.segments);
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (case, k) in o.counters.into_iter().enumerate() {
            if let Some(k) = k {
                self.counted(case, k);
            }
        }
        self.problems.extend(o.problems);
        self.spans.extend(o.spans);
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rmat = rmat_s12(cfg);
    let uni = CsrMatrix::from_coo(&random_uniform::<f32>(4096, 4096, 65_536, cfg.sub_seed(3)));
    let b = operand(4096, N, cfg.sub_seed(4));
    let (b16, b32): (DenseMatrix<F16>, DenseMatrix<Tf32>) = (b.cast(), b.cast());
    let sa: DenseMatrix<F16> = operand(4096, K, cfg.sub_seed(5)).cast();
    let sb: DenseMatrix<F16> = operand(4096, K, cfg.sub_seed(6)).cast();
    let flops = [
        2.0 * (rmat.nnz() * N) as f64,
        2.0 * (uni.nnz() * N) as f64,
        2.0 * (rmat.nnz() * N) as f64,
        2.0 * (rmat.nnz() * K) as f64,
    ];

    // References, outside every timed region.
    let x = Inputs {
        ref_r16: rmat.cast::<F16>().spmm_reference(&b16),
        ref_u16: uni.cast::<F16>().spmm_reference(&b16),
        ref_r32: rmat.cast::<Tf32>().spmm_reference(&b32),
        ref_sddmm: sddmm_expected(&translate(&rmat, &uni).r16, &sa, &sb),
        b16,
        b32,
        sa,
        sb,
    };

    // Set-up: translation of the three formats and one checked warm-up
    // round. Every set-up's translations must agree exactly.
    let epoch = Instant::now();
    let setup = |out: &mut Outcome| -> (Formats, u64) {
        let t0 = Instant::now();
        let f = translate(&rmat, &uni);
        for (case, name) in KERNEL_CASES.iter().enumerate() {
            out.attempted += 1;
            if !launch(case, &f, &x).1 {
                out.failed += 1;
                eprintln!("perfbench: warm-up {name:?} differs from the reference");
            }
        }
        out.setup_done(cfg.trace, epoch, t0);
        let mut d = Digest::new();
        format_digest(&mut d, &f.r16);
        format_digest(&mut d, &f.u16);
        format_digest(&mut d, &f.r32);
        (f, d.value())
    };
    let (fmt, formats_digest) = setup(&mut out);

    // Cold calls: tune + translate (register), then SpMM straight from
    // CSR through the overlapped pipeline (miss).
    let mut register = Vec::new();
    let mut miss = Vec::new();
    let mut cold = |out: &mut Outcome| {
        for _ in 0..COLD_PROBES / SEGMENTS {
            let t0 = Instant::now();
            let choice = auto_tune(&rmat, N, GpuSpec::RTX4090);
            std::hint::black_box(TranslatedMatrix::translate(&rmat, &choice));
            register.push(Sample { start: t0, end: Instant::now() });
            let t0 = Instant::now();
            let (o, _, _) = spmm_overlapped(&rmat, &b, &TuneChoice::FALLBACK, SchedMode::auto());
            miss.push(Sample { start: t0, end: Instant::now() });
            out.attempted += 1;
            if !outputs_match(&o, &x.ref_r16, DEFAULT_TOLERANCE) {
                out.failed += 1;
                eprintln!("perfbench: overlapped cold SpMM differs from the reference");
            }
        }
    };

    let phase = |measure: Duration, traced: bool| -> Calls {
        let mut c = Calls::default();
        let mut log = SpanLog::new(traced, epoch, 1);
        let start = Instant::now();
        let mut round = 0u64;
        while start.elapsed() < measure {
            let op = log.id();
            let r0 = Instant::now();
            for case in 0..4 {
                let call = log.id();
                let t0 = Instant::now();
                let (t1, ok, counters) = launch(case, &fmt, &x);
                let lat = ms(t1 - t0);
                log.record(call, "call", t0, t1, op, round);
                let verify = log.id();
                log.record(verify, "verify", t1, Instant::now(), op, round);
                c.attempted += 1;
                c.case_ms[case].push(lat);
                c.calls.push(Done {
                    at: t1,
                    lat_ms: lat,
                    flops: if ok { flops[case] } else { 0.0 },
                });
                if !ok {
                    c.failed += 1;
                    eprintln!(
                        "perfbench: {:?} output differs from the reference",
                        KERNEL_CASES[case]
                    );
                }
                c.counted(case, counters);
            }
            log.record(op, "op", r0, Instant::now(), 0, round);
            round += 1;
        }
        c.segments = vec![(start, start.elapsed())];
        c.spans = log.into_spans();
        c
    };

    // An untraced run measures in segments with spare set-ups and a
    // share of the cold calls between them (see `serve::SEGMENTS`); a
    // traced run measures untraced, then traced.
    let (main, untraced, snap) = if cfg.trace {
        let half = cfg.measure / 2;
        let untraced = phase(half, false);
        let (main, snap) = layers::armed(|| phase(half, true));
        (main, Some(untraced), Some(snap))
    } else {
        let mut main = Calls::default();
        for _ in 0..SEGMENTS {
            main.merge(phase(cfg.measure / SEGMENTS as u32, false));
            for _ in 0..SPARE_SETUPS {
                if setup(&mut out).1 != formats_digest {
                    out.problem("ME-BCRS translations of the same matrix differ between set-ups");
                }
            }
            cold(&mut out);
        }
        (main, None, None)
    };
    for c in std::iter::once(&main).chain(untraced.as_ref()) {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.problems.extend(c.problems.iter().cloned());
    }

    let mut digest = Digest::new();
    digest.add(formats_digest);
    for k in main.counters.iter().flatten() {
        counters_digest(&mut digest, k);
    }
    out.digest = Some(digest);

    out.set_windowed(windowed(&main.calls, &main.segments, 1, true));
    out.e2e.set_miss(&miss);
    out.e2e.set_register(&register);

    if let (Some(untraced), Some(snap)) = (untraced, snap) {
        let l = &mut out.layers;
        layers::trace_sites(l, &snap, "");
        out.spans.extend(main.spans.iter().copied());
        layers::self_times(l, &out.spans);
        let p50 = |c: &Calls| median(c.calls.iter().map(|r| r.lat_ms).collect());
        l.set("trace_overhead", p50(&main) / p50(&untraced).max(1e-9) - 1.0);
        let model = CostModel::new(GpuSpec::RTX4090);
        let classes = [
            ComputeClass::TcuFp16,
            ComputeClass::TcuFp16,
            ComputeClass::TcuTf32,
            ComputeClass::TcuFp16,
        ];
        for (i, (op, case)) in KERNEL_CASES.into_iter().enumerate() {
            l.set(format!("kernel.{op}_ms.{case}"), median(main.case_ms[i].clone()));
            if let Some(k) = &main.counters[i] {
                l.set(format!("kernel.mma_count.{op}.{case}"), k.mma_count as f64);
                l.set(
                    format!("kernel.sectors.{op}.{case}"),
                    (k.load_transactions + k.store_transactions) as f64,
                );
                l.set(format!("kernel.bytes_moved.{op}.{case}"), k.bytes_moved() as f64);
                l.set(
                    format!("kernel.cost_model_us.{op}.{case}"),
                    model.kernel_time(k, classes[i]) * 1e6,
                );
            }
        }
        let rmat16 = rmat.cast::<F16>();
        let uni16 = uni.cast::<F16>();
        let ref_r = crate::stats::median_ms(3, || rmat16.spmm_reference(&x.b16));
        let ref_u = crate::stats::median_ms(3, || uni16.spmm_reference(&x.b16));
        l.set("kernel.ref_ms.rmat-s12", ref_r);
        l.set("kernel.ref_ms.uniform-4k", ref_u);
        l.set("kernel.fast_over_ref.rmat-s12", median(main.case_ms[0].clone()) / ref_r);
        l.set("kernel.fast_over_ref.uniform-4k", median(main.case_ms[1].clone()) / ref_u);
        layers::precision(l, &b);
        layers::format(l, &rmat, N);
        layers::pipeline(l, "rmat-s12", &rmat, &b);
        let small = CsrMatrix::from_coo(&random_uniform::<f32>(64, 64, 256, cfg.sub_seed(1)));
        layers::pipeline(l, "small", &small, &operand(64, 8, cfg.sub_seed(100)));
    }
    Ok(out)
}

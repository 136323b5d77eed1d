//! Small numeric helpers: seeded values, order statistics, process memory.

use std::time::{Duration, Instant};

use fs_matrix::DenseMatrix;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded dense operand whose entries are multiples of 1/8 in
/// `[-1, 1)`: exact in FP16 and TF32, so a reference differs from the
/// kernel only by accumulation order and output rounding.
pub fn operand(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(rows, cols, |r, c| {
        let h = mix(seed ^ mix(((r as u64) << 32) | c as u64));
        (h % 16) as f32 / 8.0 - 1.0
    })
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending in place and return the slice (for [`percentile`]).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (0 for an empty sample).
pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// Mean of `v` (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in milliseconds, after one
/// untimed warm-up call.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(samples)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the exact-counts digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// When its reply arrived.
    pub at: Instant,
    pub lat_ms: f64,
    /// Useful sparse FLOPs it delivered.
    pub flops: f64,
}

/// Rates and latency percentiles of a measured phase over its quiet
/// windows: those the host stole no more CPU time in than in the median
/// window, or a negligible amount (see `crate::steal`). Interference from
/// outside the program then drops the windows it hit instead of moving
/// the result.
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    pub ops_per_s: f64,
    pub gflops: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Per window: steal ticks, operations completed, whether kept.
    pub windows: Vec<(f64, usize, bool)>,
}

/// Split each segment `(start, elapsed)` into `per_segment` equal
/// windows, keep the quiet ones that completed operations, and pool them:
/// rates over their summed time, percentiles over their operations.
/// Rates are per second of wall time, or per second spent inside the
/// operations when `per_busy` (a single caller whose operations are
/// separated by the benchmark's own checks).
pub fn windowed(
    ops: &[Done],
    segments: &[(Instant, Duration)],
    per_segment: usize,
    per_busy: bool,
) -> Windowed {
    let per_segment = per_segment.max(1) as u32;
    let bounds: Vec<(Instant, Instant)> = segments
        .iter()
        .flat_map(|&(start, elapsed)| {
            let width = elapsed / per_segment;
            (0..per_segment).map(move |w| (start + width * w, start + width * (w + 1)))
        })
        .collect();
    if bounds.is_empty() {
        return Windowed::default();
    }
    let windows = bounds.len();
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut flops = vec![0.0f64; windows];
    for op in ops {
        let w = bounds.partition_point(|b| b.0 <= op.at).clamp(1, windows) - 1;
        lat[w].push(op.lat_ms);
        flops[w] += op.flops;
    }
    let steal: Vec<f64> = bounds.iter().map(|&(a, b)| crate::steal::between(a, b)).collect();
    let widest = bounds.iter().map(|&(a, b)| (b - a).as_secs_f64()).fold(0.0, f64::max);
    let calm = median((0..windows).filter(|&w| !lat[w].is_empty()).map(|w| steal[w]).collect())
        .max(crate::steal::negligible(widest));
    let (mut kept, mut secs, mut total_flops) = (Vec::new(), 0.0, 0.0);
    let mut report = Vec::with_capacity(windows);
    for (((l, f), s), (a, b)) in lat.into_iter().zip(flops).zip(steal).zip(bounds) {
        let keep = !l.is_empty() && s <= calm;
        report.push((s, l.len(), keep));
        if keep {
            secs += if per_busy { l.iter().sum::<f64>() / 1e3 } else { (b - a).as_secs_f64() };
            total_flops += f;
            kept.extend(l);
        }
    }
    let secs = f64::max(secs, 1e-9);
    let ops_per_s = kept.len() as f64 / secs;
    let kept = sorted(kept);
    Windowed {
        ops_per_s,
        gflops: total_flops / secs / 1e9,
        p50_ms: percentile(&kept, 50.0),
        p99_ms: percentile(&kept, 99.0),
        windows: report,
    }
}

/// One timed probe (a cold request, a registration).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
}

impl Sample {
    pub fn ms(self) -> f64 {
        ms(self.end - self.start)
    }
}

/// The probes' latencies in ms, keeping those the host stole no more
/// CPU time during than during the median probe, or a negligible amount
/// (both per unit of time).
pub fn quiet(samples: &[Sample]) -> Vec<f64> {
    let rate = |s: &Sample| {
        crate::steal::between(s.start, s.end) / (s.end - s.start).as_secs_f64().max(1e-9)
    };
    let rates: Vec<f64> = samples.iter().map(rate).collect();
    let calm = median(rates.clone()).max(crate::steal::negligible(1.0));
    samples.iter().zip(rates).filter(|(_, r)| *r <= calm).map(|(s, _)| s.ms()).collect()
}

//! Hypervisor steal time: CPU time the host took from this machine's
//! virtual CPUs while they had work to run.
//!
//! On a shared virtual machine, steal comes in episodes of tens of
//! seconds and slows wake-up-heavy serving paths by up to 5x, whatever
//! the program does. A sampler thread reads the `steal` column of
//! `/proc/stat` every [`PERIOD`] for the whole run, so any interval can
//! be charged the steal that fell in it; `stats::windowed` and
//! `stats::quiet` then keep the windows and samples with the least.
//! Where `/proc/stat` has no steal column every interval reads 0 and
//! nothing is dropped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Sampling period of the steal clock.
const PERIOD: Duration = Duration::from_millis(100);

static SAMPLES: Mutex<Vec<(Instant, u64)>> = Mutex::new(Vec::new());

/// Total steal ticks over all CPUs, from the aggregate `cpu` line.
fn read_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Append a sample taken now, keeping both time and ticks ascending (a
/// sample that lost a race with another thread's is dropped).
fn push() {
    if let Some(ticks) = read_steal() {
        let now = Instant::now();
        let mut samples = SAMPLES.lock().unwrap_or_else(|p| p.into_inner());
        if samples.last().is_none_or(|&(t, v)| t <= now && v <= ticks) {
            samples.push((now, ticks));
        }
    }
}

/// The running sampler; [`Sampler::stop`] ends and joins it.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

/// Start sampling (once, at program start).
pub fn start() -> Sampler {
    push();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = thread::Builder::new()
        .name("perfbench-steal".to_string())
        .spawn(move || {
            while !flag.load(Ordering::Acquire) {
                thread::sleep(PERIOD);
                push();
            }
        })
        .ok();
    Sampler { stop, handle }
}

impl Sampler {
    /// Stop the sampler thread and wait for it to end.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Steal ticks at `t`, interpolated between the samples around it.
fn at(samples: &[(Instant, u64)], t: Instant) -> f64 {
    let i = samples.partition_point(|&(s, _)| s <= t);
    match (i.checked_sub(1).map(|j| samples[j]), samples.get(i)) {
        (Some((t0, v0)), Some(&(t1, v1))) => {
            let span = (t1 - t0).as_secs_f64();
            let frac = if span > 0.0 { (t - t0).as_secs_f64() / span } else { 0.0 };
            v0 as f64 + frac * (v1 as f64 - v0 as f64)
        }
        (Some((_, v)), None) => v as f64,
        (None, Some(&(_, v))) => v as f64,
        (None, None) => 0.0,
    }
}

/// Steal ticks too few to matter over `secs` seconds: 2% of the CPU time
/// all CPUs had (Linux counts 100 ticks per CPU-second). Windows and
/// samples under this count as quiet even when the median is lower, so a
/// quiet run keeps all of its data.
pub fn negligible(secs: f64) -> f64 {
    let cpus = thread::available_parallelism().map_or(1, |p| p.get());
    0.02 * 100.0 * cpus as f64 * secs
}

/// Steal ticks charged to the interval `[a, b]`.
pub fn between(a: Instant, b: Instant) -> f64 {
    push();
    let samples = SAMPLES.lock().unwrap_or_else(|p| p.into_inner());
    at(&samples, b) - at(&samples, a)
}

/// Steal ticks since the sampler started.
pub fn total() -> u64 {
    push();
    let samples = SAMPLES.lock().unwrap_or_else(|p| p.into_inner());
    match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => b.1.saturating_sub(a.1),
        _ => 0,
    }
}

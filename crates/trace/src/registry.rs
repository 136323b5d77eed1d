//! The global trace registry: arm/disarm gate, span recording, counters,
//! and the bounded event buffer.
//!
//! ## The zero-cost gate
//!
//! Tracing is process-global and defaults to **disarmed**. Every span
//! site compiles down to exactly one relaxed atomic load
//! ([`trace_enabled`]) when disarmed: [`span`] returns an inert guard
//! without reading the clock, and the guard's `Drop` is a `None` check.
//! No histogram slot, mutex, or thread-local is touched until the first
//! armed span — the same discipline as `fs_tcu::sanitize_enabled` and
//! `fs_chaos::chaos_enabled`, and verified the same two ways: the
//! `trace` Criterion A/B bench and the `spmm_cli --trace-ab-json` ci.sh
//! gate.
//!
//! ## Determinism
//!
//! Armed, span *counts* are a pure function of the work executed: each
//! site increments once per region entry, and under `ExecMode::Simulate`
//! the simulator's region structure is deterministic for a deterministic
//! request sequence. Span *times* and the event buffer's `ts`/`dur`
//! fields are wall-clock and excluded from the determinism scope —
//! exactly the split DESIGN.md §8 draws for chaos replay.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::hist::{bucket_index, Histogram, BUCKETS};
use crate::site::{Site, TraceCounter, COUNTER_COUNT, SITE_COUNT};

/// The master gate. Relaxed is sufficient: arming happens-before the
/// traffic of interest through the channel that started that traffic
/// (thread spawn, request send), and a stray span racing the flip is
/// merely included or excluded — never torn.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is armed — the single branch every disarmed span
/// site pays.
#[inline]
pub fn trace_enabled() -> bool {
    // lint: relaxed-ok - ARMED gates no non-atomic data; a racing span is included or excluded
    ARMED.load(Ordering::Relaxed)
}

/// Arm or disarm tracing process-wide. Prefer [`TraceScope`] in tests;
/// binaries arm once at startup.
pub fn set_armed(on: bool) {
    // lint: relaxed-ok - arming happens-before observed traffic via thread spawn / request send
    ARMED.store(on, Ordering::Relaxed);
}

/// One span site's live accumulation slot.
struct SiteCell {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl SiteCell {
    fn new() -> SiteCell {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        SiteCell { count: ZERO, sum_ns: ZERO, buckets: [ZERO; BUCKETS] }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Cap on buffered chrome-trace events. Histograms and counts keep full
/// fidelity past the cap; only per-event detail is shed (tallied in
/// `dropped_events`).
pub const EVENT_CAP: usize = 65_536;

/// One buffered span occurrence for the chrome-trace export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which site.
    pub site: Site,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
}

struct Registry {
    sites: Vec<SiteCell>,
    counters: Vec<AtomicU64>,
    events: Mutex<Vec<TraceEvent>>,
    dropped_events: AtomicU64,
    epoch: Instant,
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(|| Registry {
    sites: (0..SITE_COUNT).map(|_| SiteCell::new()).collect(),
    counters: (0..COUNTER_COUNT).map(|_| AtomicU64::new(0)).collect(),
    events: Mutex::new(Vec::new()),
    dropped_events: AtomicU64::new(0),
    epoch: Instant::now(),
});

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn lock_events(r: &Registry) -> MutexGuard<'_, Vec<TraceEvent>> {
    r.events.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Record one completed span occurrence. `start` is `None` for
/// durations measured externally (e.g. queue time), which update the
/// histogram but cannot be placed on the event timeline.
fn record_span(site: Site, start: Option<Instant>, dur: Duration) {
    let r = &*REGISTRY;
    let cell = &r.sites[site.index()];
    let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
    cell.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    if site.eventful() {
        if let Some(t0) = start {
            let start_ns =
                u64::try_from(t0.saturating_duration_since(r.epoch).as_nanos()).unwrap_or(u64::MAX);
            let ev = TraceEvent { site, start_ns, dur_ns: ns, tid: TID.with(|t| *t) };
            let mut events = lock_events(r);
            if events.len() < EVENT_CAP {
                events.push(ev);
            } else {
                drop(events);
                r.dropped_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// An RAII span guard: records a histogram sample (and, for eventful
/// sites, a timeline event) for the region between [`span`] and drop.
/// Inert — carrying no clock read — when tracing was disarmed at entry.
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    active: Option<(Site, Instant)>,
}

impl Span {
    /// Whether this guard is live (tracing was armed at the [`span`]
    /// call).
    pub fn is_armed(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((site, t0)) = self.active.take() {
            record_span(site, Some(t0), t0.elapsed());
        }
    }
}

/// Open a span at `site`. Disarmed: one relaxed load, no clock read.
#[inline]
pub fn span(site: Site) -> Span {
    if !trace_enabled() {
        return Span { active: None };
    }
    Span { active: Some((site, Instant::now())) }
}

/// Record an externally measured duration against `site` (used where
/// the region is not lexically scoped, e.g. queue residency). No-op
/// when disarmed.
#[inline]
pub fn record_duration(site: Site, dur: Duration) {
    if !trace_enabled() {
        return;
    }
    record_span(site, None, dur);
}

/// Add `n` to a trace counter. No-op when disarmed.
#[inline]
pub fn add(counter: TraceCounter, n: u64) {
    if !trace_enabled() {
        return;
    }
    REGISTRY.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
}

/// Clear all histograms, counters, and buffered events. The arm state
/// is left untouched.
pub fn reset() {
    let r = &*REGISTRY;
    for cell in &r.sites {
        cell.reset();
    }
    for c in &r.counters {
        c.store(0, Ordering::Relaxed);
    }
    lock_events(r).clear();
    r.dropped_events.store(0, Ordering::Relaxed);
}

/// Aggregated statistics for one span site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStats {
    /// Which site.
    pub site: Site,
    /// Latency histogram (count, sum, buckets).
    pub hist: Histogram,
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// One entry per [`Site::ALL`] element, in that order.
    pub spans: Vec<SpanStats>,
    /// One `(name, total)` per [`TraceCounter::ALL`] element.
    pub counters: Vec<(&'static str, u64)>,
    /// Buffered timeline events (eventful sites only, capped at
    /// [`EVENT_CAP`]).
    pub events: Vec<TraceEvent>,
    /// Events shed past the cap.
    pub dropped_events: u64,
    /// Whether tracing was armed at snapshot time.
    pub armed: bool,
}

impl TraceSnapshot {
    /// The stats for `site` (always present).
    pub fn site(&self, site: Site) -> &SpanStats {
        &self.spans[site.index()]
    }

    /// The total for `counter`.
    pub fn counter(&self, counter: TraceCounter) -> u64 {
        self.counters[counter.index()].1
    }

    /// Sum of span counts across all sites.
    pub fn total_spans(&self) -> u64 {
        self.spans.iter().map(|s| s.hist.count).sum()
    }

    /// Span counts keyed by site, in [`Site::ALL`] order — the
    /// determinism-scope payload (times excluded).
    pub fn span_counts(&self) -> Vec<(&'static str, u64)> {
        self.spans.iter().map(|s| (s.site.name(), s.hist.count)).collect()
    }
}

/// Copy out the registry. Concurrent recording may land between the
/// per-site copies; quiesce traffic first when exact totals matter.
pub fn snapshot() -> TraceSnapshot {
    let r = &*REGISTRY;
    let spans = Site::ALL
        .iter()
        .map(|&site| {
            let cell = &r.sites[site.index()];
            let buckets: Vec<u64> =
                cell.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            SpanStats {
                site,
                hist: Histogram {
                    buckets,
                    count: cell.count.load(Ordering::Relaxed),
                    sum_ns: cell.sum_ns.load(Ordering::Relaxed),
                },
            }
        })
        .collect();
    let counters = TraceCounter::ALL
        .iter()
        .map(|&c| (c.name(), r.counters[c.index()].load(Ordering::Relaxed)))
        .collect();
    let events = lock_events(r).clone();
    TraceSnapshot {
        spans,
        counters,
        events,
        dropped_events: r.dropped_events.load(Ordering::Relaxed),
        armed: trace_enabled(),
    }
}

static SCOPE_LOCK: LazyLock<Mutex<()>> = LazyLock::new(|| Mutex::new(()));

/// RAII trace activation for tests: serializes against other scopes
/// (the gate is process-wide), resets the registry on entry, and
/// restores the previous arm state (resetting again) on drop — the
/// `SanitizeScope` / `ChaosScope` pattern.
pub struct TraceScope {
    // Fields drop in declaration order: the restore runs while the
    // scope lock is still held.
    _restore: RestoreOnDrop,
    _lock: MutexGuard<'static, ()>,
}

/// The drop half of a [`TraceScope`]: restores the previous arm state
/// and resets the registry.
struct RestoreOnDrop {
    prev: bool,
}

impl Drop for RestoreOnDrop {
    fn drop(&mut self) {
        set_armed(self.prev);
        reset();
    }
}

impl TraceScope {
    /// Arm tracing over a fresh registry.
    pub fn armed() -> TraceScope {
        TraceScope::with_state(true)
    }

    /// Hold the scope lock with tracing disarmed — for tests asserting
    /// the silent off path while excluding armed tests.
    pub fn disarmed() -> TraceScope {
        TraceScope::with_state(false)
    }

    fn with_state(on: bool) -> TraceScope {
        let lock = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = trace_enabled();
        reset();
        set_armed(on);
        TraceScope { _restore: RestoreOnDrop { prev }, _lock: lock }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_is_inert() {
        let _scope = TraceScope::disarmed();
        {
            let s = span(Site::Translate);
            assert!(!s.is_armed());
        }
        record_duration(Site::ServeQueue, Duration::from_millis(5));
        add(TraceCounter::Mmas, 10);
        let snap = snapshot();
        assert_eq!(snap.total_spans(), 0);
        assert_eq!(snap.counter(TraceCounter::Mmas), 0);
        assert!(snap.events.is_empty());
        assert!(!snap.armed);
    }

    #[test]
    fn armed_span_records_hist_and_event() {
        let _scope = TraceScope::armed();
        {
            let s = span(Site::Translate);
            assert!(s.is_armed());
            std::thread::sleep(Duration::from_micros(50));
        }
        {
            let _s = span(Site::Mma); // hot site: histogram only
        }
        record_duration(Site::ServeQueue, Duration::from_micros(250));
        add(TraceCounter::Sectors, 7);
        add(TraceCounter::Sectors, 3);
        let snap = snapshot();
        assert_eq!(snap.site(Site::Translate).hist.count, 1);
        assert!(snap.site(Site::Translate).hist.sum_ns >= 50_000);
        assert_eq!(snap.site(Site::Mma).hist.count, 1);
        assert_eq!(snap.site(Site::ServeQueue).hist.count, 1);
        assert_eq!(snap.counter(TraceCounter::Sectors), 10);
        // Only the eventful translate span reached the buffer: the mma
        // site is hot-path, the queue duration has no timeline anchor.
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].site, Site::Translate);
        assert!(snap.events[0].dur_ns >= 50_000);
    }

    #[test]
    fn scope_restores_and_resets() {
        // Drop the scope field by field, as its own drop does, but keep
        // the lock for the snapshot: once it is released an armed test
        // may run and the snapshot would see that test's state.
        let TraceScope { _restore: restore, _lock: lock } = TraceScope::armed();
        drop(span(Site::Tune));
        drop(restore);
        let snap = snapshot();
        drop(lock);
        assert!(!snap.armed, "scope must disarm on drop");
        assert_eq!(snap.total_spans(), 0, "scope must reset on drop");
    }

    #[test]
    fn span_counts_are_keyed_in_site_order() {
        let _scope = TraceScope::armed();
        drop(span(Site::Verify));
        drop(span(Site::Verify));
        let counts = snapshot().span_counts();
        assert_eq!(counts.len(), SITE_COUNT);
        assert_eq!(counts[Site::Verify.index()], ("verify", 2));
    }
}

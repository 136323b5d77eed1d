//! The benchmark's own spans, recorded around each call into a layer's
//! public functions during a traced run. They stay in memory and are
//! written out once, as a chrome://tracing timeline, when the run ends.
//!
//! Span names are fixed so every workload reports the same self-time
//! metrics:
//!
//! | span      | what it covers                                           |
//! |-----------|----------------------------------------------------------|
//! | `setup`   | server/router start, `Load`/register and warm-up          |
//! | `op`      | one closed-loop operation, request id = operation index   |
//! | `call`    | the library or `ServeClient` call inside an `op`          |
//! | `queue`   | server-reported queue time (`SpmmResult::queue_micros`)   |
//! | `service` | server-reported execution time (`service_micros`)         |
//! | `gnn_layers` | server-reported GNN layer time (`layer_micros`, summed) |
//! | `verify`  | the benchmark's check of one output against its reference |
//!
//! `queue`, `service` and `gnn_layers` are durations the server reports;
//! they are laid out inside their `call` after the first half of the
//! call's remaining (wire) time, since only their lengths are known.

use std::time::{Duration, Instant};

use fs_trace::export::JsonWriter;

/// Names of every benchmark span, in report order.
pub const NAMES: [&str; 7] = ["setup", "op", "call", "queue", "service", "gnn_layers", "verify"];

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one operation.
    pub req: u64,
    /// Recording thread (the chrome `tid`).
    pub thread: u64,
}

/// A per-thread span buffer. A disabled log records nothing and costs a
/// branch per call, so the untraced code path is the traced one.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> SpanLog {
        SpanLog { on, epoch, thread, next: 0, spans: Vec::new() }
    }

    /// Reserve an id for a span that will be recorded once it ends (so
    /// its children, recorded first, can name it as parent).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span measured by the benchmark.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, start_ns, end_ns, id, parent, req, thread: self.thread });
        }
    }

    /// Lay server-reported durations out inside the call span
    /// `[start, end]` (see the module docs) and record them as children.
    pub fn server_parts(
        &mut self,
        call: u64,
        start: Instant,
        end: Instant,
        req: u64,
        parts: &[(&'static str, Duration)],
    ) {
        if !self.on {
            return;
        }
        let total: Duration = parts.iter().map(|p| p.1).sum();
        let wire = end.saturating_duration_since(start).saturating_sub(total);
        let mut at = start + wire / 2;
        for &(name, dur) in parts {
            let id = self.id();
            let stop = (at + dur).min(end);
            self.record(id, name, at, stop, call, req);
            at = stop;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Mean self time per span name in microseconds: a span's duration
/// minus the part of it its children cover.
pub fn self_times_us(spans: &[Span]) -> Vec<(&'static str, f64)> {
    use std::collections::HashMap;
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    NAMES
        .iter()
        .map(|&name| {
            let selfs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| {
                    let dur = s.end_ns.saturating_sub(s.start_ns);
                    dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 / 1e3
                })
                .collect();
            (name, crate::stats::mean(&selfs))
        })
        .collect()
}

/// The spans as a chrome://tracing document (complete `X` events).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents").begin_array();
    for s in spans {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_str("ph", "X");
        w.field_f64("ts", s.start_ns as f64 / 1e3);
        w.field_f64("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
        w.field_u64("pid", 1);
        w.field_u64("tid", s.thread);
        w.key("args").begin_object();
        w.field_u64("id", s.id);
        w.field_u64("parent", s.parent);
        w.field_u64("req", s.req);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

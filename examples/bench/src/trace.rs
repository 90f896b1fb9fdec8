//! Spans around the public calls the harness makes into each layer.
//!
//! A span records its name, start, end, the span open around it on the
//! same thread (its parent), the request it belongs to, and the thread.
//! Spans stay in memory and are written out once, when the run ends. With
//! tracing off, `begin` returns `None` without reading the clock, so an
//! untraced run pays one branch per call site.

use serde::Value;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, thread)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`]. `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            thread: self.thread,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Time `f` under a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record an interval the caller timed itself (a request round trip
    /// it needs the latency of anyway), as a child of the open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                req,
                thread: self.thread,
            };
            self.spans.push(span);
        }
    }

    /// Nanoseconds since the epoch, for marking phase boundaries.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Fold another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children count once, and a child
/// sticking out of its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer (seconds), summed over the spans of `thread` that
/// lie inside `[from_ns, to_ns)`, in first-seen order.
pub fn layer_self_s(
    spans: &[Span],
    thread: u32,
    from_ns: u64,
    to_ns: u64,
) -> Vec<(&'static str, f64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.thread != thread || s.start_ns < from_ns || s.end_ns > to_ns {
            continue;
        }
        let secs = self_ns as f64 / 1e9;
        match out.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some((_, total)) => *total += secs,
            None => out.push((s.layer(), secs)),
        }
    }
    out
}

/// Mean cost of one empty span, measured on this machine.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut t = Tracer::new(true, Instant::now(), 0);
    t.spans.reserve(N as usize);
    let started = Instant::now();
    for i in 0..N {
        let id = t.begin("trace.empty", i);
        t.end(id);
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// The trace file: a name table plus one compact array per span,
/// `[name index, start ns, end ns, parent or -1, request id, thread]`.
pub fn to_json(spans: &[Span], layers: &[(&'static str, f64)]) -> Value {
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .map(|s| {
            let idx = names.iter().position(|&n| n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let num = |x: u64| Value::Num(serde::Number::U(x));
            let parent = match s.parent {
                Some(p) => num(p as u64),
                None => Value::Num(serde::Number::I(-1)),
            };
            Value::Seq(vec![
                num(idx as u64),
                num(s.start_ns),
                num(s.end_ns),
                parent,
                num(s.req),
                num(u64::from(s.thread)),
            ])
        })
        .collect();
    Value::Map(vec![
        (
            "names".into(),
            Value::Seq(names.iter().map(|n| Value::Str(n.to_string())).collect()),
        ),
        (
            "layer_self_s".into(),
            Value::Map(
                layers
                    .iter()
                    .map(|&(l, s)| (l.to_string(), Value::Num(serde::Number::F(s))))
                    .collect(),
            ),
        ),
        ("spans".into(), Value::Seq(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_interval() {
        let spans = [
            span("campaign.step", 0, 100, None),
            span("sched.pass", 10, 30, Some(0)),
            // Overlaps the first child: [20, 50) adds only [30, 50).
            span("tsdb.append", 20, 50, Some(0)),
            // Sticks out of the parent: only [90, 100) counts.
            span("tsdb.seal", 90, 120, Some(0)),
            span("sched.inner", 12, 14, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 2, 30, 30, 2]);
    }

    #[test]
    fn layer_self_time_sums_to_top_level_duration() {
        let spans = [
            span("campaign.step", 0, 100, None),
            span("tsdb.append", 20, 50, Some(0)),
            span("campaign.step", 100, 160, None),
            // Outside the window: excluded.
            span("query.exec", 200, 260, None),
        ];
        let layers = layer_self_s(&spans, 0, 0, 160);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].0, "campaign");
        assert!((layers[0].1 - 130e-9).abs() < 1e-15);
        assert!((layers[1].1 - 30e-9).abs() < 1e-15);
        let total: f64 = layers.iter().map(|l| l.1).sum();
        assert!((total - 160e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_the_open_span_and_threads_rebase() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("campaign.step", 7, |t| {
            t.span("tsdb.append", 7, |_| ());
        });
        let mut other = t.fork(1);
        other.span("serve.request", 1, |t| t.span("serve.inner", 1, |_| ()));
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].thread, 1);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.begin("x", 0), None);
        off.record("x", 0, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}

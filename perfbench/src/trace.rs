//! In-memory wall-time spans recorded by the benchmark around its own calls
//! into the engine's public functions. Nothing here reaches inside the
//! engine. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// `<layer>.<call>`, e.g. `engine.run`.
    pub name: &'static str,
    /// The backend leg (Chrome trace process).
    pub leg: usize,
    /// Recording thread (Chrome trace thread).
    pub tid: u64,
    /// The client operation the span belongs to.
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// A span opened by [`Tracer::begin`] or [`Tracer::begin_at`].
#[must_use]
pub struct Open {
    id: u64,
    name: &'static str,
    op: u64,
    start: u64,
    parent: Option<u64>,
    nested: bool,
}

impl Open {
    /// The span's id, to parent spans recorded on other threads.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

/// Records spans for one thread of one leg.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    leg: usize,
    tid: u64,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, leg: usize, tid: u64) -> Self {
        Tracer { enabled, epoch, leg, tid, next: 0, stack: Vec::new(), spans: Vec::new() }
    }

    pub fn leg(&self) -> usize {
        self.leg
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, op: u64, start: u64, parent: Option<u64>) -> Open {
        self.next += 1;
        Open { id: (self.tid << 40) | self.next, name, op, start, parent, nested: false }
    }

    /// Opens a span nested under the innermost open span of this thread.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open { id: 0, name, op, start: 0, parent: None, nested: false };
        }
        let parent = self.stack.last().copied();
        let mut open = self.open(name, op, self.stamp(Instant::now()), parent);
        open.nested = true;
        self.stack.push(open.id);
        open
    }

    /// Opens a span that started at `start` under an explicit parent; it
    /// may be closed on another thread's tracer.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        parent: Option<u64>,
    ) -> Open {
        if !self.enabled {
            return Open { id: 0, name, op, start: 0, parent: None, nested: false };
        }
        self.open(name, op, self.stamp(start), parent)
    }

    pub fn end(&mut self, open: Open) {
        if self.enabled {
            self.end_at(open, Instant::now());
        }
    }

    pub fn end_at(&mut self, open: Open, end: Instant) {
        if !self.enabled || open.id == 0 {
            return;
        }
        if open.nested {
            self.stack.pop();
        }
        let end = self.stamp(end);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            leg: self.leg,
            tid: self.tid,
            op: open.op,
            start: open.start,
            end,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per `(leg, layer)` in ms: each span's duration minus the part
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<(usize, &'static str), f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end - s.start).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry((s.leg, s.layer())).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Chrome trace-event JSON (complete events, one process per leg), which
/// Perfetto and `chrome://tracing` open offline.
pub fn chrome_json(spans: &[Span], leg_names: &[&str]) -> String {
    let mut events: Vec<String> = leg_names
        .iter()
        .enumerate()
        .map(|(pid, name)| {
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            )
        })
        .collect();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.leg,
            s.tid,
            s.op,
            s.id,
            parent
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions: name, start, end, parent span and
//! request id. They stay in memory until the run ends; a layer's cost
//! is its *self time*, the span's duration minus the part of it that
//! its child spans cover. With tracing off a [`Tracer`] records nothing
//! and reads no clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u32;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    // lint: allow(D6) — the benchmark's own clock: it times calls into the program and never feeds a result back to it
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent nested spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Span ids only need to be unique; no other data is published
        // through the counter.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Some(id));
        let end = self.now();
        self.record(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
        out
    }

    /// Records a span measured elsewhere (e.g. on a load-generator
    /// thread that already holds the timestamps).
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span store poisoned by a panicking thread")
                .push(span);
        }
    }

    /// Nanoseconds since the tracer started, for [`Tracer::record`].
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking thread"),
        )
    }
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals clipped to it. Children may nest
/// further and may overlap one another (parallel work); overlapping
/// parts count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name self times in milliseconds, one entry per span.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t as f64 / 1e6);
    }
    out
}

/// Per-name wall durations in milliseconds, one entry per span.
pub fn wall_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push((s.end - s.start) as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 50) once: 40.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A disjoint child: 10 more.
            span(3, Some(0), 70, 80),
            // A grandchild only reduces its own parent.
            span(4, Some(1), 15, 25),
            // A child running past its parent is clipped: [95, 100).
            span(5, Some(0), 95, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10 - 5);
        assert_eq!(t[1], 30 - 10);
        assert_eq!(t[2], 20);
        assert_eq!(t[4], 10);
        assert_eq!(t[5], 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |p| p), None);
        assert!(off.drain().is_empty());
        let on = Tracer::new(true);
        let inner = on.span("outer", None, 7, |p| on.span("inner", p, 7, |q| q));
        let spans = on.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(inner, Some(spans[0].id));
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
    }
}

//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer (name, start, end, parent, request id), kept in memory, and
//! written out as JSON lines when the run ends. A disabled tracer records
//! nothing, so the untraced end-to-end run pays one branch per call site.

use std::io::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// Returned by a disabled tracer.
const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from `start` until now.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
    ) -> SpanId {
        self.record_between(name, parent, request, start, Instant::now())
    }

    /// Records a finished span over `[start, end]`.
    pub fn record_between(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.filter(|&p| p != NO_SPAN),
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Re-parents an already recorded span, for parents whose span is only
    /// recorded once their children have finished.
    pub fn set_parent(&mut self, child: SpanId, parent: SpanId) {
        if let (Some(span), true) = (self.spans.get_mut(child), parent != NO_SPAN) {
            span.parent = Some(parent);
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span, indexed by [`SpanId`], in seconds: its
    /// duration minus the durations of its direct children (which never
    /// overlap, as every nesting recorded here is sequential).
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= i128::from(span.end_ns) - i128::from(span.start_ns);
            }
        }
        own.into_iter().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Seconds one recorded span costs the traced run, measured by recording
/// spans into a throwaway tracer.
pub fn span_cost_s() -> f64 {
    const SPANS: usize = 20_000;
    let mut scratch = Tracer::new(true);
    let start = Instant::now();
    for i in 0..SPANS {
        let t = Instant::now();
        let id = scratch.record("calibrate", None, i as u64, t);
        std::hint::black_box(id);
    }
    start.elapsed().as_secs_f64() / SPANS as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let parent = t.record_between("parent", None, 0, at(0), at(10));
        t.record_between("child", Some(parent), 0, at(1), at(4));
        t.record_between("child", Some(parent), 0, at(5), at(7));
        let self_s = t.self_times_s();
        assert!((self_s[parent] - 0.005).abs() < 1e-9);
        assert!(Tracer::new(false).record("x", None, 0, base) == NO_SPAN);
    }
}

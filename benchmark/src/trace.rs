//! Harness-side spans around every call into a layer, kept in memory and
//! written out when the workload ends. Spans inside the program are a later
//! change (ROADMAP item 4); these see the layers from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request (or merge) the span belongs to; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    pub fn record(
        &self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded under a panic");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us: start.duration_since(self.origin).as_micros() as u64,
            end_us: end.duration_since(self.origin).as_micros() as u64,
        });
        id
    }

    /// Opens a span now; [`Tracer::close`] ends it. Returns its id (0 when
    /// tracing is off), which children name as their parent.
    pub fn open(&self, parent: u64, req: u64, name: &'static str) -> u64 {
        let now = Instant::now();
        self.record(parent, req, name, now, now)
    }

    pub fn close(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_us = self.origin.elapsed().as_micros() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded under a panic");
        spans[id as usize - 1].end_us = end_us;
    }

    /// Times `f` as a span under `parent`.
    pub fn span<T>(&self, parent: u64, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(parent, req, name);
        let out = f();
        self.close(id);
        out
    }

    /// Seconds this tracer spent recording: the spans it holds times the
    /// cost of one, measured on a scratch tracer. A second, untraced pass
    /// would measure the same thing as a difference of two wall times whose
    /// run-to-run noise here is a thousand times the quantity.
    pub fn overhead_seconds(&self) -> f64 {
        const PROBES: u32 = 10_000;
        let scratch = Tracer::new(true);
        let started = Instant::now();
        for _ in 0..PROBES {
            scratch.span(0, 0, "probe", || ());
        }
        let per_span = started.elapsed().as_secs_f64() / f64::from(PROBES);
        let held = self
            .spans
            .lock()
            .expect("no span is recorded under a panic")
            .len();
        per_span * held as f64
    }

    /// One JSON object per span, one per line.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self
            .spans
            .lock()
            .expect("no span is recorded under a panic");
        let mut out = String::new();
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_us, s.end_us
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }

    /// Per span name: count, total seconds, and self seconds (a span minus
    /// the part of it its children cover).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self
            .spans
            .lock()
            .expect("no span is recorded under a panic");
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            if let Some(p) = spans.get(s.parent as usize - 1) {
                let covered = s
                    .end_us
                    .min(p.end_us)
                    .saturating_sub(s.start_us.max(p.start_us));
                *child_time.entry(s.parent).or_default() += covered;
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_us - s.start_us;
            let own = total.saturating_sub(child_time.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n, c, t as f64 / 1e6, o as f64 / 1e6))
            .collect()
    }
}

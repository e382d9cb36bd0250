//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! into a layer of the program: name, phase, start, end, parent and the
//! request identifier they belong to. They stay in memory until the run
//! ends and are then written out as JSON lines. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.
//!
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub phase: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str, phase: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let idx = inner.spans.len();
        inner.spans.push(Span {
            name,
            phase,
            start_ns,
            end_ns: start_ns,
            parent,
            request: 0,
        });
        inner.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`] (and any left open inside
    /// it).
    pub fn end(&self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        while let Some(top) = inner.open.pop() {
            inner.spans[top].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, phase);
        let out = f();
        self.end(open);
        out
    }

    /// Record an already-timed interval (for work timed on another thread).
    pub fn record(
        &self,
        name: &'static str,
        phase: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        inner.spans.push(Span {
            name,
            phase,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
    }

    /// Self time in seconds of the spans named `name`, over all phases:
    /// each span's duration minus the union of its children's intervals.
    pub fn self_time(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(span, _)| span.name == name)
            .map(|(span, kids)| {
                let covered = union_ns(kids, span.start_ns, span.end_ns);
                (span.end_ns - span.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .sum()
    }

    /// Total duration in seconds of every span named `name` in `phase`.
    pub fn total(&self, name: &str, phase: &str) -> f64 {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name && s.phase == phase)
            .map(Span::secs)
            .sum()
    }

    /// The share of the `run` root spans' time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let root: f64 = self
            .inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == "run")
            .map(Span::secs)
            .sum();
        if root > 0.0 {
            self.self_time("run") / root
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.phase, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = Tracer::new(true, Instant::now());
        let root = t.begin("run", "p");
        let start = Instant::now();
        t.record("a", "p", start, start + Duration::from_millis(20), 1);
        std::thread::sleep(Duration::from_millis(30));
        t.end(root);
        let root_total = t.total("run", "p");
        let root_self = t.self_time("run");
        assert!((t.self_time("a") - 0.020).abs() < 1e-9);
        assert!(
            (root_self - (root_total - 0.020)).abs() < 1e-9,
            "{root_self}"
        );
        assert!(root_self >= 0.010, "{root_self}");
        assert_eq!(t.unattributed_share(), root_self / root_total);
        assert_eq!(union_ns(&mut [(0, 10), (5, 20), (30, 40)], 0, 35), 25);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now());
        t.span("x", "p", || ());
        assert_eq!(t.total("x", "p"), 0.0);
    }
}

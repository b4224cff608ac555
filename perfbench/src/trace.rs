//! The benchmark's own spans: one per public call it makes into a layer,
//! kept in memory and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static RUN_EPOCH: OnceLock<Instant> = OnceLock::new();

/// The instant every span in the span file counts from: the first call,
/// which `main` makes before anything else.
pub fn run_epoch() -> Instant {
    *RUN_EPOCH.get_or_init(Instant::now)
}

/// One timed call. `parent` links a span to the span that caused it; spans
/// of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder. Callers pass times in ns since the
/// tracer's own `epoch`; spans are stored in ns since [`run_epoch`]. When
/// off it records nothing and never reads the clock.
pub struct Tracer {
    epoch: Instant,
    /// `epoch` − [`run_epoch`], in ns.
    offset_ns: u64,
    on: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// Ids start at `id_base`, so the tracers of one run (one per thread
    /// or phase) never hand out the same id.
    pub fn new(on: bool, epoch: Instant, id_base: u64) -> Tracer {
        let offset_ns = epoch.saturating_duration_since(run_epoch()).as_nanos() as u64;
        Tracer { epoch, offset_ns, on, next_id: id_base, spans: Vec::new() }
    }

    /// Nanoseconds since the tracer's epoch; 0 when tracing is off.
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Record a finished span; returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.fresh_id();
        self.record_as(id, name, parent, request, start_ns, end_ns);
        id
    }

    /// A fresh id for a span recorded later with
    /// [`record_as`](Tracer::record_as) — e.g. a parent that ends after
    /// its children.
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span under a caller-chosen id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            let (start_ns, end_ns) = (start_ns + self.offset_ns, end_ns + self.offset_ns);
            self.spans.push(Span { id, parent, name, request, start_ns, end_ns });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: `(span count, total self time in ns)`. A span's self
/// time is its duration minus the part of it covered by its children (the
/// union of their intervals, clipped to the parent's).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |intervals| covered_ns(intervals, span.start_ns, span.end_ns));
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += duration - covered.min(duration);
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Mean self time of spans named `name`, in microseconds; 0 when none.
pub fn mean_self_us(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |&(n, total)| if n == 0 { 0.0 } else { total as f64 / n as f64 / 1e3 })
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, request: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "profile", 10, 30),
            span(3, Some(1), "curve", 30, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 30));
        assert_eq!(t["profile"], (1, 20));
        assert_eq!(t["curve"], (1, 50));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span(1, None, "request", 100, 200),
            // Two workers' children overlap on [120, 140); one starts
            // before the parent and one runs past its end.
            span(2, Some(1), "a", 110, 140),
            span(3, Some(1), "b", 120, 150),
            span(4, Some(1), "c", 90, 105),
            span(5, Some(1), "d", 190, 250),
        ];
        let t = self_times(&spans);
        // Covered: [100,105) + [110,150) + [190,200) = 5 + 40 + 10.
        assert_eq!(t["request"], (1, 45));
        assert_eq!(t["d"], (1, 60));
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "mid", 0, 60),
            span(3, Some(2), "leaf", 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 40));
        assert_eq!(t["mid"], (1, 10));
        assert_eq!(t["leaf"], (1, 50));
        assert_eq!(mean_self_us(&t, "leaf"), 0.05);
        assert_eq!(mean_self_us(&t, "missing"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tracer.now(), 0);
        assert_eq!(tracer.record("x", None, 0, 1, 2), 0);
        assert!(tracer.into_spans().is_empty());
    }
}

//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every thread owns a [`Recorder`]; spans stay in memory and are written
//! out once the run ends. A span's name is `layer.call`; the layer is the
//! part before the first dot.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `session.step`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span buffer. A disabled recorder records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose times count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span whose times the caller already took; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    /// Close the span `id` opened by [`Recorder::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end;
        }
    }

    /// Take the spans out, leaving the recorder empty.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans recorded around timed operations: every span outside the replay
/// roots (`replay.*`) and their children.
pub fn timed_spans(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| {
            s.layer() != "replay"
                && s.parent
                    .and_then(|p| spans.get(p))
                    .is_none_or(|p| p.layer() != "replay")
        })
        .count()
}

/// Cost in seconds of recording one span with [`Recorder::enter`] and
/// [`Recorder::exit`], the dearer of the two ways spans are recorded,
/// averaged over `samples` spans.
pub fn span_cost_s(samples: usize) -> f64 {
    let mut rec = Recorder::new(Instant::now(), true);
    let start = Instant::now();
    for op in 0..samples as u64 {
        let id = rec.enter("trace.calibrate", None, op);
        rec.exit(id);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(rec.spans.len());
    elapsed / samples.max(1) as f64
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p) {
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration_ns().saturating_sub(covered_ns(&mut kids)))
        .collect()
}

/// Length of the union of intervals.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time per layer in seconds, summed over every recorder.
pub fn layer_self_s(recorders: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for spans in recorders {
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in recorders.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
    }
    w.flush()
}

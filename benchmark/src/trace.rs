//! In-memory spans around the calls into each layer's public functions.
//!
//! The benchmark measures the stack *from outside*: nothing inside the
//! crates is instrumented, so a span here always brackets one call (or one
//! loop of calls) into a layer's public API.  Spans are kept in memory and
//! written out once, when the run ends; per-layer numbers are derived from
//! a span's *self time* — its duration minus the part of that interval its
//! child spans cover — so a parent never double-counts its children.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Marks a span that belongs to no corpus / no key.
pub const NONE: u8 = u8::MAX;

/// What a span was recorded for: which corpus, which key of the workload's
/// key list, and which operation (spans of one op share its id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// Index into [`crate::workloads::CORPORA`], or [`NONE`].
    pub corpus: u8,
    /// Index into the workload's key list, or [`NONE`].
    pub key: u8,
    /// Operation id (set-up spans use the set-up repetition).
    pub op: u32,
}

impl Tag {
    /// A span that belongs to a corpus but to no key (set-up work).
    pub fn of_corpus(corpus: usize, op: u32) -> Self {
        Self::of_key(corpus, NONE as usize, op)
    }

    /// A span recorded for key `key` of the workload's key list.
    pub fn of_key(corpus: usize, key: usize, op: u32) -> Self {
        Self {
            corpus: corpus as u8,
            key: key as u8,
            op,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module[.function]`), the prefix of the per-layer
    /// metrics derived from it.
    pub name: &'static str,
    /// What it was recorded for.
    pub tag: Tag,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder of one thread.  Threads record into their own tracer
/// (sharing the origin instant) and are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; records nothing while `on` is false.
    pub fn new(origin: Instant, on: bool) -> Self {
        Self {
            origin,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A fresh tracer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin, self.on)
    }

    /// Switches recording on or off (the untraced part of a traced run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: Tag) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id` (and any span left open inside it by an early return).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == idx {
                break;
            }
        }
    }

    /// Records a leaf span around one call.
    pub fn time<T>(&mut self, name: &'static str, tag: Tag, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name, tag);
        let out = call();
        self.end(id);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the length
/// of the union of its children's intervals (clipped to the span), so
/// nested grandchildren are not subtracted twice and overlapping children
/// (two threads under one parent) are not subtracted twice either.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Spans with their self times, queried by layer name and tag.
pub struct Layers<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl<'a> Layers<'a> {
    /// Computes self times once for `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        Self {
            spans,
            self_ns: self_times_ns(spans),
        }
    }

    /// Self times, in milliseconds, of the spans called `name` whose tag
    /// passes `keep`, each paired with its tag.
    pub fn self_ms(&self, name: &str, keep: impl Fn(&Tag) -> bool) -> Vec<(Tag, f64)> {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name && keep(&s.tag))
            .map(|(s, ns)| (s.tag, *ns as f64 / 1e6))
            .collect()
    }

    /// Whole durations, in milliseconds, of the spans called `name` whose
    /// tag passes `keep`.
    pub fn duration_ms(&self, name: &str, keep: impl Fn(&Tag) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(&s.tag))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Writes `spans` as a JSON array, one object per line.
pub fn write_json(path: &Path, spans: &[Span]) -> io::Result<()> {
    let field = |v: u8| match v {
        NONE => "null".to_string(),
        v => v.to_string(),
    };
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"corpus\":{},\"key\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}",
            s.name,
            field(s.tag.corpus),
            field(s.tag.key),
            s.tag.op,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," },
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: Tag = Tag {
        corpus: NONE,
        key: NONE,
        op: 0,
    };

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            tag: TAG,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100] > run [10,70] > fill [20,40]; op > digest [70,90].
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 70),
            span(Some(1), 20, 40),
            span(Some(0), 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 20, 20]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Two children overlap on [30,50]; a third sticks out of the parent.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 60),
            span(Some(0), 90, 130),
        ];
        // Covered: [10,60] and [90,100] = 60.
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child contained in an earlier sibling adds nothing.
        let contained = vec![span(None, 0, 10), span(Some(0), 1, 9), span(Some(0), 2, 3)];
        assert_eq!(self_times_ns(&contained)[0], 2);
    }

    #[test]
    fn tracer_nests_merges_and_stays_silent_when_off() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false);
        let id = off.begin("a", TAG);
        off.end(id);
        assert_eq!(off.time("b", TAG, || 7), 7);
        assert!(off.spans().is_empty());

        let mut main = Tracer::new(origin, true);
        let op = main.begin("op", TAG);
        main.time("leaf", TAG, || ());
        let dangling = main.begin("dangling", TAG);
        let _ = dangling;
        main.end(op); // closes `dangling` too
        assert_eq!(main.spans().len(), 3);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(0));
        assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut other = main.sibling();
        let op2 = other.begin("op", TAG);
        other.time("leaf", TAG, || ());
        other.end(op2);
        main.absorb(other);
        assert_eq!(main.spans().len(), 5);
        assert_eq!(main.spans()[4].parent, Some(3));
    }
}

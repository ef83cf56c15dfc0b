//! In-memory spans around calls into each layer, written out when the
//! run ends.
//!
//! Spans are recorded by the benchmark, outside the program: the span
//! named `dispatch.batch` is the wall time of one
//! `ShardedEcovisor::dispatch_batch` call as its caller saw it. A
//! layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans
/// of one request (or one tick) share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder with one time origin. Single-threaded by design:
/// each generator thread owns one and they are merged at the end.
///
/// A recorder that is off records nothing and reads no clock, so the
/// untraced run executes the same code without the tracing cost.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: true,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        if self.on {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a child span.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, Some(parent), req);
        let out = f();
        self.end(span);
        out
    }

    /// Records a finished interval measured elsewhere (e.g. a duration
    /// the server child reported), ending now.
    pub fn record_ending_now(&mut self, name: &'static str, duration_ns: u64, req: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
            parent: None,
            req,
        });
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self times of every span, grouped by span name.
    pub fn self_times(&self) -> SelfTimes {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            by_name.entry(span.name).or_default().push(own as f64);
        }
        SelfTimes(by_name)
    }

    /// Writes `[{"name":..,"start_ns":..,"end_ns":..,"parent":..,"req":..},..]`.
    pub fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.req
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// What each layer spent itself, not what the layers it called spent:
/// self times in ns by span name.
#[derive(Debug)]
pub struct SelfTimes(BTreeMap<&'static str, Vec<f64>>);

impl SelfTimes {
    /// Median self time in ns of the spans called `name` and how many
    /// there were; `(0, 0)` when there were none.
    pub fn p50(&self, name: &str) -> (f64, usize) {
        self.0
            .get(name)
            .map_or((0.0, 0), |d| (crate::stats::median(d), d.len()))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
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
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("dispatch", 30, 70, Some(0)),
            // Overlaps dispatch and runs past the parent: counted once,
            // clipped to the parent.
            span("encode", 60, 120, Some(0)),
            span("lock", 35, 45, Some(2)),
        ];
        // request: 100 − (20 + 40 + 30) = 10; dispatch: 40 − 10 = 30.
        assert_eq!(self_times_ns(&spans), vec![10, 20, 30, 60, 10]);
    }

    #[test]
    fn absorb_keeps_parent_links_and_json_lists_every_span() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("burst", None, 1);
        a.end(root);
        let mut b = Tracer::new(origin);
        let root = b.begin("request", None, 2);
        b.child("dispatch.batch", root, 2, || std::hint::black_box(3 + 4));
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations("dispatch.batch").len(), 1);
        let own = a.self_times();
        assert!(own.p50("request").0 <= a.durations("request")[0]);
        assert_eq!(
            own.p50("dispatch.batch"),
            (a.durations("dispatch.batch")[0], 1)
        );
        assert_eq!(own.p50("no such span"), (0.0, 0));
        let mut out = Vec::new();
        a.write_json(&mut out).expect("write");
        let doc = serde::json::parse(std::str::from_utf8(&out).expect("utf-8")).expect("json");
        match doc {
            serde::Value::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("not a list: {other:?}"),
        }
    }
}

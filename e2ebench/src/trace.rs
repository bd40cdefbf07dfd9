//! Benchmark-side spans around calls into the program's layers.
//!
//! A span records its name, layer, start, end, parent and job id. Spans
//! stay in memory and are written out once, when the benchmark ends. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::io::Write;
use std::time::Instant;

/// One closed span; times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(layer, name, job);
        let out = f();
        self.end(open);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
                s.layer, s.name, s.start, s.end, s.job
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent, so
/// overlapping or overhanging children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
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
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,10] > a [1,4] > b [2,3]; root > c [5,6]
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
            span("c", 5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [1,5] and [3,7] overlap on [3,5]; [6,12] overhangs the
        // parent's end. Covered part of [0,10] is [1,10] = 9.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 1.0, 5.0, Some(0)),
            span("y", 3.0, 7.0, Some(0)),
            span("z", 6.0, 12.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 1.0);
        // Disjoint children with a gap: [1,2] and [4,6] leave 7 of 10.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 4.0, 6.0, Some(0)),
            span("y", 1.0, 2.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 7.0);
    }

    #[test]
    fn tracer_records_parents_and_skips_when_disabled() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench", "job", 7);
        let x = t.span("kmer", "count", 7, || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].job, 7);
        assert!(t.spans()[0].end >= t.spans()[1].end);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);

        let mut off = Tracer::new(false);
        let o = off.begin("bench", "job", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}

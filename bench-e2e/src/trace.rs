//! The span recorder. Spans are recorded here, in the benchmark, around
//! the calls into each layer's public functions; the product is not
//! instrumented. Spans stay in memory and are written as JSON lines
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root (`op.*`) span.
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the single driver thread. A disabled tracer
/// still times (the end-to-end samples come from the same call sites)
/// but keeps nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a span named `name` (a child of the span it runs
    /// inside, a new operation otherwise) and returns its wall time.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let parent = self.stack.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p].op_id,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op_id,
        });
        self.stack.push(index);
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed();
        self.stack.pop();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans[index].start_ns = start_ns;
        self.spans[index].end_ns = start_ns + elapsed.as_nanos() as u64;
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap on one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// `(count, total self ns)` by span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own;
        }
        by_name
    }

    /// Largest relative gap, over all root spans, between a root's
    /// duration and the self times summed over its tree. Zero when the
    /// attribution is complete.
    pub fn attribution_gap(&self) -> f64 {
        let own = self.self_ns();
        let mut tree_self: BTreeMap<u64, u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&own) {
            *tree_self.entry(span.op_id).or_default() += own;
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.duration_ns() > 0)
            .map(|root| {
                let total = tree_self[&root.op_id] as f64;
                (total - root.duration_ns() as f64).abs() / root.duration_ns() as f64
            })
            .fold(0.0, f64::max)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_op_and_reduce_self_time() {
        let mut t = Tracer::new(true);
        t.timed("op.query", |t| {
            t.timed("query.parse", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.timed("query.exec", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
        });
        t.timed("op.query", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, spans[0].op_id);
        assert_ne!(spans[3].op_id, spans[0].op_id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["op.query"].0, 2);
        assert!(by_name["op.query"].1 < spans[0].duration_ns());
        assert!(t.attribution_gap() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (value, elapsed) = t.timed("op.query", |_| {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(value, 7);
        assert!(elapsed >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}

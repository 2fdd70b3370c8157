//! In-memory span recorder for the traced pass.
//!
//! Spans are taken by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. A span
//! has a name, a start, an end, the span that caused it, and the id of
//! the workload op it belongs to (spans of one op share that id). Spans
//! stay in memory until the pass ends and are then written out as NDJSON.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// The workload op the span belongs to.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.write`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total and self time of every span with one name.
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes the span opened as `idx`.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(op, name, parent);
        let out = f();
        self.end(idx);
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per-name totals, where a span's self time is its duration minus
    /// the time its child spans cover. Names appear in first-seen order.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let entry = match out.iter().position(|l| l.name == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(LayerTime {
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            entry.count += 1;
            entry.total_ns += s.duration_ns();
            entry.self_ns += s.duration_ns().saturating_sub(child);
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes the spans to `perfbench/out/spans-<workload>.ndjson` and
/// records the trace-level metrics: mean generator span, the share of
/// traced time the benchmark itself spent outside every layer's spans,
/// and the tracing overhead of a traced pass over an identical untraced
/// one (`1 - untraced_s / traced_s`).
pub fn report(
    report: &mut crate::Report,
    tracer: &Tracer,
    workload: &str,
    ops: u64,
    untraced_s: f64,
    traced_s: f64,
) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.ndjson"));
    match tracer.write_ndjson(&path) {
        Ok(()) => println!(
            "{workload:>14} {} spans of {ops} ops written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let layers = tracer.layer_times();
    let by = |name: &str| layers.iter().find(|l| l.name == name);
    if let Some(gen) = by("workloads.next_op") {
        report.metric(
            "workloads.next_op_ns",
            gen.total_ns as f64 / gen.count as f64,
            gen.count,
        );
    }
    if let Some(root) = by("bench.op") {
        report.metric(
            "bench.self_share",
            crate::stats::ratio(root.self_ns as f64, root.total_ns as f64),
            root.count,
        );
    }
    report.metric("trace.overhead_share", 1.0 - untraced_s / traced_s, ops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin(0, "bench.op", None);
        t.span(0, "core.read", Some(root), || std::hint::black_box(1 + 1));
        t.end(root);
        let layers = t.layer_times();
        let op = layers.iter().find(|l| l.name == "bench.op").unwrap();
        let read = layers.iter().find(|l| l.name == "core.read").unwrap();
        assert_eq!(op.total_ns, op.self_ns + read.total_ns);
        assert_eq!(read.self_ns, read.total_ns);
    }
}

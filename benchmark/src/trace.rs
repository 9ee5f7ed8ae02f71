//! Spans recorded by the benchmark around its calls into each layer:
//! held in memory while measuring, written as a Chrome trace at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<what>`; the layer is the crate's name without `gq-`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Spans of one operation share this.
    pub op_id: u32,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The spans of one thread. A span that causes others is pushed when it
/// opens, so that they can name its index; any other when it ends.
pub struct Recorder {
    origin: Instant,
    /// Thread id in the written trace.
    pub lane: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`, so recorders of
    /// several threads share one time axis.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Recorder {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `call` as a span and hand its result through.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        out
    }

    /// Open a span that will cause others; returns its index for their
    /// `parent`. Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op_id: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, index: u32) {
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Durations in microseconds of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }
}

/// The recorders' spans as one Chrome trace (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps.
pub fn chrome_trace(workload: &str, recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for rec in recorders {
        for (index, s) in rec.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{index},\"parent\":{parent},\"op_id\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                rec.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
                s.start_ns,
                s.end_ns,
            )
            .expect("writing to a String cannot fail");
        }
    }
    write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\"}}}}\n"
    )
    .expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_open_parent() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let op = rec.open("core.probe", 7);
        let got = rec.span("calculus.parse", op, 7, || 41 + 1);
        rec.close(op);
        assert_eq!(got, 42);
        assert_eq!(rec.spans.len(), 2);
        let (parent, child) = (&rec.spans[0], &rec.spans[1]);
        assert_eq!(child.parent, 0);
        assert_eq!(child.op_id, 7);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(rec.micros_of("calculus.parse").len(), 1);
    }

    #[test]
    fn chrome_trace_names_layer_parent_and_operation() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let op = rec.open("core.probe", 5);
        rec.span("algebra.evaluate", op, 5, || ());
        rec.close(op);
        let text = chrome_trace("tiny_adhoc", &[rec]);
        assert!(text.contains("\"name\":\"algebra.evaluate\",\"cat\":\"algebra\""));
        assert!(text.contains("\"tid\":3"));
        assert!(text.contains("\"parent\":0,\"op_id\":5"));
        assert!(text.contains("\"parent\":null,\"op_id\":5"));
        assert!(text.trim_end().ends_with("}}"));
    }
}

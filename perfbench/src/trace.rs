//! The benchmark's own spans, wrapped around calls into each layer's
//! public functions. Spans stay in memory until the run ends and are
//! then summarised per name.

use crate::stats::Samples;
use std::time::Instant;

/// One finished span: a layer call inside one op.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op span that caused this one (`None` for op spans).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    current_op: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            current_op: None,
        }
    }
}

/// The name every op's root span carries.
pub const OP: &str = "op";

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one op under a root span; layer spans recorded inside it
    /// name it as their parent.
    pub fn op<T>(&mut self, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: OP,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.current_op = Some(index);
        let value = body(self);
        self.current_op = None;
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Times one layer call.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let value = body();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.current_op,
            start_ns,
            end_ns,
        });
        value
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Samples {
        let mut samples = Samples::default();
        for span in self.spans.iter().filter(|span| span.name == name) {
            samples.push(span.micros());
        }
        samples
    }

    /// Total op time and the part of it the layer spans cover, in
    /// microseconds. Layer spans inside one op never overlap, so the
    /// covered time is their plain sum.
    pub fn coverage_micros(&self) -> (f64, f64) {
        let ops: f64 = self.micros(OP).sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|span| span.parent.is_some())
            .map(Span::micros)
            .sum();
        (ops, covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_nest_under_their_op() {
        let mut tracer = Tracer::default();
        tracer.op(|tracer| {
            tracer.span("a", || std::hint::black_box(1 + 1));
            tracer.span("b", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tracer.micros("a").len(), 1);
        assert_eq!(tracer.spans[1].parent, Some(0));
        let (ops, covered) = tracer.coverage_micros();
        assert!(covered >= 2000.0 && covered <= ops);
    }
}

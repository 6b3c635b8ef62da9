//! Sample summaries: medians and honest tail percentiles.

/// The 1-based nearest rank of quantile `q` among `n > 0` sorted
/// samples. The tolerance keeps `0.9 × 100` at rank 90 despite rounding.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// One class of timed samples (milliseconds or microseconds — the caller
/// keeps the unit).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The nearest-rank `q`-quantile (`0 < q ≤ 1`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(q, sorted.len()) - 1]
    }

    /// The arithmetic mean; 0 when empty. Used for server-reported
    /// phases, whose microsecond resolution makes medians of short
    /// phases collapse onto whole numbers.
    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len().max(1) as f64
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p50/p90/p99/p99.9 that still has at least ten
    /// samples above it, as `(label, value)`; the median when even p90
    /// has fewer than ten samples beyond it.
    pub fn honest_tail(&self) -> (&'static str, f64) {
        let n = self.values.len();
        let mut best = ("p50", self.median());
        for (label, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
            if n >= 10 && n - rank(q, n) >= 10 {
                best = (label, self.quantile(q));
            }
        }
        best
    }

    /// One human-readable line: count, median and the honest tail.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let (label, tail) = self.honest_tail();
        format!(
            "{name}: n={} p50={:.4}{unit} {label}={:.4}{unit}",
            self.len(),
            self.median(),
            tail
        )
    }
}

/// A run split into segments of equal work (whole passes), each with its
/// op latencies and wall time. The end-to-end figures are medians over
/// segments, so a burst of load from outside the benchmark that slows a
/// few segments does not move them.
#[derive(Debug, Default)]
pub struct Segments {
    segments: Vec<(Samples, f64)>,
    /// Every latency of every segment, for the sample-count notes.
    pub all: Samples,
}

impl Segments {
    /// Records one finished segment: its latencies (ms) and wall time (s).
    pub fn push(&mut self, latencies: Samples, wall_s: f64) {
        for &value in &latencies.values {
            self.all.push(value);
        }
        self.segments.push((latencies, wall_s));
    }

    fn median_of(&self, statistic: impl Fn(&Samples, f64) -> f64) -> f64 {
        let mut per_segment = Samples::default();
        for (latencies, wall) in &self.segments {
            per_segment.push(statistic(latencies, *wall));
        }
        per_segment.median()
    }

    /// Median over segments of completed ops per second.
    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|latencies, wall| latencies.len() as f64 / wall)
    }

    /// Median over segments of each segment's `q`-quantile latency.
    pub fn latency(&self, q: f64) -> f64 {
        self.median_of(|latencies, _| latencies.quantile(q))
    }

    /// Ops over all segments.
    pub fn ops(&self) -> usize {
        self.all.len()
    }

    /// A `#` note: segment count, sample count and honest tail.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "{} segments={}",
            self.all.describe(name, "ms"),
            self.segments.len()
        )
    }
}

/// A run that serves the same chunks of ops several times over (passes).
/// Each op's latency is the median of its passes and each chunk's wall
/// time the median of its passes, so a burst of outside load that slows
/// one pass does not move the figures, while every op of the input list
/// still counts once.
#[derive(Debug, Default)]
pub struct Passes {
    /// Per chunk, its wall time (s) in each pass.
    walls: Vec<Vec<f64>>,
    /// Per op, its latency (ms) in each pass.
    latencies: Vec<Vec<f64>>,
    /// Every latency of every pass, for the sample-count notes.
    pub all: Samples,
}

fn slot(list: &mut Vec<Vec<f64>>, index: usize) -> &mut Vec<f64> {
    if list.len() <= index {
        list.resize(index + 1, Vec::new());
    }
    &mut list[index]
}

fn median_of(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &value in values {
        samples.push(value);
    }
    samples.median()
}

impl Passes {
    /// Records one pass of op `op`: its latency in ms.
    pub fn op(&mut self, op: usize, latency_ms: f64) {
        slot(&mut self.latencies, op).push(latency_ms);
        self.all.push(latency_ms);
    }

    /// Records one pass of chunk `chunk`: its wall time in s.
    pub fn chunk(&mut self, chunk: usize, wall_s: f64) {
        slot(&mut self.walls, chunk).push(wall_s);
    }

    /// Ops of the input list over the summed median chunk wall times.
    pub fn ops_per_s(&self) -> f64 {
        let ops = self.latencies.iter().filter(|l| !l.is_empty()).count();
        let wall: f64 = self.walls.iter().map(|walls| median_of(walls)).sum();
        ops as f64 / wall
    }

    /// The `q`-quantile over ops of each op's median latency.
    pub fn latency(&self, q: f64) -> f64 {
        let mut per_op = Samples::default();
        for passes in self.latencies.iter().filter(|l| !l.is_empty()) {
            per_op.push(median_of(passes));
        }
        per_op.quantile(q)
    }

    /// Timed ops over all passes.
    pub fn ops(&self) -> usize {
        self.all.len()
    }

    /// A `#` note: sample count, honest tail, chunk and pass counts.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "{} chunks={} passes={}",
            self.all.describe(name, "ms"),
            self.walls.len(),
            self.walls.first().map_or(0, Vec::len)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut samples = Samples::default();
        for v in 1..=100 {
            samples.push(v as f64);
        }
        assert_eq!(samples.median(), 50.0);
        assert_eq!(samples.quantile(0.9), 90.0);
        assert_eq!(samples.honest_tail(), ("p90", 90.0));
    }

    #[test]
    fn segment_medians_ignore_one_slow_segment() {
        let mut segments = Segments::default();
        for wall in [1.0, 1.0, 4.0] {
            let mut latencies = Samples::default();
            for v in 1..=10 {
                latencies.push(v as f64 * wall);
            }
            segments.push(latencies, wall);
        }
        assert_eq!(segments.ops_per_s(), 10.0);
        assert_eq!(segments.latency(0.5), 5.0);
        assert_eq!(segments.ops(), 30);
    }

    #[test]
    fn pass_medians_ignore_one_slow_pass() {
        let mut passes = Passes::default();
        for slow in [1.0, 1.0, 5.0] {
            for chunk in 0..2 {
                for op in 0..10 {
                    passes.op(chunk * 10 + op, (op + 1) as f64 * slow);
                }
                passes.chunk(chunk, slow);
            }
        }
        assert_eq!(passes.ops_per_s(), 10.0);
        assert_eq!(passes.latency(0.5), 5.0);
        assert_eq!(passes.ops(), 60);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut samples = Samples::default();
        for v in 1..=50 {
            samples.push(v as f64);
        }
        // 50 samples: only 5 lie beyond p90, so the median is the tail.
        assert_eq!(samples.honest_tail().0, "p50");
        for v in 51..=2000 {
            samples.push(v as f64);
        }
        assert_eq!(samples.honest_tail().0, "p99");
    }
}

//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends. Nothing here reaches inside the
//! program: a span brackets a public call made from the benchmark.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary: `engine.execute_batch`, `gen.prepare`, ….
    pub name: &'static str,
    /// Batch or request the span belongs to (spans of one request share
    /// it).
    pub id: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// between the tracers of one pass).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let span = Span {
            name,
            id,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Every span named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes [`Tracer::to_jsonl`] to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

/// The traced run's attribution of one op's time to layers, in ms; the
/// remainder of `whole_ms` is reported unattributed.
pub struct Shares {
    /// The traced whole per op.
    pub whole_ms: f64,
    /// Load-generator time.
    pub gen: f64,
    /// Serving layer self time.
    pub serve: f64,
    /// Engine self time.
    pub engine: f64,
    /// Core self time.
    pub core: f64,
    /// Learn self time.
    pub learn: f64,
    /// Scan-kernel time.
    pub hdc: f64,
}

impl Shares {
    /// Writes `trace.whole_ms_per_op` and every `trace.share.*`; the
    /// shares sum to 1 with the unattributed remainder.
    pub fn write(&self, metrics: &mut crate::report::Metrics) {
        let attributed = self.gen + self.serve + self.engine + self.core + self.learn + self.hdc;
        metrics.set("trace.whole_ms_per_op", self.whole_ms);
        for (name, ms) in [
            ("trace.share.gen", self.gen),
            ("trace.share.serve", self.serve),
            ("trace.share.engine", self.engine),
            ("trace.share.core", self.core),
            ("trace.share.learn", self.learn),
            ("trace.share.hdc", self.hdc),
            ("trace.share.unattributed", self.whole_ms - attributed),
        ] {
            metrics.set(name, ms / self.whole_ms);
        }
    }

    /// Human-readable breakdown (ms per op) that sums to the whole.
    pub fn table(&self) -> String {
        let attributed = self.gen + self.serve + self.engine + self.core + self.learn + self.hdc;
        format!(
            "  attribution (ms/op): gen {:.4} + serve {:.4} + engine {:.4} + core {:.4} + learn {:.4} + hdc {:.4} + unattributed {:.4} = whole {:.4}\n",
            self.gen,
            self.serve,
            self.engine,
            self.core,
            self.learn,
            self.hdc,
            self.whole_ms - attributed,
            self.whole_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_total_and_serialize() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        tracer.record("a", 1, origin, origin + Duration::from_millis(2));
        tracer.record("a", 2, origin, origin + Duration::from_millis(3));
        let mut other = Tracer::new(origin);
        other.record("b", 7, origin, Instant::now());
        tracer.absorb(other);
        assert!((tracer.total_ms("a") - 5.0).abs() < 1e-9);
        assert_eq!(tracer.named("b").count(), 1);
        let text = tracer.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(
            text.starts_with("{\"name\": \"a\", \"id\": 1, \"start_ns\": 0, \"end_ns\": 2000000}")
        );
    }

    #[test]
    fn shares_and_the_remainder_sum_to_the_whole() {
        let shares = Shares {
            whole_ms: 10.0,
            gen: 1.0,
            serve: 2.0,
            engine: 0.5,
            core: 3.0,
            learn: 0.0,
            hdc: 2.5,
        };
        let mut metrics = crate::report::Metrics::new();
        shares.write(&mut metrics);
        let layers = [
            "gen",
            "serve",
            "engine",
            "core",
            "learn",
            "hdc",
            "unattributed",
        ];
        let total: f64 = layers
            .iter()
            .map(|l| metrics.get(&format!("trace.share.{l}")).expect("written"))
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        assert_eq!(metrics.get("trace.share.unattributed"), Some(0.1));
        assert_eq!(metrics.get("trace.whole_ms_per_op"), Some(10.0));
    }
}

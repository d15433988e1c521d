//! The closed-loop driver both in-process workloads share, and the
//! per-pass tallies every workload reports from.

use crate::inputs::{Case, Truth};
use crate::report::Metrics;
use crate::stats;
use crate::trace::{Shares, Tracer};
use factorhd_engine::{AnyOp, AnyOutput, EngineError, ModelHandle, ModelId, ModelRegistry};
use std::ops::Range;
use std::time::{Duration, Instant};

/// What one measured pass saw.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ops sent.
    pub attempted: u64,
    /// Ops that completed with a checked, correct-kind output.
    pub ok: u64,
    /// Failed, refused, expired or wrong-kind responses.
    pub failed: u64,
    /// Outputs that differ from the direct reference: program errors.
    pub wrong: Vec<String>,
    /// Checked outputs inside the accuracy prefix, and how many of them
    /// matched the ground truth.
    pub acc_checked: u64,
    /// See [`Pass::acc_checked`].
    pub acc_hits: u64,
    /// Per-op latency samples, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Each latency sample's due time (open loop) or its batch's call
    /// time (closed loops), in seconds from the start of the pass
    /// (index-aligned with `latencies_ms`).
    pub due_s: Vec<f64>,
    /// Per-op load-generator lag samples, in milliseconds: how late each
    /// op was handed to the program (open loop: behind its schedule;
    /// closed loop: after the previous call returned).
    pub gen_ms: Vec<f64>,
    /// The measured window, in seconds: wall time for the open loop,
    /// time inside `execute_batch` for the closed loops.
    pub window_s: f64,
    /// Wall time of the whole pass, in seconds (without replays).
    pub wall_s: f64,
    /// Batches executed (closed loops).
    pub batches: u64,
    /// Closed loops: each batch's call time, in seconds from the start of
    /// the pass.
    pub batch_at_s: Vec<f64>,
    /// Closed loops: each batch's seconds inside `execute_batch` and its
    /// successful ops (index-aligned with `batch_at_s`).
    pub batch_work: Vec<(f64, u64)>,
    /// Host CPU steal ticks during each [`STEAL_WINDOW_S`] window of the
    /// pass.
    pub window_steal: Vec<u64>,
}

/// Width of the windows a pass reads the host's CPU steal over (see
/// [`stats::in_quiet_windows`]): two of the counter's 10 ms ticks, so a
/// burst is placed within a few tens of ms.
pub const STEAL_WINDOW_S: f64 = 0.02;

/// Host steal readings at window boundaries, taken as a pass moves into
/// each new [`STEAL_WINDOW_S`] window.
pub struct StealMarks(Vec<u64>);

impl StealMarks {
    /// The reading at the start of the pass.
    pub fn start() -> StealMarks {
        StealMarks(vec![crate::report::host_steal_ticks()])
    }

    /// Reads the counter if `at_s` lies in a window not yet entered; a
    /// window nothing happened in shares the next one's reading.
    pub fn enter(&mut self, at_s: f64) {
        let window = (at_s / STEAL_WINDOW_S) as usize;
        if window >= self.0.len() {
            let ticks = crate::report::host_steal_ticks();
            self.0.resize(window + 1, ticks);
        }
    }

    /// Steal ticks per window, with a final reading now.
    pub fn finish(mut self) -> Vec<u64> {
        self.0.push(crate::report::host_steal_ticks());
        self.0.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

impl Pass {
    /// Records an error or refusal.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("perfbench: op failed: {what}");
        }
    }

    /// Records an output that disagrees with the program's own reference.
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 3 {
            eprintln!("perfbench: wrong output: {what}");
        }
        self.wrong.push(what);
    }

    /// Records one accuracy-prefix outcome.
    pub fn score(&mut self, hit: bool) {
        self.acc_checked += 1;
        self.acc_hits += u64::from(hit);
    }

    /// Successful ops per second of the measured window. Open loop: over
    /// the whole window. Closed loops: over the batches called in quiet
    /// windows ([`stats::in_quiet_windows`]).
    pub fn ops_per_s(&self) -> f64 {
        if self.batch_work.is_empty() {
            return self.all_ops_per_s();
        }
        stats::in_quiet_windows(
            &self.batch_at_s,
            &self.batch_work,
            STEAL_WINDOW_S,
            &self.window_steal,
            |kept| {
                let (seconds, ok) = kept
                    .iter()
                    .fold((0.0, 0), |(s, n), &(call_s, ok)| (s + call_s, n + ok));
                if seconds > 0.0 {
                    Ok(ok as f64 / seconds)
                } else {
                    Err("no batch in a quiet window".into())
                }
            },
        )
        .expect("every batch lies in a window the noisiest cap keeps")
    }

    /// Successful ops per second over the whole measured window, quiet
    /// or not.
    pub fn all_ops_per_s(&self) -> f64 {
        self.ok as f64 / self.window_s
    }

    /// A latency percentile in ms, over every sample of the quiet windows
    /// ([`stats::quiet_percentile`]), or every sample when the pass read
    /// no steal.
    ///
    /// # Errors
    ///
    /// The tail rule of [`stats::percentile`].
    pub fn latency_ms(&self, p: f64) -> Result<f64, String> {
        if self.window_steal.is_empty() {
            self.all_latency_ms(p)
        } else {
            stats::quiet_percentile(
                &self.due_s,
                &self.latencies_ms,
                STEAL_WINDOW_S,
                &self.window_steal,
                p,
            )
        }
    }

    /// A latency percentile in ms over every sample, quiet or not.
    ///
    /// # Errors
    ///
    /// The tail rule of [`stats::percentile`].
    pub fn all_latency_ms(&self, p: f64) -> Result<f64, String> {
        let mut sorted = self.latencies_ms.clone();
        stats::sort(&mut sorted);
        stats::percentile(&sorted, p)
    }

    /// Share of accuracy-prefix outputs equal to the ground truth.
    pub fn accuracy(&self) -> f64 {
        self.acc_hits as f64 / self.acc_checked.max(1) as f64
    }

    /// Merges the tallies of `other` (a pre-flight) into `self`; samples
    /// and windows are not merged.
    pub fn absorb_checks(&mut self, other: Pass) {
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.acc_checked += other.acc_checked;
        self.acc_hits += other.acc_hits;
    }
}

/// One batch: the ops as the registry takes them, with their truths.
pub struct Batch {
    /// `(model, op)` pairs for `execute_batch`.
    pub ops: Vec<(ModelId, AnyOp)>,
    /// Truth of each op, index-aligned.
    pub truths: Vec<Truth>,
}

impl Batch {
    /// Case `i` of the batch.
    pub fn case(&self, i: usize) -> Case {
        Case {
            op: self.ops[i].1.clone(),
            truth: self.truths[i].clone(),
        }
    }

    /// Targets every case at `model`.
    pub fn new(model: &str, cases: Vec<Case>) -> Batch {
        let id = ModelId::new(model);
        let (ops, truths) = cases
            .into_iter()
            .map(|c| ((id.clone(), c.op), c.truth))
            .unzip();
        Batch { ops, truths }
    }
}

/// Batch results as the registry returns them.
pub type Results = Vec<Result<AnyOutput, EngineError>>;

/// When a closed-loop pass may stop: after `seconds` inside the program,
/// at least `min_samples` latency samples and at least `min_batches`
/// batches — whichever comes last.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Seconds of `execute_batch` time to measure.
    pub seconds: f64,
    /// Latency samples needed (1000 keeps p99 above the tail rule).
    pub min_samples: usize,
    /// Batches needed (covers accuracy prefixes and trace samples).
    pub min_batches: usize,
}

/// Runs batches `first, first+1, …` through `execute_batch` one at a
/// time until `limits` are met. `next(b)` builds batch `b`; `check`
/// inspects its results with the handle resolved just before the call
/// (the model generation the batch ran on). Each op's latency is its
/// batch's call duration. With a tracer, every call gets an
/// `engine.execute_batch` span and the time between calls a `gen` span.
///
/// `replay(b, batch)` runs right after each call, outside every span
/// and outside the pass's wall time: the traced pass uses it to time the
/// layer below on the same batch while the machine is in the same state.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    registry: &ModelRegistry,
    model: &str,
    limits: Limits,
    first: usize,
    mut tracer: Option<&mut Tracer>,
    mut next: impl FnMut(usize) -> Batch,
    mut replay: impl FnMut(usize, &Batch),
    mut check: impl FnMut(usize, &Batch, &Results, &ModelHandle, &mut Pass),
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut steal = StealMarks::start();
    let mut paused = Duration::ZERO;
    let mut previous_end = start;
    let mut b = first;
    while pass.window_s < limits.seconds
        || pass.latencies_ms.len() < limits.min_samples
        || b - first < limits.min_batches
    {
        let batch = next(b);
        let handle = registry
            .get(model)
            .expect("the workload model is installed");
        let at_s = start.elapsed().as_secs_f64();
        steal.enter(at_s);
        let called = Instant::now();
        let results = registry.execute_batch(&batch.ops);
        let returned = Instant::now();
        let call_ms = (returned - called).as_secs_f64() * 1e3;
        let gen_ms = (called - previous_end).as_secs_f64() * 1e3;
        pass.window_s += call_ms / 1e3;
        pass.attempted += batch.ops.len() as u64;
        for _ in 0..batch.ops.len() {
            pass.latencies_ms.push(call_ms);
            pass.gen_ms.push(gen_ms);
            pass.due_s.push(at_s);
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("gen", b as u64, previous_end, called);
            tracer.record("engine.execute_batch", b as u64, called, returned);
        }
        replay(b, &batch);
        previous_end = Instant::now();
        paused += previous_end - returned;
        let ok_before = pass.ok;
        check(b, &batch, &results, &handle, &mut pass);
        pass.batch_at_s.push(at_s);
        pass.batch_work.push((call_ms / 1e3, pass.ok - ok_before));
        b += 1;
    }
    pass.window_steal = steal.finish();
    pass.batches = (b - first) as u64;
    pass.wall_s = (start.elapsed() - paused).as_secs_f64();
    pass
}

/// The correctness pre-flight: `batch` through `execute_batch` on
/// `registry` must equal `reference` (a sequential execution of the same
/// ops) bit for bit, and every op must succeed. Returns the batch
/// results for the caller's own checks.
pub fn preflight(
    registry: &ModelRegistry,
    batch: &Batch,
    reference: impl FnOnce(&[(ModelId, AnyOp)]) -> Results,
) -> Result<Results, String> {
    let planned = registry.execute_batch(&batch.ops);
    let sequential = reference(&batch.ops);
    if planned.len() != sequential.len() {
        return Err("pre-flight: result counts differ".into());
    }
    for (i, (p, s)) in planned.iter().zip(&sequential).enumerate() {
        match (p, s) {
            (Ok(p), Ok(s)) if p == s => {}
            (Ok(_), Ok(_)) => {
                return Err(format!(
                    "pre-flight: op {i} differs between execute_batch and execute_sequential"
                ))
            }
            (p, s) => {
                return Err(format!(
                    "pre-flight: op {i} failed: batch {:?}, sequential {:?}",
                    p.as_ref().err(),
                    s.as_ref().err()
                ))
            }
        }
    }
    Ok(planned)
}

/// The layer under the engine on a closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Below {
    /// `factorhd_core` (Rep-3 decodes).
    Core,
    /// `factorhd_learn` (train, retrain, classify).
    Learn,
}

/// What the direct replay of a traced pass's sampled batches took.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The batches replayed (ids as the tracer records them).
    pub batches: Range<usize>,
    /// The layer the replay called.
    pub below: Below,
    /// Σ time in that layer, ms.
    pub below_ms: f64,
    /// Σ scan time inside it, ms.
    pub hdc_ms: f64,
}

/// The per-layer metrics every traced closed loop reports from its
/// spans and replay: engine span percentiles and self time, lane
/// utilization, generator lag, tracing overhead against the untraced
/// `reference` pass, and the attribution — per op over the whole traced
/// pass, with the engine span split by the replayed batches' ratios.
pub fn traced_metrics(
    pass: &Pass,
    reference: &Pass,
    tracer: &Tracer,
    replayed: &Replayed,
    metrics: &mut Metrics,
) -> Result<Shares, String> {
    let engine_sample: f64 = tracer
        .named("engine.execute_batch")
        .filter(|s| replayed.batches.contains(&(s.id as usize)))
        .map(|s| s.ms())
        .sum();
    metrics.set(
        "engine.self_ms_per_batch",
        (engine_sample - replayed.below_ms) / replayed.batches.len() as f64,
    );
    metrics.set(
        "engine.lane_utilization",
        replayed.below_ms / (rayon::current_num_threads() as f64 * engine_sample),
    );
    let mut latencies = pass.latencies_ms.clone();
    stats::sort(&mut latencies);
    metrics.set("engine.batch_ms_p50", stats::percentile(&latencies, 0.5)?);
    metrics.set("engine.batch_ms_p99", stats::percentile(&latencies, 0.99)?);
    let mut gen = pass.gen_ms.clone();
    stats::sort(&mut gen);
    metrics.set("gen.lag_p99_ms", stats::percentile(&gen, 0.99)?);
    metrics.set(
        "trace.overhead_ratio",
        pass.ops_per_s() / reference.ops_per_s(),
    );

    let ops = pass.attempted as f64;
    let engine_ms = tracer.total_ms("engine.execute_batch") / ops;
    let below_share = replayed.below_ms / engine_sample;
    let hdc_share = replayed.hdc_ms / engine_sample;
    let below_self = engine_ms * (below_share - hdc_share);
    let shares = Shares {
        whole_ms: pass.wall_s * 1e3 / ops,
        gen: tracer.total_ms("gen") / ops,
        serve: 0.0,
        engine: engine_ms * (1.0 - below_share),
        core: if replayed.below == Below::Core {
            below_self
        } else {
            0.0
        },
        learn: if replayed.below == Below::Learn {
            below_self
        } else {
            0.0
        },
        hdc: engine_ms * hdc_share,
    };
    shares.write(metrics);
    Ok(shares)
}

//! `learn-rw-closed`: an in-process closed loop mixing reads with writes
//! on one learnable model — per batch 48 top-1 `Classify` and 16
//! retained `Train` ops, plus one `Retrain { epochs: 1 }` every 16th
//! batch — on simulated CIFAR-10 feature encodings.

use crate::cli::Workload;
use crate::closed::{self, Batch, Below, Limits, Pass, Replayed, Results};
use crate::inputs::{self, Case, LearnData, RETRAIN_EVERY, TRAIN_PER_BATCH};
use crate::model::{self, LEARN_MODEL};
use crate::probe::{self, LearnProbe};
use crate::report::Metrics;
use crate::trace::{Shares, Tracer};
use factorhd_engine::{metrics, AnyOp, AnyOutput, ModelHandle, ModelRegistry};
use rayon::prelude::*;
use std::sync::Arc;

/// Batches whose `Classify` results make up `accuracy`: every batch up
/// to and including the first one carrying a `Retrain`. Their reads see
/// snapshots built from bundling alone, which is order-independent, so
/// the share is a pure function of the seed; later snapshots depend on
/// where the planner interleaves a `Retrain` with its batch's `Train`s.
pub const ACCURACY_BATCHES: usize = RETRAIN_EVERY;
/// Traced batches replayed directly for the self-time attribution.
const TRACE_SAMPLE_BATCHES: usize = 64;

/// Checks learn batch `b` against the model generation it ran on
/// (`handle`, resolved just before the call; `execute_batch` resolves the
/// same one at entry and publishes only after the batch). Every
/// `Classify` must equal a direct `PrototypeSnapshot::classify` on that
/// generation's snapshot; inside the accuracy prefix it is also scored
/// against its label. Every `TrainAck` must name its class, the batch's
/// acks must carry exactly the running totals that follow the
/// `16 b` examples bundled before it, and each must report the
/// replay-buffer size and retraining epoch those totals imply. A
/// `Retrain` must run its one epoch over that buffer.
fn check(b: usize, batch: &Batch, results: &Results, handle: &ModelHandle, pass: &mut Pass) {
    let snapshot = handle
        .state()
        .prototypes()
        .expect("the learn model publishes snapshots");
    // The references, computed across the pool while the engine is idle
    // between calls.
    let references: Vec<_> = batch
        .ops
        .par_iter()
        .map(|(_, op)| match op {
            AnyOp::Classify(query) => snapshot.classify(&query.query, query.top_k).ok(),
            _ => None,
        })
        .collect();
    let max_retained = model::learn_config().max_retained as u64;
    let before = (b * TRAIN_PER_BATCH) as u64;
    let retrains_before = (b / RETRAIN_EVERY) as u64;
    let mut totals = Vec::with_capacity(TRAIN_PER_BATCH);
    for (i, result) in results.iter().enumerate() {
        let (_, op) = &batch.ops[i];
        let output = match result {
            Err(err) => {
                pass.fail(format!("batch {b} op {i}: {err}"));
                continue;
            }
            Ok(output) => output,
        };
        let right = match (op, output) {
            (AnyOp::Classify(_), AnyOutput::Classified(got)) => references[i].as_ref() == Some(got),
            (AnyOp::Train(train), AnyOutput::Trained(ack)) => {
                totals.push(ack.examples);
                ack.class == train.class
                    && ack.retained == ack.examples.min(max_retained)
                    && (retrains_before..=retrains_before + 1).contains(&ack.epoch)
            }
            (AnyOp::Retrain(_), AnyOutput::Retrained(report)) => {
                let retained = before.min(max_retained)
                    ..=(before + TRAIN_PER_BATCH as u64).min(max_retained);
                report.epochs_requested == 1
                    && report.epochs_run == 1
                    && report.errors_per_epoch.len() == 1
                    && report.epoch == retrains_before + 1
                    && retained.contains(&report.retained)
            }
            _ => false,
        };
        if !right {
            pass.failed += 1;
            pass.wrong(format!(
                "batch {b} op {i}: {:?} output differs from the reference",
                op.kind()
            ));
            continue;
        }
        pass.ok += 1;
        if b < ACCURACY_BATCHES && matches!(op, AnyOp::Classify(_)) {
            pass.score(inputs::matches(output, &batch.truths[i]));
        }
    }
    totals.sort_unstable();
    if !totals
        .iter()
        .copied()
        .eq(before + 1..=before + totals.len() as u64)
    {
        pass.wrong(format!(
            "batch {b}: TrainAck running totals {totals:?} do not follow {before}"
        ));
    }
}

struct Rig {
    registry: Arc<ModelRegistry>,
    setup_s: f64,
    data: LearnData,
}

fn rig(seed: u64) -> Rig {
    let data = LearnData::new(seed);
    let (setup_s, registry) = model::timed_setup(|| {
        let registry = Arc::new(ModelRegistry::new());
        model::install_learnable(&registry);
        registry
    });
    Rig {
        registry,
        setup_s,
        data,
    }
}

fn batch(data: &LearnData, b: usize) -> Batch {
    Batch::new(LEARN_MODEL, data.batch(b))
}

/// Pre-flight on batch 0: `execute_batch` against `execute_sequential`
/// on a twin model. Both run with the pool pinned to one lane, because a
/// `TrainAck`'s running totals legitimately depend on how a multi-lane
/// batch interleaves its `Train` chunks (see `factorhd_engine::Train`);
/// the pool is restored to its default size afterwards.
fn preflight(rig: &Rig) -> Result<Pass, String> {
    let batch = batch(&rig.data, 0);
    let handle = rig.registry.get(LEARN_MODEL).map_err(|e| e.to_string())?;
    let twin = ModelRegistry::new();
    model::install_learnable(&twin);
    rayon::configure_pool(1);
    let results = closed::preflight(&rig.registry, &batch, |ops| twin.execute_sequential(ops));
    rayon::configure_pool(rayon::env_num_threads());
    let results = results?;
    let mut pass = Pass::default();
    check(0, &batch, &results, &handle, &mut pass);
    Ok(pass)
}

/// The untraced run: returns the pass and the set-up time.
pub fn run(seed: u64, seconds: f64) -> Result<(Pass, f64), String> {
    let rig = rig(seed);
    let checks = preflight(&rig)?;
    let limits = Limits {
        seconds,
        min_samples: 1000,
        min_batches: ACCURACY_BATCHES,
    };
    let mut pass = closed::drive(
        &rig.registry,
        LEARN_MODEL,
        limits,
        1,
        None,
        |b| batch(&rig.data, b),
        |_, _| {},
        check,
    );
    pass.absorb_checks(checks);
    Ok((pass, rig.setup_s))
}

/// The traced run (pool pinned to one lane by the caller).
pub fn traced(
    seed: u64,
    seconds: f64,
    metrics_out: &mut Metrics,
) -> Result<(Pass, Tracer, Shares), String> {
    let rig = rig(seed);
    let checks = preflight(&rig)?;
    rayon::configure_pool(1);
    let reference_limits = Limits {
        seconds: seconds / 2.0,
        min_samples: 0,
        min_batches: 1,
    };
    let reference = closed::drive(
        &rig.registry,
        LEARN_MODEL,
        reference_limits,
        1,
        None,
        |b| batch(&rig.data, b),
        |_, _| {},
        check,
    );
    let first = 1 + reference.batches as usize;

    metrics::reset();
    let mut tracer = Tracer::new(std::time::Instant::now());
    // The replay model first bundles the batches that filled the
    // engine's replay buffer, so its writes cost what the engine's do.
    let full_after = model::learn_config().max_retained.div_ceil(TRAIN_PER_BATCH);
    let warm_up: Vec<Vec<Case>> = (0..full_after).map(|b| rig.data.batch(b)).collect();
    let mut direct = LearnProbe::new(&warm_up);
    let sampled = first..first + TRACE_SAMPLE_BATCHES;
    let limits = Limits {
        seconds,
        min_samples: 1000,
        min_batches: TRACE_SAMPLE_BATCHES,
    };
    let mut pass = closed::drive(
        &rig.registry,
        LEARN_MODEL,
        limits,
        first,
        Some(&mut tracer),
        |b| batch(&rig.data, b),
        |b, batch| {
            if sampled.contains(&b) {
                let cases: Vec<Case> = (0..batch.ops.len()).map(|i| batch.case(i)).collect();
                direct.add(&cases);
            }
        },
        check,
    );
    probe::stage_shares(&rig.registry, metrics_out);
    direct.write(metrics_out);
    let replayed = Replayed {
        batches: sampled,
        below: Below::Learn,
        below_ms: direct.learn_ms,
        hdc_ms: direct.hdc_ms,
    };
    let shares = closed::traced_metrics(&pass, &reference, &tracer, &replayed, metrics_out)?;

    let handle = rig.registry.get(LEARN_MODEL).map_err(|e| e.to_string())?;
    probe::side_probes(
        &rig.registry,
        handle.state(),
        seed,
        Workload::LearnRwClosed,
        metrics_out,
    )?;
    pass.absorb_checks(checks);
    pass.absorb_checks(reference);
    Ok((pass, tracer, shares))
}

//! `rep3-multi-closed`: an in-process closed loop sending batches of 4
//! Rep-3 scenes (2, 3 or 4 distinct objects, one third each, no scene
//! repeated) to `ModelRegistry::execute_batch`, bypassing `serve`.

use crate::cli::Workload;
use crate::closed::{self, Batch, Below, Limits, Pass, Replayed, Results};
use crate::inputs::{self, Checked, Rep3Scenes};
use crate::model::{self, MODEL};
use crate::probe::{self, MultiProbe};
use crate::report::Metrics;
use crate::trace::{Shares, Tracer};
use factorhd_engine::{metrics, ModelHandle, ModelRegistry};
use std::sync::Arc;

/// Scenes per `execute_batch` call.
pub const SCENES_PER_BATCH: usize = 4;
/// Scenes (from the first) whose exact recovery makes up `accuracy`, so
/// it is a pure function of the seed whatever the run's speed.
pub const ACCURACY_PREFIX: usize = 600;
/// Traced batches replayed directly for the self-time attribution.
const TRACE_SAMPLE_BATCHES: usize = 40;

/// Checks one batch's decodes: the truth, then the direct reference on a
/// miss. Scene `b * 4 + i` counts toward accuracy inside the prefix.
fn check(b: usize, batch: &Batch, results: &Results, handle: &ModelHandle, pass: &mut Pass) {
    for (i, result) in results.iter().enumerate() {
        let (_, op) = &batch.ops[i];
        let in_prefix = b * SCENES_PER_BATCH + i < ACCURACY_PREFIX;
        match result {
            Err(err) => pass.fail(format!("scene {}: {err}", b * SCENES_PER_BATCH + i)),
            Ok(output) => {
                match inputs::check_against_reference(output, op, &batch.truths[i], handle.state())
                {
                    Checked::Hit | Checked::Miss if !in_prefix => pass.ok += 1,
                    Checked::Hit => {
                        pass.ok += 1;
                        pass.score(true);
                    }
                    Checked::Miss => {
                        pass.ok += 1;
                        pass.score(false);
                    }
                    Checked::Wrong => {
                        pass.failed += 1;
                        pass.wrong(format!(
                            "scene {}: decode differs from the reference",
                            b * SCENES_PER_BATCH + i
                        ));
                    }
                }
            }
        }
    }
}

/// A loaded model, the scene stream and the pre-flight tallies.
struct Rig {
    registry: Arc<ModelRegistry>,
    setup_s: f64,
    handle: ModelHandle,
}

fn rig() -> Rig {
    let artifact = model::artifact();
    let (setup_s, registry) = model::timed_setup(|| {
        let registry = Arc::new(ModelRegistry::new());
        model::load(&registry, &artifact);
        registry
    });
    let handle = registry.get(MODEL).expect("the model was just installed");
    model::warm(handle.state());
    Rig {
        registry,
        setup_s,
        handle,
    }
}

/// Pre-flight on batch 0: `execute_batch` against `execute_sequential`.
fn preflight(rig: &Rig, scenes: &mut Rep3Scenes<'_>) -> Result<Pass, String> {
    let batch = next_batch(scenes);
    let results = closed::preflight(&rig.registry, &batch, |ops| {
        rig.registry.execute_sequential(ops)
    })?;
    let mut pass = Pass::default();
    check(0, &batch, &results, &rig.handle, &mut pass);
    Ok(pass)
}

fn next_batch(scenes: &mut Rep3Scenes<'_>) -> Batch {
    Batch::new(
        MODEL,
        (0..SCENES_PER_BATCH).map(|_| scenes.next_case()).collect(),
    )
}

/// The untraced run: returns the pass and the set-up time.
pub fn run(seed: u64, seconds: f64) -> Result<(Pass, f64), String> {
    let rig = rig();
    let mut scenes = Rep3Scenes::new(rig.handle.state().taxonomy(), seed);
    let checks = preflight(&rig, &mut scenes)?;
    let limits = Limits {
        seconds,
        min_samples: 1000,
        min_batches: ACCURACY_PREFIX / SCENES_PER_BATCH,
    };
    let mut pass = closed::drive(
        &rig.registry,
        MODEL,
        limits,
        1,
        None,
        |_| next_batch(&mut scenes),
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
    let rig = rig();
    let state = rig.handle.state();
    let mut scenes = Rep3Scenes::new(state.taxonomy(), seed);
    let checks = preflight(&rig, &mut scenes)?;
    let reference_limits = Limits {
        seconds: seconds / 2.0,
        min_samples: 0,
        min_batches: 1,
    };
    let reference = closed::drive(
        &rig.registry,
        MODEL,
        reference_limits,
        1,
        None,
        |_| next_batch(&mut scenes),
        |_, _| {},
        check,
    );
    let first = 1 + reference.batches as usize;

    metrics::reset();
    let mut tracer = Tracer::new(std::time::Instant::now());
    let mut direct = MultiProbe::new(state);
    let sampled = first..first + TRACE_SAMPLE_BATCHES;
    let limits = Limits {
        seconds,
        min_samples: 1000,
        min_batches: TRACE_SAMPLE_BATCHES,
    };
    let mut pass = closed::drive(
        &rig.registry,
        MODEL,
        limits,
        first,
        Some(&mut tracer),
        |_| next_batch(&mut scenes),
        |b, batch| {
            if sampled.contains(&b) {
                for i in 0..batch.ops.len() {
                    direct.add(&batch.case(i));
                }
            }
        },
        check,
    );
    probe::stage_shares(&rig.registry, metrics_out);
    direct.write(metrics_out);
    let replayed = Replayed {
        batches: sampled,
        below: Below::Core,
        below_ms: direct.core_ms,
        hdc_ms: direct.hdc_ms,
    };
    let shares = closed::traced_metrics(&pass, &reference, &tracer, &replayed, metrics_out)?;
    probe::side_probes(
        &rig.registry,
        state,
        seed,
        Workload::Rep3MultiClosed,
        metrics_out,
    )?;
    pass.absorb_checks(checks);
    pass.absorb_checks(reference);
    Ok((pass, tracer, shares))
}

//! The batch planner: groups heterogeneous typed ops by `(model, op
//! kind)` so packed-shard scans stay contiguous, then fans the groups out
//! across the worker pool — results in input order, bit-identical to a
//! sequential loop.
//!
//! Grouping is pure bookkeeping over op indices: every op is still
//! computed by the same pure `(op, model)` function a sequential loop
//! would call, and the grouped Rep-1/Rep-2 kernel is itself bit-identical
//! to its per-op form ([`factorhd_core::Factorizer::factorize_single_many`]),
//! so the plan can only change *when* work happens, never *what* it
//! produces. Groupable kinds are chunked **adaptively** (see
//! [`task_chunk`]): the group splits into about two tasks per pool lane,
//! never below the [`crate::EngineConfig::batch_chunk`] amortization
//! floor, and a single-lane pool keeps the whole group as one task so one
//! tiled codebook traversal serves the entire batch. Other kinds run one
//! op per task to keep the pool saturated with their coarser work items.
//!
//! Every task runs under **panic containment** ([`run_contained_group`]):
//! a panic inside an op never crosses the pool boundary — it becomes a
//! typed [`EngineError::OpPanicked`] on that op alone while the rest of
//! the batch completes, and costs one relaxed atomic load per group when
//! no failpoint is armed.
//!
//! Scratch plumbing: the codebook scans under every task run on `hdc`'s
//! per-thread scan scratch (`PackedShards::top_k_into` /
//! `top_k_many_into`), so each rayon worker warms its own buffer set on
//! its first task and steady-state batch execution performs
//! zero-allocation scans — no scratch handles need to travel through the
//! plan. Grouping same-kind ops onto one worker additionally keeps that
//! worker's scratch sized for the op shape it keeps serving.
//!
//! This module is the engine's one execution path: `FactorEngine` and
//! `ModelRegistry` both run batches through [`execute_batch_planned`],
//! check them against [`execute_sequential`], and run single typed ops
//! through [`run_one`].

use crate::failpoint;
use crate::metrics::{self, Stage, StageTimer};
use crate::ops::{run_any_group, AnyOp, AnyOutput, Op, OpKind};
use crate::{EngineError, ModelState};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One planned task's scatter payload: the op indices it covered and
/// their results, in matching order.
type TaskOutput = (Vec<usize>, Vec<Result<AnyOutput, EngineError>>);

/// Ops per task for a group of `len` ops of one kind.
///
/// Non-groupable ops run one per task (their per-op cost is coarse enough
/// to keep the pool busy, and finer tasks balance better under the pool's
/// claim-based scheduling). Groupable groups split into about **two tasks
/// per pool lane** — adaptive to both the batch size and the pool size —
/// so a big batch never shatters into hundreds of tiny fixed-size chunks
/// whose scatter overhead outgrows their scan work (the batch-512
/// rollover), while still leaving enough tasks for the claim counter to
/// balance lanes. `batch_chunk` acts as the amortization floor: a chunk
/// is never smaller, so each task still amortizes one tiled codebook
/// traversal. On a single-lane pool the whole group is one task — one
/// traversal serves the entire batch.
///
/// Chunk boundaries never affect results: the grouped kernels are
/// bit-identical to their per-op forms at any chunk size, so this is
/// purely a scheduling decision.
fn task_chunk(groupable: bool, len: usize, batch_chunk: usize) -> usize {
    if !groupable {
        return 1;
    }
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        return len.max(1);
    }
    len.div_ceil(threads * 2).max(batch_chunk)
}

/// Extracts a human-readable message from a panic payload (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one op under panic containment: a panic anywhere in the op (or
/// a matching `engine/op_panic` failpoint) becomes
/// [`EngineError::OpPanicked`] for this op alone.
fn run_contained_one(state: &ModelState, op: &AnyOp) -> Result<AnyOutput, EngineError> {
    match catch_unwind(AssertUnwindSafe(|| {
        if failpoint::armed() && failpoint::hit_tag("engine/op_panic", op.chaos_tag()) {
            panic!("failpoint engine/op_panic fired for tag {}", op.chaos_tag());
        }
        op.run(state)
    })) {
        Ok(result) => result,
        Err(payload) => Err(EngineError::OpPanicked {
            message: panic_message(payload),
        }),
    }
}

/// Runs a same-kind group under panic containment. The grouped kernel
/// executes inside one `catch_unwind`; if anything in it panics, the
/// group falls back to per-op execution with each op individually
/// contained, so exactly the poisoned ops come back as
/// [`EngineError::OpPanicked`] while their chunk-mates complete. The
/// per-op fallback is bit-identical to the grouped kernel (the planner's
/// standing guarantee), so containment never changes successful outputs.
///
/// The fallback re-runs the group's ops from scratch. Every kind except
/// `Train`/`Retrain` is a pure read, so the re-run is invisible; a
/// kernel panicking halfway through a *training* group may re-apply
/// examples observed before the panic (at-least-once semantics under a
/// mid-group panic — see docs/ROBUSTNESS.md, "Panic containment").
fn run_contained_group(
    state: &ModelState,
    kind: OpKind,
    refs: &[&AnyOp],
) -> Vec<Result<AnyOutput, EngineError>> {
    let group = catch_unwind(AssertUnwindSafe(|| {
        if failpoint::armed() {
            for op in refs {
                if failpoint::hit_tag("engine/op_panic", op.chaos_tag()) {
                    panic!("failpoint engine/op_panic fired for tag {}", op.chaos_tag());
                }
            }
        }
        run_any_group(state, kind, refs)
    }));
    match group {
        Ok(results) => results,
        Err(_) => refs.iter().map(|op| run_contained_one(state, op)).collect(),
    }
}

/// A batch's model resolution, snapshotted once at entry: one slot per
/// distinct model the batch names.
#[derive(Default)]
pub(crate) struct Slots {
    /// Each slot's resolved state and generation; `None` when the id was
    /// not installed.
    pub(crate) models: Vec<Option<(Arc<ModelState>, u64)>>,
    /// Each slot's model id, for [`EngineError::UnknownModel`].
    pub(crate) names: Vec<String>,
    /// The ids installed at resolution time, sorted — filled only when
    /// some slot is unknown, since only that error lists them.
    pub(crate) registered: Vec<String>,
}

impl Slots {
    /// One slot serving `model` outside any registry.
    pub(crate) fn one(model: &Arc<ModelState>) -> Self {
        Slots {
            models: vec![Some((Arc::clone(model), metrics::UNREGISTERED_GENERATION))],
            names: vec![String::new()],
            registered: Vec::new(),
        }
    }

    fn unknown(&self, slot: usize) -> EngineError {
        EngineError::UnknownModel {
            name: self.names[slot].clone(),
            registered: self.registered.clone(),
        }
    }
}

/// Runs a batch of slot-tagged ops against resolved [`Slots`]: the
/// planner ([`execute_batch_planned`]) or its sequential reference
/// ([`execute_sequential`]).
pub(crate) type Executor = fn(&[(usize, &AnyOp)], &Slots) -> Vec<Result<AnyOutput, EngineError>>;

/// Runs `ops` against one model through `execute`.
pub(crate) fn execute_one_model(
    model: &Arc<ModelState>,
    ops: &[AnyOp],
    execute: Executor,
) -> Vec<Result<AnyOutput, EngineError>> {
    let tagged: Vec<(usize, &AnyOp)> = ops.iter().map(|op| (0, op)).collect();
    execute(&tagged, &Slots::one(model))
}

/// Counts `n` executed ops of `kind` in the per-model row of
/// `generation`.
fn record_model_row(generation: u64, kind: OpKind, n: u64) {
    metrics::record_model_ops(generation, n);
    match kind {
        OpKind::Train | OpKind::Retrain => metrics::record_model_train_ops(generation, n),
        OpKind::Classify => metrics::record_model_classify_ops(generation, n),
        _ => {}
    }
}

/// Runs one typed op with full accounting — submitted, latency,
/// outcome, and the per-model row of `generation`.
pub(crate) fn run_one<O: Op>(
    state: &ModelState,
    generation: u64,
    op: &O,
) -> Result<O::Output, EngineError> {
    let kind = op.kind();
    metrics::record_submitted(kind, 1);
    let started = metrics::now();
    let result = op.run(state);
    if let Some(started) = started {
        metrics::record_op_nanos(kind, started.elapsed().as_nanos() as u64);
    }
    metrics::record_outcomes(kind, result.is_ok() as u64, result.is_err() as u64);
    record_model_row(generation, kind, 1);
    result
}

/// The determinism reference for [`execute_batch_planned`]: one op at a
/// time on the calling thread, no grouping — and deliberately
/// uninstrumented, so reference comparisons never perturb the telemetry
/// they are checked against.
pub(crate) fn execute_sequential(
    ops: &[(usize, &AnyOp)],
    slots: &Slots,
) -> Vec<Result<AnyOutput, EngineError>> {
    ops.iter()
        .map(|&(slot, op)| match &slots.models[slot] {
            Some((state, _)) => op.run(state),
            None => Err(slots.unknown(slot)),
        })
        .collect()
}

/// Executes `ops` — each tagged with the slot of the model it targets —
/// grouped by `(slot, kind)` on the worker pool. Ops of an unknown slot
/// fail with [`EngineError::UnknownModel`]; every other op counts in the
/// per-model row of its slot's generation.
pub(crate) fn execute_batch_planned(
    ops: &[(usize, &AnyOp)],
    slots: &Slots,
) -> Vec<Result<AnyOutput, EngineError>> {
    metrics::record_batch_size(ops.len() as u64);
    let plan_span = StageTimer::enter(Stage::Plan);
    let mut results: Vec<Option<Result<AnyOutput, EngineError>>> =
        ops.iter().map(|_| None).collect();

    // Group op indices by (model slot, kind); BTreeMap keeps the group
    // (and therefore task) order deterministic.
    let mut groups: BTreeMap<(usize, OpKind), Vec<usize>> = BTreeMap::new();
    for (i, (slot, op)) in ops.iter().enumerate() {
        if slots.models[*slot].is_none() {
            metrics::record_submitted(op.kind(), 1);
            metrics::record_outcomes(op.kind(), 0, 1);
            results[i] = Some(Err(slots.unknown(*slot)));
            continue;
        }
        groups.entry((*slot, op.kind())).or_default().push(i);
    }

    // One task per adaptive chunk of a groupable group, one per op
    // otherwise. `batch_chunk` is already validated ≥ 1
    // ([`crate::EngineConfig::validate`] is the single point of truth —
    // no defensive clamping here).
    let mut tasks: Vec<(&ModelState, OpKind, Vec<usize>)> = Vec::new();
    for ((slot, kind), indices) in groups {
        let (state, generation) = slots.models[slot]
            .as_ref()
            .expect("grouped slots are resolved");
        metrics::record_submitted(kind, indices.len() as u64);
        record_model_row(*generation, kind, indices.len() as u64);
        let chunk = task_chunk(kind.groupable(), indices.len(), state.config().batch_chunk);
        for piece in indices.chunks(chunk) {
            if kind.groupable() {
                metrics::record_chunk_size(piece.len() as u64);
            }
            tasks.push((state, kind, piece.to_vec()));
        }
    }
    drop(plan_span);

    let outputs: Vec<TaskOutput> = tasks
        .par_iter()
        .map(|(state, kind, indices)| {
            let refs: Vec<&AnyOp> = indices.iter().map(|&i| ops[i].1).collect();
            let started = metrics::now();
            let group_results = run_contained_group(state, *kind, &refs);
            let completed = group_results.iter().filter(|r| r.is_ok()).count() as u64;
            metrics::record_outcomes(*kind, completed, indices.len() as u64 - completed);
            if let Some(started) = started {
                let nanos = started.elapsed().as_nanos() as u64;
                metrics::record_group_nanos(*kind, indices.len() as u64, nanos);
            }
            (indices.clone(), group_results)
        })
        .collect();

    let scatter_span = StageTimer::enter(Stage::Scatter);
    for (indices, group_results) in outputs {
        for (i, result) in indices.into_iter().zip(group_results) {
            results[i] = Some(result);
        }
    }
    let gathered = results
        .into_iter()
        // Cannot fire: the planner partitions `0..ops.len()` into task
        // index lists exactly once, and every task writes back exactly
        // its own indices, so each slot is `Some` after the scatter.
        .map(|slot| slot.expect("every op planned exactly once"))
        .collect();
    drop(scatter_span);
    gathered
}

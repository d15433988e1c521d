//! Zero-allocation engine telemetry: per-op counters, log2 latency
//! histograms, per-model counters, and per-stage timing.
//!
//! Everything in this module is a process-global, statically allocated
//! table of atomics — counters are sharded across cache-line-padded
//! slots to keep the worker pool from bouncing one line, histograms are
//! fixed `[AtomicU64; 40]` bucket arrays, and the per-model table is a
//! fixed array claimed by compare-and-swap. **Nothing on the record
//! path allocates, locks, or blocks**: a record is one or two relaxed
//! atomic adds (verified by `crates/engine/tests/alloc_steady_state.rs`
//! and the hdc steady-state scan test).
//!
//! Recording is governed by the same switch as the stage timers
//! ([`set_metrics_recording`], re-exported from `hdc::stage`): when the
//! switch is off — or the whole layer is compiled out with the
//! `metrics-off` cargo feature — every record path short-circuits after
//! a single relaxed load and [`now`] never reads the clock. Telemetry
//! never influences computation: outputs are bit-identical with
//! recording on, off, or compiled out (`tests/determinism.rs`).
//!
//! [`snapshot`] copies the tables out into a plain-data
//! [`MetricsSnapshot`]; the bench crate serializes it into
//! `BENCH_engine.json` (schema v3) and `bench_gate` diffs the p95s
//! against committed baselines. Metric names, bucket layout, and the
//! overhead budget are documented in `docs/OBSERVABILITY.md`.

use crate::ops::OpKind;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

pub use hdc::stage::{
    metrics_compiled_out, metrics_recording, reset_stage_totals, set_metrics_recording,
    stage_totals, Stage, StageTimer, StageTotal, STAGE_COUNT,
};

/// Number of histogram buckets. Bucket `i` counts values whose bit
/// width is `i` (i.e. `v == 0` → bucket 0, otherwise
/// `2^(i-1) <= v < 2^i`), with the last bucket absorbing everything of
/// `2^(BUCKETS-1)` and above — for nanosecond latencies that is ≈ 9
/// minutes, far past any op this engine runs.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Number of counter shards per metric: threads are striped across
/// shards to keep relaxed increments from contending on one cache line.
const COUNTER_SHARDS: usize = 8;

/// Capacity of the fixed per-model counter table. Installs beyond this
/// many distinct generations accumulate in the `model_overflow` counter
/// instead of being dropped silently.
pub const MODEL_SLOTS: usize = 32;

/// The model-table key for ops run outside the registry (a plain
/// [`crate::FactorEngine`] with no generation stamp).
pub const UNREGISTERED_GENERATION: u64 = 0;

/// Sentinel marking an unclaimed per-model slot.
const EMPTY_SLOT: u64 = u64::MAX;

/// One cache line of counter, so sharded counters never share a line.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// A counter striped over [`COUNTER_SHARDS`] cache-line-padded atomics;
/// each thread sticks to the shard it drew on first use.
struct ShardedCounter {
    shards: [PaddedCounter; COUNTER_SHARDS],
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` until first use.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_shard() -> usize {
    MY_SHARD.with(|cell| {
        let claimed = cell.get();
        if claimed != usize::MAX {
            return claimed;
        }
        let drawn = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
        cell.set(drawn);
        drawn
    })
}

impl ShardedCounter {
    const fn new() -> Self {
        ShardedCounter {
            shards: [const { PaddedCounter(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    #[inline]
    fn add(&self, n: u64) {
        self.shards[my_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A fixed-bucket log2 histogram: bucket = bit width of the recorded
/// value (see [`HISTOGRAM_BUCKETS`]). Recording is one relaxed
/// `fetch_add`; quantiles are extracted from a copied-out
/// [`HistogramSnapshot`] as the conservative (upper-bound) edge of the
/// bucket holding the requested rank.
struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Index of the bucket `value` falls into.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1) as usize
}

/// Inclusive upper bound of bucket `index` (what quantiles report).
fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    #[inline]
    fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations of `value` in one add — how
    /// grouped-chunk latency attributes its per-op shares.
    #[inline]
    fn record_n(&self, value: u64, n: u64) {
        self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot::from_buckets(buckets)
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A standalone log2 histogram sharing the engine's bucket scheme and
/// recording switch, for subsystems layered on top of the engine (the
/// network front end records coalesced-batch sizes and end-to-end
/// latencies through one of these per server). Recording honors the
/// same gate as the global tables: a no-op under the `metrics-off`
/// feature or after [`set_metrics_recording`]`(false)`; snapshots stay
/// readable either way.
pub struct LogHistogram {
    inner: Histogram,
}

impl LogHistogram {
    /// A new, empty histogram. Const so it can live in statics.
    pub const fn new() -> Self {
        LogHistogram {
            inner: Histogram::new(),
        }
    }

    /// Records one observation of `value` (no-op while recording is
    /// disabled or compiled out).
    #[inline]
    pub fn record(&self, value: u64) {
        if metrics_recording() {
            self.inner.record(value);
        }
    }

    /// Copies the buckets out and extracts the p50/p95/p99 quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.inner.snapshot()
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        self.inner.reset();
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Per-[`OpKind`] counters and latency histogram.
struct OpTable {
    submitted: ShardedCounter,
    completed: ShardedCounter,
    failed: ShardedCounter,
    latency_ns: Histogram,
}

impl OpTable {
    const fn new() -> Self {
        OpTable {
            submitted: ShardedCounter::new(),
            completed: ShardedCounter::new(),
            failed: ShardedCounter::new(),
            latency_ns: Histogram::new(),
        }
    }
}

/// One slot of the fixed per-model table: a registry generation, its
/// executed-op count, and its learning-op counts. `generation ==
/// EMPTY_SLOT` means unclaimed.
struct ModelSlot {
    generation: AtomicU64,
    ops: AtomicU64,
    train_ops: AtomicU64,
    classify_ops: AtomicU64,
}

/// The process-global metrics tables. Construct-free: everything is
/// const-initialized, so the first record costs the same as the
/// millionth.
struct EngineMetrics {
    ops: [OpTable; OpKind::COUNT],
    batch_sizes: Histogram,
    chunk_sizes: Histogram,
    retrain_epochs: Histogram,
    models: [ModelSlot; MODEL_SLOTS],
    model_overflow: AtomicU64,
}

static GLOBAL: EngineMetrics = EngineMetrics {
    ops: [const { OpTable::new() }; OpKind::COUNT],
    batch_sizes: Histogram::new(),
    chunk_sizes: Histogram::new(),
    retrain_epochs: Histogram::new(),
    models: [const {
        ModelSlot {
            generation: AtomicU64::new(EMPTY_SLOT),
            ops: AtomicU64::new(0),
            train_ops: AtomicU64::new(0),
            classify_ops: AtomicU64::new(0),
        }
    }; MODEL_SLOTS],
    model_overflow: AtomicU64::new(0),
};

/// Reads the clock iff recording is active. Instrumentation sites pair
/// this with [`record_op_nanos`] so a disabled or compiled-out build
/// never calls `Instant::now()`.
#[inline]
pub fn now() -> Option<Instant> {
    if metrics_recording() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Counts `n` ops of `kind` as submitted.
#[inline]
pub fn record_submitted(kind: OpKind, n: u64) {
    if metrics_recording() {
        GLOBAL.ops[kind.index()].submitted.add(n);
    }
}

/// Counts completions and failures for `kind`.
#[inline]
pub fn record_outcomes(kind: OpKind, completed: u64, failed: u64) {
    if !metrics_recording() {
        return;
    }
    let table = &GLOBAL.ops[kind.index()];
    if completed > 0 {
        table.completed.add(completed);
    }
    if failed > 0 {
        table.failed.add(failed);
    }
}

/// Records one op latency observation for `kind`.
#[inline]
pub fn record_op_nanos(kind: OpKind, nanos: u64) {
    if metrics_recording() {
        GLOBAL.ops[kind.index()].latency_ns.record(nanos);
    }
}

/// Attributes a grouped chunk's wall clock to its `n` ops as `n`
/// observations of the per-op share `total_nanos / n`. An
/// approximation — ops inside one grouped scan are not individually
/// timed — and documented as such in docs/OBSERVABILITY.md.
#[inline]
pub fn record_group_nanos(kind: OpKind, n: u64, total_nanos: u64) {
    if n > 0 && metrics_recording() {
        GLOBAL.ops[kind.index()]
            .latency_ns
            .record_n(total_nanos / n, n);
    }
}

/// Records the size of a submitted batch.
#[inline]
pub fn record_batch_size(size: u64) {
    if metrics_recording() {
        GLOBAL.batch_sizes.record(size);
    }
}

/// Records the size of one coalesced chunk the planner fanned out.
#[inline]
pub fn record_chunk_size(size: u64) {
    if metrics_recording() {
        GLOBAL.chunk_sizes.record(size);
    }
}

/// Records the number of epochs one `Retrain` op actually ran (its
/// `epochs_run`, which early-stops below the request on an error-free
/// pass).
#[inline]
pub fn record_retrain_epochs(epochs: u64) {
    if metrics_recording() {
        GLOBAL.retrain_epochs.record(epochs);
    }
}

/// Adds `n` to one counter of `generation`'s slot, claiming a free slot
/// by compare-and-swap when the generation has none yet. When every
/// slot belongs to other generations the count lands in
/// `model_overflow` iff `count_overflow` (only the total-ops counter
/// feeds the overflow cell, so it stays a plain op count).
#[inline]
fn model_slot_add(
    generation: u64,
    n: u64,
    field: fn(&ModelSlot) -> &AtomicU64,
    count_overflow: bool,
) {
    for slot in &GLOBAL.models {
        let claimed = slot.generation.load(Ordering::Relaxed);
        if claimed == generation {
            field(slot).fetch_add(n, Ordering::Relaxed);
            return;
        }
        if claimed == EMPTY_SLOT
            && slot
                .generation
                .compare_exchange(EMPTY_SLOT, generation, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            field(slot).fetch_add(n, Ordering::Relaxed);
            return;
        }
        // Slot belongs to another generation (or a racer claimed it for
        // one); fall through to the next slot.
        if slot.generation.load(Ordering::Relaxed) == generation {
            field(slot).fetch_add(n, Ordering::Relaxed);
            return;
        }
    }
    if count_overflow {
        GLOBAL.model_overflow.fetch_add(n, Ordering::Relaxed);
    }
}

/// Counts `n` ops executed against a model `generation` (a registry
/// stamp, or [`UNREGISTERED_GENERATION`] for plain engines), failed ones
/// included. The table
/// is fixed-size; once all [`MODEL_SLOTS`] are claimed by other
/// generations, counts land in the snapshot's `model_overflow`.
#[inline]
pub fn record_model_ops(generation: u64, n: u64) {
    if n == 0 || !metrics_recording() {
        return;
    }
    model_slot_add(generation, n, |slot| &slot.ops, true);
}

/// Counts `n` Train/Retrain ops against `generation`. Overflow past the
/// slot table is only tallied by [`record_model_ops`] (these ops are
/// already in its `n`), so nothing is double-counted.
#[inline]
pub fn record_model_train_ops(generation: u64, n: u64) {
    if n == 0 || !metrics_recording() {
        return;
    }
    model_slot_add(generation, n, |slot| &slot.train_ops, false);
}

/// Counts `n` Classify ops against `generation`; same overflow rule as
/// [`record_model_train_ops`].
#[inline]
pub fn record_model_classify_ops(generation: u64, n: u64) {
    if n == 0 || !metrics_recording() {
        return;
    }
    model_slot_add(generation, n, |slot| &slot.classify_ops, false);
}

/// A copied-out histogram with pre-extracted quantiles. Quantiles are
/// conservative: each reports the inclusive upper bound of the bucket
/// containing the requested rank, so true values are never understated
/// by more than one power of two.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded observations.
    pub count: u64,
    /// Per-bucket observation counts; bucket `i` covers values of bit
    /// width `i` (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Median (upper bound of the bucket holding rank ⌈0.50·count⌉).
    pub p50: u64,
    /// 95th percentile (same conservative bucket-edge convention).
    pub p95: u64,
    /// 99th percentile (same conservative bucket-edge convention).
    pub p99: u64,
}

impl HistogramSnapshot {
    fn from_buckets(buckets: Vec<u64>) -> Self {
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (index, &bucket_count) in buckets.iter().enumerate() {
                seen += bucket_count;
                if seen >= rank {
                    return bucket_upper_bound(index);
                }
            }
            bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
        };
        let (p50, p95, p99) = (quantile(0.50), quantile(0.95), quantile(0.99));
        HistogramSnapshot {
            count,
            buckets,
            p50,
            p95,
            p99,
        }
    }
}

/// Counters and latency quantiles for one [`OpKind`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpKindMetrics {
    /// Which op kind this row describes.
    pub kind: OpKind,
    /// Ops submitted (entered an engine entry point).
    pub submitted: u64,
    /// Ops that completed with `Ok`.
    pub completed: u64,
    /// Ops that completed with `Err`.
    pub failed: u64,
    /// Per-op latency histogram, in nanoseconds.
    pub latency_ns: HistogramSnapshot,
}

/// Executed-op counts for one registry generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelMetrics {
    /// The registry generation stamp
    /// ([`UNREGISTERED_GENERATION`] = plain engines outside a registry).
    pub generation: u64,
    /// Ops executed against that generation, failed ones included.
    pub ops: u64,
    /// Train/Retrain ops counted against that generation (a subset of
    /// `ops`).
    pub train_ops: u64,
    /// Classify ops counted against that generation (a subset of `ops`).
    pub classify_ops: u64,
}

/// A cheap plain-data copy of every metrics table, taken with relaxed
/// loads (consistent enough for reporting, not a linearizable cut).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Whether the runtime recording switch was on at snapshot time.
    pub recording: bool,
    /// Whether the telemetry layer was compiled out (`metrics-off`).
    pub compiled_out: bool,
    /// Per-op-kind counters and latency, in [`OpKind::ALL`] order.
    pub ops: Vec<OpKindMetrics>,
    /// Histogram of submitted batch sizes.
    pub batch_sizes: HistogramSnapshot,
    /// Histogram of coalesced planner chunk sizes.
    pub chunk_sizes: HistogramSnapshot,
    /// Histogram of epochs actually run per `Retrain` op.
    pub retrain_epochs: HistogramSnapshot,
    /// Exclusive per-stage wall-clock totals, in pipeline order.
    pub stages: Vec<StageTotal>,
    /// Per-model executed-op counts, sorted by ascending generation.
    pub models: Vec<ModelMetrics>,
    /// Ops whose generation found no free slot (see [`MODEL_SLOTS`]).
    pub model_overflow: u64,
}

/// Copies the global tables into a [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    let ops = OpKind::ALL
        .iter()
        .map(|&kind| {
            let table = &GLOBAL.ops[kind.index()];
            OpKindMetrics {
                kind,
                submitted: table.submitted.sum(),
                completed: table.completed.sum(),
                failed: table.failed.sum(),
                latency_ns: table.latency_ns.snapshot(),
            }
        })
        .collect();
    let mut models: Vec<ModelMetrics> = GLOBAL
        .models
        .iter()
        .filter_map(|slot| {
            let generation = slot.generation.load(Ordering::Relaxed);
            (generation != EMPTY_SLOT).then(|| ModelMetrics {
                generation,
                ops: slot.ops.load(Ordering::Relaxed),
                train_ops: slot.train_ops.load(Ordering::Relaxed),
                classify_ops: slot.classify_ops.load(Ordering::Relaxed),
            })
        })
        .collect();
    models.sort_by_key(|m| m.generation);
    MetricsSnapshot {
        recording: metrics_recording(),
        compiled_out: metrics_compiled_out(),
        ops,
        batch_sizes: GLOBAL.batch_sizes.snapshot(),
        chunk_sizes: GLOBAL.chunk_sizes.snapshot(),
        retrain_epochs: GLOBAL.retrain_epochs.snapshot(),
        stages: stage_totals().to_vec(),
        models,
        model_overflow: GLOBAL.model_overflow.load(Ordering::Relaxed),
    }
}

/// Resets every metrics table (including the stage totals) to zero.
///
/// Like [`reset_stage_totals`], this is not linearizable against
/// concurrent recording; it is meant for test and benchmark setup.
pub fn reset() {
    for table in &GLOBAL.ops {
        table.submitted.reset();
        table.completed.reset();
        table.failed.reset();
        table.latency_ns.reset();
    }
    GLOBAL.batch_sizes.reset();
    GLOBAL.chunk_sizes.reset();
    GLOBAL.retrain_epochs.reset();
    for slot in &GLOBAL.models {
        slot.generation.store(EMPTY_SLOT, Ordering::Relaxed);
        slot.ops.store(0, Ordering::Relaxed);
        slot.train_ops.store(0, Ordering::Relaxed);
        slot.classify_ops.store(0, Ordering::Relaxed);
    }
    GLOBAL.model_overflow.store(0, Ordering::Relaxed);
    reset_stage_totals();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The metrics tables are process-global; tests that reset or assert
    /// on absolute counts serialize here (cargo runs tests on threads).
    pub(crate) static METRICS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_layout_is_log2_of_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_report_conservative_bucket_edges() {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        // 90 observations of ~100ns (bucket 7: 64..=127), 10 of ~1000ns
        // (bucket 10: 512..=1023).
        buckets[bucket_of(100)] = 90;
        buckets[bucket_of(1000)] = 10;
        let snap = HistogramSnapshot::from_buckets(buckets);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50, 127);
        assert_eq!(snap.p95, 1023);
        assert_eq!(snap.p99, 1023);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = HistogramSnapshot::from_buckets(vec![0u64; HISTOGRAM_BUCKETS]);
        assert_eq!(snap.count, 0);
        assert_eq!((snap.p50, snap.p95, snap.p99), (0, 0, 0));
    }

    #[test]
    fn counters_and_histograms_round_trip_through_snapshot() {
        let _guard = METRICS_LOCK.lock().unwrap();
        if !metrics_recording() {
            return; // metrics-off build: record paths are no-ops
        }
        reset();
        record_submitted(OpKind::Rep2, 5);
        record_outcomes(OpKind::Rep2, 4, 1);
        record_op_nanos(OpKind::Rep2, 900);
        record_group_nanos(OpKind::Rep2, 4, 4000);
        record_batch_size(64);
        record_chunk_size(16);
        let snap = snapshot();
        let rep2 = &snap.ops[OpKind::Rep2.index()];
        assert_eq!(rep2.kind, OpKind::Rep2);
        assert_eq!(rep2.submitted, 5);
        assert_eq!(rep2.completed, 4);
        assert_eq!(rep2.failed, 1);
        assert_eq!(rep2.latency_ns.count, 5);
        assert_eq!(snap.batch_sizes.count, 1);
        assert_eq!(snap.chunk_sizes.count, 1);
        reset();
        assert_eq!(snapshot().ops[OpKind::Rep2.index()].submitted, 0);
    }

    #[test]
    fn model_table_claims_slots_and_overflows_gracefully() {
        let _guard = METRICS_LOCK.lock().unwrap();
        if !metrics_recording() {
            return;
        }
        reset();
        record_model_ops(UNREGISTERED_GENERATION, 3);
        record_model_ops(7, 2);
        record_model_ops(7, 2);
        record_model_train_ops(7, 3);
        record_model_classify_ops(7, 1);
        let snap = snapshot();
        assert_eq!(
            snap.models,
            vec![
                ModelMetrics {
                    generation: UNREGISTERED_GENERATION,
                    ops: 3,
                    train_ops: 0,
                    classify_ops: 0
                },
                ModelMetrics {
                    generation: 7,
                    ops: 4,
                    train_ops: 3,
                    classify_ops: 1
                },
            ]
        );
        // Fill every slot, then overflow.
        reset();
        for generation in 0..MODEL_SLOTS as u64 {
            record_model_ops(generation, 1);
        }
        record_model_ops(999, 5);
        let snap = snapshot();
        assert_eq!(snap.models.len(), MODEL_SLOTS);
        assert_eq!(snap.model_overflow, 5);
        reset();
    }

    #[test]
    fn retrain_epoch_histogram_round_trips() {
        let _guard = METRICS_LOCK.lock().unwrap();
        if !metrics_recording() {
            return;
        }
        reset();
        record_retrain_epochs(3);
        record_retrain_epochs(10);
        let snap = snapshot();
        assert_eq!(snap.retrain_epochs.count, 2);
        assert!(snap.retrain_epochs.p95 >= 10);
        reset();
        assert_eq!(snapshot().retrain_epochs.count, 0);
    }

    #[test]
    fn disabled_recording_skips_every_record_path() {
        let _guard = METRICS_LOCK.lock().unwrap();
        if metrics_compiled_out() {
            return;
        }
        reset();
        set_metrics_recording(false);
        record_submitted(OpKind::Rep1, 1);
        record_outcomes(OpKind::Rep1, 1, 0);
        record_op_nanos(OpKind::Rep1, 100);
        record_batch_size(8);
        record_chunk_size(8);
        record_model_ops(3, 1);
        record_model_train_ops(3, 1);
        record_model_classify_ops(3, 1);
        record_retrain_epochs(4);
        assert!(now().is_none());
        set_metrics_recording(true);
        let snap = snapshot();
        assert_eq!(snap.ops[OpKind::Rep1.index()].submitted, 0);
        assert_eq!(snap.batch_sizes.count, 0);
        assert_eq!(snap.retrain_epochs.count, 0);
        assert!(snap.models.is_empty());
    }
}

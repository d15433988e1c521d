//! Online-learning benchmark: prototype **training throughput**
//! (examples/sec through [`PrototypeModel::observe`], replay retention
//! on), **classification latency** (p50/p95 of single-query
//! [`PrototypeSnapshot::classify`](factorhd_engine::PrototypeSnapshot::classify)
//! calls on ±1 queries, the form the CIFAR pipeline serves) over a
//! dimension grid, and
//! the **accuracy-vs-epochs** retraining curve on the simulated CIFAR
//! pipeline.
//!
//! Throughput is best-of-reps minimum wall clock (interference is
//! one-sided); classification latencies are collected per call across
//! every rep and summarized as exact order statistics, not histogram
//! buckets. The machine-readable `BENCH_learn.json` (schema v1,
//! documented in docs/LEARNING.md) is diffed by the `bench_gate` bin
//! against `baselines/BENCH_learn.json`: per-dim train and classify
//! throughput hold within the margin, classify p95 gets the usual
//! one-doubling-of-slack ceiling, and the final CIFAR accuracy must
//! stay within [`crate::gate::ACCURACY_SLACK`] of the baseline.

use crate::json::JsonValue;
use crate::Table;
use factorhd_engine::{LearnConfig, PrototypeModel};
use factorhd_neural::{CifarPipeline, CifarPipelineConfig};
use hdc::{AccumHv, BipolarHv};
use std::time::{Duration, Instant};

/// Classes every synthetic grid point trains.
pub const LEARN_CLASSES: usize = 10;
/// Hypervector dimensions the grid sweeps.
pub const DIM_GRID: [usize; 2] = [1024, 4096];

/// One measured grid point of the learning sweep.
#[derive(Debug, Clone)]
pub struct LearnPoint {
    /// Hypervector dimension.
    pub dim: usize,
    /// Training examples bundled per second (replay retention on).
    pub train_per_sec: f64,
    /// Single-query classifications per second against a snapshot.
    pub classify_per_sec: f64,
    /// Median single-classify latency in nanoseconds.
    pub classify_p50_ns: u64,
    /// 95th-percentile single-classify latency in nanoseconds.
    pub classify_p95_ns: u64,
    /// Classify calls the percentiles summarize.
    pub latency_count: u64,
}

/// One epoch of the CIFAR retraining curve.
#[derive(Debug, Clone)]
pub struct EpochPoint {
    /// Retraining epoch (0 = one-shot bundling, before any retrain).
    pub epoch: u64,
    /// Misclassified replay examples this epoch (0 for epoch 0).
    pub train_errors: u64,
    /// Held-out accuracy after this epoch.
    pub accuracy: f64,
}

/// The full learning benchmark result.
#[derive(Debug, Clone)]
pub struct LearnReport {
    /// The synthetic throughput/latency grid.
    pub points: Vec<LearnPoint>,
    /// The CIFAR accuracy-vs-epochs curve.
    pub accuracy_curve: Vec<EpochPoint>,
    /// Held-out accuracy after the last retraining epoch — the number
    /// the gate holds near its baseline.
    pub final_accuracy: f64,
}

/// A deterministic labelled example for the synthetic grid: class
/// anchor plus per-sample noise.
fn example(dim: usize, class: usize, sample: u64) -> AccumHv {
    let mut anchor_rng = hdc::rng_from_seed(hdc::derive_seed(&[0xBE, dim as u64, class as u64]));
    let mut noise_rng = hdc::rng_from_seed(hdc::derive_seed(&[0xBF, dim as u64, sample]));
    let mut acc = AccumHv::zeros(dim);
    acc.add_bipolar(&BipolarHv::random(dim, &mut anchor_rng), 2);
    acc.add_bipolar(&BipolarHv::random(dim, &mut noise_rng), 1);
    acc
}

/// Measures one dimension of the synthetic grid.
fn measure_point(dim: usize, reps: usize, examples: usize, queries: usize) -> LearnPoint {
    let train_set: Vec<(usize, AccumHv)> = (0..examples)
        .map(|i| (i % LEARN_CLASSES, example(dim, i % LEARN_CLASSES, i as u64)))
        .collect();
    // Queries take the served form, a ±1 encoding like the CIFAR
    // pipeline's, which `classify` packs and scans with the popcount
    // kernels. (The weighted training examples would take the scalar
    // fallback.)
    let query_set: Vec<AccumHv> = (0..queries)
        .map(|i| {
            example(dim, i % LEARN_CLASSES, 50_000 + i as u64)
                .sign_bipolar()
                .to_accum()
        })
        .collect();

    // Train throughput: a fresh model per rep (observe mutates), best
    // window wins.
    let mut best_train = Duration::MAX;
    let mut model = PrototypeModel::new(LearnConfig::new(LEARN_CLASSES, dim)).expect("valid");
    for _ in 0..reps {
        let mut fresh = PrototypeModel::new(LearnConfig::new(LEARN_CLASSES, dim)).expect("valid");
        let start = Instant::now();
        for (i, (class, hv)) in train_set.iter().enumerate() {
            fresh
                .observe(*class, i as u64, hv, true)
                .expect("observe succeeds");
        }
        best_train = best_train.min(start.elapsed());
        model = fresh;
    }
    let train_per_sec = examples as f64 / best_train.as_secs_f64();

    // Classify latency: per-call timings against one published
    // snapshot, pooled across reps for the order statistics; the best
    // rep window gives the throughput.
    let snapshot = model.snapshot().expect("snapshot builds");
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(reps * queries);
    let mut best_classify = Duration::MAX;
    for _ in 0..reps {
        let window = Instant::now();
        for query in &query_set {
            let start = Instant::now();
            let classification = snapshot.classify(query, 1).expect("classify succeeds");
            latencies_ns.push(start.elapsed().as_nanos() as u64);
            std::hint::black_box(classification);
        }
        best_classify = best_classify.min(window.elapsed());
    }
    latencies_ns.sort_unstable();
    let percentile = |p: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * p) as usize];
    LearnPoint {
        dim,
        train_per_sec,
        classify_per_sec: queries as f64 / best_classify.as_secs_f64(),
        classify_p50_ns: percentile(0.50),
        classify_p95_ns: percentile(0.95),
        latency_count: latencies_ns.len() as u64,
    }
}

/// Trains prototypes on the simulated CIFAR-10 pipeline's feature
/// encodings and records held-out accuracy after every retraining
/// epoch (chopin2-style misclassification-driven updates).
fn measure_accuracy_curve(
    train_per_class: usize,
    test_per_class: usize,
    max_epochs: u32,
) -> Vec<EpochPoint> {
    let pipeline = CifarPipeline::new(CifarPipelineConfig {
        dim: 1024,
        samples_per_class: 16,
        ..CifarPipelineConfig::cifar10()
    })
    .expect("valid pipeline");
    let classes = 10;
    let mut model = PrototypeModel::new(LearnConfig::new(classes, 1024)).expect("valid");
    let mut rng = hdc::rng_from_seed(2025);
    let mut sample = 0u64;
    for _ in 0..train_per_class {
        for class in 0..classes {
            let hv = pipeline.encode_features(class, &mut rng);
            model
                .observe(class, sample, &hv, true)
                .expect("observe succeeds");
            sample += 1;
        }
    }
    let test_set: Vec<(usize, AccumHv)> = (0..test_per_class)
        .flat_map(|_| 0..classes)
        .map(|class| (class, pipeline.encode_features(class, &mut rng)))
        .collect();
    let accuracy = |model: &PrototypeModel| {
        let snapshot = model.snapshot().expect("snapshot builds");
        let correct = test_set
            .iter()
            .filter(|(class, hv)| snapshot.predict(hv).expect("classify succeeds").class == *class)
            .count();
        correct as f64 / test_set.len() as f64
    };
    let mut curve = vec![EpochPoint {
        epoch: 0,
        train_errors: 0,
        accuracy: accuracy(&model),
    }];
    for _ in 0..max_epochs {
        let report = model.retrain(1);
        curve.push(EpochPoint {
            epoch: report.epoch,
            train_errors: report.errors_per_epoch[0],
            accuracy: accuracy(&model),
        });
        if report.errors_per_epoch[0] == 0 {
            break;
        }
    }
    curve
}

/// Runs the full learning benchmark. `quick` halves repetitions and
/// shrinks the synthetic sets and the CIFAR curve.
pub fn learn_points(quick: bool) -> LearnReport {
    let (reps, examples, queries) = if quick {
        (2, 400, 400)
    } else {
        (4, 2000, 2000)
    };
    let (train_pc, test_pc, max_epochs) = if quick { (16, 10, 4) } else { (32, 20, 8) };
    let points = DIM_GRID
        .iter()
        .map(|&dim| measure_point(dim, reps, examples, queries))
        .collect();
    let accuracy_curve = measure_accuracy_curve(train_pc, test_pc, max_epochs);
    let final_accuracy = accuracy_curve.last().expect("curve is non-empty").accuracy;
    LearnReport {
        points,
        accuracy_curve,
        final_accuracy,
    }
}

/// Renders the grid as the human-readable table the bin prints.
pub fn learn_table(report: &LearnReport) -> Table {
    let mut table = Table::new(
        "online learning: train/classify throughput and classify latency",
        &["dim", "train/s", "classify/s", "p50 us", "p95 us"],
    );
    for p in &report.points {
        table.row(&[
            p.dim.to_string(),
            format!("{:.0}", p.train_per_sec),
            format!("{:.0}", p.classify_per_sec),
            format!("{:.1}", p.classify_p50_ns as f64 / 1e3),
            format!("{:.1}", p.classify_p95_ns as f64 / 1e3),
        ]);
    }
    table
}

/// Renders the machine-readable `BENCH_learn.json` document (schema
/// v1, documented in docs/LEARNING.md).
pub fn learn_json(report: &LearnReport, quick: bool) -> String {
    let available_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    JsonValue::obj(vec![
        ("bench", JsonValue::Str("learn".into())),
        ("schema_version", JsonValue::Uint(1)),
        ("quick", JsonValue::Bool(quick)),
        ("unit", JsonValue::Str("examples_per_second".into())),
        ("cpu_features", JsonValue::Str(hdc::kernels::cpu_features())),
        ("available_cores", JsonValue::Uint(available_cores as u64)),
        ("classes", JsonValue::Uint(LEARN_CLASSES as u64)),
        ("final_accuracy", JsonValue::Num(report.final_accuracy)),
        (
            "accuracy_curve",
            JsonValue::Arr(
                report
                    .accuracy_curve
                    .iter()
                    .map(|e| {
                        JsonValue::obj(vec![
                            ("epoch", JsonValue::Uint(e.epoch)),
                            ("train_errors", JsonValue::Uint(e.train_errors)),
                            ("accuracy", JsonValue::Num(e.accuracy)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "points",
            JsonValue::Arr(
                report
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::obj(vec![
                            ("dim", JsonValue::Uint(p.dim as u64)),
                            ("train_per_sec", JsonValue::Num(p.train_per_sec)),
                            ("classify_per_sec", JsonValue::Num(p.classify_per_sec)),
                            ("classify_p50_ns", JsonValue::Uint(p.classify_p50_ns)),
                            ("classify_p95_ns", JsonValue::Uint(p.classify_p95_ns)),
                            ("latency_count", JsonValue::Uint(p.latency_count)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

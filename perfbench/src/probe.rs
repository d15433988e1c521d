//! Direct calls into each layer's public functions, timed from the
//! benchmark, for the traced run's per-layer metrics and self times.
//!
//! A layer's self time is its span minus what the layer below takes on
//! the same inputs when called directly; the probes here are those direct
//! calls. Each probe accumulates case by case, so a traced pass can
//! replay a batch right after the engine ran it and the two timings see
//! the same machine. Metrics of a layer a workload does not exercise come
//! from a small side probe built from the same seed with the generator
//! of the workload that does (see the README).

use crate::cli::Workload;
use crate::inputs::{self, Case, LearnData};
use crate::model::{self, LEARN_MODEL};
use crate::report::Metrics;
use crate::stats;
use factorhd_core::{build_unbind_keys, Encoder, FactorizeConfig, Factorizer, ReconstructionCache};
use factorhd_engine::{AnyOp, ModelRegistry, ModelState, Op, ReconCache};
use factorhd_learn::{PrototypeModel, PrototypeSnapshot};
use hdc::{AccumHv, Bind, BipolarHv, CodebookScan, SearchHit};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `f`, returning its output and wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Direct Rep-3 decodes, each with the level-1 codebook scans it
/// performs replayed on their own. Decodes run through a factorizer with
/// the model's configuration and a fresh reconstruction memo of the
/// engine's capacity, so they do the engine's work without reusing the
/// engine's cached reconstructions.
pub struct MultiProbe<'a> {
    state: &'a ModelState,
    factorizer: Factorizer<'a>,
    memo: Arc<ReconCache>,
    keys: Vec<BipolarHv>,
    hits: Vec<SearchHit>,
    /// Σ `factorize_multi` time, ms.
    pub core_ms: f64,
    /// Σ replayed level-1 scan time, ms (the `hdc` share of `core_ms`).
    pub hdc_ms: f64,
    per_n_ms: [Vec<f64>; 3],
    similarity_checks: u64,
    combination_tests: u64,
    objects: u64,
    scenes: u64,
    scalar_ms: f64,
    scalar_items: u64,
    replayed_items: u64,
}

impl<'a> MultiProbe<'a> {
    /// An empty probe over `state`'s model.
    pub fn new(state: &'a ModelState) -> Self {
        let taxonomy = state.taxonomy();
        let keys = build_unbind_keys(taxonomy);
        let memo = Arc::new(ReconCache::new(state.config().reconstruction_capacity));
        let factorizer = Factorizer::with_parts(
            taxonomy,
            state.config().factorize,
            Arc::new(keys.clone()),
            Some(Arc::clone(&memo) as Arc<dyn ReconstructionCache>),
        )
        .expect("keys built from this taxonomy");
        MultiProbe {
            state,
            factorizer,
            memo,
            keys,
            hits: Vec::new(),
            core_ms: 0.0,
            hdc_ms: 0.0,
            per_n_ms: Default::default(),
            similarity_checks: 0,
            combination_tests: 0,
            objects: 0,
            scenes: 0,
            scalar_ms: 0.0,
            scalar_items: 0,
            replayed_items: 0,
        }
    }

    /// Decodes one Rep-3 case, then replays its level-1 scans: for each
    /// reconstruct-and-exclude iteration, each class's unbound residual
    /// is scanned against the class's top-level codebook — on the scalar
    /// `Codebook::above_threshold` path while the residual is an integer
    /// accumulator, on the packed path once it is ternary, as the
    /// factorizer does. Descent scans of the 10-item child codebooks are
    /// not replayed, so `hdc_ms` is a lower bound of the scan time.
    pub fn add(&mut self, case: &Case) {
        let AnyOp::Rep3(op) = &case.op else {
            panic!("the multi-object probe takes Rep-3 cases")
        };
        let (decoded, took) = timed(|| self.factorizer.factorize_multi(&op.scene));
        let decoded = decoded.expect("Rep-3 decode succeeds");
        self.core_ms += took;
        self.per_n_ms[inputs::objects_in(case).clamp(2, 4) - 2].push(took);
        self.similarity_checks += decoded.stats.similarity_checks;
        self.combination_tests += decoded.stats.combination_tests;
        self.objects += decoded.objects.len() as u64;
        self.scenes += 1;

        let taxonomy = self.state.taxonomy();
        let th = self.factorizer.resolved_threshold();
        let encoder = Encoder::new(taxonomy);
        let mut residual = op.scene.clone();
        for k in 0..=decoded.objects.len() {
            let ternary = residual.to_ternary_lossless();
            for (class, key) in self.keys.iter().enumerate() {
                let top = taxonomy.codebook(class, &[]).expect("top codebook");
                self.replayed_items += top.len() as u64;
                let took = match &ternary {
                    Some(t) => {
                        let unbound = t.bind(key);
                        let hits = &mut self.hits;
                        timed(|| unbound.scan_above_threshold_into(&top, th, hits)).1
                    }
                    None => {
                        let unbound: AccumHv = residual.bind(key);
                        let (found, took) = timed(|| top.above_threshold(&unbound, th));
                        std::hint::black_box(found);
                        self.scalar_ms += took;
                        self.scalar_items += top.len() as u64;
                        took
                    }
                };
                self.hdc_ms += took;
            }
            if let Some(object) = decoded.objects.get(k) {
                let reconstruction = encoder
                    .encode_object(object.object())
                    .expect("decoded objects re-encode");
                residual.sub_ternary(&reconstruction);
            }
        }
    }

    /// Hit ratio of the probe's reconstruction memo.
    pub fn memo_hit_ratio(&self) -> f64 {
        let stats = self.memo.stats();
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    }

    /// Writes the `core.*` multi-object metrics and the scalar-scan
    /// metrics.
    pub fn write(&self, metrics: &mut Metrics) {
        for (i, name) in [
            "core.factorize_multi_ms.n2",
            "core.factorize_multi_ms.n3",
            "core.factorize_multi_ms.n4",
        ]
        .into_iter()
        .enumerate()
        {
            metrics.set(name, stats::median(&self.per_n_ms[i]));
        }
        let scenes = self.scenes as f64;
        metrics.set(
            "core.similarity_checks_per_scene",
            self.similarity_checks as f64 / scenes,
        );
        metrics.set(
            "core.combination_tests_per_scene",
            self.combination_tests as f64 / scenes,
        );
        metrics.set(
            "core.objects_per_combination_test",
            self.objects as f64 / self.combination_tests.max(1) as f64,
        );
        let scalar_ns = self.scalar_ms * 1e6 / self.scalar_items.max(1) as f64;
        metrics.set("hdc.scalar_scan_ns_per_item", scalar_ns);
        // Upper bound: the replayed scalar scans, plus every similarity
        // check the replay did not cover (descent and NULL checks)
        // charged the scalar per-item cost, over the decode time.
        let unreplayed = self.similarity_checks.saturating_sub(self.replayed_items) as f64;
        metrics.set(
            "hdc.scalar_scan_share_est",
            (self.scalar_ms + unreplayed * scalar_ns / 1e6) / self.core_ms,
        );
    }
}

/// Direct core calls for single-object ops, each with its level-1
/// packed scans replayed on their own.
pub struct SingleProbe<'a> {
    state: &'a ModelState,
    rep1: Factorizer<'a>,
    keys: Vec<BipolarHv>,
    hits: Vec<SearchHit>,
    /// Σ direct core time, ms.
    pub core_ms: f64,
    /// Σ replayed packed-scan time, ms (the `hdc` share of `core_ms`).
    pub hdc_ms: f64,
    factorize_single_us: Vec<f64>,
    encode_us: Vec<f64>,
    packed_ns: f64,
    packed_items: u64,
}

impl<'a> SingleProbe<'a> {
    /// An empty probe over `state`'s model.
    pub fn new(state: &'a ModelState) -> Self {
        let taxonomy = state.taxonomy();
        let rep1 = Factorizer::new(
            taxonomy,
            FactorizeConfig {
                max_depth: Some(1),
                ..state.config().factorize
            },
        );
        SingleProbe {
            state,
            rep1,
            keys: build_unbind_keys(taxonomy),
            hits: Vec::new(),
            core_ms: 0.0,
            hdc_ms: 0.0,
            factorize_single_us: Vec::new(),
            encode_us: Vec::new(),
            packed_ns: 0.0,
            packed_items: 0,
        }
    }

    /// Runs one single-object op through the core call the engine op
    /// wraps (`factorize_single`, its depth-1 variant,
    /// `factorize_classes`, `evaluate_membership`, `encode_scene`), then
    /// replays a decode's level-1 top-`refine_width` packed scans.
    pub fn add(&mut self, case: &Case) {
        let factorizer = self.state.factorizer();
        let (scanned, took): (Option<(&AccumHv, Vec<usize>)>, f64) = match &case.op {
            AnyOp::Rep2(op) => {
                let (out, took) = timed(|| factorizer.factorize_single(&op.scene));
                std::hint::black_box(out.expect("decodes"));
                self.factorize_single_us.push(took * 1e3);
                (Some((&op.scene, (0..self.keys.len()).collect())), took)
            }
            AnyOp::Rep1(op) => {
                let (out, took) = timed(|| self.rep1.factorize_single(&op.scene));
                std::hint::black_box(out.expect("decodes"));
                (Some((&op.scene, (0..self.keys.len()).collect())), took)
            }
            AnyOp::Partial(op) => {
                let (out, took) = timed(|| factorizer.factorize_classes(&op.scene, &op.classes));
                std::hint::black_box(out.expect("decodes"));
                (Some((&op.scene, op.classes.clone())), took)
            }
            AnyOp::Membership(op) => {
                let (out, took) =
                    timed(|| factorizer.evaluate_membership(&op.scene, &op.items, &op.absent));
                std::hint::black_box(out.expect("evaluates"));
                (None, took)
            }
            AnyOp::Encode(op) => {
                let encoder = Encoder::new(self.state.taxonomy());
                let (out, took) = timed(|| encoder.encode_scene(&op.scene));
                std::hint::black_box(out.expect("encodes"));
                self.encode_us.push(took * 1e3);
                (None, took)
            }
            other => panic!("the single-object probe got a {:?} op", other.kind()),
        };
        self.core_ms += took;
        let Some((scene, classes)) = scanned else {
            return;
        };
        let ternary = scene
            .to_ternary_lossless()
            .expect("single-object scenes are ternary");
        let width = self.state.config().factorize.refine_width;
        for class in classes {
            let top = self
                .state
                .taxonomy()
                .codebook(class, &[])
                .expect("top codebook");
            let unbound = ternary.bind(&self.keys[class]);
            let hits = &mut self.hits;
            let (_, took) = timed(|| unbound.scan_top_k_into(&top, width, hits));
            self.hdc_ms += took;
            self.packed_ns += took * 1e6;
            self.packed_items += top.len() as u64;
        }
    }

    /// Writes the single-object `core.*` metrics and the packed-scan
    /// metric.
    pub fn write(&self, metrics: &mut Metrics) {
        metrics.set(
            "core.factorize_single_us",
            stats::median(&self.factorize_single_us),
        );
        metrics.set("core.encode_scene_us", stats::median(&self.encode_us));
        metrics.set(
            "hdc.packed_scan_ns_per_item",
            self.packed_ns / self.packed_items.max(1) as f64,
        );
    }
}

/// Direct learner calls replaying learn batches on a staging model of
/// the probe's own, in the order the engine applies a batch: reads
/// against the current snapshot, then the writes, then a new snapshot
/// (the publish).
pub struct LearnProbe {
    model: PrototypeModel,
    snapshot: PrototypeSnapshot,
    /// Σ learner time, ms (every call below).
    pub learn_ms: f64,
    /// Σ prototype-scan time inside the classifications, ms.
    pub hdc_ms: f64,
    observe_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    classify_us: Vec<f64>,
    retrain_epoch_ms: Vec<f64>,
    retrain_errors: Option<u64>,
}

impl LearnProbe {
    /// A probe whose staging model has already bundled `warm_up`'s
    /// `Train` ops (untimed), so its replay buffer is as full as the
    /// engine's at that point of the workload.
    pub fn new(warm_up: &[Vec<Case>]) -> Self {
        let mut model = PrototypeModel::new(model::learn_config()).expect("valid learn config");
        for case in warm_up.iter().flatten() {
            if let AnyOp::Train(op) = &case.op {
                model
                    .observe(op.class, op.sample, &op.example, op.retain)
                    .expect("observes");
            }
        }
        let snapshot = model.snapshot().expect("snapshot");
        LearnProbe {
            model,
            snapshot,
            learn_ms: 0.0,
            hdc_ms: 0.0,
            observe_us: Vec::new(),
            snapshot_ms: Vec::new(),
            classify_us: Vec::new(),
            retrain_epoch_ms: Vec::new(),
            retrain_errors: None,
        }
    }

    /// Replays one learn batch.
    pub fn add(&mut self, batch: &[Case]) {
        for case in batch {
            match &case.op {
                AnyOp::Classify(op) => {
                    let snapshot = &self.snapshot;
                    let (out, took) = timed(|| snapshot.classify(&op.query, op.top_k));
                    std::hint::black_box(out.expect("classifies"));
                    self.learn_ms += took;
                    self.classify_us.push(took * 1e3);
                    let prototypes = snapshot.prototypes();
                    let (hits, scan) = timed(|| prototypes.top_k(&op.query, op.top_k));
                    std::hint::black_box(hits);
                    self.hdc_ms += scan;
                }
                AnyOp::Train(op) => {
                    let model = &mut self.model;
                    let (out, took) =
                        timed(|| model.observe(op.class, op.sample, &op.example, op.retain));
                    std::hint::black_box(out.expect("observes"));
                    self.learn_ms += took;
                    self.observe_us.push(took * 1e3);
                }
                AnyOp::Retrain(_) => {
                    let model = &mut self.model;
                    let (errors, took) = timed(|| model.retrain_epoch());
                    self.learn_ms += took;
                    self.retrain_epoch_ms.push(took);
                    self.retrain_errors.get_or_insert(errors);
                }
                other => panic!("the learn probe got a {:?} op", other.kind()),
            }
        }
        let (fresh, took) = timed(|| self.model.snapshot());
        self.snapshot = fresh.expect("snapshot");
        self.learn_ms += took;
        self.snapshot_ms.push(took);
    }

    /// Writes the `learn.*` metrics.
    pub fn write(&self, metrics: &mut Metrics) {
        metrics.set("learn.observe_us", stats::median(&self.observe_us));
        metrics.set("learn.snapshot_ms", stats::median(&self.snapshot_ms));
        metrics.set("learn.classify_us", stats::median(&self.classify_us));
        metrics.set(
            "learn.retrain_epoch_ms",
            stats::median(&self.retrain_epoch_ms),
        );
        metrics.set(
            "learn.retrain_errors",
            self.retrain_errors.expect("the replay holds a retrain") as f64,
        );
    }
}

/// `publish_prototypes` on the registry's learnable model (installing
/// a fresh one first when the workload has none): median of 21 calls.
pub fn publish_ms(registry: &ModelRegistry) -> f64 {
    if registry.get(LEARN_MODEL).is_err() {
        model::install_learnable(registry);
    }
    let times: Vec<f64> = (0..21)
        .map(|_| timed(|| registry.publish_prototypes(LEARN_MODEL)).1)
        .collect();
    stats::median(&times)
}

/// The `serve.codec_us_per_frame` parts: per op, the client side
/// (`encode_request` + `decode_response`) and the server side
/// (`decode_request` + `encode_response`), in µs.
pub fn codec_us(state: &ModelState, cases: &[Case]) -> (f64, f64) {
    use factorhd_serve::protocol::{
        decode_request, decode_response, encode_request, encode_response, Request, Response,
    };
    let (mut client, mut server) = (0.0, 0.0);
    for (id, case) in cases.iter().enumerate() {
        let output = case.op.run(state).expect("op runs");
        let request = Request::Op {
            model: model::MODEL.to_owned(),
            op: case.op.clone(),
            deadline: None,
        };
        let response = Response::Output(output);
        let (frame, encode_req) = timed(|| encode_request(id as u64, &request));
        let (decoded, decode_req) = timed(|| decode_request(&frame));
        std::hint::black_box(decoded.expect("decodes"));
        let (frame, encode_resp) = timed(|| encode_response(id as u64, &response));
        let (decoded, decode_resp) = timed(|| decode_response(&frame));
        std::hint::black_box(decoded.expect("decodes"));
        client += encode_req + decode_resp;
        server += decode_req + encode_resp;
    }
    let n = cases.len() as f64;
    (client * 1e3 / n, server * 1e3 / n)
}

/// Throughput of the dispatched popcount kernel over a 256-row table of
/// D-bit words, in GB/s of operand bytes read (both operands counted).
pub fn kernel_gb_per_s(seed: u64) -> f64 {
    use rand::Rng;
    let words = model::DIM / 64;
    let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[seed, 0x4B45_524E]));
    let table: Vec<u64> = (0..256 * words).map(|_| rng.gen()).collect();
    let query: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    let kernel = hdc::kernels::selected_kernel();
    let mut calls = 0u64;
    let mut sink = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(50) {
        for row in table.chunks_exact(words) {
            sink = sink.wrapping_add(kernel.hamming_words(std::hint::black_box(&query), row));
        }
        calls += 256;
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    (calls * 2 * words as u64 * 8) as f64 / ns
}

/// The engine's stage shares over everything recorded since the last
/// `metrics::reset`.
pub fn stage_shares(registry: &ModelRegistry, metrics: &mut Metrics) {
    let snapshot = registry.metrics_snapshot();
    let total: u64 = snapshot.stages.iter().map(|s| s.nanos).sum();
    for stage in &snapshot.stages {
        let name = match stage.stage.name() {
            "plan" => "engine.stage_share.plan",
            "scan" => "engine.stage_share.scan",
            "rerank" => "engine.stage_share.rerank",
            _ => "engine.stage_share.scatter",
        };
        metrics.set(name, stage.nanos as f64 / total.max(1) as f64);
    }
}

/// The probes every traced run takes after its pass: the scan kernel's
/// throughput, and side probes for the layers its workload does not
/// exercise. The result line of a traced run carries every per-layer
/// metric, so those layers are timed on inputs generated from the same
/// seed by the generator of the workload that does exercise them: 18
/// Rep-3 scenes, 256 single-object ops and a closed-loop wire pass, or
/// the first 32 learn batches (two of them retrain) with a publish on a
/// fresh learnable model. Side-probe values are marked as such in the
/// printed table; compare a layer's figures on its own workload.
/// `engine.recon_hit_ratio` comes from the engine's memo when the
/// workload decodes Rep-3 scenes, from the side probe's otherwise.
pub fn side_probes(
    registry: &Arc<ModelRegistry>,
    state: &ModelState,
    seed: u64,
    own: Workload,
    metrics: &mut Metrics,
) -> Result<(), String> {
    model::warm(state);
    let mut side = Metrics::new();
    if own == Workload::Rep3MultiClosed {
        let memo = state.reconstruction_stats();
        let ratio = memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64;
        metrics.set("engine.recon_hit_ratio", ratio);
    } else {
        let mut scenes = inputs::Rep3Scenes::new(state.taxonomy(), seed);
        let mut multi = MultiProbe::new(state);
        for _ in 0..18 {
            multi.add(&scenes.next_case());
        }
        multi.write(&mut side);
        side.set("engine.recon_hit_ratio", multi.memo_hit_ratio());
    }
    if own != Workload::WireSingleOpen {
        let mut single = SingleProbe::new(state);
        for case in inputs::wire_cases(state.taxonomy(), seed, 256) {
            single.add(&case);
        }
        single.write(&mut side);
        crate::wire::serve_side(registry, seed, &mut side)?;
    }
    if own == Workload::LearnRwClosed {
        metrics.set("engine.publish_ms", publish_ms(registry));
    } else {
        let data = LearnData::new(seed);
        let mut learn = LearnProbe::new(&[]);
        for b in 0..32 {
            learn.add(&data.batch(b));
        }
        learn.write(&mut side);
        side.set("engine.publish_ms", publish_ms(registry));
    }
    metrics.set("hdc.kernel_gb_per_s", kernel_gb_per_s(seed));
    metrics.absorb_side(side);
    Ok(())
}

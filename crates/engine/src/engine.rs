//! The typed serving engine over one model.

use crate::metrics::{self, MetricsSnapshot};
use crate::ops::{AnyOp, AnyOutput, Op};
use crate::{plan, CacheStats, EngineConfig, EngineError, ModelState};
use factorhd_core::Taxonomy;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// A factorization server over one [`ModelState`]: a one-model view
/// over the same batch planner a [`crate::ModelRegistry`] runs.
///
/// The engine pays per-model setup exactly once — label-elimination
/// masks, lazily shared codebooks and clauses, and the Rep-3
/// reconstruction memo — then serves every request as lookups plus the
/// irreducible similarity arithmetic. Requests are typed ops
/// ([`crate::ops`]): [`FactorEngine::run`] returns each op's own output
/// type, and [`FactorEngine::run_mixed`] plans an [`AnyOp`] batch on the
/// rayon pool, chunking Rep-1/Rep-2/Train groups through their grouped
/// kernels. Results come back in request order, bit-identical to
/// [`FactorEngine::run_mixed_sequential`], because every kernel is a
/// pure function of the `(op, model)` pair.
///
/// Its telemetry lands in the per-model row
/// [`metrics::UNREGISTERED_GENERATION`]. Engines serving multiple named,
/// hot-swappable models use a [`crate::ModelRegistry`] instead.
pub struct FactorEngine {
    model: Arc<ModelState>,
}

impl FactorEngine {
    /// Creates an engine serving `taxonomy`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when `config` fails
    /// [`EngineConfig::validate`].
    pub fn new(taxonomy: Taxonomy, config: EngineConfig) -> Result<Self, EngineError> {
        Ok(FactorEngine::from_state(ModelState::new(taxonomy, config)?))
    }

    /// Creates an engine over an already-shared taxonomy.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] when `config` fails
    /// [`EngineConfig::validate`].
    pub fn from_arc(taxonomy: Arc<Taxonomy>, config: EngineConfig) -> Result<Self, EngineError> {
        Ok(FactorEngine::from_state(ModelState::from_arc(
            taxonomy, config,
        )?))
    }

    /// Wraps an already-built model state (e.g. one resolved from a
    /// [`crate::ModelRegistry`] handle).
    pub fn from_state(model: ModelState) -> Self {
        FactorEngine::from_shared(Arc::new(model))
    }

    /// [`FactorEngine::from_state`] over a shared state.
    pub fn from_shared(model: Arc<ModelState>) -> Self {
        FactorEngine { model }
    }

    /// Loads an engine from a `.fhd` model artifact at `path`.
    ///
    /// # Errors
    ///
    /// The conditions of [`ModelState::load`].
    pub fn load<P: AsRef<Path>>(path: P, config: EngineConfig) -> Result<Self, EngineError> {
        Ok(FactorEngine::from_state(ModelState::load(path, config)?))
    }

    /// Loads an engine from `.fhd` bytes supplied by `reader`.
    ///
    /// # Errors
    ///
    /// The conditions of [`ModelState::load_from`].
    pub fn load_from<R: Read>(reader: &mut R, config: EngineConfig) -> Result<Self, EngineError> {
        Ok(FactorEngine::from_state(ModelState::load_from(
            reader, config,
        )?))
    }

    /// Saves the engine's model as a `.fhd` artifact at `path`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] on filesystem failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        self.model.save(path)
    }

    /// Writes the engine's model as `.fhd` bytes to `writer`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] on write failure.
    pub fn save_to<W: Write>(&self, writer: &mut W) -> Result<(), EngineError> {
        self.model.save_to(writer)
    }

    /// The model this engine serves.
    pub fn model(&self) -> &Arc<ModelState> {
        &self.model
    }

    /// The taxonomy this engine serves.
    pub fn taxonomy(&self) -> &Taxonomy {
        self.model.taxonomy()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        self.model.config()
    }

    /// Usage counters of the reconstruction memo (hits grow as the cache
    /// warms; compare cold vs warm runs).
    pub fn reconstruction_stats(&self) -> CacheStats {
        self.model.reconstruction_stats()
    }

    /// Executes one typed op, returning **its own output type** — a
    /// [`crate::FactorizeRep3`] comes back as a
    /// [`factorhd_core::DecodedScene`], a [`crate::MembershipProbe`] as a
    /// [`factorhd_core::QueryAnswer`], with nothing to destructure.
    ///
    /// ```
    /// use factorhd_core::{Encoder, Scene, TaxonomyBuilder};
    /// use factorhd_engine::{EngineConfig, FactorEngine, FactorizeRep2};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let taxonomy = TaxonomyBuilder::new(2048)
    ///     .class("shape", &[8])
    ///     .class("color", &[8])
    ///     .build()?;
    /// let engine = FactorEngine::new(taxonomy, EngineConfig::default())?;
    ///
    /// let mut rng = hdc::rng_from_seed(11);
    /// let object = engine.taxonomy().sample_object(&mut rng);
    /// let hv = Encoder::new(engine.taxonomy()).encode_scene(&Scene::single(object.clone()))?;
    ///
    /// // Typed in, typed out: `run` returns a DecodedObject directly.
    /// let decoded = engine.run(&FactorizeRep2 { scene: hv })?;
    /// assert_eq!(decoded.object(), &object);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The conditions of [`Op::run`].
    pub fn run<O: Op>(&self, op: &O) -> Result<O::Output, EngineError> {
        plan::run_one(&self.model, metrics::UNREGISTERED_GENERATION, op)
    }

    /// Executes a batch: ops are grouped by kind so same-shape work scans
    /// the packed shards contiguously, then fanned out across the pool
    /// under panic containment. Results in input order, **bit-identical**
    /// to [`FactorEngine::run_mixed_sequential`].
    pub fn run_mixed(&self, ops: &[AnyOp]) -> Vec<Result<AnyOutput, EngineError>> {
        plan::execute_one_model(&self.model, ops, plan::execute_batch_planned)
    }

    /// The determinism reference for [`FactorEngine::run_mixed`]: one op
    /// at a time on the calling thread, no grouping — and deliberately
    /// uninstrumented, so reference comparisons never perturb the
    /// telemetry they are checked against.
    pub fn run_mixed_sequential(&self, ops: &[AnyOp]) -> Vec<Result<AnyOutput, EngineError>> {
        plan::execute_one_model(&self.model, ops, plan::execute_sequential)
    }

    /// A copy-out of the process-global telemetry tables: per-op-kind
    /// counters and latency quantiles, batch/chunk histograms, per-stage
    /// timings, and per-model op counts. See [`crate::metrics`] and
    /// docs/OBSERVABILITY.md.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metrics::snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        EncodeScene, FactorizeRep1, FactorizeRep2, FactorizeRep3, MembershipProbe, PartialDecode,
    };
    use factorhd_core::{
        Encoder, FactorHdError, FactorizeConfig, ItemPath, ObjectSpec, Scene, TaxonomyBuilder,
        ThresholdPolicy,
    };
    use hdc::AccumHv;

    fn taxonomy(seed: u64) -> Taxonomy {
        TaxonomyBuilder::new(2048)
            .seed(seed)
            .class("animal", &[8, 4])
            .class("color", &[8])
            .class("size", &[8])
            .build()
            .expect("valid taxonomy")
    }

    fn engine(seed: u64) -> FactorEngine {
        FactorEngine::new(
            taxonomy(seed),
            EngineConfig {
                factorize: FactorizeConfig {
                    threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                    ..FactorizeConfig::default()
                },
                ..EngineConfig::default()
            },
        )
        .expect("valid config")
    }

    fn mixed_ops(engine: &FactorEngine, n: usize, seed: u64) -> Vec<AnyOp> {
        let encoder = Encoder::new(engine.taxonomy());
        let mut rng = hdc::rng_from_seed(seed);
        (0..n)
            .map(|i| {
                let object = engine.taxonomy().sample_object(&mut rng);
                match i % 6 {
                    0 => AnyOp::Rep2(FactorizeRep2 {
                        scene: encoder.encode_scene(&Scene::single(object)).unwrap(),
                    }),
                    1 => {
                        let scene = engine.taxonomy().sample_scene(2, true, &mut rng);
                        AnyOp::Rep3(FactorizeRep3 {
                            scene: encoder.encode_scene(&scene).unwrap(),
                        })
                    }
                    2 => AnyOp::Partial(PartialDecode {
                        scene: encoder.encode_scene(&Scene::single(object)).unwrap(),
                        classes: vec![1],
                    }),
                    3 => AnyOp::Membership(MembershipProbe {
                        scene: encoder
                            .encode_scene(&Scene::single(object.clone()))
                            .unwrap(),
                        items: vec![(1, object.assignment(1).unwrap().clone())],
                        absent: vec![],
                    }),
                    4 => AnyOp::Rep1(FactorizeRep1 {
                        scene: encoder.encode_scene(&Scene::single(object)).unwrap(),
                    }),
                    _ => AnyOp::Encode(EncodeScene {
                        scene: Scene::single(object),
                    }),
                }
            })
            .collect()
    }

    fn unwrap_all(results: Vec<Result<AnyOutput, EngineError>>) -> Vec<AnyOutput> {
        results
            .into_iter()
            .map(|r| r.expect("op succeeds"))
            .collect()
    }

    #[test]
    fn mixed_batch_is_bit_identical_to_sequential() {
        let eng = engine(77);
        let ops = mixed_ops(&eng, 18, 1);
        let batched = unwrap_all(eng.run_mixed(&ops));
        let sequential = unwrap_all(eng.run_mixed_sequential(&ops));
        assert_eq!(batched, sequential);
        // And a second (warm-cache) pass does not change anything.
        let warm = unwrap_all(eng.run_mixed(&ops));
        assert_eq!(warm, batched);
        // Output variants match the op kinds in order.
        for (op, out) in ops.iter().zip(&batched) {
            assert_eq!(op.kind(), out.kind());
        }
    }

    #[test]
    fn typed_ops_recover_the_encoded_objects() {
        let eng = engine(78);
        let encoder = Encoder::new(eng.taxonomy());
        let mut rng = hdc::rng_from_seed(2);
        let object = eng.taxonomy().sample_object(&mut rng);
        let hv = encoder
            .encode_scene(&Scene::single(object.clone()))
            .unwrap();
        let decoded = eng
            .run(&FactorizeRep2 { scene: hv.clone() })
            .expect("decodes");
        assert_eq!(decoded.object(), &object);
        let encoded = eng
            .run(&EncodeScene {
                scene: Scene::single(object),
            })
            .expect("encodes");
        assert_eq!(encoded, hv);
    }

    #[test]
    fn rep1_decodes_top_level_only() {
        let eng = engine(84);
        let encoder = Encoder::new(eng.taxonomy());
        let mut rng = hdc::rng_from_seed(5);
        let object = eng.taxonomy().sample_object(&mut rng);
        let hv = encoder
            .encode_scene(&Scene::single(object.clone()))
            .unwrap();
        let flat = eng.run(&FactorizeRep1 { scene: hv.clone() }).unwrap();
        let deep = eng.run(&FactorizeRep2 { scene: hv }).unwrap();
        // Class 0 is hierarchical: Rep 1 stops at depth 1, Rep 2 descends.
        assert_eq!(flat.object().assignment(0).unwrap().depth(), 1);
        assert_eq!(
            deep.object().assignment(0).unwrap().depth(),
            eng.taxonomy().levels(0)
        );
        // Their top-level choices agree.
        assert_eq!(
            flat.object().assignment(0).unwrap().indices()[0],
            deep.object().assignment(0).unwrap().indices()[0]
        );
    }

    #[test]
    fn run_batch_grouped_matches_per_op() {
        // A planned all-Rep-2 batch runs in grouped chunks; it must
        // equal per-op `run`.
        let eng = engine(85);
        let encoder = Encoder::new(eng.taxonomy());
        let mut rng = hdc::rng_from_seed(6);
        let ops: Vec<FactorizeRep2> = (0..20)
            .map(|_| {
                let object = eng.taxonomy().sample_object(&mut rng);
                FactorizeRep2 {
                    scene: encoder.encode_scene(&Scene::single(object)).unwrap(),
                }
            })
            .collect();
        let any_ops: Vec<AnyOp> = ops.iter().cloned().map(AnyOp::from).collect();
        let batched = unwrap_all(eng.run_mixed(&any_ops));
        let singles: Vec<_> = ops
            .iter()
            .map(|op| AnyOutput::Rep2(eng.run(op).expect("decodes")))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn warm_cache_registers_hits() {
        let eng = engine(79);
        let encoder = Encoder::new(eng.taxonomy());
        let mut rng = hdc::rng_from_seed(3);
        let scene = eng.taxonomy().sample_scene(2, true, &mut rng);
        let op = FactorizeRep3 {
            scene: encoder.encode_scene(&scene).unwrap(),
        };
        let cold = eng.run(&op).unwrap();
        let after_cold = eng.reconstruction_stats();
        let warm = eng.run(&op).unwrap();
        let after_warm = eng.reconstruction_stats();
        assert_eq!(cold, warm);
        assert!(after_cold.misses > 0, "cold run must populate the memo");
        assert!(
            after_warm.hits > after_cold.hits,
            "warm run must hit the memo: {after_warm:?}"
        );
    }

    #[test]
    fn set_codebook_after_serving_flushes_reconstructions() {
        // Installing trained prototypes through the engine's own taxonomy
        // accessor must invalidate memoized reconstructions: post-mutation
        // serving must match a freshly built engine over the same model.
        let eng = engine(83);
        let encoder = Encoder::new(eng.taxonomy());
        let mut rng = hdc::rng_from_seed(6);
        let scene = eng.taxonomy().sample_scene(2, true, &mut rng);
        let op = FactorizeRep3 {
            scene: encoder.encode_scene(&scene).unwrap(),
        };
        let _ = eng.run(&op).unwrap(); // populate the memo

        let trained = hdc::Codebook::derive(0xAB, 8, 2048);
        eng.taxonomy()
            .set_codebook(1, &[], trained.clone())
            .unwrap();

        let fresh_taxonomy = taxonomy(83);
        fresh_taxonomy.set_codebook(1, &[], trained).unwrap();
        let fresh = FactorEngine::from_arc(Arc::new(fresh_taxonomy), *eng.config()).expect("valid");
        // Re-encode the request against the mutated model so both engines
        // answer the same question.
        let encoder = Encoder::new(eng.taxonomy());
        let op = FactorizeRep3 {
            scene: encoder.encode_scene(&scene).unwrap(),
        };
        assert_eq!(
            eng.run(&op).unwrap(),
            fresh.run(&op).unwrap(),
            "stale reconstruction served after set_codebook"
        );
    }

    #[test]
    fn dimension_mismatch_surfaces_as_core_error() {
        let eng = engine(80);
        let result = eng.run(&FactorizeRep2 {
            scene: AccumHv::zeros(64),
        });
        assert!(matches!(
            result,
            Err(EngineError::Core(FactorHdError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let result = FactorEngine::new(
            taxonomy(90),
            EngineConfig {
                batch_chunk: 0,
                ..EngineConfig::default()
            },
        );
        assert!(matches!(result, Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn membership_detects_absent_classes() {
        let eng = engine(81);
        let encoder = Encoder::new(eng.taxonomy());
        let object = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![3, 1])),
            None,
            Some(ItemPath::top(5)),
        ]);
        let hv = encoder.encode_scene(&Scene::single(object)).unwrap();
        let answer = eng
            .run(&MembershipProbe {
                scene: hv,
                items: vec![(0, ItemPath::new(vec![3, 1]))],
                absent: vec![1],
            })
            .unwrap();
        assert!(answer.present);
    }

    #[test]
    fn artifact_round_trip_serves_identically() {
        let eng = engine(82);
        let ops = mixed_ops(&eng, 12, 4);
        let mut bytes = Vec::new();
        eng.save_to(&mut bytes).expect("serializes");
        let loaded = FactorEngine::load_from(&mut &bytes[..], *eng.config()).expect("deserializes");
        assert_eq!(
            unwrap_all(eng.run_mixed(&ops)),
            unwrap_all(loaded.run_mixed(&ops)),
        );
    }
}

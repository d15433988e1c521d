//! The typed operation surface: one request type per query shape, each
//! carrying its own output type.
//!
//! The paper's three representations are distinct query shapes with
//! distinct result types; modeling them as one closed enum forced every
//! caller to pattern-match a `Response` the type system could not tie to
//! the request. An [`Op`] is the request *and* its contract:
//! `engine.run(&FactorizeRep3 { scene })` returns a
//! [`DecodedScene`] — no destructuring, no unreachable arms.
//!
//! | op | paper shape | output |
//! |---|---|---|
//! | [`FactorizeRep1`] | Rep 1: single object, top level only | [`DecodedObject`] |
//! | [`FactorizeRep2`] | Rep 2: single object, full hierarchy | [`DecodedObject`] |
//! | [`FactorizeRep3`] | Rep 3: multi-object scene | [`DecodedScene`] |
//! | [`PartialDecode`] | per-class partial factorization | `Vec<ClassDecode>` |
//! | [`MembershipProbe`] | scene membership query | [`QueryAnswer`] |
//! | [`EncodeScene`] | symbolic → hypervector encoding | [`AccumHv`] |
//! | [`Train`] | online learning: bundle one labelled example | [`TrainAck`] |
//! | [`Retrain`] | misclassification-driven retraining epochs | [`RetrainReport`] |
//! | [`Classify`] | score a query against the class prototypes | [`Classification`] |
//!
//! The learning ops (docs/LEARNING.md) only work on models built with
//! [`crate::ModelState::new_learnable`]; on read-only models they
//! return [`EngineError::NotTrainable`]. `Train`/`Retrain` mutate the
//! model's *staging* prototypes; readers keep classifying against the
//! last published snapshot until the registry publishes a new one.
//!
//! [`AnyOp`] / [`AnyOutput`] are the transport form for batches (the
//! planner groups them by [`OpKind`]); a single op keeps full typing
//! through [`crate::FactorEngine::run`].

use crate::{EngineError, ModelState};
use factorhd_core::{
    ClassDecode, DecodedObject, DecodedScene, Encoder, FactorizeConfig, ItemPath, QueryAnswer,
    Scene,
};
use factorhd_learn::{Classification, RetrainReport, TrainAck};
use hdc::AccumHv;

/// A typed engine operation: the request shape and its output type in one
/// trait, so `engine.run(op)` returns exactly what the op produces.
///
/// Ops are pure functions of `(op, model)` — that purity is what lets the
/// batch planner regroup and parallelize them while staying bit-identical
/// to a sequential loop.
pub trait Op {
    /// What this operation produces.
    type Output;

    /// Executes the operation against `model`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] wrapping the underlying validation or
    /// dimension error.
    fn run(&self, model: &ModelState) -> Result<Self::Output, EngineError>;

    /// Executes a batch of same-typed ops, results in input order and
    /// bit-identical to calling [`Op::run`] per op. The default is the
    /// per-op loop; ops with a grouped kernel (the Rep-1/Rep-2 level-1
    /// codebook scans) override it to amortize shard traversal across the
    /// batch.
    fn run_many(model: &ModelState, ops: &[&Self]) -> Vec<Result<Self::Output, EngineError>>
    where
        Self: Sized,
    {
        ops.iter().map(|op| op.run(model)).collect()
    }

    /// The [`OpKind`] discriminant of this op — the key the metrics layer
    /// accounts counters and latency histograms under.
    fn kind(&self) -> OpKind;
}

/// Rep-1 factorization: recover the single object of a scene vector at
/// the **top level only** (the paper's flat Representation 1), skipping
/// subclass descent entirely. On a flat taxonomy this equals
/// [`FactorizeRep2`]; on a hierarchical one it answers "which top-level
/// item per class" at a fraction of the similarity checks.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizeRep1 {
    /// The single-object scene hypervector to decode.
    pub scene: AccumHv,
}

/// Rep-2 factorization: recover the single object of a scene vector
/// through the full subclass hierarchy (the paper's Representation 2;
/// also the right op for Rep-1 scenes on flat taxonomies).
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizeRep2 {
    /// The single-object scene hypervector to decode.
    pub scene: AccumHv,
}

/// Rep-3 factorization: recover every object of a multi-object scene
/// vector (count unknown) via threshold selection and the
/// reconstruct-and-exclude loop of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizeRep3 {
    /// The multi-object scene hypervector to decode.
    pub scene: AccumHv,
}

/// Partial factorization: decode only the listed classes, skipping all
/// similarity work for the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialDecode {
    /// The scene hypervector to decode.
    pub scene: AccumHv,
    /// Class indices to decode (others are skipped entirely).
    pub classes: Vec<usize>,
}

/// Membership probe: "does the scene contain an object with these items
/// (and with these classes absent)?"
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipProbe {
    /// The scene hypervector to probe.
    pub scene: AccumHv,
    /// Required `(class, item path)` constraints.
    pub items: Vec<(usize, ItemPath)>,
    /// Classes required to be absent (NULL) on the queried object.
    pub absent: Vec<usize>,
}

/// Symbolic-to-hypervector encoding of a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeScene {
    /// The symbolic scene to encode.
    pub scene: Scene,
}

/// Online learning: bundle one labelled example into its class's
/// staging prototype.
///
/// The returned [`TrainAck`]'s running totals reflect the moment the
/// example was bundled, which depends on how a parallel batch
/// interleaves; the resulting *prototypes* do not (integer bundling is
/// commutative), so trained models are bit-identical across thread
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Train {
    /// The class label of the example.
    pub class: usize,
    /// Caller-assigned example id, keying the replay buffer (see
    /// [`factorhd_learn::PrototypeModel::observe`]).
    pub sample: u64,
    /// The encoded example.
    pub example: AccumHv,
    /// Whether to retain the example for retraining.
    pub retain: bool,
}

/// Misclassification-driven retraining: up to `epochs` passes over the
/// retained examples, each subtracting misclassified examples from the
/// wrong prototype and adding them to the right one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retrain {
    /// Maximum epochs to run (retraining stops early after an
    /// error-free pass).
    pub epochs: u32,
}

/// Score a query against the model's *published* prototype snapshot.
///
/// Classification never sees staging updates: it reads the snapshot the
/// registry last published, so concurrent `Train`/`Retrain` traffic is
/// invisible until the next publish.
#[derive(Debug, Clone, PartialEq)]
pub struct Classify {
    /// The encoded query.
    pub query: AccumHv,
    /// How many classes to return (clamped to `[1, classes]`).
    pub top_k: usize,
}

/// The Rep-1 depth cap: decode level 1 only, whatever the model's
/// configured depth.
fn rep1_config(model: &ModelState) -> FactorizeConfig {
    FactorizeConfig {
        max_depth: Some(1),
        ..model.config().factorize
    }
}

impl Op for FactorizeRep1 {
    type Output = DecodedObject;

    fn run(&self, model: &ModelState) -> Result<DecodedObject, EngineError> {
        Ok(model
            .factorizer_with(rep1_config(model))
            .factorize_single(&self.scene)?)
    }

    fn run_many(model: &ModelState, ops: &[&Self]) -> Vec<Result<DecodedObject, EngineError>> {
        let scenes: Vec<&AccumHv> = ops.iter().map(|op| &op.scene).collect();
        model
            .factorizer_with(rep1_config(model))
            .factorize_single_many(&scenes)
            .into_iter()
            .map(|r| r.map_err(EngineError::from))
            .collect()
    }

    fn kind(&self) -> OpKind {
        OpKind::Rep1
    }
}

impl Op for FactorizeRep2 {
    type Output = DecodedObject;

    fn run(&self, model: &ModelState) -> Result<DecodedObject, EngineError> {
        Ok(model.factorizer().factorize_single(&self.scene)?)
    }

    fn run_many(model: &ModelState, ops: &[&Self]) -> Vec<Result<DecodedObject, EngineError>> {
        let scenes: Vec<&AccumHv> = ops.iter().map(|op| &op.scene).collect();
        model
            .factorizer()
            .factorize_single_many(&scenes)
            .into_iter()
            .map(|r| r.map_err(EngineError::from))
            .collect()
    }

    fn kind(&self) -> OpKind {
        OpKind::Rep2
    }
}

impl Op for FactorizeRep3 {
    type Output = DecodedScene;

    fn run(&self, model: &ModelState) -> Result<DecodedScene, EngineError> {
        Ok(model.factorizer().factorize_multi(&self.scene)?)
    }

    fn kind(&self) -> OpKind {
        OpKind::Rep3
    }
}

impl Op for PartialDecode {
    type Output = Vec<ClassDecode>;

    fn run(&self, model: &ModelState) -> Result<Vec<ClassDecode>, EngineError> {
        Ok(model
            .factorizer()
            .factorize_classes(&self.scene, &self.classes)?)
    }

    fn kind(&self) -> OpKind {
        OpKind::Partial
    }
}

impl Op for MembershipProbe {
    type Output = QueryAnswer;

    fn run(&self, model: &ModelState) -> Result<QueryAnswer, EngineError> {
        Ok(model
            .factorizer()
            .evaluate_membership(&self.scene, &self.items, &self.absent)?)
    }

    fn kind(&self) -> OpKind {
        OpKind::Membership
    }
}

impl Op for EncodeScene {
    type Output = AccumHv;

    fn run(&self, model: &ModelState) -> Result<AccumHv, EngineError> {
        Ok(Encoder::new(model.taxonomy()).encode_scene(&self.scene)?)
    }

    fn kind(&self) -> OpKind {
        OpKind::Encode
    }
}

impl Op for Train {
    type Output = TrainAck;

    fn run(&self, model: &ModelState) -> Result<TrainAck, EngineError> {
        let learner = model.learner().ok_or(EngineError::NotTrainable)?;
        Ok(learner.observe(self.class, self.sample, &self.example, self.retain)?)
    }

    fn run_many(model: &ModelState, ops: &[&Self]) -> Vec<Result<TrainAck, EngineError>> {
        // One lock acquisition for the whole chunk instead of one per
        // example.
        let Some(learner) = model.learner() else {
            return ops.iter().map(|_| Err(EngineError::NotTrainable)).collect();
        };
        learner.with_model(|staged| {
            ops.iter()
                .map(|op| {
                    staged
                        .observe(op.class, op.sample, &op.example, op.retain)
                        .map_err(EngineError::from)
                })
                .collect()
        })
    }

    fn kind(&self) -> OpKind {
        OpKind::Train
    }
}

impl Op for Retrain {
    type Output = RetrainReport;

    fn run(&self, model: &ModelState) -> Result<RetrainReport, EngineError> {
        let learner = model.learner().ok_or(EngineError::NotTrainable)?;
        let report = learner.retrain(self.epochs);
        crate::metrics::record_retrain_epochs(report.epochs_run as u64);
        Ok(report)
    }

    fn kind(&self) -> OpKind {
        OpKind::Retrain
    }
}

impl Op for Classify {
    type Output = Classification;

    fn run(&self, model: &ModelState) -> Result<Classification, EngineError> {
        let snapshot = model.prototypes().ok_or(EngineError::NotTrainable)?;
        Ok(snapshot.classify(&self.query, self.top_k)?)
    }

    fn kind(&self) -> OpKind {
        OpKind::Classify
    }
}

/// The discriminant of an [`AnyOp`] — the planner's grouping key (ops of
/// one kind against one model scan the same codebooks back to back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// [`FactorizeRep1`]
    Rep1,
    /// [`FactorizeRep2`]
    Rep2,
    /// [`FactorizeRep3`]
    Rep3,
    /// [`PartialDecode`]
    Partial,
    /// [`MembershipProbe`]
    Membership,
    /// [`EncodeScene`]
    Encode,
    /// [`Train`]
    Train,
    /// [`Retrain`]
    Retrain,
    /// [`Classify`]
    Classify,
}

impl OpKind {
    /// Number of op kinds (the width of per-kind metrics tables).
    pub const COUNT: usize = 9;

    /// All op kinds, in [`OpKind::index`] order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Rep1,
        OpKind::Rep2,
        OpKind::Rep3,
        OpKind::Partial,
        OpKind::Membership,
        OpKind::Encode,
        OpKind::Train,
        OpKind::Retrain,
        OpKind::Classify,
    ];

    /// Whether ops of this kind share a grouped kernel (an [`Op::run_many`]
    /// that amortizes work across the batch). The planner chunks
    /// groupable kinds and runs everything else one op per task.
    pub fn groupable(self) -> bool {
        matches!(self, OpKind::Rep1 | OpKind::Rep2 | OpKind::Train)
    }

    /// Dense 0-based index of this kind (the metrics table slot).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpKind::Rep1 => 0,
            OpKind::Rep2 => 1,
            OpKind::Rep3 => 2,
            OpKind::Partial => 3,
            OpKind::Membership => 4,
            OpKind::Encode => 5,
            OpKind::Train => 6,
            OpKind::Retrain => 7,
            OpKind::Classify => 8,
        }
    }

    /// Lower-case stable name used in snapshots and BENCH JSON.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Rep1 => "rep1",
            OpKind::Rep2 => "rep2",
            OpKind::Rep3 => "rep3",
            OpKind::Partial => "partial",
            OpKind::Membership => "membership",
            OpKind::Encode => "encode",
            OpKind::Train => "train",
            OpKind::Retrain => "retrain",
            OpKind::Classify => "classify",
        }
    }
}

/// A typed op in transport form, for heterogeneous batches. Ops lose
/// their individual output types here — the price of putting different
/// shapes in one `Vec` — and come back as [`AnyOutput`], whose variant
/// the planner guarantees matches the op's [`OpKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOp {
    /// A [`FactorizeRep1`] op.
    Rep1(FactorizeRep1),
    /// A [`FactorizeRep2`] op.
    Rep2(FactorizeRep2),
    /// A [`FactorizeRep3`] op.
    Rep3(FactorizeRep3),
    /// A [`PartialDecode`] op.
    Partial(PartialDecode),
    /// A [`MembershipProbe`] op.
    Membership(MembershipProbe),
    /// An [`EncodeScene`] op.
    Encode(EncodeScene),
    /// A [`Train`] op.
    Train(Train),
    /// A [`Retrain`] op.
    Retrain(Retrain),
    /// A [`Classify`] op.
    Classify(Classify),
}

impl AnyOp {
    /// The grouping key of this op.
    pub fn kind(&self) -> OpKind {
        match self {
            AnyOp::Rep1(_) => OpKind::Rep1,
            AnyOp::Rep2(_) => OpKind::Rep2,
            AnyOp::Rep3(_) => OpKind::Rep3,
            AnyOp::Partial(_) => OpKind::Partial,
            AnyOp::Membership(_) => OpKind::Membership,
            AnyOp::Encode(_) => OpKind::Encode,
            AnyOp::Train(_) => OpKind::Train,
            AnyOp::Retrain(_) => OpKind::Retrain,
            AnyOp::Classify(_) => OpKind::Classify,
        }
    }

    /// Whether re-executing this op is observably identical to running
    /// it once. Everything except the training ops is a pure read of the
    /// model, so a client may safely retry it after an ambiguous
    /// transport failure; `Train`/`Retrain` mutate learner state and
    /// must not be retried blindly (docs/ROBUSTNESS.md, "Retry
    /// contract").
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, AnyOp::Train(_) | AnyOp::Retrain(_))
    }

    /// A cheap, deterministic tag for the `engine/op_panic` failpoint
    /// ([`crate::failpoint`]): chaos tests arm `tag:V` to poison exactly
    /// the ops whose tag is `V`, independent of execution order or
    /// thread count. Derived from data the op already carries — distinct
    /// per op for `Train` (the sample id) and `Classify` (`top_k`), a
    /// kind-level constant for the scene ops.
    pub fn chaos_tag(&self) -> u64 {
        match self {
            AnyOp::Rep1(_) => 1,
            AnyOp::Rep2(_) => 2,
            AnyOp::Rep3(_) => 3,
            AnyOp::Partial(op) => 100 + op.classes.len() as u64,
            AnyOp::Membership(op) => 200 + op.items.len() as u64,
            AnyOp::Encode(op) => 300 + op.scene.objects().len() as u64,
            AnyOp::Train(op) => 1_000_000 + op.sample,
            AnyOp::Retrain(op) => 400 + u64::from(op.epochs),
            AnyOp::Classify(op) => 500 + op.top_k as u64,
        }
    }
}

impl From<FactorizeRep1> for AnyOp {
    fn from(op: FactorizeRep1) -> Self {
        AnyOp::Rep1(op)
    }
}

impl From<FactorizeRep2> for AnyOp {
    fn from(op: FactorizeRep2) -> Self {
        AnyOp::Rep2(op)
    }
}

impl From<FactorizeRep3> for AnyOp {
    fn from(op: FactorizeRep3) -> Self {
        AnyOp::Rep3(op)
    }
}

impl From<PartialDecode> for AnyOp {
    fn from(op: PartialDecode) -> Self {
        AnyOp::Partial(op)
    }
}

impl From<MembershipProbe> for AnyOp {
    fn from(op: MembershipProbe) -> Self {
        AnyOp::Membership(op)
    }
}

impl From<EncodeScene> for AnyOp {
    fn from(op: EncodeScene) -> Self {
        AnyOp::Encode(op)
    }
}

impl From<Train> for AnyOp {
    fn from(op: Train) -> Self {
        AnyOp::Train(op)
    }
}

impl From<Retrain> for AnyOp {
    fn from(op: Retrain) -> Self {
        AnyOp::Retrain(op)
    }
}

impl From<Classify> for AnyOp {
    fn from(op: Classify) -> Self {
        AnyOp::Classify(op)
    }
}

/// The output of an [`AnyOp`], variant-matched to the op's [`OpKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnyOutput {
    /// Output of [`AnyOp::Rep1`].
    Rep1(DecodedObject),
    /// Output of [`AnyOp::Rep2`].
    Rep2(DecodedObject),
    /// Output of [`AnyOp::Rep3`].
    Rep3(DecodedScene),
    /// Output of [`AnyOp::Partial`].
    Partial(Vec<ClassDecode>),
    /// Output of [`AnyOp::Membership`].
    Membership(QueryAnswer),
    /// Output of [`AnyOp::Encode`].
    Encoded(AccumHv),
    /// Output of [`AnyOp::Train`].
    Trained(TrainAck),
    /// Output of [`AnyOp::Retrain`].
    Retrained(RetrainReport),
    /// Output of [`AnyOp::Classify`].
    Classified(Classification),
}

impl AnyOutput {
    /// The kind of op that produced this output.
    pub fn kind(&self) -> OpKind {
        match self {
            AnyOutput::Rep1(_) => OpKind::Rep1,
            AnyOutput::Rep2(_) => OpKind::Rep2,
            AnyOutput::Rep3(_) => OpKind::Rep3,
            AnyOutput::Partial(_) => OpKind::Partial,
            AnyOutput::Membership(_) => OpKind::Membership,
            AnyOutput::Encoded(_) => OpKind::Encode,
            AnyOutput::Trained(_) => OpKind::Train,
            AnyOutput::Retrained(_) => OpKind::Retrain,
            AnyOutput::Classified(_) => OpKind::Classify,
        }
    }

    /// The decoded object, when this is a Rep-1 or Rep-2 output.
    pub fn as_object(&self) -> Option<&DecodedObject> {
        match self {
            AnyOutput::Rep1(obj) | AnyOutput::Rep2(obj) => Some(obj),
            _ => None,
        }
    }

    /// The decoded scene, when this is a Rep-3 output.
    pub fn as_scene(&self) -> Option<&DecodedScene> {
        match self {
            AnyOutput::Rep3(scene) => Some(scene),
            _ => None,
        }
    }
}

impl Op for AnyOp {
    type Output = AnyOutput;

    fn run(&self, model: &ModelState) -> Result<AnyOutput, EngineError> {
        match self {
            AnyOp::Rep1(op) => op.run(model).map(AnyOutput::Rep1),
            AnyOp::Rep2(op) => op.run(model).map(AnyOutput::Rep2),
            AnyOp::Rep3(op) => op.run(model).map(AnyOutput::Rep3),
            AnyOp::Partial(op) => op.run(model).map(AnyOutput::Partial),
            AnyOp::Membership(op) => op.run(model).map(AnyOutput::Membership),
            AnyOp::Encode(op) => op.run(model).map(AnyOutput::Encoded),
            AnyOp::Train(op) => op.run(model).map(AnyOutput::Trained),
            AnyOp::Retrain(op) => op.run(model).map(AnyOutput::Retrained),
            AnyOp::Classify(op) => op.run(model).map(AnyOutput::Classified),
        }
    }

    fn kind(&self) -> OpKind {
        AnyOp::kind(self)
    }
}

/// Runs a same-kind slice of [`AnyOp`]s against one model, dispatching
/// groupable kinds to their grouped kernels. Results in input order,
/// bit-identical to per-op [`Op::run`].
///
/// # Panics
///
/// Panics if the ops are not all of `kind` (a planner invariant, not a
/// runtime condition).
pub(crate) fn run_any_group(
    model: &ModelState,
    kind: OpKind,
    ops: &[&AnyOp],
) -> Vec<Result<AnyOutput, EngineError>> {
    match kind {
        OpKind::Rep1 => {
            let typed: Vec<&FactorizeRep1> = ops
                .iter()
                .map(|op| match op {
                    AnyOp::Rep1(inner) => inner,
                    other => panic!("mixed group: expected Rep1, got {:?}", other.kind()),
                })
                .collect();
            FactorizeRep1::run_many(model, &typed)
                .into_iter()
                .map(|r| r.map(AnyOutput::Rep1))
                .collect()
        }
        OpKind::Rep2 => {
            let typed: Vec<&FactorizeRep2> = ops
                .iter()
                .map(|op| match op {
                    AnyOp::Rep2(inner) => inner,
                    other => panic!("mixed group: expected Rep2, got {:?}", other.kind()),
                })
                .collect();
            FactorizeRep2::run_many(model, &typed)
                .into_iter()
                .map(|r| r.map(AnyOutput::Rep2))
                .collect()
        }
        OpKind::Train => {
            let typed: Vec<&Train> = ops
                .iter()
                .map(|op| match op {
                    AnyOp::Train(inner) => inner,
                    other => panic!("mixed group: expected Train, got {:?}", other.kind()),
                })
                .collect();
            Train::run_many(model, &typed)
                .into_iter()
                .map(|r| r.map(AnyOutput::Trained))
                .collect()
        }
        _ => ops.iter().map(|op| op.run(model)).collect(),
    }
}

//! # factorhd-learn — online class-prototype learning
//!
//! The training side of the FactorHD serving stack: per-class
//! hypervector prototypes accumulated online from labelled examples,
//! with a misclassification-driven retraining loop (chopin2-style
//! epochs) and immutable classification snapshots for lock-free
//! readers.
//!
//! * [`PrototypeModel`] — the mutable staging model: one [`AccumHv`]
//!   accumulator per class, bundled from examples by exact integer
//!   addition, plus a bounded replay buffer of retained examples that
//!   the retraining loop iterates over. A retained example whose
//!   components all fit `{-1, 0, 1}` (every bipolar or ternary
//!   encoding) is stored packed: at most 2 bits per component, 1 KiB
//!   instead of 16 KiB at D = 4096 (512 B for a ±1 example). Any other
//!   example is stored as its accumulator.
//! * [`PrototypeSnapshot`] — an immutable, sign-binarized view of the
//!   prototypes packed into a [`Codebook`] whose packed scan table is
//!   built when the snapshot is made. A query that packs losslessly into
//!   `{-1, 0, 1}` is classified by one word-level pack plus a popcount
//!   scan of the table, the same path factorization scans take; any
//!   other query falls back to the scalar reference scan, with identical
//!   results. Snapshots are what readers classify against; publishing a
//!   new snapshot never blocks them.
//! * [`Learner`] — the thread-safe wrapper the serving engine stores:
//!   writers lock the staging [`PrototypeModel`], readers only ever see
//!   published snapshots.
//!
//! # Determinism
//!
//! Training is bit-deterministic by construction, independent of thread
//! count and arrival interleaving:
//!
//! * bundling is exact integer addition, which is commutative and
//!   associative — any order of `observe` calls yields the same
//!   accumulators;
//! * the replay buffer is keyed by the caller-assigned sample id in a
//!   `BTreeMap`, so its iteration order (and capacity eviction) depends
//!   only on the id set, not on arrival order;
//! * retraining walks the replay buffer sequentially in id order and
//!   scores each example by cosine on the *integer* accumulators (exact
//!   integer dot products over float norms), not against the
//!   sign-binarized snapshot that serves `classify`; similarity ties
//!   resolve to the lowest class index.
//!
//! # Quickstart
//!
//! ```
//! use factorhd_learn::{LearnConfig, PrototypeModel};
//! use hdc::AccumHv;
//!
//! # fn main() -> Result<(), factorhd_learn::LearnError> {
//! let mut model = PrototypeModel::new(LearnConfig::new(2, 8))?;
//! let up = AccumHv::from_components(vec![1, 1, 1, 1, -1, -1, 1, 1]);
//! let down = AccumHv::from_components(vec![-1, -1, -1, 1, 1, 1, -1, -1]);
//! model.observe(0, 0, &up, true)?;
//! model.observe(1, 1, &down, true)?;
//!
//! let report = model.retrain(3);
//! assert!(report.epochs_run <= 3);
//!
//! let snapshot = model.snapshot()?;
//! assert_eq!(snapshot.predict(&up)?.class, 0);
//! assert_eq!(snapshot.predict(&down)?.class, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use hdc::{AccumHv, Codebook, CodebookScan, PackedHv};
use parking_lot::Mutex;

/// Default bound on the number of retained examples per model
/// ([`LearnConfig::max_retained`]).
pub const DEFAULT_MAX_RETAINED: usize = 1 << 16;

/// Errors from the learning subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LearnError {
    /// The model configuration is structurally invalid.
    InvalidConfig(String),
    /// A class label was out of range for the model.
    UnknownClass {
        /// The offending class label.
        class: usize,
        /// The number of classes the model was configured with.
        classes: usize,
    },
    /// An example or query had the wrong dimensionality.
    DimMismatch {
        /// The model's dimension.
        expected: usize,
        /// The dimension of the offending vector.
        found: usize,
    },
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::InvalidConfig(msg) => write!(f, "invalid learn config: {msg}"),
            LearnError::UnknownClass { class, classes } => {
                write!(f, "unknown class {class} (model has {classes} classes)")
            }
            LearnError::DimMismatch { expected, found } => {
                write!(
                    f,
                    "dimension mismatch: model dim {expected}, vector dim {found}"
                )
            }
        }
    }
}

impl Error for LearnError {}

/// Structural configuration of a prototype model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnConfig {
    /// Number of classes (one prototype accumulator each).
    pub classes: usize,
    /// Hypervector dimensionality of examples and prototypes.
    pub dim: usize,
    /// Upper bound on retained examples across all classes. When the
    /// replay buffer is full, the examples with the largest sample ids
    /// are evicted first, so the retained set is always the
    /// `max_retained` *smallest* ids seen — a function of the id set
    /// alone, independent of arrival order.
    pub max_retained: usize,
}

impl LearnConfig {
    /// A config with the default replay-buffer bound
    /// ([`DEFAULT_MAX_RETAINED`]).
    pub fn new(classes: usize, dim: usize) -> Self {
        Self {
            classes,
            dim,
            max_retained: DEFAULT_MAX_RETAINED,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), LearnError> {
        if self.classes == 0 {
            return Err(LearnError::InvalidConfig("zero classes".into()));
        }
        if self.dim == 0 {
            return Err(LearnError::InvalidConfig("zero dimension".into()));
        }
        Ok(())
    }
}

/// Acknowledgement of one training observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainAck {
    /// The class the example was bundled into.
    pub class: usize,
    /// Total examples observed by the model so far (all classes).
    pub examples: u64,
    /// Examples currently held in the replay buffer.
    pub retained: u64,
    /// The model's retraining epoch counter at observation time.
    pub epoch: u64,
}

/// Outcome of a retraining run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrainReport {
    /// Epochs the caller asked for.
    pub epochs_requested: u32,
    /// Epochs actually run (retraining stops early once an epoch makes
    /// no classification errors over the replay buffer).
    pub epochs_run: u32,
    /// Misclassified examples per epoch run, in order.
    pub errors_per_epoch: Vec<u64>,
    /// Examples in the replay buffer the epochs iterated over.
    pub retained: u64,
    /// The model's epoch counter after the run.
    pub epoch: u64,
}

/// One scored class from a classification query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassHit {
    /// Class index.
    pub class: usize,
    /// Normalized dot similarity (`dot / dim`) against the class
    /// prototype.
    pub sim: f64,
}

/// Result of classifying one query against a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The `top_k` best classes, sorted by descending similarity; ties
    /// resolve to the lowest class index.
    pub hits: Vec<ClassHit>,
    /// The epoch counter of the snapshot that served the query.
    pub epoch: u64,
}

/// The mutable staging model: per-class accumulators plus the replay
/// buffer retraining iterates over.
///
/// `PrototypeModel` is single-threaded by itself; the serving stack
/// wraps it in a [`Learner`] and readers classify against immutable
/// [`PrototypeSnapshot`]s instead.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeModel {
    config: LearnConfig,
    accums: Vec<AccumHv>,
    counts: Vec<u64>,
    epoch: u64,
    /// sample id → (class label, example). Not persisted in artifacts.
    replay: BTreeMap<u64, (u32, Retained)>,
}

/// One example in the replay buffer: packed when every component fits
/// `{-1, 0, 1}` (at most 2 bits per component instead of 32), the
/// accumulator itself otherwise.
#[derive(Debug, Clone, PartialEq)]
enum Retained {
    Packed(PackedHv),
    Accum(AccumHv),
}

impl Retained {
    fn new(example: &AccumHv) -> Self {
        match PackedHv::from_accum_lossless(example) {
            Some(packed) => Retained::Packed(packed),
            None => Retained::Accum(example.clone()),
        }
    }

    /// The example as an accumulator: borrowed when stored as one,
    /// otherwise expanded into `scratch` (every component overwritten).
    fn view<'a>(&'a self, scratch: &'a mut AccumHv) -> &'a AccumHv {
        match self {
            Retained::Accum(example) => example,
            Retained::Packed(packed) => {
                packed.expand_into(scratch);
                scratch
            }
        }
    }
}

impl PrototypeModel {
    /// An empty model (all-zero accumulators).
    pub fn new(config: LearnConfig) -> Result<Self, LearnError> {
        config.validate()?;
        Ok(Self {
            accums: (0..config.classes)
                .map(|_| AccumHv::zeros(config.dim))
                .collect(),
            counts: vec![0; config.classes],
            epoch: 0,
            replay: BTreeMap::new(),
            config,
        })
    }

    /// Rebuilds a model from persisted parts (artifact loading). The
    /// replay buffer is not persisted, so a reloaded model classifies
    /// identically but retrains from an empty retained set.
    pub fn from_parts(
        config: LearnConfig,
        accums: Vec<AccumHv>,
        counts: Vec<u64>,
        epoch: u64,
    ) -> Result<Self, LearnError> {
        config.validate()?;
        if accums.len() != config.classes || counts.len() != config.classes {
            return Err(LearnError::InvalidConfig(format!(
                "expected {} classes, got {} accumulators / {} counts",
                config.classes,
                accums.len(),
                counts.len()
            )));
        }
        for accum in &accums {
            if accum.dim() != config.dim {
                return Err(LearnError::DimMismatch {
                    expected: config.dim,
                    found: accum.dim(),
                });
            }
        }
        Ok(Self {
            config,
            accums,
            counts,
            epoch,
            replay: BTreeMap::new(),
        })
    }

    /// Bundles one labelled example into its class prototype.
    ///
    /// `sample` is the caller-assigned id of the example; when `retain`
    /// is set the example joins the replay buffer under that id
    /// (overwriting any previous example with the same id), subject to
    /// the [`LearnConfig::max_retained`] bound.
    pub fn observe(
        &mut self,
        class: usize,
        sample: u64,
        example: &AccumHv,
        retain: bool,
    ) -> Result<TrainAck, LearnError> {
        if class >= self.config.classes {
            return Err(LearnError::UnknownClass {
                class,
                classes: self.config.classes,
            });
        }
        if example.dim() != self.config.dim {
            return Err(LearnError::DimMismatch {
                expected: self.config.dim,
                found: example.dim(),
            });
        }
        self.accums[class].add_accum(example);
        self.counts[class] += 1;
        // Skip building an entry that the capacity bound drops at once.
        if retain && !self.evicted_on_arrival(sample) {
            self.replay
                .insert(sample, (class as u32, Retained::new(example)));
            while self.replay.len() > self.config.max_retained {
                let largest = *self.replay.keys().next_back().expect("non-empty");
                self.replay.remove(&largest);
            }
        }
        Ok(TrainAck {
            class,
            examples: self.counts.iter().sum(),
            retained: self.replay.len() as u64,
            epoch: self.epoch,
        })
    }

    /// Whether retaining `sample` would evict it on arrival: the buffer
    /// is at capacity and every retained id is smaller.
    fn evicted_on_arrival(&self, sample: u64) -> bool {
        self.replay.len() >= self.config.max_retained
            && self
                .replay
                .keys()
                .next_back()
                .is_none_or(|&largest| sample > largest)
    }

    /// The class the accumulators `accums` assign to `example`, by
    /// cosine similarity with ties to the lowest class index. Zero
    /// norms score 0.
    fn predict_staged(accums: &[AccumHv], example: &AccumHv) -> usize {
        let example_norm = example.norm();
        let mut best = 0usize;
        let mut best_sim = f64::NEG_INFINITY;
        for (class, accum) in accums.iter().enumerate() {
            let denom = example_norm * accum.norm();
            let sim = if denom == 0.0 {
                0.0
            } else {
                accum.dot(example) as f64 / denom
            };
            if sim > best_sim {
                best_sim = sim;
                best = class;
            }
        }
        best
    }

    /// One chopin2-style pass over the replay buffer: every example the
    /// current accumulators misclassify (by cosine on the integer
    /// accumulators) is subtracted from the wrong prototype and added to
    /// the right one. Returns the number of errors made (before
    /// correction) this pass.
    ///
    /// The buffer is read in place; each packed example is expanded into
    /// one reused accumulator.
    pub fn retrain_epoch(&mut self) -> u64 {
        let mut errors = 0u64;
        let mut scratch = AccumHv::zeros(self.config.dim);
        for (label, retained) in self.replay.values() {
            let example = retained.view(&mut scratch);
            let predicted = Self::predict_staged(&self.accums, example);
            let label = *label as usize;
            if predicted != label {
                self.accums[predicted].sub_accum(example);
                self.accums[label].add_accum(example);
                errors += 1;
            }
        }
        self.epoch += 1;
        errors
    }

    /// Runs up to `epochs` retraining passes, stopping early after a
    /// pass with zero errors.
    pub fn retrain(&mut self, epochs: u32) -> RetrainReport {
        let mut errors_per_epoch = Vec::new();
        for _ in 0..epochs {
            let errors = self.retrain_epoch();
            errors_per_epoch.push(errors);
            if errors == 0 {
                break;
            }
        }
        RetrainReport {
            epochs_requested: epochs,
            epochs_run: errors_per_epoch.len() as u32,
            errors_per_epoch,
            retained: self.replay.len() as u64,
            epoch: self.epoch,
        }
    }

    /// An immutable classification snapshot of the current prototypes:
    /// each accumulator sign-binarized (zero components resolve to
    /// `+1`) and packed into a [`Codebook`] for word-level scanning.
    ///
    /// The codebook's packed scan table is built here, by the writer, so
    /// no reader builds it on its first `classify`.
    pub fn snapshot(&self) -> Result<PrototypeSnapshot, LearnError> {
        let items: Vec<_> = self.accums.iter().map(AccumHv::sign_bipolar).collect();
        let prototypes = Codebook::from_items(items)
            .map_err(|e| LearnError::InvalidConfig(format!("snapshot codebook: {e}")))?;
        prototypes.packed_view();
        Ok(PrototypeSnapshot {
            prototypes,
            counts: self.counts.clone(),
            epoch: self.epoch,
        })
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &LearnConfig {
        &self.config
    }

    /// Retraining epochs run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-class observation counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Examples currently in the replay buffer.
    pub fn retained(&self) -> usize {
        self.replay.len()
    }

    /// The raw per-class accumulators (artifact serialization).
    pub fn accumulators(&self) -> &[AccumHv] {
        &self.accums
    }
}

/// An immutable, sign-binarized view of a [`PrototypeModel`], packed
/// for scanning. This is what readers classify against; it never
/// changes after construction, so sharing it via `Arc` is torn-read
/// free by construction.
#[derive(Debug, Clone)]
pub struct PrototypeSnapshot {
    prototypes: Codebook,
    counts: Vec<u64>,
    epoch: u64,
}

impl PrototypeSnapshot {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.prototypes.len()
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.prototypes.dim()
    }

    /// The epoch counter of the staging model this snapshot was taken
    /// from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-class observation counts at snapshot time.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The sign-binarized prototypes.
    pub fn prototypes(&self) -> &Codebook {
        &self.prototypes
    }

    /// Scores `query` against every class prototype and returns the
    /// best `top_k` classes by normalized dot similarity (ties resolve
    /// to the lowest class index).
    ///
    /// A query whose components all fit `{-1, 0, 1}` is packed a word at
    /// a time and scanned with the popcount kernels; any other query
    /// takes the scalar reference scan. Both give identical hits.
    pub fn classify(&self, query: &AccumHv, top_k: usize) -> Result<Classification, LearnError> {
        if query.dim() != self.dim() {
            return Err(LearnError::DimMismatch {
                expected: self.dim(),
                found: query.dim(),
            });
        }
        let k = top_k.max(1).min(self.classes());
        let hits = match PackedHv::from_accum_lossless(query) {
            Some(packed) => packed.scan_top_k(&self.prototypes, k),
            None => self.prototypes.top_k(query, k),
        };
        let hits = hits
            .into_iter()
            .map(|hit| ClassHit {
                class: hit.index,
                sim: hit.sim,
            })
            .collect();
        Ok(Classification {
            hits,
            epoch: self.epoch,
        })
    }

    /// The single best class for `query`.
    pub fn predict(&self, query: &AccumHv) -> Result<ClassHit, LearnError> {
        Ok(self.classify(query, 1)?.hits[0])
    }
}

/// Thread-safe owner of a staging [`PrototypeModel`].
///
/// Writers (`Train` / `Retrain` ops) lock the staging model; readers
/// never touch it — they classify against the last published
/// [`PrototypeSnapshot`], which the registry swaps atomically.
#[derive(Debug)]
pub struct Learner {
    model: Mutex<PrototypeModel>,
}

impl Learner {
    /// A learner over an empty model.
    pub fn new(config: LearnConfig) -> Result<Self, LearnError> {
        Ok(Self::from_model(PrototypeModel::new(config)?))
    }

    /// Wraps an existing staging model (artifact loading).
    pub fn from_model(model: PrototypeModel) -> Self {
        Self {
            model: Mutex::new(model),
        }
    }

    /// Bundles one labelled example; see [`PrototypeModel::observe`].
    pub fn observe(
        &self,
        class: usize,
        sample: u64,
        example: &AccumHv,
        retain: bool,
    ) -> Result<TrainAck, LearnError> {
        self.model.lock().observe(class, sample, example, retain)
    }

    /// Runs up to `epochs` retraining passes; see
    /// [`PrototypeModel::retrain`].
    pub fn retrain(&self, epochs: u32) -> RetrainReport {
        self.model.lock().retrain(epochs)
    }

    /// Snapshots the current prototypes; see
    /// [`PrototypeModel::snapshot`].
    pub fn snapshot(&self) -> Result<PrototypeSnapshot, LearnError> {
        self.model.lock().snapshot()
    }

    /// Runs `f` with the staging model locked — one lock acquisition
    /// for a whole batch of observations, or for artifact export.
    pub fn with_model<R>(&self, f: impl FnOnce(&mut PrototypeModel) -> R) -> R {
        f(&mut self.model.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng_from_seed;
    use rand::Rng;

    fn random_example(dim: usize, rng: &mut impl Rng) -> AccumHv {
        AccumHv::from_components(
            (0..dim)
                .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
                .collect(),
        )
    }

    /// A noisy example of `class`: the class's base pattern with a few
    /// components flipped.
    fn class_example(base: &[AccumHv], class: usize, noise: usize, rng: &mut impl Rng) -> AccumHv {
        let mut comps: Vec<i32> = (0..base[class].dim())
            .map(|i| base[class].component(i))
            .collect();
        for _ in 0..noise {
            let i = rng.gen_range(0..comps.len());
            comps[i] = -comps[i];
        }
        AccumHv::from_components(comps)
    }

    fn base_patterns(classes: usize, dim: usize, seed: u64) -> Vec<AccumHv> {
        let mut rng = rng_from_seed(seed);
        (0..classes)
            .map(|_| random_example(dim, &mut rng))
            .collect()
    }

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(matches!(
            PrototypeModel::new(LearnConfig::new(0, 64)),
            Err(LearnError::InvalidConfig(_))
        ));
        assert!(matches!(
            PrototypeModel::new(LearnConfig::new(3, 0)),
            Err(LearnError::InvalidConfig(_))
        ));
        assert!(PrototypeModel::new(LearnConfig::new(1, 1)).is_ok());
    }

    #[test]
    fn observe_validates_class_and_dim() {
        let mut model = PrototypeModel::new(LearnConfig::new(2, 16)).expect("valid");
        let mut rng = rng_from_seed(1);
        let example = random_example(16, &mut rng);
        let wrong_dim = random_example(8, &mut rng);
        assert_eq!(
            model.observe(2, 0, &example, false),
            Err(LearnError::UnknownClass {
                class: 2,
                classes: 2
            })
        );
        assert_eq!(
            model.observe(0, 0, &wrong_dim, false),
            Err(LearnError::DimMismatch {
                expected: 16,
                found: 8
            })
        );
        let ack = model.observe(0, 0, &example, true).expect("valid");
        assert_eq!(ack.class, 0);
        assert_eq!(ack.examples, 1);
        assert_eq!(ack.retained, 1);
        assert_eq!(ack.epoch, 0);
    }

    #[test]
    fn training_learns_separable_classes() {
        let (classes, dim) = (4, 256);
        let base = base_patterns(classes, dim, 11);
        let mut model = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut rng = rng_from_seed(12);
        let mut sample = 0u64;
        for _ in 0..16 {
            for class in 0..classes {
                let example = class_example(&base, class, dim / 16, &mut rng);
                model.observe(class, sample, &example, true).expect("valid");
                sample += 1;
            }
        }
        let snapshot = model.snapshot().expect("snapshot");
        let mut correct = 0;
        for class in 0..classes {
            for _ in 0..8 {
                let query = class_example(&base, class, dim / 16, &mut rng);
                if snapshot.predict(&query).expect("predicts").class == class {
                    correct += 1;
                }
            }
        }
        assert!(correct >= 28, "only {correct}/32 correct");
    }

    #[test]
    fn retraining_reduces_errors_and_stops_early() {
        // Heavily overlapping classes so plain bundling actually makes
        // errors retraining can fix.
        let (classes, dim) = (3, 128);
        let base = base_patterns(classes, dim, 21);
        let mut model = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut rng = rng_from_seed(22);
        let mut sample = 0u64;
        for _ in 0..24 {
            for class in 0..classes {
                let example = class_example(&base, class, dim / 3, &mut rng);
                model.observe(class, sample, &example, true).expect("valid");
                sample += 1;
            }
        }
        let report = model.retrain(50);
        assert_eq!(report.epochs_requested, 50);
        assert_eq!(report.epochs_run as usize, report.errors_per_epoch.len());
        assert_eq!(report.retained, 72);
        assert_eq!(report.epoch, model.epoch());
        if report.epochs_run < 50 {
            assert_eq!(*report.errors_per_epoch.last().expect("ran"), 0);
        }
        let first = report.errors_per_epoch[0];
        let last = *report.errors_per_epoch.last().expect("ran");
        assert!(last <= first, "errors grew: {first} → {last}");
    }

    #[test]
    fn observe_order_is_unobservable() {
        let (classes, dim) = (3, 64);
        let base = base_patterns(classes, dim, 31);
        let mut rng = rng_from_seed(32);
        let examples: Vec<(usize, u64, AccumHv)> = (0..30)
            .map(|i| {
                let class = i % classes;
                (class, i as u64, class_example(&base, class, 4, &mut rng))
            })
            .collect();
        let mut forward = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut backward = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        for (class, sample, example) in &examples {
            forward
                .observe(*class, *sample, example, true)
                .expect("valid");
        }
        for (class, sample, example) in examples.iter().rev() {
            backward
                .observe(*class, *sample, example, true)
                .expect("valid");
        }
        assert_eq!(forward, backward);
        forward.retrain(5);
        backward.retrain(5);
        assert_eq!(forward, backward);
    }

    #[test]
    fn replay_capacity_keeps_smallest_sample_ids() {
        let mut config = LearnConfig::new(1, 8);
        config.max_retained = 4;
        let mut rng = rng_from_seed(41);
        // Insert ids high-to-low: every insert over capacity must evict
        // the largest retained id, ending with the 4 smallest.
        let mut model = PrototypeModel::new(config).expect("valid");
        for sample in (0..8u64).rev() {
            let example = random_example(8, &mut rng);
            model.observe(0, sample, &example, true).expect("valid");
        }
        assert_eq!(model.retained(), 4);
        let retained: Vec<u64> = model.replay.keys().copied().collect();
        assert_eq!(retained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replay_buffer_matches_insert_then_evict() {
        // Ids in mixed order with repeats: after every observe the buffer
        // holds what inserting each example (overwriting a repeated id)
        // and then evicting the largest ids down to capacity leaves.
        for capacity in [0usize, 4] {
            let mut config = LearnConfig::new(1, 8);
            config.max_retained = capacity;
            let mut model = PrototypeModel::new(config).expect("valid");
            let mut reference: BTreeMap<u64, AccumHv> = BTreeMap::new();
            let mut rng = rng_from_seed(42);
            for sample in [0u64, 5, 1, 7, 2, 3, 6, 4, 1, 9, 2, 0, 3] {
                let example = random_example(8, &mut rng);
                let ack = model.observe(0, sample, &example, true).expect("valid");
                reference.insert(sample, example);
                while reference.len() > capacity {
                    reference.pop_last();
                }
                assert_eq!(ack.retained, reference.len() as u64);
                let mut scratch = AccumHv::zeros(8);
                let held: Vec<(u64, AccumHv)> = model
                    .replay
                    .iter()
                    .map(|(&id, (_, retained))| (id, retained.view(&mut scratch).clone()))
                    .collect();
                let expected: Vec<(u64, AccumHv)> = reference
                    .iter()
                    .map(|(&id, example)| (id, example.clone()))
                    .collect();
                assert_eq!(held, expected, "capacity {capacity}, after id {sample}");
            }
        }
    }

    #[test]
    fn duplicate_sample_ids_overwrite() {
        let mut model = PrototypeModel::new(LearnConfig::new(2, 8)).expect("valid");
        let mut rng = rng_from_seed(51);
        let first = random_example(8, &mut rng);
        let second = random_example(8, &mut rng);
        model.observe(0, 7, &first, true).expect("valid");
        model.observe(1, 7, &second, true).expect("valid");
        assert_eq!(model.retained(), 1);
        let (label, example) = model.replay.get(&7).expect("retained");
        assert_eq!(*label, 1);
        assert_eq!(example.view(&mut AccumHv::zeros(8)), &second);
    }

    #[test]
    fn snapshot_is_immutable_under_further_training() {
        let (classes, dim) = (2, 32);
        let base = base_patterns(classes, dim, 61);
        let mut model = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut rng = rng_from_seed(62);
        for sample in 0..10u64 {
            let class = (sample % 2) as usize;
            let example = class_example(&base, class, 2, &mut rng);
            model.observe(class, sample, &example, true).expect("valid");
        }
        let snapshot = model.snapshot().expect("snapshot");
        let query = class_example(&base, 0, 2, &mut rng);
        let before = snapshot.classify(&query, classes).expect("classifies");
        for sample in 10..40u64 {
            let example = random_example(dim, &mut rng);
            model.observe(1, sample, &example, true).expect("valid");
        }
        model.retrain(3);
        let after = snapshot.classify(&query, classes).expect("classifies");
        assert_eq!(before, after);
    }

    #[test]
    fn classify_validates_dim_and_clamps_k() {
        let model = PrototypeModel::new(LearnConfig::new(3, 16)).expect("valid");
        let snapshot = model.snapshot().expect("snapshot");
        let mut rng = rng_from_seed(71);
        let query = random_example(8, &mut rng);
        assert_eq!(
            snapshot.classify(&query, 1),
            Err(LearnError::DimMismatch {
                expected: 16,
                found: 8
            })
        );
        let query = random_example(16, &mut rng);
        assert_eq!(
            snapshot.classify(&query, 0).expect("classifies").hits.len(),
            1
        );
        assert_eq!(
            snapshot
                .classify(&query, 99)
                .expect("classifies")
                .hits
                .len(),
            3
        );
    }

    #[test]
    fn ties_resolve_to_lowest_class_index() {
        // Two identical (all-zero → all +1 after sign) prototypes tie on
        // every query; the winner must be class 0.
        let model = PrototypeModel::new(LearnConfig::new(2, 16)).expect("valid");
        let snapshot = model.snapshot().expect("snapshot");
        let mut rng = rng_from_seed(81);
        let query = random_example(16, &mut rng);
        assert_eq!(snapshot.predict(&query).expect("predicts").class, 0);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (classes, dim) = (3, 32);
        let base = base_patterns(classes, dim, 91);
        let mut model = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut rng = rng_from_seed(92);
        for sample in 0..12u64 {
            let class = (sample % 3) as usize;
            let example = class_example(&base, class, 3, &mut rng);
            model
                .observe(class, sample, &example, false)
                .expect("valid");
        }
        let rebuilt = PrototypeModel::from_parts(
            *model.config(),
            model.accumulators().to_vec(),
            model.counts().to_vec(),
            model.epoch(),
        )
        .expect("valid parts");
        assert_eq!(rebuilt.accumulators(), model.accumulators());
        assert_eq!(rebuilt.counts(), model.counts());
        assert_eq!(rebuilt.retained(), 0);

        assert!(matches!(
            PrototypeModel::from_parts(
                *model.config(),
                model.accumulators()[..2].to_vec(),
                model.counts().to_vec(),
                0
            ),
            Err(LearnError::InvalidConfig(_))
        ));
        assert!(matches!(
            PrototypeModel::from_parts(
                *model.config(),
                vec![AccumHv::zeros(16), AccumHv::zeros(16), AccumHv::zeros(16)],
                model.counts().to_vec(),
                0
            ),
            Err(LearnError::DimMismatch { .. })
        ));
    }

    /// A model with `classes` prototypes trained on random examples under
    /// cycling labels (so retraining has errors to correct), with every
    /// fourth example scaled ×2 so the replay buffer mixes packed and
    /// unpacked entries.
    fn mixed_model(classes: usize, dim: usize, seed: u64) -> (PrototypeModel, Vec<AccumHv>) {
        let mut model = PrototypeModel::new(LearnConfig::new(classes, dim)).expect("valid");
        let mut rng = rng_from_seed(seed);
        let mut examples = Vec::new();
        for sample in 0..96u64 {
            let mut example = random_example(dim, &mut rng);
            if sample % 4 == 3 {
                example.scale(2);
            }
            let class = sample as usize % classes;
            model.observe(class, sample, &example, true).expect("valid");
            examples.push(example);
        }
        (model, examples)
    }

    #[test]
    fn classify_matches_scalar_reference_for_every_query_kind() {
        let (classes, dim) = (5, 130);
        let (mut model, _) = mixed_model(classes, dim, 111);
        model.retrain(2);
        let snapshot = model.snapshot().expect("snapshot");
        let mut rng = rng_from_seed(112);
        for _ in 0..20 {
            let bipolar = random_example(dim, &mut rng);
            let ternary = AccumHv::from_components(
                (0..dim).map(|_| rng.gen_range(0..3) as i32 - 1).collect(),
            );
            let mut wide = random_example(dim, &mut rng);
            wide.add_accum(&ternary);
            assert!(PackedHv::from_accum_lossless(&wide).is_none());
            for query in [&bipolar, &ternary, &wide] {
                for k in [1, 3, classes] {
                    let got = snapshot.classify(query, k).expect("classifies");
                    let expected = snapshot.prototypes().top_k(query, k);
                    assert_eq!(got.hits.len(), expected.len());
                    for (hit, reference) in got.hits.iter().zip(&expected) {
                        assert_eq!(hit.class, reference.index);
                        assert_eq!(hit.sim.to_bits(), reference.sim.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn retrain_over_mixed_buffer_matches_unpacked_buffer() {
        let (mut mixed, examples) = mixed_model(3, 100, 121);
        let kinds: Vec<bool> = mixed
            .replay
            .values()
            .map(|(_, r)| matches!(r, Retained::Packed(_)))
            .collect();
        assert!(
            kinds.contains(&true) && kinds.contains(&false),
            "buffer is mixed"
        );
        let mut unpacked = mixed.clone();
        for (sample, (_, retained)) in unpacked.replay.iter_mut() {
            *retained = Retained::Accum(examples[*sample as usize].clone());
        }
        let (a, b) = (mixed.retrain(6), unpacked.retrain(6));
        assert!(
            a.errors_per_epoch[0] > 0,
            "retraining has work to do: {a:?}"
        );
        assert_eq!(a, b);
        assert_eq!(mixed.accumulators(), unpacked.accumulators());
    }

    #[test]
    fn learner_wraps_model_thread_safely() {
        use std::sync::Arc;
        let learner = Arc::new(Learner::new(LearnConfig::new(2, 64)).expect("valid"));
        let base = base_patterns(2, 64, 101);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let learner = Arc::clone(&learner);
            let base = base.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = rng_from_seed(200 + t);
                for i in 0..25u64 {
                    let class = ((t + i) % 2) as usize;
                    let example = class_example(&base, class, 4, &mut rng);
                    learner
                        .observe(class, t * 25 + i, &example, true)
                        .expect("valid");
                }
            }));
        }
        for handle in handles {
            handle.join().expect("no panic");
        }
        let snapshot = learner.snapshot().expect("snapshot");
        assert_eq!(snapshot.counts().iter().sum::<u64>(), 100);
        assert_eq!(learner.with_model(|m| m.retained()), 100);
    }
}

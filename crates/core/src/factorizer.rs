//! The FactorHD factorization algorithm (§III-B, Algorithm 1).
//!
//! Factorization works by *label elimination*: binding the scene hypervector
//! with `LABEL_j` for every unselected class `j` collapses those clauses to
//! near-constant masks, leaving a vector still correlated with the selected
//! class's bundled items (Eq. 1 of the paper). From there:
//!
//! * **Rep 1 / Rep 2** (single object): pick the arg-max item per class,
//!   then descend level by level, searching only the children codebook of
//!   each chosen item — `O(Σ M_ℓ)` similarity checks per class instead of
//!   the `M^F` combination scans class–class models need.
//! * **Rep 3** (multiple objects, count unknown): keep every item whose
//!   similarity clears a threshold `TH`, bind candidate items across
//!   classes (one per class), accept combinations whose product similarity
//!   to the scene clears `TH`, reconstruct each accepted object's full
//!   hypervector, subtract it, and loop until nothing clears `TH`. The
//!   subtraction step resolves both the "superposition catastrophe" and
//!   "the problem of 2".

use crate::{Encoder, FactorHdError, ItemPath, ObjectSpec, Scene, Taxonomy, ThresholdPolicy};
use hdc::stage::{Stage, StageTimer};
use hdc::{AccumHv, AsPackedQuery, Bind, BipolarHv, Codebook, CodebookScan, Similarity, TernaryHv};
use std::sync::Arc;

/// Builds the per-class label-elimination masks
/// `unbind_keys[i] = ⊙_{j≠i} LABEL_j`.
///
/// The masks depend only on the taxonomy, so callers that serve many
/// requests against one taxonomy (e.g. `factorhd-engine`) build them once
/// and hand them to every [`Factorizer::with_parts`] instead of paying the
/// `O(C·D)` rebuild per request.
pub fn build_unbind_keys(taxonomy: &Taxonomy) -> Vec<BipolarHv> {
    let f = taxonomy.num_classes();
    let mut all = BipolarHv::ones(taxonomy.dim());
    for i in 0..f {
        all.bind_assign(taxonomy.label(i));
    }
    (0..f)
        .map(|i| {
            // ⊙_{j≠i} L_j = (⊙_j L_j) ⊙ L_i  (labels are self-inverse).
            all.bind(taxonomy.label(i))
        })
        .collect()
}

/// A pluggable memo for the Rep-3 reconstruct-and-exclude step.
///
/// `factorize_multi` re-encodes each candidate object to score and then
/// subtract it; the encoding depends only on `(taxonomy, object)`, so a
/// serving layer can memoize it across requests. Implementations must
/// return exactly what [`Encoder::encode_object`] would (the factorizer's
/// outputs stay bit-identical with or without a cache). The `Arc` return
/// lets cache hits stay allocation-free.
pub trait ReconstructionCache: Send + Sync {
    /// Returns the clause-product hypervector of `object`, encoding it on
    /// a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates [`Encoder::encode_object`] errors.
    fn get_or_encode(
        &self,
        encoder: &Encoder<'_>,
        object: &ObjectSpec,
    ) -> Result<Arc<TernaryHv>, FactorHdError>;
}

/// Tuning knobs for [`Factorizer`].
///
/// The defaults factorize the paper's Rep-1..Rep-3 settings; construct with
/// struct-update syntax for overrides:
///
/// ```
/// use factorhd_core::{FactorizeConfig, ThresholdPolicy};
/// let config = FactorizeConfig {
///     threshold: ThresholdPolicy::Fixed(0.06),
///     max_objects: 4,
///     ..FactorizeConfig::default()
/// };
/// assert_eq!(config.max_objects, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorizeConfig {
    /// Threshold-similarity policy for multi-object factorization.
    pub threshold: ThresholdPolicy,
    /// Upper bound on objects extracted from one scene (cycle guard).
    pub max_objects: usize,
    /// Beam width for the level-descent over accepted combinations.
    pub beam_width: usize,
    /// Cap on candidate combinations tested per level (guards pathological
    /// threshold settings; exceeding it sets
    /// [`FactorizeStats::truncated_combinations`]).
    pub max_combinations: usize,
    /// Whether to test the global NULL vector as an "absent class"
    /// candidate.
    pub detect_null: bool,
    /// Factorize only this many subclass levels (`None` = all levels).
    pub max_depth: Option<usize>,
    /// Single-object hierarchy refinement width: the top-`refine_width`
    /// level candidates are kept and re-scored with their children's
    /// evidence (cumulative similarity). `1` reproduces the plain greedy
    /// arg-max descent; the default of 4 combines evidence across levels,
    /// which roughly halves the dimension needed for a given Rep-2
    /// accuracy at a cost of `refine_width × M_child` extra similarity
    /// checks per level.
    pub refine_width: usize,
    /// Final acceptance bar for multi-object extraction: a candidate
    /// object is emitted only if its **full clause reconstruction**
    /// explains at least this fraction of one object's expected
    /// self-similarity in the residual. The reconstruction signal is `ρ`
    /// (the clause-density product) for a true object versus at most
    /// `ρ/2` when any single item is wrong, so the default of `0.75`
    /// sits in the middle of a ~16σ margin at the paper's dimensions.
    pub accept_threshold: f64,
}

impl Default for FactorizeConfig {
    fn default() -> Self {
        FactorizeConfig {
            threshold: ThresholdPolicy::default(),
            max_objects: 16,
            beam_width: 8,
            max_combinations: 4096,
            detect_null: true,
            max_depth: None,
            refine_width: 4,
            accept_threshold: 0.75,
        }
    }
}

/// Operation counters collected during factorization; the efficiency
/// comparisons of Fig. 4 report these alongside wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorizeStats {
    /// Candidate similarities evaluated, scanned or updated. Every Rep-3
    /// iteration counts each level-1 item of every class, whether its dot
    /// came from a scan or from the incremental dot table.
    pub similarity_checks: u64,
    /// Candidate combinations bound and tested against the scene.
    pub combination_tests: u64,
    /// Label-unbinding operations on the scene vector.
    pub unbind_ops: u64,
    /// Objects extracted (multi-object factorization only).
    pub objects_found: usize,
    /// Set when the per-level combination cap was hit.
    pub truncated_combinations: bool,
}

/// The factorization of one class: the recovered path (or `None` for an
/// absent class) and the similarity that selected it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecode {
    /// The class index.
    pub class: usize,
    /// Recovered subclass path, `None` when the NULL vector won.
    pub path: Option<ItemPath>,
    /// The winning similarity at the deepest decoded level.
    pub sim: f64,
}

/// A fully factorized object plus its acceptance confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedObject {
    object: ObjectSpec,
    confidence: f64,
}

impl DecodedObject {
    /// The recovered object.
    pub fn object(&self) -> &ObjectSpec {
        &self.object
    }

    /// Consumes the decode, returning the recovered object.
    pub fn into_object(self) -> ObjectSpec {
        self.object
    }

    /// The similarity that accepted this object (combination similarity for
    /// Rep 3, minimum per-class winning similarity for Rep 1/2).
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Reassembles a decode from its parts. Factorization is the only
    /// producer of decodes inside this crate; this constructor exists
    /// for transport layers (e.g. the network protocol) that serialize
    /// a decode on one side and must rebuild the identical value on the
    /// other.
    pub fn from_parts(object: ObjectSpec, confidence: f64) -> Self {
        DecodedObject { object, confidence }
    }
}

/// The result of multi-object factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedScene {
    /// Objects in extraction order (strongest first).
    pub objects: Vec<DecodedObject>,
    /// Operation counters.
    pub stats: FactorizeStats,
    /// Euclidean norm of the residual after all subtractions (≈ 0 when the
    /// scene was fully explained).
    pub residual_norm: f64,
}

impl DecodedScene {
    /// The recovered objects as a [`Scene`].
    pub fn to_scene(&self) -> Scene {
        self.objects.iter().map(|d| d.object.clone()).collect()
    }
}

/// Per-class candidate during Rep-3 combination search.
#[derive(Debug, Clone)]
struct Candidate {
    /// `None` = the NULL vector (class absent).
    path: Option<ItemPath>,
    /// The candidate's current deepest item vector (NULL for absent).
    item: BipolarHv,
    sim: f64,
    /// Whether this candidate can still descend further levels.
    exhausted: bool,
}

/// One beam entry: a partial object (per-class candidates) and its latest
/// combination similarity.
#[derive(Debug, Clone)]
struct Combo {
    slots: Vec<Candidate>,
    sim: f64,
}

/// The level-1 dot table of one [`Factorizer::factorize_multi`] call:
/// row `c` holds the exact integer dots between `residual ⊙ unbind_keys[c]`
/// and every item of class `c`'s top-level codebook, in item order.
///
/// Binding and bundling are linear, so excluding a reconstruction `x`
/// from the residual moves each dot by `−dot(x ⊙ unbind_keys[c], item)`.
/// One full scan fills the table on the first iteration; every later
/// iteration pays one packed *ternary* dot per item instead of a scalar
/// accumulator scan. The arithmetic is integer, so each selection is
/// bit-identical to a rescan of the current residual.
#[derive(Default)]
struct LevelOneDots {
    /// Class `c`'s top-level codebook, fetched once at the fill.
    tops: Vec<Arc<Codebook>>,
    /// One row of dots per class; empty until the fill.
    rows: Vec<Vec<i64>>,
    /// Scratch for the exclusion dots, reused across classes and
    /// iterations.
    delta: Vec<i64>,
}

/// Exact integer dots of a level-1 query against every item of a
/// codebook, on the route the query's scan takes.
trait LevelOneFill {
    fn dots_into(&self, codebook: &Codebook, out: &mut Vec<i64>);
}

impl LevelOneFill for TernaryHv {
    /// The packed popcount scan.
    fn dots_into(&self, codebook: &Codebook, out: &mut Vec<i64>) {
        codebook.packed_view().dots_into(self.packed_query(), out);
    }
}

impl LevelOneFill for AccumHv {
    /// The scalar accumulator dot (a general bundle has no packed form).
    fn dots_into(&self, codebook: &Codebook, out: &mut Vec<i64>) {
        out.clear();
        out.extend(codebook.iter().map(|item| self.dot_bipolar(item)));
    }
}

/// Every item of `row` whose similarity `dot / dim` strictly exceeds
/// `th`, by descending similarity with ties by ascending index — the
/// hits (similarity bits included) of
/// [`CodebookScan::scan_above_threshold_into`] on the same dots.
fn select_above(row: &[i64], dim: usize, th: f64, out: &mut Vec<hdc::SearchHit>) {
    out.clear();
    out.extend(row.iter().enumerate().filter_map(|(index, &dot)| {
        let sim = dot as f64 / dim as f64;
        (sim > th).then_some(hdc::SearchHit { index, sim })
    }));
    out.sort_unstable_by(|a, b| b.sim.total_cmp(&a.sim).then(a.index.cmp(&b.index)));
}

/// Factorizes FactorHD scene hypervectors back into objects.
///
/// Borrows the [`Taxonomy`]; cheap to construct (precomputes one label
/// unbind key per class, or reuses keys supplied via
/// [`Factorizer::with_parts`]).
///
/// Every codebook scan — the level-1 arg-max, the hierarchy descent, and
/// the Rep-3 threshold selection — routes through the codebooks' packed
/// shard tables ([`hdc::CodebookScan`]) whenever the query has a lossless
/// word-level form, with results bit-identical to the scalar reference
/// scans. Rep 3 scans each level-1 codebook once per scene and updates
/// those dots by packed ternary dots as objects are excluded.
///
/// ```
/// use factorhd_core::{Encoder, FactorizeConfig, Factorizer, Scene, TaxonomyBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let taxonomy = TaxonomyBuilder::new(2048)
///     .uniform_classes(3, &[8])
///     .build()?;
/// let mut rng = hdc::rng_from_seed(5);
/// let object = taxonomy.sample_object(&mut rng);
/// let hv = Encoder::new(&taxonomy).encode_scene(&Scene::single(object.clone()))?;
///
/// let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
/// let decoded = factorizer.factorize_single(&hv)?;
/// assert_eq!(decoded.object(), &object);
/// # Ok(())
/// # }
/// ```
pub struct Factorizer<'a> {
    taxonomy: &'a Taxonomy,
    encoder: Encoder<'a>,
    config: FactorizeConfig,
    /// `unbind_keys[i] = ⊙_{j≠i} LABEL_j`.
    unbind_keys: Arc<Vec<BipolarHv>>,
    /// Optional memo for Rep-3 object reconstructions.
    reconstruction: Option<Arc<dyn ReconstructionCache>>,
}

impl<'a> Factorizer<'a> {
    /// Creates a factorizer over `taxonomy` with the given configuration,
    /// building the label-elimination masks from scratch.
    pub fn new(taxonomy: &'a Taxonomy, config: FactorizeConfig) -> Self {
        Factorizer::with_parts(
            taxonomy,
            config,
            Arc::new(build_unbind_keys(taxonomy)),
            None,
        )
        .expect("freshly built keys match the taxonomy")
    }

    /// Creates a factorizer from pre-built parts: memoized label-
    /// elimination masks ([`build_unbind_keys`]) and an optional
    /// [`ReconstructionCache`]. This is the cache-injection entry point
    /// serving layers use to amortize per-taxonomy setup across requests.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::InvalidConfig`] when `unbind_keys` does not match
    /// the taxonomy's class count, or
    /// [`FactorHdError::DimensionMismatch`] when a key has the wrong
    /// dimension.
    pub fn with_parts(
        taxonomy: &'a Taxonomy,
        config: FactorizeConfig,
        unbind_keys: Arc<Vec<BipolarHv>>,
        reconstruction: Option<Arc<dyn ReconstructionCache>>,
    ) -> Result<Self, FactorHdError> {
        if unbind_keys.len() != taxonomy.num_classes() {
            return Err(FactorHdError::InvalidConfig(format!(
                "{} unbind keys supplied for {} classes",
                unbind_keys.len(),
                taxonomy.num_classes()
            )));
        }
        if let Some(bad) = unbind_keys.iter().find(|k| k.dim() != taxonomy.dim()) {
            return Err(FactorHdError::DimensionMismatch {
                expected: taxonomy.dim(),
                actual: bad.dim(),
            });
        }
        Ok(Factorizer {
            taxonomy,
            encoder: Encoder::new(taxonomy),
            config,
            unbind_keys,
            reconstruction,
        })
    }

    /// Encodes `object`'s reconstruction, via the injected cache when one
    /// is present.
    fn reconstruct(&self, object: &ObjectSpec) -> Result<Arc<TernaryHv>, FactorHdError> {
        match &self.reconstruction {
            Some(cache) => cache.get_or_encode(&self.encoder, object),
            None => Ok(Arc::new(self.encoder.encode_object(object)?)),
        }
    }

    /// The taxonomy this factorizer decodes against.
    pub fn taxonomy(&self) -> &'a Taxonomy {
        self.taxonomy
    }

    /// The active configuration.
    pub fn config(&self) -> &FactorizeConfig {
        &self.config
    }

    /// The threshold the configured policy resolves to for this taxonomy.
    pub fn resolved_threshold(&self) -> f64 {
        self.config.threshold.resolve(self.taxonomy)
    }

    fn check_dim(&self, dim: usize) -> Result<(), FactorHdError> {
        if dim != self.taxonomy.dim() {
            return Err(FactorHdError::DimensionMismatch {
                expected: self.taxonomy.dim(),
                actual: dim,
            });
        }
        Ok(())
    }

    fn depth_limit(&self, class: usize) -> usize {
        let levels = self.taxonomy.levels(class);
        self.config.max_depth.map_or(levels, |d| d.min(levels))
    }

    // ------------------------------------------------------------------
    // Single-object factorization (Rep 1 / Rep 2)
    // ------------------------------------------------------------------

    /// Factorizes a single-object hypervector: arg-max item per class, then
    /// hierarchical descent through the subclass levels.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query.
    pub fn factorize_single(&self, hv: &AccumHv) -> Result<DecodedObject, FactorHdError> {
        self.factorize_single_traced(hv).map(|(obj, _)| obj)
    }

    /// [`Factorizer::factorize_single`] plus operation counters.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query.
    pub fn factorize_single_traced(
        &self,
        hv: &AccumHv,
    ) -> Result<(DecodedObject, FactorizeStats), FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        let mut stats = FactorizeStats::default();
        let classes: Vec<usize> = (0..self.taxonomy.num_classes()).collect();
        let decodes = self.decode_classes(hv, &classes, &mut stats)?;
        let mut confidence = f64::INFINITY;
        let assignments = decodes
            .into_iter()
            .map(|d| {
                confidence = confidence.min(d.sim);
                d.path
            })
            .collect();
        Ok((
            DecodedObject {
                object: ObjectSpec::new(assignments),
                confidence,
            },
            stats,
        ))
    }

    /// [`Factorizer::factorize_single`] for a whole batch of scenes in one
    /// call, per-query results **bit-identical** to the one-at-a-time
    /// loop.
    ///
    /// When every query has a lossless ternary form (any single-object
    /// scene does), the level-1 codebook scans run grouped through
    /// [`hdc::CodebookScan::scan_top_k_many`]: each codebook's packed
    /// shard table is traversed once per batch instead of once per query,
    /// which is what a serving planner buys by grouping requests of the
    /// same kind. Queries without a lossless form (or any dimension
    /// mismatch in the batch) fall back to the per-query path, still
    /// returning one `Result` per input in input order.
    pub fn factorize_single_many(
        &self,
        hvs: &[&AccumHv],
    ) -> Vec<Result<DecodedObject, FactorHdError>> {
        let mut ternaries = Vec::with_capacity(hvs.len());
        for hv in hvs {
            if hv.dim() != self.taxonomy.dim() {
                return self.factorize_single_fallback(hvs);
            }
            match hv.to_ternary_lossless() {
                Some(t) => ternaries.push(t),
                None => return self.factorize_single_fallback(hvs),
            }
        }
        match self.decode_singles_grouped(&ternaries) {
            Ok(decoded) => decoded.into_iter().map(Ok).collect(),
            // Structurally unreachable for a built taxonomy; fall back so
            // the error lands on the query that caused it.
            Err(_) => self.factorize_single_fallback(hvs),
        }
    }

    /// The per-query reference path of [`Factorizer::factorize_single_many`].
    fn factorize_single_fallback(
        &self,
        hvs: &[&AccumHv],
    ) -> Vec<Result<DecodedObject, FactorHdError>> {
        hvs.iter().map(|hv| self.factorize_single(hv)).collect()
    }

    /// Grouped decode over lossless ternary queries: classes in the outer
    /// loop, so each level-1 codebook is scanned once for the whole batch
    /// ([`hdc::CodebookScan::scan_top_k_many`]); the NULL check and the
    /// per-query beam descent reuse the exact per-query code path.
    fn decode_singles_grouped(
        &self,
        queries: &[TernaryHv],
    ) -> Result<Vec<DecodedObject>, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        let width = self.config.refine_width.max(1);
        let mut stats = FactorizeStats::default();
        let mut per_query: Vec<Vec<ClassDecode>> = queries
            .iter()
            .map(|_| Vec::with_capacity(self.taxonomy.num_classes()))
            .collect();
        for class in 0..self.taxonomy.num_classes() {
            let unbound: Vec<TernaryHv> = queries
                .iter()
                .map(|q| q.bind(&self.unbind_keys[class]))
                .collect();
            let top = self.taxonomy.codebook(class, &[])?;
            let hits_many = TernaryHv::scan_top_k_many(&top, &unbound, width);
            for ((q, hits), decodes) in unbound.iter().zip(&hits_many).zip(&mut per_query) {
                decodes.push(self.decode_class_from_hits(q, class, hits, &mut stats)?);
            }
        }
        Ok(per_query
            .into_iter()
            .map(|decodes| {
                let mut confidence = f64::INFINITY;
                let assignments = decodes
                    .into_iter()
                    .map(|d| {
                        confidence = confidence.min(d.sim);
                        d.path
                    })
                    .collect();
                DecodedObject {
                    object: ObjectSpec::new(assignments),
                    confidence,
                }
            })
            .collect())
    }

    /// Membership probe entry point: "does the scene contain an object
    /// with these `(class, item path)` constraints, with `absent` classes
    /// NULL?" — a [`crate::SceneQuery`] built and evaluated in one call,
    /// so serving layers have a single factorizer-level entry per query
    /// shape.
    ///
    /// # Errors
    ///
    /// The conditions of [`crate::SceneQuery::with_item`] /
    /// [`crate::SceneQuery::with_absent`] / [`crate::SceneQuery::evaluate`].
    pub fn evaluate_membership(
        &self,
        scene: &AccumHv,
        items: &[(usize, ItemPath)],
        absent: &[usize],
    ) -> Result<crate::QueryAnswer, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        let mut query = crate::SceneQuery::new(self.taxonomy);
        for (class, path) in items {
            query = query.with_item(*class, path.clone())?;
        }
        for &class in absent {
            query = query.with_absent(class)?;
        }
        query.evaluate(scene)
    }

    /// **Partial factorization**: decodes only `classes`, skipping all
    /// similarity work for the rest — the capability the paper contrasts
    /// with C-C models' mandatory full factorization.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] or
    /// [`FactorHdError::ClassOutOfBounds`].
    pub fn factorize_classes(
        &self,
        hv: &AccumHv,
        classes: &[usize],
    ) -> Result<Vec<ClassDecode>, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        for &c in classes {
            if c >= self.taxonomy.num_classes() {
                return Err(FactorHdError::ClassOutOfBounds {
                    index: c,
                    len: self.taxonomy.num_classes(),
                });
            }
        }
        let mut stats = FactorizeStats::default();
        self.decode_classes(hv, classes, &mut stats)
    }

    /// Per-class decode: top-`refine_width` candidates at each level,
    /// re-scored by cumulative similarity down the hierarchy (a width-1
    /// beam is the paper's plain greedy arg-max descent; wider beams
    /// combine evidence across levels).
    ///
    /// When every component of `hv` lies in `{-1, 0, 1}` (any
    /// single-object scene), the query is routed through its lossless
    /// ternary view so every codebook scan runs on the packed shard
    /// tables ([`hdc::CodebookScan`]) — bit-identical results, an order
    /// of magnitude fewer scalar operations. Scan hits land in buffers
    /// reused across classes and levels
    /// ([`hdc::CodebookScan::scan_top_k_into`]), so a warm decode's scans
    /// allocate nothing.
    fn decode_classes(
        &self,
        hv: &AccumHv,
        classes: &[usize],
        stats: &mut FactorizeStats,
    ) -> Result<Vec<ClassDecode>, FactorHdError> {
        match hv.to_ternary_lossless() {
            Some(ternary) => self.decode_classes_in(&ternary, classes, stats),
            None => self.decode_classes_in(hv, classes, stats),
        }
    }

    fn decode_classes_in<Q>(
        &self,
        hv: &Q,
        classes: &[usize],
        stats: &mut FactorizeStats,
    ) -> Result<Vec<ClassDecode>, FactorHdError>
    where
        Q: CodebookScan + Bind<BipolarHv, Output = Q>,
    {
        let width = self.config.refine_width.max(1);
        let mut result = Vec::with_capacity(classes.len());
        let mut top_hits: Vec<hdc::SearchHit> = Vec::new();
        for &class in classes {
            let unbound = hv.bind(&self.unbind_keys[class]);
            stats.unbind_ops += 1;

            let top = self.taxonomy.codebook(class, &[])?;
            unbound.scan_top_k_into(&top, width, &mut top_hits);
            stats.similarity_checks += top.len() as u64;
            result.push(self.decode_class_from_hits(&unbound, class, &top_hits, stats)?);
        }
        Ok(result)
    }

    /// The per-class decode tail shared by the one-at-a-time and grouped
    /// paths: NULL detection against the level-1 winners, then the beam
    /// descent through the subclass levels. `top_hits` are the query's
    /// level-1 scan results for `class` (already counted in `stats`).
    fn decode_class_from_hits<Q>(
        &self,
        unbound: &Q,
        class: usize,
        top_hits: &[hdc::SearchHit],
        stats: &mut FactorizeStats,
    ) -> Result<ClassDecode, FactorHdError>
    where
        Q: CodebookScan,
    {
        let width = self.config.refine_width.max(1);
        let best_sim = top_hits.first().expect("non-empty codebook").sim;

        if self.config.detect_null {
            let null_sim = unbound.sim_to(self.taxonomy.null_hv());
            stats.similarity_checks += 1;
            if null_sim > best_sim {
                return Ok(ClassDecode {
                    class,
                    path: None,
                    sim: null_sim,
                });
            }
        }

        // Beam over (path, cumulative sim, levels visited). The subclass
        // scans reuse one hits buffer across levels and beam nodes
        // (zero-allocation scans once the thread's scratch is warm).
        let mut beam: Vec<(ItemPath, f64)> = top_hits
            .iter()
            .map(|hit| (ItemPath::top(hit.index as u16), hit.sim))
            .collect();
        let mut child_hits: Vec<hdc::SearchHit> = Vec::new();
        for _level in 1..self.depth_limit(class) {
            let mut next: Vec<(ItemPath, f64)> = Vec::new();
            for (path, cum) in &beam {
                let children = self.taxonomy.codebook(class, path.indices())?;
                unbound.scan_top_k_into(&children, width, &mut child_hits);
                stats.similarity_checks += children.len() as u64;
                for hit in &child_hits {
                    next.push((path.child(hit.index as u16), cum + hit.sim));
                }
            }
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            next.truncate(width);
            beam = next;
        }
        let (path, cum) = beam.into_iter().next().expect("non-empty codebooks");
        let depth = path.depth() as f64;
        Ok(ClassDecode {
            class,
            sim: cum / depth,
            path: Some(path),
        })
    }

    // ------------------------------------------------------------------
    // Multi-object factorization (Rep 3)
    // ------------------------------------------------------------------

    /// Factorizes a scene with an unknown number of objects: threshold
    /// candidate selection, combination testing, level descent, and the
    /// reconstruct-and-exclude loop of Algorithm 1.
    ///
    /// # Errors
    ///
    /// [`FactorHdError::DimensionMismatch`] on a wrong-size query. An empty
    /// result (no object cleared `TH`) is returned as a [`DecodedScene`]
    /// with no objects, not as an error.
    pub fn factorize_multi(&self, hv: &AccumHv) -> Result<DecodedScene, FactorHdError> {
        let _span = StageTimer::enter(Stage::Rerank);
        self.check_dim(hv.dim())?;
        let th = self.resolved_threshold();
        let mut stats = FactorizeStats::default();
        let mut residual = hv.clone();
        let mut dots = LevelOneDots::default();
        let mut objects = Vec::new();

        while objects.len() < self.config.max_objects {
            match self.extract_object(&mut residual, &mut dots, th, &mut stats)? {
                None => break,
                Some(decoded) => objects.push(decoded),
            }
        }

        Ok(DecodedScene {
            objects,
            stats,
            residual_norm: residual.norm(),
        })
    }

    /// One iteration of the Algorithm-1 loop: find the strongest object in
    /// `residual` and exclude its reconstruction from both `residual` and
    /// the level-1 dot table, or return `None` when nothing clears `th`.
    fn extract_object(
        &self,
        residual: &mut AccumHv,
        dots: &mut LevelOneDots,
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Result<Option<DecodedObject>, FactorHdError> {
        let Some(decoded) = self.find_one_object(residual, dots, th, stats)? else {
            return Ok(None);
        };
        let reconstruction = self.reconstruct(&decoded.object)?;
        residual.sub_ternary(&reconstruction);
        self.exclude_from_level_one(dots, &reconstruction);
        stats.objects_found += 1;
        Ok(Some(decoded))
    }

    /// Finds the strongest object in `residual`, or `None` when nothing
    /// clears `th`. `dots` must hold the level-1 dots of `residual`, or be
    /// empty, in which case this fills it.
    ///
    /// Routed through the lossless ternary view when the residual's
    /// components fit `{-1, 0, 1}` (single-object scenes and late
    /// reconstruct-and-exclude iterations) — see
    /// [`AccumHv::to_ternary_lossless`].
    fn find_one_object(
        &self,
        residual: &AccumHv,
        dots: &mut LevelOneDots,
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Result<Option<DecodedObject>, FactorHdError> {
        match residual.to_ternary_lossless() {
            Some(ternary) => self.find_one_object_in(&ternary, residual, dots, th, stats),
            None => self.find_one_object_in(residual, residual, dots, th, stats),
        }
    }

    /// Fills `dots` with one full scan per class of the unbound residuals,
    /// on the route each query's scan takes.
    fn fill_level_one<Q: LevelOneFill>(
        &self,
        unbound: &[Q],
        dots: &mut LevelOneDots,
    ) -> Result<(), FactorHdError> {
        let _span = StageTimer::enter(Stage::Scan);
        for (class, query) in unbound.iter().enumerate() {
            let top = self.taxonomy.codebook(class, &[])?;
            let mut row = Vec::with_capacity(top.len());
            query.dots_into(&top, &mut row);
            dots.tops.push(top);
            dots.rows.push(row);
        }
        Ok(())
    }

    /// Moves `dots` from a residual `r` to `r − reconstruction`: row `c`
    /// loses the packed ternary dots of `reconstruction ⊙ unbind_keys[c]`.
    fn exclude_from_level_one(&self, dots: &mut LevelOneDots, reconstruction: &TernaryHv) {
        let _span = StageTimer::enter(Stage::Scan);
        let LevelOneDots { tops, rows, delta } = dots;
        for ((top, row), key) in tops.iter().zip(rows).zip(self.unbind_keys.iter()) {
            let excluded = reconstruction.bind(key);
            top.packed_view().dots_into(excluded.packed_query(), delta);
            for (dot, d) in row.iter_mut().zip(delta.iter()) {
                *dot -= d;
            }
        }
    }

    fn find_one_object_in<Q>(
        &self,
        query: &Q,
        residual: &AccumHv,
        dots: &mut LevelOneDots,
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Result<Option<DecodedObject>, FactorHdError>
    where
        Q: CodebookScan + Bind<BipolarHv, Output = Q> + LevelOneFill,
    {
        let f = self.taxonomy.num_classes();

        // Per-class label elimination (computed once per loop iteration).
        let unbound: Vec<Q> = (0..f)
            .map(|i| {
                stats.unbind_ops += 1;
                query.bind(&self.unbind_keys[i])
            })
            .collect();

        // Level-1 candidate selection per class, read from the dot table
        // (filled by one scan on the first iteration, then updated by
        // each exclusion). Hits land in one buffer reused across classes.
        if dots.rows.is_empty() {
            self.fill_level_one(&unbound, dots)?;
        }
        let mut per_class: Vec<Vec<Candidate>> = Vec::with_capacity(f);
        let mut hits: Vec<hdc::SearchHit> = Vec::new();
        for (class, unbound_class) in unbound.iter().enumerate() {
            let top = &dots.tops[class];
            select_above(&dots.rows[class], self.taxonomy.dim(), th, &mut hits);
            stats.similarity_checks += top.len() as u64;
            let mut cands: Vec<Candidate> = hits
                .iter()
                .map(|hit| Candidate {
                    path: Some(ItemPath::top(hit.index as u16)),
                    item: top.item(hit.index).clone(),
                    sim: hit.sim,
                    exhausted: self.depth_limit(class) <= 1,
                })
                .collect();
            if self.config.detect_null {
                let null_sim = unbound_class.sim_to(self.taxonomy.null_hv());
                stats.similarity_checks += 1;
                if null_sim > th {
                    cands.push(Candidate {
                        path: None,
                        item: self.taxonomy.null_hv().clone(),
                        sim: null_sim,
                        exhausted: true,
                    });
                }
            }
            if cands.is_empty() {
                return Ok(None);
            }
            cands.sort_by(|a, b| b.sim.total_cmp(&a.sim));
            per_class.push(cands);
        }

        // Level-1 combination tests.
        let mut beam = self.test_combinations(query, &per_class, th, stats);
        if beam.is_empty() {
            return Ok(None);
        }
        beam.truncate(self.config.beam_width);

        // Level descent: refine every non-exhausted class of every beam
        // entry, re-testing combinations at each level.
        let max_depth = (0..f).map(|c| self.depth_limit(c)).max().unwrap_or(1);
        for level in 1..max_depth {
            let mut next_beam: Vec<Combo> = Vec::new();
            for combo in &beam {
                let refined = self.descend_combo(query, &unbound, combo, level, th, stats)?;
                next_beam.extend(refined);
            }
            if next_beam.is_empty() {
                return Ok(None);
            }
            next_beam.sort_by(|a, b| b.sim.total_cmp(&a.sim));
            next_beam.truncate(self.config.beam_width);
            beam = next_beam;
        }

        // Final acceptance: the candidate's full clause reconstruction must
        // explain one object's worth of the residual. A true object scores
        // ~ρ (its density product); any single-item miss scores ≤ ρ/2.
        for combo in beam {
            let assignments: Vec<Option<ItemPath>> =
                combo.slots.iter().map(|c| c.path.clone()).collect();
            let object = ObjectSpec::new(assignments);
            let reconstruction = self.reconstruct(&object)?;
            let rho = reconstruction.density().max(f64::MIN_POSITIVE);
            let accept_sim = residual.sim_ternary(&reconstruction) / rho;
            stats.combination_tests += 1;
            if accept_sim >= self.config.accept_threshold {
                return Ok(Some(DecodedObject {
                    object,
                    confidence: accept_sim,
                }));
            }
        }
        Ok(None)
    }

    /// Expands one beam entry one level deeper: candidate children per
    /// refinable class (similarity > `th` against that class's unbound
    /// vector), then combination re-testing.
    fn descend_combo<Q: CodebookScan>(
        &self,
        residual: &Q,
        unbound: &[Q],
        combo: &Combo,
        level: usize,
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Result<Vec<Combo>, FactorHdError> {
        let mut per_class: Vec<Vec<Candidate>> = Vec::with_capacity(combo.slots.len());
        // One hits buffer reused across classes, scanned through the
        // explicitly sequential `_into` route: a planned batch may already
        // be running this whole decode inside a parallel region, and the
        // scan must not fork again under it.
        let mut hits: Vec<hdc::SearchHit> = Vec::new();
        for (class, slot) in combo.slots.iter().enumerate() {
            if slot.exhausted || slot.path.is_none() {
                per_class.push(vec![slot.clone()]);
                continue;
            }
            let path = slot.path.as_ref().expect("checked above");
            if path.depth() != level || level >= self.depth_limit(class) {
                // Already at its final level for this class.
                let mut done = slot.clone();
                done.exhausted = true;
                per_class.push(vec![done]);
                continue;
            }
            let children = self.taxonomy.codebook(class, path.indices())?;
            unbound[class].scan_above_threshold_into(&children, th, &mut hits);
            stats.similarity_checks += children.len() as u64;
            if hits.is_empty() {
                return Ok(Vec::new());
            }
            let cands = hits
                .iter()
                .map(|hit| {
                    let child_path = path.child(hit.index as u16);
                    let exhausted = child_path.depth() >= self.depth_limit(class);
                    Candidate {
                        path: Some(child_path),
                        item: children.item(hit.index).clone(),
                        sim: hit.sim,
                        exhausted,
                    }
                })
                .collect();
            per_class.push(cands);
        }
        Ok(self.test_combinations(residual, &per_class, th, stats))
    }

    /// Binds one candidate per class and keeps combinations whose product
    /// similarity to `residual` clears `th`, sorted by similarity.
    fn test_combinations<Q: Similarity>(
        &self,
        residual: &Q,
        per_class: &[Vec<Candidate>],
        th: f64,
        stats: &mut FactorizeStats,
    ) -> Vec<Combo> {
        let total: usize = per_class.iter().map(|c| c.len().max(1)).product();
        if total > self.config.max_combinations {
            stats.truncated_combinations = true;
        }

        let mut accepted = Vec::new();
        let mut indices = vec![0usize; per_class.len()];
        let mut tested = 0usize;
        // One product buffer for every test: `clone_from` copies into its
        // words without allocating.
        let mut product = per_class[0][0].item.clone();
        'outer: loop {
            // Build the combination product for the current index vector.
            product.clone_from(&per_class[0][indices[0]].item);
            for (class, &idx) in indices.iter().enumerate().skip(1) {
                product.bind_assign(&per_class[class][idx].item);
            }
            let sim = residual.sim_to(&product);
            stats.combination_tests += 1;
            tested += 1;
            if sim > th {
                let slots = indices
                    .iter()
                    .enumerate()
                    .map(|(class, &idx)| per_class[class][idx].clone())
                    .collect();
                accepted.push(Combo { slots, sim });
            }
            if tested >= self.config.max_combinations {
                break;
            }
            // Advance the mixed-radix index vector.
            for class in (0..indices.len()).rev() {
                indices[class] += 1;
                if indices[class] < per_class[class].len() {
                    continue 'outer;
                }
                indices[class] = 0;
                if class == 0 {
                    break 'outer;
                }
            }
        }
        accepted.sort_by(|a, b| b.sim.total_cmp(&a.sim));
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;
    use hdc::rng_from_seed;

    fn flat_taxonomy(f: usize, m: usize, dim: usize) -> Taxonomy {
        TaxonomyBuilder::new(dim)
            .seed(99)
            .uniform_classes(f, &[m])
            .build()
            .expect("valid taxonomy")
    }

    fn deep_taxonomy(dim: usize) -> Taxonomy {
        TaxonomyBuilder::new(dim)
            .seed(101)
            .class("a", &[16, 8])
            .class("b", &[16, 8])
            .class("c", &[16])
            .build()
            .expect("valid taxonomy")
    }

    #[test]
    fn rep1_recovers_single_object() {
        let t = flat_taxonomy(3, 32, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(1);
        for _ in 0..20 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
            let decoded = fac.factorize_single(&hv).unwrap();
            assert_eq!(decoded.object(), &obj);
            assert!(decoded.confidence() > 0.05);
        }
    }

    #[test]
    fn rep2_recovers_multi_level_object() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(2);
        for _ in 0..20 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
            let decoded = fac.factorize_single(&hv).unwrap();
            assert_eq!(decoded.object(), &obj);
        }
    }

    #[test]
    fn single_detects_null_class() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![3, 4])),
            None,
            Some(ItemPath::top(9)),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let decoded = fac.factorize_single(&hv).unwrap();
        assert_eq!(decoded.object(), &obj);
    }

    #[test]
    fn partial_factorization_touches_only_selected_classes() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::present(vec![
            ItemPath::new(vec![5, 2]),
            ItemPath::new(vec![1, 7]),
            ItemPath::top(11),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let decodes = fac.factorize_classes(&hv, &[2]).unwrap();
        assert_eq!(decodes.len(), 1);
        assert_eq!(decodes[0].class, 2);
        assert_eq!(decodes[0].path, Some(ItemPath::top(11)));
        // Partial factorization must cost far fewer similarity checks than
        // the full decode.
        let (_, full_stats) = fac.factorize_single_traced(&hv).unwrap();
        let partial = {
            let mut stats = FactorizeStats::default();
            fac.decode_classes(&hv, &[2], &mut stats).unwrap();
            stats
        };
        assert!(partial.similarity_checks < full_stats.similarity_checks);
    }

    #[test]
    fn factorize_classes_rejects_bad_class() {
        let t = flat_taxonomy(2, 4, 256);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let hv = AccumHv::zeros(256);
        assert!(matches!(
            fac.factorize_classes(&hv, &[5]),
            Err(FactorHdError::ClassOutOfBounds { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let t = flat_taxonomy(2, 4, 256);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let hv = AccumHv::zeros(128);
        assert!(matches!(
            fac.factorize_single(&hv),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            fac.factorize_multi(&hv),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rep3_recovers_two_objects() {
        let t = flat_taxonomy(3, 16, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(3);
        let mut successes = 0;
        for _ in 0..10 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            let decoded = fac.factorize_multi(&hv).unwrap();
            if decoded.to_scene().same_multiset(&scene) {
                successes += 1;
            }
        }
        assert!(successes >= 9, "only {successes}/10 scenes recovered");
    }

    #[test]
    fn rep3_handles_multi_level_scene() {
        let t = deep_taxonomy(8192);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(4);
        let mut successes = 0;
        for _ in 0..10 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            let decoded = fac.factorize_multi(&hv).unwrap();
            if decoded.to_scene().same_multiset(&scene) {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 scenes recovered");
    }

    #[test]
    fn rep3_solves_the_problem_of_2() {
        // Two identical objects in one scene must be recovered twice.
        let t = flat_taxonomy(3, 16, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(5);
        let obj = t.sample_object(&mut rng);
        let scene = Scene::new(vec![obj.clone(), obj.clone()]);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert_eq!(decoded.objects.len(), 2, "duplicate object lost");
        assert_eq!(decoded.objects[0].object(), &obj);
        assert_eq!(decoded.objects[1].object(), &obj);
        assert!(
            decoded.residual_norm < 1.0,
            "residual {}",
            decoded.residual_norm
        );
    }

    #[test]
    fn rep3_residual_shrinks_to_zero_on_success() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(6);
        let scene = t.sample_scene(2, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert!(decoded.to_scene().same_multiset(&scene));
        assert_eq!(decoded.residual_norm, 0.0);
    }

    #[test]
    fn rep3_empty_scene_vector_finds_nothing() {
        let t = flat_taxonomy(3, 8, 2048);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let decoded = fac.factorize_multi(&AccumHv::zeros(2048)).unwrap();
        assert!(decoded.objects.is_empty());
        assert_eq!(decoded.stats.objects_found, 0);
    }

    #[test]
    fn rep3_respects_max_objects() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(
            &t,
            FactorizeConfig {
                max_objects: 1,
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(7);
        let scene = t.sample_scene(3, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert_eq!(decoded.objects.len(), 1);
    }

    #[test]
    fn rep3_detects_null_classes() {
        let t = flat_taxonomy(3, 16, 8192);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(8);
        let with_null = t.sample_object(&mut rng).with_assignment(1, None);
        let other = t.sample_object(&mut rng);
        let scene = Scene::new(vec![with_null.clone(), other.clone()]);
        let hv = enc.encode_scene(&scene).unwrap();
        let decoded = fac.factorize_multi(&hv).unwrap();
        assert!(
            decoded.to_scene().same_multiset(&scene),
            "got {:?}",
            decoded.to_scene()
        );
    }

    #[test]
    fn stats_count_operations() {
        let t = flat_taxonomy(3, 32, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(9);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let (_, stats) = fac.factorize_single_traced(&hv).unwrap();
        // 3 classes × (32 items + 1 null check).
        assert_eq!(stats.similarity_checks, 3 * 33);
        assert_eq!(stats.unbind_ops, 3);
    }

    #[test]
    fn rep1_similarity_cost_is_linear_in_m_not_m_pow_f() {
        let t = flat_taxonomy(3, 64, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(10);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let (_, stats) = fac.factorize_single_traced(&hv).unwrap();
        // F·(M + 1) ≪ M^F: the core efficiency claim.
        assert!(stats.similarity_checks < 64 * 64);
    }

    #[test]
    fn with_parts_validates_keys() {
        let t = flat_taxonomy(3, 8, 512);
        let keys = Arc::new(build_unbind_keys(&t));
        assert!(Factorizer::with_parts(&t, FactorizeConfig::default(), keys, None).is_ok());
        let short = Arc::new(vec![BipolarHv::ones(512)]);
        assert!(matches!(
            Factorizer::with_parts(&t, FactorizeConfig::default(), short, None),
            Err(FactorHdError::InvalidConfig(_))
        ));
        let wrong_dim = Arc::new(vec![BipolarHv::ones(64); 3]);
        assert!(matches!(
            Factorizer::with_parts(&t, FactorizeConfig::default(), wrong_dim, None),
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn with_parts_matches_new() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let plain = Factorizer::new(&t, FactorizeConfig::default());
        let keys = Arc::new(build_unbind_keys(&t));
        let parts =
            Factorizer::with_parts(&t, FactorizeConfig::default(), keys, None).expect("valid");
        let mut rng = rng_from_seed(42);
        for _ in 0..5 {
            let scene = t.sample_scene(2, true, &mut rng);
            let hv = enc.encode_scene(&scene).unwrap();
            assert_eq!(
                plain.factorize_multi(&hv).unwrap(),
                parts.factorize_multi(&hv).unwrap()
            );
        }
    }

    /// A counting pass-through cache: outputs must stay bit-identical and
    /// the cache must actually be consulted.
    struct CountingCache {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl ReconstructionCache for CountingCache {
        fn get_or_encode(
            &self,
            encoder: &Encoder<'_>,
            object: &ObjectSpec,
        ) -> Result<Arc<TernaryHv>, FactorHdError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            encoder.encode_object(object).map(Arc::new)
        }
    }

    #[test]
    fn injected_reconstruction_cache_is_used_and_transparent() {
        let t = flat_taxonomy(3, 8, 4096);
        let enc = Encoder::new(&t);
        let cache = Arc::new(CountingCache {
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        let cached = Factorizer::with_parts(
            &t,
            FactorizeConfig::default(),
            Arc::new(build_unbind_keys(&t)),
            Some(cache.clone()),
        )
        .expect("valid");
        let plain = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(43);
        let scene = t.sample_scene(2, true, &mut rng);
        let hv = enc.encode_scene(&scene).unwrap();
        assert_eq!(
            plain.factorize_multi(&hv).unwrap(),
            cached.factorize_multi(&hv).unwrap()
        );
        assert!(cache.calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn ternary_fast_path_is_bit_identical() {
        // Single-object scenes take the lossless ternary route; forcing the
        // accumulator route by adding a zero vector (values still equal)
        // must give identical decodes, sims, and stats.
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(44);
        for _ in 0..10 {
            let obj = t.sample_object(&mut rng);
            let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
            assert!(hv.to_ternary_lossless().is_some(), "fast path available");
            let mut doubled = hv.clone();
            doubled.scale(2); // components in {-2, 0, 2}: accum route
            let (fast, fast_stats) = fac.factorize_single_traced(&hv).unwrap();
            let (slow, slow_stats) = fac.factorize_single_traced(&doubled).unwrap();
            // Doubling scales every dot by 2, so sims scale but the argmax
            // ordering — and therefore the decode — is preserved.
            assert_eq!(fast.object(), slow.object());
            assert_eq!(fast_stats, slow_stats);
        }
    }

    #[test]
    fn factorize_single_many_is_bit_identical_to_loop() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(70);
        let hvs: Vec<AccumHv> = (0..9)
            .map(|_| {
                let obj = t.sample_object(&mut rng);
                enc.encode_scene(&Scene::single(obj)).unwrap()
            })
            .collect();
        let refs: Vec<&AccumHv> = hvs.iter().collect();
        let grouped: Vec<DecodedObject> = fac
            .factorize_single_many(&refs)
            .into_iter()
            .map(|r| r.expect("decodes"))
            .collect();
        let singles: Vec<DecodedObject> = hvs
            .iter()
            .map(|hv| fac.factorize_single(hv).expect("decodes"))
            .collect();
        assert_eq!(grouped, singles);
        assert!(fac.factorize_single_many(&[]).is_empty());
    }

    #[test]
    fn factorize_single_many_falls_back_per_query() {
        // A non-lossless accumulator (components outside {-1, 0, 1}) and a
        // wrong-dimension query both take the per-query path: results and
        // errors land on the right inputs.
        let t = flat_taxonomy(3, 8, 1024);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let mut rng = rng_from_seed(71);
        let obj = t.sample_object(&mut rng);
        let hv = enc.encode_scene(&Scene::single(obj)).unwrap();
        let mut doubled = hv.clone();
        doubled.scale(2);
        let results = fac.factorize_single_many(&[&hv, &doubled]);
        assert_eq!(
            results[0].as_ref().expect("decodes").object(),
            results[1].as_ref().expect("decodes").object()
        );

        let short = AccumHv::zeros(64);
        let mixed = fac.factorize_single_many(&[&hv, &short]);
        assert!(mixed[0].is_ok());
        assert!(matches!(
            mixed[1],
            Err(FactorHdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn evaluate_membership_matches_scene_query() {
        let t = deep_taxonomy(2048);
        let enc = Encoder::new(&t);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let obj = ObjectSpec::new(vec![
            Some(ItemPath::new(vec![3, 1])),
            None,
            Some(ItemPath::top(5)),
        ]);
        let hv = enc.encode_scene(&Scene::single(obj.clone())).unwrap();
        let items = vec![(0usize, ItemPath::new(vec![3, 1]))];
        let absent = vec![1usize];
        let via_factorizer = fac.evaluate_membership(&hv, &items, &absent).unwrap();
        let mut query = crate::SceneQuery::new(&t);
        for (class, path) in &items {
            query = query.with_item(*class, path.clone()).unwrap();
        }
        for &class in &absent {
            query = query.with_absent(class).unwrap();
        }
        assert_eq!(via_factorizer, query.evaluate(&hv).unwrap());
        assert!(via_factorizer.present);
        // Bad class indices surface as typed errors.
        assert!(fac.evaluate_membership(&hv, &[], &[9]).is_err());
    }

    /// The level-1 dots of `residual`, rescanned from scratch with the
    /// scalar accumulator dot.
    fn rescanned_dots(fac: &Factorizer<'_>, residual: &AccumHv) -> Vec<Vec<i64>> {
        (0..fac.taxonomy.num_classes())
            .map(|class| {
                let unbound = residual.bind(&fac.unbind_keys[class]);
                let top = fac.taxonomy.codebook(class, &[]).unwrap();
                top.iter().map(|item| unbound.dot_bipolar(item)).collect()
            })
            .collect()
    }

    /// `select_above` on `dots` picks what the level-1 scan of `residual`
    /// picks, on the route the scan takes, similarity bits included.
    fn assert_selection_matches_scan(
        fac: &Factorizer<'_>,
        residual: &AccumHv,
        dots: &LevelOneDots,
        th: f64,
    ) {
        let dim = fac.taxonomy.dim();
        let mut selected = Vec::new();
        let mut scanned = Vec::new();
        for (class, row) in dots.rows.iter().enumerate() {
            let top = &dots.tops[class];
            let unbound = residual.bind(&fac.unbind_keys[class]);
            // The live threshold, one that admits every item (ties), and
            // one equal to an item's exact similarity (the strict `>`).
            for th in [th, -2.0, row[0] as f64 / dim as f64] {
                select_above(row, dim, th, &mut selected);
                match unbound.to_ternary_lossless() {
                    Some(t) => t.scan_above_threshold_into(top, th, &mut scanned),
                    None => unbound.scan_above_threshold_into(top, th, &mut scanned),
                }
                let bits = |hits: &[hdc::SearchHit]| -> Vec<(usize, u64)> {
                    hits.iter().map(|h| (h.index, h.sim.to_bits())).collect()
                };
                assert_eq!(bits(&selected), bits(&scanned), "class {class}, th {th}");
            }
        }
    }

    #[test]
    fn level_one_table_equals_a_fresh_scan_at_every_iteration() {
        // Odd D exercises the padding bits of the packed exclusion dots.
        for dim in [65usize, 1000, 4096] {
            let t = TaxonomyBuilder::new(dim)
                .seed(dim as u64)
                .class("a", &[12])
                .class("b", &[6, 4])
                .class("c", &[10])
                .build()
                .expect("valid taxonomy");
            let enc = Encoder::new(&t);
            let mut rng = rng_from_seed(dim as u64 ^ 0x1D07);
            for n in 1..=6 {
                for duplicate in [false, true] {
                    let mut objects = t.sample_scene(n, !duplicate, &mut rng).objects().to_vec();
                    if duplicate {
                        objects[n - 1] = objects[0].clone();
                    }
                    let hv = enc.encode_scene(&Scene::new(objects)).unwrap();
                    for max_objects in [1, 16] {
                        let fac = Factorizer::new(
                            &t,
                            FactorizeConfig {
                                max_objects,
                                ..FactorizeConfig::default()
                            },
                        );
                        let th = fac.resolved_threshold();
                        let mut residual = hv.clone();
                        let mut dots = LevelOneDots::default();
                        let mut stats = FactorizeStats::default();
                        let mut found = Vec::new();
                        while found.len() < max_objects {
                            let next = fac
                                .extract_object(&mut residual, &mut dots, th, &mut stats)
                                .unwrap();
                            assert_eq!(dots.rows, rescanned_dots(&fac, &residual));
                            assert_selection_matches_scan(&fac, &residual, &dots, th);
                            match next {
                                None => break,
                                Some(decoded) => found.push(decoded),
                            }
                        }
                        // The loop above is `factorize_multi`'s.
                        let decoded = fac.factorize_multi(&hv).unwrap();
                        assert_eq!(decoded.objects, found);
                        assert_eq!(decoded.stats, stats);
                        assert_eq!(decoded.residual_norm, residual.norm());
                    }
                }
            }
        }
    }

    #[test]
    fn resolved_threshold_is_positive_and_below_signal() {
        let t = flat_taxonomy(4, 10, 2000);
        let fac = Factorizer::new(&t, FactorizeConfig::default());
        let th = fac.resolved_threshold();
        let signal = crate::threshold::expected_signal(&t.clause_sizes());
        assert!(th > 0.0 && th < signal, "th {th} vs signal {signal}");
    }
}

//! Packed-word scan backend: hypervectors as `u64` sign/mask planes and
//! codebooks as contiguous sharded word tables.
//!
//! Every recognition step in FactorHD is a scan `sim(V1, V2) = V1 · V2 / D`
//! of one query against a codebook (PAPER.md §II-A, §III). The types here
//! make that scan run at word speed end to end:
//!
//! * [`PackedHv`] — an owned query in packed form: one sign bit per
//!   dimension plus an optional non-zero mask plane, so both bipolar and
//!   ternary queries share the same XOR/popcount kernels for dot, Hamming
//!   distance, and binding.
//! * [`PackedQuery`] — a borrowed word-level view of a query; obtained via
//!   [`AsPackedQuery`] from [`BipolarHv`], [`TernaryHv`] or [`PackedHv`]
//!   without copying.
//! * [`PackedShards`] — a codebook's items re-laid-out as one contiguous
//!   word array, grouped into cache-sized shards. Batched searches
//!   ([`PackedShards::top_k`], [`PackedShards::above_threshold`],
//!   [`PackedShards::dots`]) run a bounded heap per shard and
//!   rayon-parallelize across shards once the table is large enough to
//!   amortize the fork.
//! * [`CodebookScan`] — the routing trait the factorizer layers use: query
//!   types with a lossless packed form scan through [`PackedShards`],
//!   while integer accumulators fall back to the scalar reference path.
//!
//! The inner XOR-popcount loops are not hard-coded: every dot product
//! goes through the [`crate::kernels`] dispatch layer, which picks the
//! fastest implementation the running CPU supports (hardware `POPCNT`,
//! AVX2 nibble-LUT, AVX-512 `vpopcntq`, or the portable Harley–Seal
//! ladder) once at startup. The serving-path scans additionally reuse a
//! thread-local [`ScanScratch`] workspace and offer `*_into` variants
//! ([`PackedShards::top_k_into`], [`PackedShards::top_k_many_into`],
//! [`PackedShards::dots_into`], [`PackedShards::above_threshold_into`])
//! that write into caller-owned buffers, so a warm scan performs **zero
//! heap allocations**.
//!
//! All packed results are **bit-identical** to the scalar reference
//! implementations on [`Codebook`]: dots are exact integers, similarities
//! are computed with the same `dot as f64 / dim as f64` expression, and
//! ties are broken by ascending item index exactly like the reference's
//! stable descending sort — regardless of which kernel is dispatched.

use crate::codebook::{Codebook, SearchHit};
use crate::kernels::{self, ScanKernel};
use crate::sim::Similarity;
use crate::stage::{Stage, StageTimer};
use crate::{clear_padding, words_for, AccumHv, BipolarHv, HdcError, TernaryHv};
use rayon::prelude::*;
use std::cell::RefCell;
use std::fmt;

/// Target shard payload in bytes: one shard's words should fit comfortably
/// in L1 alongside the query planes.
const SHARD_BYTES: usize = 32 * 1024;

/// Minimum table size (in words) before a batched search forks across the
/// rayon pool; smaller scans finish faster than a fork would take.
const PAR_MIN_WORDS: usize = 1 << 18;

/// Queries per register block in the batched multi-query scan: each
/// L1-sized tile of codebook words is scanned by up to this many queries
/// before the next tile is touched, so the tile's cache lines (and the
/// block's query planes) are reused instead of re-fetched per query.
const QUERY_BLOCK: usize = 4;

/// Reusable per-thread scan workspace: every buffer a serving-path scan
/// needs lives here, grown once and reused, so warm
/// [`PackedShards::top_k_into`] / [`PackedShards::top_k_many_into`] /
/// [`PackedShards::dots_into`] / [`PackedShards::above_threshold_into`]
/// calls allocate nothing.
#[derive(Default)]
struct ScanScratch {
    /// Flat per-query bounded heaps for the multi-query scan: query `q`
    /// of a `k`-wide scan owns `heap_data[q * k .. q * k + heap_lens[q]]`.
    heap_data: Vec<(i64, usize)>,
    heap_lens: Vec<usize>,
    /// Candidate buffer for single-query top-k and threshold scans.
    cand: Vec<(i64, usize)>,
    /// Per-query non-zero counts for the multi-query scan.
    nonzero: Vec<i64>,
}

thread_local! {
    /// One [`ScanScratch`] per thread: rayon workers executing planned
    /// engine batches each warm their own copy, after which steady-state
    /// scans on that worker stop allocating.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Runs `f` with this thread's scan scratch. Scans never re-enter the
/// scan path while holding the borrow, so the `RefCell` cannot panic.
fn with_scratch<R>(f: impl FnOnce(&mut ScanScratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// `true` when candidate `a` ranks strictly below `b`: a lower dot, or an
/// equal dot with the larger item index (ties prefer small indices, like
/// the scalar reference's stable descending sort).
#[inline]
fn ranks_below(a: (i64, usize), b: (i64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// Offers `entry` to the bounded worst-at-root heap held in
/// `data[..*len]` (capacity `k`): while not full the entry is sifted in;
/// once full, the entry replaces the root — the worst kept candidate —
/// only if it ranks above it. Keeps exactly the `k` best candidates seen,
/// under the total order of [`ranks_below`] (which has no equal keys:
/// item indices are unique), so the kept set is identical to any other
/// correct top-k selection.
#[inline]
fn heap_offer(data: &mut [(i64, usize)], len: &mut usize, k: usize, entry: (i64, usize)) {
    if *len < k {
        data[*len] = entry;
        *len += 1;
        let mut i = *len - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if ranks_below(data[i], data[parent]) {
                data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        return;
    }
    if !ranks_below(data[0], entry) {
        return;
    }
    data[0] = entry;
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        let right = left + 1;
        let mut worst = i;
        if left < k && ranks_below(data[left], data[worst]) {
            worst = left;
        }
        if right < k && ranks_below(data[right], data[worst]) {
            worst = right;
        }
        if worst == i {
            break;
        }
        data.swap(i, worst);
        i = worst;
    }
}

/// Sorts candidates into the reference hit order: descending dot, ties by
/// ascending item index. Unstable sort is exact here — `(dot, index)`
/// keys are unique — and, unlike the stable sort, allocates nothing.
#[inline]
fn sort_candidates(cand: &mut [(i64, usize)]) {
    cand.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
}

/// A borrowed word-level view of a scan query.
///
/// `sign` holds one bit per dimension (set ⇔ the component is negative);
/// `mask`, when present, marks non-zero components (ternary queries).
/// A missing mask means the query is dense (every component is `±1`).
#[derive(Clone, Copy)]
pub struct PackedQuery<'a> {
    sign: &'a [u64],
    mask: Option<&'a [u64]>,
    dim: usize,
}

impl<'a> PackedQuery<'a> {
    /// The query's dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of non-zero components (`D` for a dense query).
    #[inline]
    pub fn nonzero_count(&self) -> usize {
        match self.mask {
            None => self.dim,
            Some(mask) => mask.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Exact integer dot product against one item's packed sign words,
    /// given the query's precomputed non-zero count and the scan kernel
    /// to run the popcount loop on (hoisted out of the per-item loop by
    /// every scan entry point).
    #[inline]
    fn dot_words(&self, item: &[u64], nonzero: i64, kernel: &ScanKernel) -> i64 {
        let neg = match self.mask {
            None => kernel.hamming_words(self.sign, item),
            Some(mask) => kernel.masked_hamming_words(self.sign, mask, item),
        };
        nonzero - 2 * neg as i64
    }
}

/// Borrowing conversion into the packed scan form.
///
/// Implemented by every query representation whose dot products against
/// bipolar items reduce losslessly to word-parallel popcounts. [`AccumHv`]
/// deliberately does **not** implement this: general integer bundles have
/// no packed form, so they take the scalar reference path (or are routed
/// through [`AccumHv::to_ternary_lossless`] first when their components
/// fit `{-1, 0, 1}`).
pub trait AsPackedQuery {
    /// This query's borrowed word-level view.
    fn packed_query(&self) -> PackedQuery<'_>;
}

impl AsPackedQuery for BipolarHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: self.words(),
            mask: None,
            dim: self.dim(),
        }
    }
}

impl AsPackedQuery for TernaryHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: self.sign_words(),
            mask: Some(self.mask_words()),
            dim: self.dim(),
        }
    }
}

impl AsPackedQuery for PackedHv {
    fn packed_query(&self) -> PackedQuery<'_> {
        PackedQuery {
            sign: &self.sign,
            mask: self.mask.as_deref(),
            dim: self.dim,
        }
    }
}

/// An owned hypervector in packed scan form: sign bits in `u64` words plus
/// an optional non-zero mask plane.
///
/// This is the representation every codebook scan runs on. Dense vectors
/// (`{-1, +1}^D`) carry no mask; ternary vectors (`{-1, 0, +1}^D`) carry
/// one. Dot products, Hamming distances, and binding are word-parallel
/// XOR/popcount kernels either way, and agree exactly with the scalar
/// reference arithmetic on [`BipolarHv`] / [`TernaryHv`].
///
/// ```
/// use hdc::{Bind, BipolarHv, PackedHv};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let a = BipolarHv::random(1000, &mut rng);
/// let b = BipolarHv::random(1000, &mut rng);
///
/// let pa = PackedHv::from_bipolar(&a);
/// let pb = PackedHv::from_bipolar(&b);
/// // Word-parallel kernels, bit-identical to the reference arithmetic.
/// assert_eq!(pa.dot(&pb), a.dot(&b));
/// assert_eq!(pa.hamming(&pb), a.hamming(&b));
/// assert_eq!(pa.bind(&pb).dot(&pa), a.bind(&b).dot(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedHv {
    /// Bit set ⇔ component is negative (only meaningful under the mask).
    sign: Vec<u64>,
    /// Bit set ⇔ component is non-zero; `None` ⇔ fully dense.
    mask: Option<Vec<u64>>,
    dim: usize,
}

impl PackedHv {
    /// Packs a dense bipolar vector (no mask plane).
    pub fn from_bipolar(hv: &BipolarHv) -> Self {
        PackedHv {
            sign: hv.words().to_vec(),
            mask: None,
            dim: hv.dim(),
        }
    }

    /// Packs a ternary vector. A ternary vector with no zero components
    /// canonicalizes to the dense (maskless) form, so equal logical
    /// vectors compare equal regardless of their construction route.
    pub fn from_ternary(hv: &TernaryHv) -> Self {
        if hv.nonzero_count() == hv.dim() {
            return PackedHv {
                sign: hv.sign_words().to_vec(),
                mask: None,
                dim: hv.dim(),
            };
        }
        PackedHv {
            sign: hv.sign_words().to_vec(),
            mask: Some(hv.mask_words().to_vec()),
            dim: hv.dim(),
        }
    }

    /// Packs an integer accumulator whose components all lie in
    /// `{-1, 0, 1}`, or `None` when any component is out of range (the
    /// packed form would be lossy). The components are packed a word at
    /// a time and the check stops at the first word holding an
    /// out-of-range value. An accumulator with no zero component packs
    /// to the dense (maskless) form, as [`PackedHv::from_ternary`] does.
    pub fn from_accum_lossless(hv: &AccumHv) -> Option<Self> {
        let (sign, mask) = hv.planes(true)?;
        let nonzero: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
        Some(PackedHv {
            sign,
            mask: (nonzero != hv.dim()).then_some(mask),
            dim: hv.dim(),
        })
    }

    /// Expands into `out`, overwriting every component with its
    /// `{-1, 0, 1}` value a word at a time — the inverse of
    /// [`PackedHv::from_accum_lossless`] into a reused accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn expand_into(&self, out: &mut AccumHv) {
        assert_eq!(
            self.dim,
            out.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            out.dim()
        );
        out.assign_planes(&self.sign, self.mask.as_deref());
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` when every component is `±1` (no mask plane).
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.mask.is_none()
    }

    /// Number of non-zero components.
    #[inline]
    pub fn nonzero_count(&self) -> usize {
        self.packed_query().nonzero_count()
    }

    /// Exact integer dot product with another packed vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, rhs: &PackedHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let mut common = 0u32;
        let mut neg = 0u32;
        match (&self.mask, &rhs.mask) {
            (None, None) => {
                for (a, b) in self.sign.iter().zip(&rhs.sign) {
                    neg += (a ^ b).count_ones();
                }
                return self.dim as i64 - 2 * neg as i64;
            }
            (Some(m), None) | (None, Some(m)) => {
                for ((a, b), m) in self.sign.iter().zip(&rhs.sign).zip(m) {
                    common += m.count_ones();
                    neg += ((a ^ b) & m).count_ones();
                }
            }
            (Some(ma), Some(mb)) => {
                for (((a, b), ma), mb) in self.sign.iter().zip(&rhs.sign).zip(ma).zip(mb) {
                    let both = ma & mb;
                    common += both.count_ones();
                    neg += ((a ^ b) & both).count_ones();
                }
            }
        }
        common as i64 - 2 * neg as i64
    }

    /// Normalized dot similarity `dot / D`.
    #[inline]
    pub fn sim(&self, rhs: &PackedHv) -> f64 {
        self.dot(rhs) as f64 / self.dim as f64
    }

    /// Number of disagreeing components (any mismatch among `-1, 0, +1`
    /// counts, including zero versus non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hamming(&self, rhs: &PackedHv) -> usize {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let full = u64::MAX;
        let n = self.sign.len();
        let mut differing = 0usize;
        for i in 0..n {
            let ma = self.mask.as_ref().map_or(full, |m| m[i]);
            let mb = rhs.mask.as_ref().map_or(full, |m| m[i]);
            // Differ where exactly one is zero, or both non-zero with
            // opposite signs. Padding bits are zero in both masks for
            // masked vectors; for dense vectors restrict to valid bits
            // via the sign planes' shared padding invariant.
            let mut word = (ma ^ mb) | ((self.sign[i] ^ rhs.sign[i]) & ma & mb);
            if i == n - 1 {
                word &= crate::tail_mask(self.dim);
            }
            differing += word.count_ones() as usize;
        }
        differing
    }

    /// Component-wise product: zero wherever either operand is zero,
    /// signs multiply elsewhere — the packed counterpart of
    /// [`Bind`](crate::Bind) on the unpacked types.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind(&self, rhs: &PackedHv) -> PackedHv {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let sign: Vec<u64> = self
            .sign
            .iter()
            .zip(&rhs.sign)
            .map(|(a, b)| a ^ b)
            .collect();
        let mask = match (&self.mask, &rhs.mask) {
            (None, None) => None,
            (Some(m), None) | (None, Some(m)) => Some(m.clone()),
            (Some(ma), Some(mb)) => Some(ma.iter().zip(mb).map(|(a, b)| a & b).collect()),
        };
        let mut sign = sign;
        match &mask {
            None => clear_padding(&mut sign, self.dim),
            Some(mask) => {
                for (s, m) in sign.iter_mut().zip(mask) {
                    *s &= m;
                }
            }
        }
        PackedHv {
            sign,
            mask,
            dim: self.dim,
        }
    }

    /// Unpacks into the two-plane ternary representation.
    pub fn to_ternary(&self) -> TernaryHv {
        let mask = match &self.mask {
            Some(mask) => mask.clone(),
            None => {
                let mut full = vec![u64::MAX; self.sign.len()];
                clear_padding(&mut full, self.dim);
                full
            }
        };
        TernaryHv::from_planes(mask, self.sign.clone(), self.dim)
    }
}

impl Similarity for PackedHv {
    fn sim_to(&self, reference: &BipolarHv) -> f64 {
        assert_eq!(
            self.dim,
            reference.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            reference.dim()
        );
        let query = self.packed_query();
        let nonzero = query.nonzero_count() as i64;
        let kernel = kernels::selected_kernel();
        query.dot_words(reference.words(), nonzero, kernel) as f64 / self.dim as f64
    }
}

impl fmt::Debug for PackedHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedHv")
            .field("dim", &self.dim)
            .field("dense", &self.is_dense())
            .finish()
    }
}

/// A codebook's items re-laid-out for scanning: one contiguous array of
/// packed sign words, grouped into cache-sized shards.
///
/// Built lazily by [`Codebook::packed_view`] (or eagerly by the `.fhd`
/// artifact loader) and guarded by the owning codebook's
/// [`generation`](Codebook::generation) stamp: a shard table always
/// carries the generation of the item set it was built from, so staleness
/// is structurally impossible — replacing a codebook (e.g. via
/// `Taxonomy::set_codebook`) creates a new codebook with a new generation
/// and an empty view.
///
/// ```
/// use hdc::Codebook;
///
/// let cb = Codebook::derive(42, 64, 1024);
/// let shards = cb.packed_view();
/// let hits = shards.top_k(hdc::AsPackedQuery::packed_query(cb.item(9)), 3);
/// assert_eq!(hits[0].index, 9);
/// assert!((hits[0].sim - 1.0).abs() < 1e-12);
/// // Bit-identical to the scalar reference search.
/// assert_eq!(hits, cb.top_k(cb.item(9), 3));
/// ```
#[derive(Clone)]
pub struct PackedShards {
    /// Item-major sign words: item `i` occupies
    /// `words[i * words_per_item .. (i + 1) * words_per_item]`.
    words: Vec<u64>,
    words_per_item: usize,
    /// Items per shard (the parallel/blocking granularity).
    shard_len: usize,
    len: usize,
    dim: usize,
    generation: u64,
}

impl PackedShards {
    /// Builds a shard table over `items` (all of dimension `dim`),
    /// stamped with the owning codebook's `generation`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len == 0` (a programming error, not a runtime
    /// condition — wire-format readers validate before calling).
    pub(crate) fn build(
        items: &[BipolarHv],
        dim: usize,
        shard_len: usize,
        generation: u64,
    ) -> Self {
        assert!(shard_len > 0, "shard length must be positive");
        let words_per_item = words_for(dim);
        let mut words = Vec::with_capacity(items.len() * words_per_item);
        for item in items {
            words.extend_from_slice(item.words());
        }
        PackedShards {
            words,
            words_per_item,
            shard_len,
            len: items.len(),
            dim,
            generation,
        }
    }

    /// The default shard geometry for `dim`: as many items as fit a
    /// [`SHARD_BYTES`]-sized block, at least one.
    pub(crate) fn default_shard_len(dim: usize) -> usize {
        (SHARD_BYTES / (words_for(dim) * 8)).max(1)
    }

    /// Number of items in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no items (never for a built codebook).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hypervector dimension `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Items per shard (the parallel/blocking granularity).
    #[inline]
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.len.div_ceil(self.shard_len)
    }

    /// The generation stamp of the codebook this table was built from.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn check_query(&self, query: &PackedQuery<'_>) {
        assert_eq!(
            self.dim,
            query.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            query.dim()
        );
    }

    #[inline]
    fn sim_of(&self, dot: i64) -> f64 {
        dot as f64 / self.dim as f64
    }

    /// `true` when a batched search over this table is worth forking
    /// across the rayon pool.
    ///
    /// Beyond the size threshold this also checks the pool itself: a
    /// single-lane pool has nothing to fork to, and a scan issued from
    /// **inside** a parallel region (a batch planner already fanning op
    /// chunks across the pool) must not fork again — nested forking
    /// oversubscribes the pool with tasks that steal lanes from the
    /// batch level, which is what caused the batch-512 throughput
    /// rollover. In both cases the scan takes its sequential `_into`
    /// path instead.
    #[inline]
    fn parallel(&self) -> bool {
        self.words.len() >= PAR_MIN_WORDS
            && self.num_shards() > 1
            && !rayon::in_parallel_region()
            && rayon::current_num_threads() > 1
    }

    /// The item index range of shard `s`.
    #[inline]
    fn shard_range(&self, s: usize) -> std::ops::Range<usize> {
        let start = s * self.shard_len;
        start..(start + self.shard_len).min(self.len)
    }

    /// Runs `scan` over every shard — in parallel when the table is big
    /// enough — and returns the per-shard results in shard order.
    fn scan_shards<T: Send, F>(&self, scan: F) -> Vec<T>
    where
        F: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        if self.parallel() {
            (0..self.num_shards())
                .into_par_iter()
                .map(|s| scan(self.shard_range(s)))
                .collect()
        } else {
            (0..self.num_shards())
                .map(|s| scan(self.shard_range(s)))
                .collect()
        }
    }

    /// Exact integer dot products of `query` against every item, in item
    /// order — the packed replacement for per-item
    /// [`BipolarHv::dot`] loops over boxed items.
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::dots_into`] (zero steady-state allocations beyond
    /// the returned `Vec`); larger tables fork across the rayon pool.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn dots(&self, query: PackedQuery<'_>) -> Vec<i64> {
        if !self.parallel() {
            let mut out = Vec::with_capacity(self.len);
            self.dots_into(query, &mut out);
            return out;
        }
        self.check_query(&query);
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        let per_shard = self.scan_shards(|range| {
            range
                .map(|i| query.dot_words(self.item_words(i), nonzero, kernel))
                .collect::<Vec<i64>>()
        });
        per_shard.concat()
    }

    /// [`PackedShards::dots`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a reused buffer makes the warm scan
    /// allocation-free. Always single-threaded (the zero-allocation
    /// serving path); results are identical to [`PackedShards::dots`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn dots_into(&self, query: PackedQuery<'_>, out: &mut Vec<i64>) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        out.reserve(self.len);
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        for i in 0..self.len {
            out.push(query.dot_words(self.item_words(i), nonzero, kernel));
        }
    }

    /// The `k` most similar items, sorted by descending similarity with
    /// ties broken by ascending item index — exactly the ordering of the
    /// scalar reference [`Codebook::top_k`].
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::top_k_into`] (thread-local scratch, zero
    /// steady-state allocations beyond the returned `Vec`); larger tables
    /// keep a bounded `k`-best heap per shard across the rayon pool and
    /// merge the per-shard survivors, allocating `O(shards · k)` instead
    /// of materializing all `M` similarities.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn top_k(&self, query: PackedQuery<'_>, k: usize) -> Vec<SearchHit> {
        if !self.parallel() {
            let mut out = Vec::with_capacity(k.min(self.len));
            self.top_k_into(query, k, &mut out);
            return out;
        }
        self.check_query(&query);
        if k == 0 {
            return Vec::new();
        }
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        let per_shard = self.scan_shards(|range| {
            let cap = k.min(range.len());
            let mut heap = vec![(0i64, 0usize); cap];
            let mut len = 0usize;
            for i in range {
                let dot = query.dot_words(self.item_words(i), nonzero, kernel);
                heap_offer(&mut heap, &mut len, cap, (dot, i));
            }
            heap.truncate(len);
            heap
        });
        let mut merged: Vec<(i64, usize)> = per_shard.concat();
        sort_candidates(&mut merged);
        merged.truncate(k);
        merged
            .into_iter()
            .map(|(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            })
            .collect()
    }

    /// [`PackedShards::top_k`] into a caller-owned buffer: `out` is
    /// cleared and refilled, the bounded candidate heap lives in the
    /// thread-local scan scratch, and the final ordering uses an
    /// allocation-free unstable sort — a warm call with a reused `out`
    /// performs **zero heap allocations**. Always single-threaded;
    /// results are identical to [`PackedShards::top_k`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn top_k_into(&self, query: PackedQuery<'_>, k: usize, out: &mut Vec<SearchHit>) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        if k == 0 {
            return;
        }
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        let cap = k.min(self.len);
        with_scratch(|scratch| {
            let cand = &mut scratch.cand;
            cand.clear();
            cand.resize(cap, (0, 0));
            let mut len = 0usize;
            for i in 0..self.len {
                let dot = query.dot_words(self.item_words(i), nonzero, kernel);
                heap_offer(cand, &mut len, cap, (dot, i));
            }
            cand.truncate(len);
            sort_candidates(cand);
            out.extend(cand.iter().map(|&(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            }));
        });
    }

    /// [`PackedShards::top_k`] for a whole batch of queries in one tiled
    /// table traversal: shards are walked in the outer loop and, within
    /// each shard, queries run in register blocks of four — an
    /// L1-sized tile of codebook words is scanned by up to four queries
    /// before the next tile is touched, so each tile's cache lines are
    /// loaded once per block instead of once per query. This is the
    /// amortization a serving planner relies on when it groups requests
    /// against one codebook.
    ///
    /// Per-query results are **bit-identical** to calling
    /// [`PackedShards::top_k`] once per query (same candidate set, same
    /// descending-similarity order, same ascending-index tie break). The
    /// traversal is single-threaded; callers that want parallelism chunk
    /// the query batch and fan the chunks out themselves.
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the table's.
    pub fn top_k_many(&self, queries: &[PackedQuery<'_>], k: usize) -> Vec<Vec<SearchHit>> {
        let mut outs = Vec::with_capacity(queries.len());
        self.top_k_many_into(queries, k, &mut outs);
        outs
    }

    /// [`PackedShards::top_k_many`] into caller-owned buffers: `outs` is
    /// resized to one inner `Vec` per query (inner buffers are cleared
    /// and reused, extras truncated away), the per-query bounded heaps
    /// live flat in the thread-local scan scratch, and the final ordering
    /// uses an allocation-free unstable sort — a warm call with reused
    /// buffers performs **zero heap allocations**. Results are identical
    /// to [`PackedShards::top_k_many`].
    ///
    /// # Panics
    ///
    /// Panics if any query dimension differs from the table's.
    pub fn top_k_many_into(
        &self,
        queries: &[PackedQuery<'_>],
        k: usize,
        outs: &mut Vec<Vec<SearchHit>>,
    ) {
        let _span = StageTimer::enter(Stage::Scan);
        for query in queries {
            self.check_query(query);
        }
        outs.truncate(queries.len());
        for out in outs.iter_mut() {
            out.clear();
        }
        while outs.len() < queries.len() {
            outs.push(Vec::new());
        }
        if k == 0 || queries.is_empty() {
            return;
        }
        let kernel = kernels::selected_kernel();
        let cap = k.min(self.len);
        with_scratch(|scratch| {
            let ScanScratch {
                heap_data,
                heap_lens,
                nonzero,
                ..
            } = scratch;
            nonzero.clear();
            nonzero.extend(queries.iter().map(|q| q.nonzero_count() as i64));
            heap_data.clear();
            heap_data.resize(queries.len() * cap, (0, 0));
            heap_lens.clear();
            heap_lens.resize(queries.len(), 0);
            for s in 0..self.num_shards() {
                let range = self.shard_range(s);
                // Register-blocked inner loop: every item of this tile is
                // scanned by up to QUERY_BLOCK queries before eviction,
                // in ascending item order per query — the same
                // candidate-retention policy as the single-query scan.
                for block_start in (0..queries.len()).step_by(QUERY_BLOCK) {
                    let block_end = (block_start + QUERY_BLOCK).min(queries.len());
                    for i in range.clone() {
                        let item = self.item_words(i);
                        for q in block_start..block_end {
                            let dot = queries[q].dot_words(item, nonzero[q], kernel);
                            let segment = &mut heap_data[q * cap..(q + 1) * cap];
                            heap_offer(segment, &mut heap_lens[q], cap, (dot, i));
                        }
                    }
                }
            }
            for (q, out) in outs.iter_mut().enumerate() {
                let segment = &mut heap_data[q * cap..q * cap + heap_lens[q]];
                sort_candidates(segment);
                out.extend(segment.iter().map(|&(dot, index)| SearchHit {
                    index,
                    sim: self.sim_of(dot),
                }));
            }
        });
    }

    /// The single most similar item (equivalent to `top_k(query, 1)`).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed codebook; returns
    /// [`HdcError::EmptyCodebook`] defensively.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn best_match(&self, query: PackedQuery<'_>) -> Result<SearchHit, HdcError> {
        self.top_k(query, 1)
            .into_iter()
            .next()
            .ok_or(HdcError::EmptyCodebook)
    }

    /// All items whose similarity strictly exceeds `threshold`, sorted by
    /// descending similarity with ties broken by ascending item index —
    /// exactly the ordering of the scalar reference
    /// [`Codebook::above_threshold`].
    ///
    /// Tables below the parallel threshold are scanned through
    /// [`PackedShards::above_threshold_into`] (thread-local scratch, zero
    /// steady-state allocations beyond the returned `Vec`); larger tables
    /// fork across the rayon pool.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn above_threshold(&self, query: PackedQuery<'_>, threshold: f64) -> Vec<SearchHit> {
        if !self.parallel() {
            let mut out = Vec::new();
            self.above_threshold_into(query, threshold, &mut out);
            return out;
        }
        self.check_query(&query);
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        let per_shard = self.scan_shards(|range| {
            range
                .filter_map(|i| {
                    let dot = query.dot_words(self.item_words(i), nonzero, kernel);
                    let sim = self.sim_of(dot);
                    (sim > threshold).then_some((dot, i))
                })
                .collect::<Vec<(i64, usize)>>()
        });
        let mut hits: Vec<(i64, usize)> = per_shard.concat();
        sort_candidates(&mut hits);
        hits.into_iter()
            .map(|(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            })
            .collect()
    }

    /// [`PackedShards::above_threshold`] into a caller-owned buffer:
    /// `out` is cleared and refilled, candidates accumulate in the
    /// thread-local scan scratch, and the final ordering uses an
    /// allocation-free unstable sort — a warm call with a reused `out`
    /// performs **zero heap allocations**. Always single-threaded;
    /// results are identical to [`PackedShards::above_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the table's.
    pub fn above_threshold_into(
        &self,
        query: PackedQuery<'_>,
        threshold: f64,
        out: &mut Vec<SearchHit>,
    ) {
        let _span = StageTimer::enter(Stage::Scan);
        self.check_query(&query);
        out.clear();
        let kernel = kernels::selected_kernel();
        let nonzero = query.nonzero_count() as i64;
        with_scratch(|scratch| {
            let cand = &mut scratch.cand;
            cand.clear();
            for i in 0..self.len {
                let dot = query.dot_words(self.item_words(i), nonzero, kernel);
                if self.sim_of(dot) > threshold {
                    cand.push((dot, i));
                }
            }
            sort_candidates(cand);
            out.extend(cand.iter().map(|&(dot, index)| SearchHit {
                index,
                sim: self.sim_of(dot),
            }));
        });
    }

    #[inline]
    fn item_words(&self, index: usize) -> &[u64] {
        &self.words[index * self.words_per_item..(index + 1) * self.words_per_item]
    }
}

impl fmt::Debug for PackedShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedShards")
            .field("len", &self.len)
            .field("dim", &self.dim)
            .field("shard_len", &self.shard_len)
            .field("generation", &self.generation)
            .finish()
    }
}

/// Scan routing: every query type knows its fastest codebook-scan path.
///
/// Word-level representations ([`BipolarHv`], [`TernaryHv`], [`PackedHv`])
/// route through the codebook's [`PackedShards`]; integer accumulators
/// ([`AccumHv`]) take the scalar reference path, since a general bundle
/// has no lossless packed form. Both routes return identical results —
/// the reference implementations are the oracle the packed kernels are
/// tested against.
///
/// ```
/// use hdc::{Codebook, CodebookScan};
///
/// let cb = Codebook::derive(3, 16, 512);
/// let query = cb.item(4).to_ternary();
/// let packed = query.scan_top_k(&cb, 2);      // packed shard scan
/// let reference = cb.top_k(&query, 2);        // scalar reference
/// assert_eq!(packed, reference);
/// assert_eq!(packed[0].index, 4);
/// ```
pub trait CodebookScan: Similarity {
    /// The `k` most similar items of `codebook`, sorted by descending
    /// similarity (ties by ascending index).
    fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit>;

    /// [`CodebookScan::scan_top_k`] into a caller-owned buffer: `out` is
    /// cleared and refilled with identical hits. Packed query types
    /// route through [`PackedShards::top_k_into`] — thread-local scratch,
    /// zero steady-state allocations when `out` is reused — which is what
    /// the factorizer's per-class and beam-descent scans run on; the
    /// default implementation is the allocating reference loop (what
    /// [`AccumHv`] uses, having no packed form).
    fn scan_top_k_into(&self, codebook: &Codebook, k: usize, out: &mut Vec<SearchHit>) {
        out.clear();
        out.extend(self.scan_top_k(codebook, k));
    }

    /// All items of `codebook` whose similarity strictly exceeds
    /// `threshold`, sorted by descending similarity (ties by ascending
    /// index).
    fn scan_above_threshold(&self, codebook: &Codebook, threshold: f64) -> Vec<SearchHit>;

    /// [`CodebookScan::scan_above_threshold`] into a caller-owned buffer:
    /// `out` is cleared and refilled with identical hits. Packed query
    /// types route through [`PackedShards::above_threshold_into`] — the
    /// **explicitly sequential** zero-alloc path — making this the safe
    /// entry point for callers that may already be running inside a
    /// parallel region (the factorizer's per-class and descent scans
    /// under planned batch execution). The default implementation is the
    /// allocating reference loop (what [`AccumHv`] uses, having no packed
    /// form).
    fn scan_above_threshold_into(
        &self,
        codebook: &Codebook,
        threshold: f64,
        out: &mut Vec<SearchHit>,
    ) {
        out.clear();
        out.extend(self.scan_above_threshold(codebook, threshold));
    }

    /// The single most similar item of `codebook`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyCodebook`] defensively; constructed
    /// codebooks are never empty.
    fn scan_best(&self, codebook: &Codebook) -> Result<SearchHit, HdcError> {
        self.scan_top_k(codebook, 1)
            .into_iter()
            .next()
            .ok_or(HdcError::EmptyCodebook)
    }

    /// [`CodebookScan::scan_top_k`] for a whole batch of queries against
    /// one codebook, per-query results bit-identical to the one-at-a-time
    /// scan. Packed query types route through
    /// [`PackedShards::top_k_many`], amortizing the table traversal across
    /// the batch; the default implementation is the per-query reference
    /// loop (and what [`AccumHv`] uses, having no packed form).
    fn scan_top_k_many(codebook: &Codebook, queries: &[Self], k: usize) -> Vec<Vec<SearchHit>>
    where
        Self: Sized,
    {
        queries.iter().map(|q| q.scan_top_k(codebook, k)).collect()
    }
}

macro_rules! impl_codebook_scan_packed {
    ($($ty:ty),*) => {$(
        impl CodebookScan for $ty {
            fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit> {
                codebook.packed_view().top_k(self.packed_query(), k)
            }

            fn scan_top_k_into(
                &self,
                codebook: &Codebook,
                k: usize,
                out: &mut Vec<SearchHit>,
            ) {
                codebook.packed_view().top_k_into(self.packed_query(), k, out)
            }

            fn scan_above_threshold(
                &self,
                codebook: &Codebook,
                threshold: f64,
            ) -> Vec<SearchHit> {
                codebook
                    .packed_view()
                    .above_threshold(self.packed_query(), threshold)
            }

            fn scan_above_threshold_into(
                &self,
                codebook: &Codebook,
                threshold: f64,
                out: &mut Vec<SearchHit>,
            ) {
                codebook
                    .packed_view()
                    .above_threshold_into(self.packed_query(), threshold, out)
            }

            fn scan_top_k_many(
                codebook: &Codebook,
                queries: &[Self],
                k: usize,
            ) -> Vec<Vec<SearchHit>> {
                let packed: Vec<PackedQuery<'_>> =
                    queries.iter().map(|q| q.packed_query()).collect();
                codebook.packed_view().top_k_many(&packed, k)
            }
        }
    )*};
}

impl_codebook_scan_packed!(BipolarHv, TernaryHv, PackedHv);

impl CodebookScan for AccumHv {
    fn scan_top_k(&self, codebook: &Codebook, k: usize) -> Vec<SearchHit> {
        codebook.top_k(self, k)
    }

    fn scan_above_threshold(&self, codebook: &Codebook, threshold: f64) -> Vec<SearchHit> {
        codebook.above_threshold(self, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{rng_from_seed, Bind, Bundle};

    fn random_ternary(dim: usize, seed: u64) -> TernaryHv {
        let mut rng = rng_from_seed(seed);
        let a = BipolarHv::random(dim, &mut rng);
        let b = BipolarHv::random(dim, &mut rng);
        a.bundle(&b).clip_ternary()
    }

    #[test]
    fn bounded_heap_keeps_the_k_best() {
        // Adversarial stream with heavy ties: the kept set must be the k
        // candidates ranking highest under (dot desc, index asc).
        let entries: Vec<(i64, usize)> = (0..40).map(|i| ((i % 5) as i64, i)).collect();
        for k in [1usize, 3, 7, 40, 50] {
            let cap = k.min(entries.len());
            let mut heap = vec![(0i64, 0usize); cap];
            let mut len = 0usize;
            for &e in &entries {
                heap_offer(&mut heap, &mut len, cap, e);
            }
            heap.truncate(len);
            sort_candidates(&mut heap);
            let mut expected = entries.clone();
            sort_candidates(&mut expected);
            expected.truncate(cap);
            assert_eq!(heap, expected, "k {k}");
        }
    }

    #[test]
    fn packed_dot_matches_reference_dense() {
        let mut rng = rng_from_seed(1);
        for dim in [1usize, 63, 64, 65, 333, 1024] {
            let a = BipolarHv::random(dim, &mut rng);
            let b = BipolarHv::random(dim, &mut rng);
            let pa = PackedHv::from_bipolar(&a);
            let pb = PackedHv::from_bipolar(&b);
            assert_eq!(pa.dot(&pb), a.dot(&b), "dim {dim}");
            assert_eq!(pa.hamming(&pb), a.hamming(&b), "dim {dim}");
        }
    }

    #[test]
    fn packed_dot_matches_reference_ternary() {
        for (dim, seed) in [(1usize, 10u64), (65, 11), (200, 12), (1024, 13)] {
            let t = random_ternary(dim, seed);
            let u = random_ternary(dim, seed ^ 0xFF);
            let pt = PackedHv::from_ternary(&t);
            let pu = PackedHv::from_ternary(&u);
            assert_eq!(pt.dot(&pu), t.dot(&u), "dim {dim}");
            let mut rng = rng_from_seed(seed ^ 0xAAAA);
            let b = BipolarHv::random(dim, &mut rng);
            assert_eq!(pt.dot(&PackedHv::from_bipolar(&b)), t.dot_bipolar(&b));
        }
    }

    #[test]
    fn packed_hamming_counts_zero_disagreements() {
        let t = TernaryHv::from_components(&[1, 0, -1, 0]).unwrap();
        let u = TernaryHv::from_components(&[1, 1, 1, 0]).unwrap();
        let h = PackedHv::from_ternary(&t).hamming(&PackedHv::from_ternary(&u));
        // Components 1 (0 vs 1) and 2 (-1 vs 1) differ.
        assert_eq!(h, 2);
    }

    #[test]
    fn packed_bind_matches_componentwise_product() {
        let t = random_ternary(130, 20);
        let u = random_ternary(130, 21);
        let bound = PackedHv::from_ternary(&t).bind(&PackedHv::from_ternary(&u));
        let expected: TernaryHv = t.bind(&u);
        assert_eq!(bound.to_ternary(), expected);
    }

    #[test]
    fn dense_ternary_canonicalizes_to_maskless() {
        let mut rng = rng_from_seed(30);
        let b = BipolarHv::random(100, &mut rng);
        let via_ternary = PackedHv::from_ternary(&b.to_ternary());
        let direct = PackedHv::from_bipolar(&b);
        assert_eq!(via_ternary, direct);
        assert!(via_ternary.is_dense());
    }

    #[test]
    fn packed_similarity_trait_matches_reference() {
        let mut rng = rng_from_seed(31);
        let reference = BipolarHv::random(777, &mut rng);
        let t = random_ternary(777, 32);
        let packed = PackedHv::from_ternary(&t);
        assert_eq!(packed.sim_to(&reference), t.sim_to(&reference));
        assert_eq!(
            PackedHv::from_accum_lossless(&t.to_accum())
                .expect("lossless")
                .sim_to(&reference),
            t.sim_to(&reference)
        );
        let big = AccumHv::from_components(vec![2, 0, -1]);
        assert!(PackedHv::from_accum_lossless(&big).is_none());
    }

    #[test]
    fn shard_table_dots_match_reference() {
        let cb = Codebook::derive(40, 37, 513);
        let mut rng = rng_from_seed(41);
        let q = BipolarHv::random(513, &mut rng);
        assert_eq!(
            cb.packed_view().dots(q.packed_query()),
            cb.iter().map(|item| q.dot(item)).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn shard_table_top_k_matches_reference_ordering() {
        // Small dim forces many exact ties: ordering must still agree.
        let cb = Codebook::derive(42, 64, 16);
        let t = random_ternary(16, 43);
        for k in [1usize, 3, 16, 64, 100] {
            assert_eq!(t.scan_top_k(&cb, k), cb.top_k(&t, k), "k {k}");
        }
        assert_eq!(t.scan_top_k(&cb, 0), Vec::new());
    }

    #[test]
    fn shard_table_above_threshold_matches_reference() {
        let cb = Codebook::derive(44, 50, 256);
        let t = random_ternary(256, 45);
        for th in [-0.5f64, -0.1, 0.0, 0.05, 0.3, 0.9] {
            assert_eq!(
                t.scan_above_threshold(&cb, th),
                cb.above_threshold(&t, th),
                "threshold {th}"
            );
        }
    }

    #[test]
    fn scan_best_matches_best_match() {
        let cb = Codebook::derive(46, 20, 1024);
        let q = cb.item(13).clone();
        let packed = q.scan_best(&cb).unwrap();
        let reference = cb.best_match(&q).unwrap();
        assert_eq!(packed, reference);
        assert_eq!(packed.index, 13);
    }

    #[test]
    fn accum_route_matches_packed_route_when_lossless() {
        let cb = Codebook::derive(47, 24, 512);
        let t = random_ternary(512, 48);
        let acc = t.to_accum();
        assert_eq!(acc.scan_top_k(&cb, 5), t.scan_top_k(&cb, 5));
        assert_eq!(
            acc.scan_above_threshold(&cb, 0.1),
            t.scan_above_threshold(&cb, 0.1)
        );
    }

    #[test]
    fn shard_geometry_covers_all_items() {
        let cb = Codebook::derive(49, 1000, 8192);
        let view = cb.packed_view();
        assert_eq!(view.len(), 1000);
        assert_eq!(view.dim(), 8192);
        assert!(view.shard_len() >= 1);
        assert_eq!(view.num_shards(), 1000usize.div_ceil(view.shard_len()));
        // Every index appears in exactly one shard.
        let mut seen = vec![false; 1000];
        for s in 0..view.num_shards() {
            for i in view.shard_range(s) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    /// Serializes tests that resize the global worker pool.
    fn pool_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_sequential() {
        let _guard = pool_test_lock();
        let before = rayon::current_num_threads();
        // Multi-lane pool so the size gate is the only question…
        rayon::configure_pool(2);
        // …and big enough to clear PAR_MIN_WORDS (4096 items × 128 words).
        let cb = Codebook::derive(50, 4096, 8192);
        let view = cb.packed_view();
        assert!(view.parallel(), "table must take the parallel route");
        let t = random_ternary(8192, 51);
        let q = t.packed_query();
        // Sequential reference over the same table.
        let nonzero = q.nonzero_count() as i64;
        let kernel = kernels::selected_kernel();
        let seq: Vec<i64> = (0..view.len())
            .map(|i| q.dot_words(view.item_words(i), nonzero, kernel))
            .collect();
        assert_eq!(view.dots(q), seq);
        assert_eq!(view.top_k(q, 7), cb.top_k(&t, 7));
        rayon::configure_pool(before);
    }

    #[test]
    fn top_k_many_matches_per_query_top_k() {
        // Small dim forces exact ties: the batched traversal must keep the
        // same candidates in the same order as the one-at-a-time scan.
        let cb = Codebook::derive(60, 96, 64);
        let view = cb.packed_view();
        let queries: Vec<TernaryHv> = (0..9).map(|i| random_ternary(64, 61 + i)).collect();
        let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
        for k in [1usize, 4, 96, 200] {
            let many = view.top_k_many(&packed, k);
            for (q, hits) in queries.iter().zip(&many) {
                assert_eq!(hits, &view.top_k(q.packed_query(), k), "k {k}");
                assert_eq!(hits, &cb.top_k(q, k), "k {k} vs reference");
            }
        }
        assert_eq!(view.top_k_many(&packed, 0), vec![Vec::new(); queries.len()]);
        assert_eq!(view.top_k_many(&[], 3), Vec::<Vec<SearchHit>>::new());
    }

    #[test]
    fn scan_top_k_many_routes_match_per_query() {
        let cb = Codebook::derive(62, 40, 512);
        let ternary: Vec<TernaryHv> = (0..5).map(|i| random_ternary(512, 63 + i)).collect();
        let grouped = TernaryHv::scan_top_k_many(&cb, &ternary, 3);
        let single: Vec<Vec<SearchHit>> = ternary.iter().map(|q| q.scan_top_k(&cb, 3)).collect();
        assert_eq!(grouped, single);
        // The accumulator default (no packed form) agrees too.
        let accums: Vec<AccumHv> = ternary.iter().map(|t| t.to_accum()).collect();
        assert_eq!(AccumHv::scan_top_k_many(&cb, &accums, 3), single);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let cb = Codebook::derive(52, 4, 64);
        assert!(!format!("{:?}", cb.packed_view()).is_empty());
        assert!(!format!("{:?}", PackedHv::from_bipolar(cb.item(0))).is_empty());
    }

    #[test]
    fn into_variants_match_plain_scans_across_reuses() {
        // The caller-buffer variants must agree with the plain scans and
        // stay correct when their buffers are reused (smaller and larger
        // follow-up scans, stale contents cleared).
        let cb = Codebook::derive(70, 96, 192);
        let view = cb.packed_view();
        let mut hits = Vec::new();
        let mut dots = Vec::new();
        let mut th_hits = Vec::new();
        let mut many = Vec::new();
        for round in 0..3 {
            for (i, k) in [(1usize, 1usize), (5, 4), (9, 96), (13, 200)].into_iter() {
                let t = random_ternary(192, 71 + i as u64 + round);
                let q = t.packed_query();
                view.top_k_into(q, k, &mut hits);
                assert_eq!(hits, view.top_k(q, k), "k {k} round {round}");
                view.dots_into(q, &mut dots);
                assert_eq!(dots, view.dots(q), "round {round}");
                view.above_threshold_into(q, 0.05, &mut th_hits);
                assert_eq!(th_hits, view.above_threshold(q, 0.05), "round {round}");
            }
            let queries: Vec<TernaryHv> = (0..7 - round as usize)
                .map(|i| random_ternary(192, 80 + round * 10 + i as u64))
                .collect();
            let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
            view.top_k_many_into(&packed, 5, &mut many);
            assert_eq!(many.len(), packed.len());
            assert_eq!(many, view.top_k_many(&packed, 5), "round {round}");
        }
        // k = 0 clears every buffer.
        let t = random_ternary(192, 99);
        view.top_k_into(t.packed_query(), 0, &mut hits);
        assert!(hits.is_empty());
        view.top_k_many_into(&[t.packed_query()], 0, &mut many);
        assert_eq!(many, vec![Vec::new()]);
    }

    #[test]
    fn scan_above_threshold_into_matches_plain_scan() {
        // The explicit sequential entry point must agree with the
        // parallel-capable scan for both packed queries and the accum
        // default, and inside a parallel region the gated scan must stay
        // bit-identical (the nested-suppression path).
        let cb = Codebook::derive(76, 64, 256);
        let t = random_ternary(256, 77);
        let mut out = Vec::new();
        t.scan_above_threshold_into(&cb, 0.03, &mut out);
        assert_eq!(out, t.scan_above_threshold(&cb, 0.03));
        let accum = t.to_accum();
        accum.scan_above_threshold_into(&cb, 0.03, &mut out);
        assert_eq!(out, accum.scan_above_threshold(&cb, 0.03));
        // From inside a region the gate forces the sequential path; the
        // hits must stay bit-identical. (Two items on a two-lane pool so
        // the closure genuinely runs in-region.)
        let _guard = pool_test_lock();
        let before = rayon::current_num_threads();
        rayon::configure_pool(2);
        let reference = t.scan_above_threshold(&cb, 0.03);
        let nested: Vec<Vec<SearchHit>> = vec![0u64, 1]
            .into_par_iter()
            .map(|_| {
                assert!(rayon::in_parallel_region());
                t.scan_above_threshold(&cb, 0.03)
            })
            .collect();
        rayon::configure_pool(before);
        assert_eq!(nested[0], reference);
        assert_eq!(nested[1], reference);
    }

    #[test]
    fn batched_scan_exceeding_query_block_matches_per_query() {
        // More queries than one register block (QUERY_BLOCK) and more
        // items than one shard: the tiled traversal must stay
        // bit-identical to the one-at-a-time scans.
        let cb = Codebook::derive(72, 300, 2048);
        let view = cb.packed_view();
        assert!(view.num_shards() > 1, "geometry must span multiple tiles");
        let queries: Vec<TernaryHv> = (0..QUERY_BLOCK as u64 * 3 + 1)
            .map(|i| random_ternary(2048, 73 + i))
            .collect();
        let packed: Vec<PackedQuery<'_>> = queries.iter().map(|q| q.packed_query()).collect();
        let many = view.top_k_many(&packed, 6);
        for (q, hits) in queries.iter().zip(&many) {
            assert_eq!(hits, &view.top_k(q.packed_query(), 6));
            assert_eq!(hits, &cb.top_k(q, 6));
        }
    }

    #[test]
    fn every_available_kernel_scans_bit_identically() {
        // Small dim forces exact ties; every dispatchable kernel must
        // keep the reference candidate set and tie ordering.
        let _guard = kernels::selection_test_lock();
        let cb = Codebook::derive(74, 80, 48);
        let view = cb.packed_view();
        let t = random_ternary(48, 75);
        let reference = cb.top_k(&t, 10);
        let original = kernels::selected_kernel();
        for kernel in kernels::available_kernels() {
            kernels::force_kernel(kernel.name()).expect("available");
            assert_eq!(
                view.top_k(t.packed_query(), 10),
                reference,
                "kernel {}",
                kernel.name()
            );
        }
        kernels::force_kernel(original.name()).expect("restore");
    }
}

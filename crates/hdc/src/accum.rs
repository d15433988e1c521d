//! Integer accumulator hypervectors (`Z^D`).
//!
//! Bundling several objects keeps component sums un-clipped ("when bundling
//! HVs of different objects, we retain the results in Z^D", §II-A), so the
//! scene representation and all intermediate unbinding results live here.

use crate::ops::{Bind, Bundle, Permute};
use crate::{words_for, BipolarHv, TernaryHv, WORD_BITS};
use std::fmt;

/// An integer-valued hypervector in `Z^D`, the bundling accumulator.
///
/// ```
/// use hdc::{AccumHv, BipolarHv};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let a = BipolarHv::random(256, &mut rng);
/// let b = BipolarHv::random(256, &mut rng);
///
/// let mut scene = AccumHv::zeros(256);
/// scene.add_bipolar(&a, 1);
/// scene.add_bipolar(&b, 1);
/// // The bundle stays similar to each member.
/// assert!(scene.sim_bipolar(&a) > 0.3);
/// assert!(scene.sim_bipolar(&b) > 0.3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AccumHv {
    data: Vec<i32>,
    dim: usize,
}

impl AccumHv {
    /// The all-zero accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        AccumHv {
            data: vec![0; dim],
            dim,
        }
    }

    /// Builds from explicit integer components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn from_components(components: Vec<i32>) -> Self {
        assert!(
            !components.is_empty(),
            "hypervector dimension must be positive"
        );
        let dim = components.len();
        AccumHv {
            data: components,
            dim,
        }
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow the raw components.
    #[inline]
    pub fn components(&self) -> &[i32] {
        &self.data
    }

    /// Component at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    #[inline]
    pub fn component(&self, index: usize) -> i32 {
        self.data[index]
    }

    /// Adds `weight ×` a bipolar vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_bipolar(&mut self, rhs: &BipolarHv, weight: i32) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                if word >> (i - base) & 1 == 1 {
                    self.data[i] -= weight;
                } else {
                    self.data[i] += weight;
                }
            }
        }
    }

    /// Adds `weight ×` a ternary vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_ternary(&mut self, rhs: &TernaryHv, weight: i32) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        unpack_words(
            rhs.sign_words(),
            Some(rhs.mask_words()),
            weight,
            true,
            &mut self.data,
        );
    }

    /// Overwrites every component with the `{-1, 0, 1}` value the packed
    /// planes hold (`mask == None` means dense, every component `±1`),
    /// a word at a time.
    pub(crate) fn assign_planes(&mut self, sign: &[u64], mask: Option<&[u64]>) {
        unpack_words(sign, mask, 1, false, &mut self.data);
    }

    /// Adds another accumulator in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_accum(&mut self, rhs: &AccumHv) {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Subtracts another accumulator in place (used by the Rep-3
    /// reconstruct-and-exclude loop).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_accum(&mut self, rhs: &AccumHv) {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Subtracts a ternary vector in place.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_ternary(&mut self, rhs: &TernaryHv) {
        self.add_ternary(rhs, -1);
    }

    /// Multiplies every component by `factor`.
    pub fn scale(&mut self, factor: i32) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Component-wise multiplication by a bipolar vector, in place. This is
    /// the unbinding step FactorHD applies to a scene bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind_bipolar_assign(&mut self, rhs: &BipolarHv) {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                if word >> (i - base) & 1 == 1 {
                    self.data[i] = -self.data[i];
                }
            }
        }
    }

    /// Serialized length of [`AccumHv::to_le_bytes`] for dimension `dim`:
    /// one little-endian `i32` per component.
    #[inline]
    pub fn byte_len(dim: usize) -> usize {
        dim * 4
    }

    /// Serializes the components as little-endian `i32` values — the
    /// word-level wire form used by the `.fhd` model-artifact codec.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::byte_len(self.dim));
        for v in &self.data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reconstructs an accumulator from [`AccumHv::to_le_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`crate::HdcError::InvalidDimension`] if `dim == 0`, or
    /// [`crate::HdcError::InvalidEncoding`] if `bytes` is not exactly
    /// [`AccumHv::byte_len`] long.
    pub fn from_le_bytes(dim: usize, bytes: &[u8]) -> Result<Self, crate::HdcError> {
        if dim == 0 {
            return Err(crate::HdcError::InvalidDimension(0));
        }
        let expected = Self::byte_len(dim);
        if bytes.len() != expected {
            return Err(crate::HdcError::InvalidEncoding {
                expected,
                actual: bytes.len(),
            });
        }
        let data: Vec<i32> = bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        Ok(AccumHv { data, dim })
    }

    /// The exact ternary view of this accumulator when every component
    /// already lies in `{-1, 0, 1}` (true for any single-object scene and
    /// for fully-peeled Rep-3 residuals), `None` otherwise.
    ///
    /// The conversion is lossless, so similarity kernels running on the
    /// returned [`TernaryHv`] produce bit-identical integer dot products
    /// while replacing per-component scalar loops with word-level
    /// popcounts — the fast path the factorizer takes when it can. The
    /// components are packed a word at a time, and the check stops at
    /// the first word holding an out-of-range value.
    pub fn to_ternary_lossless(&self) -> Option<TernaryHv> {
        let (sign, mask) = self.planes(true)?;
        Some(TernaryHv::from_planes(mask, sign, self.dim))
    }

    /// The `(sign, mask)` planes of the components packed a word at a
    /// time; with `lossless_only`, `None` at the first word holding a
    /// value outside `{-1, 0, 1}`.
    pub(crate) fn planes(&self, lossless_only: bool) -> Option<(Vec<u64>, Vec<u64>)> {
        // A multi-object bundle is usually out of range in its first
        // word already: reject it there, before allocating the planes.
        let head = &self.data[..self.dim.min(WORD_BITS)];
        if lossless_only && !pack_words(head, &mut [0], &mut [0], true) {
            return None;
        }
        let n = words_for(self.dim);
        let (mut sign, mut mask) = (vec![0; n], vec![0; n]);
        let lossless = pack_words(&self.data, &mut sign, &mut mask, lossless_only);
        (lossless || !lossless_only).then_some((sign, mask))
    }

    /// Clips to `{-1, 0, 1}` by sign, the FactorHD clause normalization.
    pub fn clip_ternary(&self) -> TernaryHv {
        let (sign, mask) = self.planes(false).expect("clipping never stops early");
        TernaryHv::from_planes(mask, sign, self.dim)
    }

    /// Collapses to bipolar by sign; zero components resolve to `+1`
    /// (deterministic tie-breaking, documented behaviour).
    pub fn sign_bipolar(&self) -> BipolarHv {
        let (sign, _) = self.planes(false).expect("packing never stops early");
        BipolarHv::from_words(sign, self.dim)
    }

    /// Exact integer dot product with a bipolar vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot_bipolar(&self, rhs: &BipolarHv) -> i64 {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let mut total: i64 = 0;
        for (w_idx, &word) in rhs.words().iter().enumerate() {
            let base = w_idx * WORD_BITS;
            let end = (base + WORD_BITS).min(self.dim);
            for i in base..end {
                let v = self.data[i] as i64;
                if word >> (i - base) & 1 == 1 {
                    total -= v;
                } else {
                    total += v;
                }
            }
        }
        total
    }

    /// Exact integer dot product with a ternary vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot_ternary(&self, rhs: &TernaryHv) -> i64 {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let mut total: i64 = 0;
        for i in 0..self.dim {
            total += self.data[i] as i64 * rhs.component(i) as i64;
        }
        total
    }

    /// Exact integer dot product with another accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, rhs: &AccumHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a as i64 * b as i64)
            .sum()
    }

    /// Normalized dot similarity against a bipolar vector (`dot / D`).
    #[inline]
    pub fn sim_bipolar(&self, rhs: &BipolarHv) -> f64 {
        self.dot_bipolar(rhs) as f64 / self.dim as f64
    }

    /// Normalized dot similarity against a ternary vector (`dot / D`).
    #[inline]
    pub fn sim_ternary(&self, rhs: &TernaryHv) -> f64 {
        self.dot_ternary(rhs) as f64 / self.dim as f64
    }

    /// Euclidean norm of the components.
    pub fn norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }
}

impl Bind<BipolarHv> for AccumHv {
    type Output = AccumHv;

    fn bind(&self, rhs: &BipolarHv) -> AccumHv {
        let mut out = self.clone();
        out.bind_bipolar_assign(rhs);
        out
    }
}

impl Bundle for AccumHv {
    type Output = AccumHv;

    fn bundle(&self, rhs: &AccumHv) -> AccumHv {
        let mut out = self.clone();
        out.add_accum(rhs);
        out
    }
}

impl Permute for AccumHv {
    fn permute(&self, shift: usize) -> Self {
        let shift = shift % self.dim;
        let mut data = vec![0; self.dim];
        for i in 0..self.dim {
            data[(i + shift) % self.dim] = self.data[i];
        }
        AccumHv {
            data,
            dim: self.dim,
        }
    }
}

impl From<BipolarHv> for AccumHv {
    fn from(value: BipolarHv) -> Self {
        value.to_accum()
    }
}

impl From<TernaryHv> for AccumHv {
    fn from(value: TernaryHv) -> Self {
        value.to_accum()
    }
}

impl fmt::Debug for AccumHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<i32> = self.data.iter().take(8).copied().collect();
        f.debug_struct("AccumHv")
            .field("dim", &self.dim)
            .field("head", &preview)
            .finish()
    }
}

// ----- Packing at the accumulator boundary -----
//
// The loops below move components between `i32`s and the sign / non-zero
// bit planes the packed scans read, a word (64 components) at a time.
// Each works on one 32-lane half of a word with no branch in its body,
// the width the compiler vectorizes without target-specific code.

const HALF_BITS: usize = WORD_BITS / 2;

/// Sign bits, non-zero bits and an out-of-range flag (non-zero when a
/// component lies outside `{-1, 0, 1}`) of 32 components.
#[inline]
fn pack_half(half: &[i32; HALF_BITS]) -> (u32, u32, u32) {
    let (mut sign, mut mask, mut bad) = (0u32, 0u32, 0u32);
    for (b, &v) in half.iter().enumerate() {
        // Lane masks ANDed with the lane's constant bit: unlike a shift
        // by `b`, this vectorizes on baseline x86-64 (SSE2).
        let bit = 1u32 << b;
        sign |= (v >> 31) as u32 & bit;
        mask |= (-i32::from(v != 0)) as u32 & bit;
        bad |= u32::from(v.wrapping_add(1) as u32 > 2);
    }
    (sign, mask, bad)
}

/// `(sign, mask, lossless)` of 64 components.
#[inline]
fn pack_word(chunk: &[i32; WORD_BITS]) -> (u64, u64, bool) {
    let (lo, hi) = chunk.split_at(HALF_BITS);
    let (s0, m0, bad0) = pack_half(lo.try_into().expect("half a word"));
    let (s1, m1, bad1) = pack_half(hi.try_into().expect("half a word"));
    (
        u64::from(s0) | u64::from(s1) << HALF_BITS,
        u64::from(m0) | u64::from(m1) << HALF_BITS,
        bad0 | bad1 == 0,
    )
}

/// Packs `data` into bit planes a word at a time: bit `i` of `sign` is
/// set ⇔ `data[i] < 0`, bit `i` of `mask` ⇔ `data[i] != 0`, and padding
/// bits past `data.len()` come out clear (the final partial word is
/// packed from a zero-padded copy). Returns `true` when every component
/// lies in `{-1, 0, 1}`. With `stop_at_lossy` the packing stops at the
/// first word holding another value and returns `false`, leaving the
/// later words of the planes untouched.
///
/// # Panics
///
/// Panics unless both planes hold exactly one word per 64 components.
fn pack_words(data: &[i32], sign: &mut [u64], mask: &mut [u64], stop_at_lossy: bool) -> bool {
    let words = words_for(data.len());
    assert!(sign.len() == words && mask.len() == words, "plane length");
    let mut lossless = true;
    let mut tail = [0i32; WORD_BITS];
    for (w, run) in data.chunks(WORD_BITS).enumerate() {
        let chunk: &[i32; WORD_BITS] = match run.try_into() {
            Ok(full) => full,
            Err(_) => {
                tail[..run.len()].copy_from_slice(run);
                &tail
            }
        };
        let (s, m, word_lossless) = pack_word(chunk);
        sign[w] = s;
        mask[w] = m;
        lossless &= word_lossless;
        if stop_at_lossy && !lossless {
            return false;
        }
    }
    lossless
}

/// `out[b] = (out[b] & keep) + weight · c[b]` over 32 components, with
/// `keep` all-ones (accumulate) or zero (assign) and `weight · c` formed
/// as a conditional negation instead of a multiply.
#[inline]
fn unpack_half(sign: u32, mask: u32, weight: i32, keep: i32, out: &mut [i32; HALF_BITS]) {
    for (b, o) in out.iter_mut().enumerate() {
        let bit = 1u32 << b;
        let nonzero = -i32::from(mask & bit != 0);
        let negative = -i32::from(sign & bit != 0) & nonzero;
        *o = (*o & keep) + (((weight & nonzero) ^ negative) - negative);
    }
}

/// [`unpack_half`] over one packed word and 64 components of `out`.
#[inline]
fn unpack_word(sign: u64, mask: u64, weight: i32, keep: i32, out: &mut [i32; WORD_BITS]) {
    let (lo, hi) = out.split_at_mut(HALF_BITS);
    let (lo, hi) = (
        lo.try_into().expect("half a word"),
        hi.try_into().expect("half a word"),
    );
    unpack_half(sign as u32, mask as u32, weight, keep, lo);
    let (sign, mask) = ((sign >> HALF_BITS) as u32, (mask >> HALF_BITS) as u32);
    unpack_half(sign, mask, weight, keep, hi);
}

/// Expands packed planes into `out` a word at a time: component `i` has
/// value `c = 0` where `mask` bit `i` is clear, `-1` where the `sign` bit
/// is set and `+1` otherwise (`mask == None`: no zero component). With
/// `accumulate`, `out[i] += weight · c`; without, `out[i] = weight · c`.
/// A final partial word is expanded through a padded copy of its run.
///
/// # Panics
///
/// Panics unless the planes hold exactly one word per 64 components of
/// `out`.
fn unpack_words(
    sign: &[u64],
    mask: Option<&[u64]>,
    weight: i32,
    accumulate: bool,
    out: &mut [i32],
) {
    let words = words_for(out.len());
    assert!(
        sign.len() == words && mask.is_none_or(|m| m.len() == words),
        "plane length"
    );
    let keep = -i32::from(accumulate);
    let planes = |w: usize| (sign[w], mask.map_or(u64::MAX, |m| m[w]));
    let mut runs = out.chunks_exact_mut(WORD_BITS);
    let mut words = 0;
    for run in runs.by_ref() {
        let (s, m) = planes(words);
        unpack_word(s, m, weight, keep, run.try_into().expect("exact chunk"));
        words += 1;
    }
    let rest = runs.into_remainder();
    if !rest.is_empty() {
        let mut tail = [0i32; WORD_BITS];
        tail[..rest.len()].copy_from_slice(rest);
        let (s, m) = planes(words);
        unpack_word(s, m, weight, keep, &mut tail);
        rest.copy_from_slice(&tail[..rest.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn add_bipolar_matches_components() {
        let mut rng = rng_from_seed(30);
        let v = BipolarHv::random(130, &mut rng);
        let mut acc = AccumHv::zeros(130);
        acc.add_bipolar(&v, 3);
        for i in 0..130 {
            assert_eq!(acc.component(i), 3 * v.component(i) as i32);
        }
    }

    #[test]
    fn add_then_sub_ternary_is_identity() {
        let mut rng = rng_from_seed(31);
        let a = BipolarHv::random(200, &mut rng);
        let b = BipolarHv::random(200, &mut rng);
        let t = a.bundle(&b).clip_ternary();
        let mut acc = AccumHv::zeros(200);
        acc.add_ternary(&t, 1);
        acc.sub_ternary(&t);
        assert!(acc.is_zero());
    }

    #[test]
    fn bind_bipolar_is_self_inverse() {
        let mut rng = rng_from_seed(32);
        let v = BipolarHv::random(99, &mut rng);
        let orig = AccumHv::from_components((0..99).map(|i| i - 50).collect());
        let mut acc = orig.clone();
        acc.bind_bipolar_assign(&v);
        acc.bind_bipolar_assign(&v);
        assert_eq!(acc, orig);
    }

    #[test]
    fn dot_bipolar_matches_naive() {
        let mut rng = rng_from_seed(33);
        let v = BipolarHv::random(257, &mut rng);
        let acc = AccumHv::from_components((0..257).map(|i| (i % 7) - 3).collect());
        let naive: i64 = (0..257)
            .map(|i| acc.component(i) as i64 * v.component(i) as i64)
            .sum();
        assert_eq!(acc.dot_bipolar(&v), naive);
    }

    #[test]
    fn dot_accum_matches_naive() {
        let a = AccumHv::from_components(vec![1, -2, 3, 0]);
        let b = AccumHv::from_components(vec![4, 5, -6, 7]);
        assert_eq!(a.dot(&b), 4 - 10 - 18);
    }

    #[test]
    fn clip_ternary_signs() {
        let acc = AccumHv::from_components(vec![5, -3, 0, 1, -1]);
        let t = acc.clip_ternary();
        let comps: Vec<i8> = t.iter().collect();
        assert_eq!(comps, vec![1, -1, 0, 1, -1]);
    }

    #[test]
    fn sign_bipolar_breaks_ties_positive() {
        let acc = AccumHv::from_components(vec![2, -2, 0]);
        let b = acc.sign_bipolar();
        assert_eq!(b.component(0), 1);
        assert_eq!(b.component(1), -1);
        assert_eq!(b.component(2), 1);
    }

    #[test]
    fn bundle_preserves_member_similarity() {
        let mut rng = rng_from_seed(34);
        let members: Vec<BipolarHv> = (0..5).map(|_| BipolarHv::random(2048, &mut rng)).collect();
        let mut scene = AccumHv::zeros(2048);
        for m in &members {
            scene.add_bipolar(m, 1);
        }
        let outsider = BipolarHv::random(2048, &mut rng);
        for m in &members {
            assert!(
                scene.sim_bipolar(m) > 0.2,
                "member lost: {}",
                scene.sim_bipolar(m)
            );
        }
        assert!(scene.sim_bipolar(&outsider).abs() < 0.15);
    }

    #[test]
    fn le_bytes_round_trip() {
        let acc = AccumHv::from_components(vec![5, -3, 0, i32::MAX, i32::MIN, 1]);
        let bytes = acc.to_le_bytes();
        assert_eq!(bytes.len(), AccumHv::byte_len(6));
        assert_eq!(AccumHv::from_le_bytes(6, &bytes).unwrap(), acc);
        assert!(AccumHv::from_le_bytes(0, &[]).is_err());
        assert!(AccumHv::from_le_bytes(6, &bytes[1..]).is_err());
    }

    #[test]
    fn ternary_lossless_view() {
        let small = AccumHv::from_components(vec![1, -1, 0, 1]);
        let t = small.to_ternary_lossless().expect("in range");
        let comps: Vec<i8> = t.iter().collect();
        assert_eq!(comps, vec![1, -1, 0, 1]);
        assert_eq!(t.to_accum(), small);
        let big = AccumHv::from_components(vec![1, 2, 0]);
        assert!(big.to_ternary_lossless().is_none());
    }

    #[test]
    fn ternary_lossless_sims_match_accum_sims() {
        let mut rng = rng_from_seed(35);
        let a = BipolarHv::random(500, &mut rng);
        let b = BipolarHv::random(500, &mut rng);
        let acc = a.bundle(&b).clip_ternary().to_accum();
        let t = acc.to_ternary_lossless().expect("clipped values");
        let probe = BipolarHv::random(500, &mut rng);
        assert_eq!(acc.dot_bipolar(&probe), t.dot_bipolar(&probe));
    }

    #[test]
    fn scale_and_norm() {
        let mut acc = AccumHv::from_components(vec![3, 4]);
        assert!((acc.norm() - 5.0).abs() < 1e-12);
        acc.scale(2);
        assert_eq!(acc.components(), &[6, 8]);
    }

    #[test]
    fn permute_shifts() {
        let acc = AccumHv::from_components(vec![1, 2, 3]);
        let p = acc.permute(1);
        assert_eq!(p.components(), &[3, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_accum_mismatch_panics() {
        let mut a = AccumHv::zeros(4);
        let b = AccumHv::zeros(5);
        a.add_accum(&b);
    }
}

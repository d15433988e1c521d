//! Dense bipolar (`{-1, +1}`) hypervectors stored as packed sign bits.
//!
//! A set bit encodes `-1`, a clear bit encodes `+1`. With this layout
//! binding is a word-wise XOR and dot products reduce to popcounts, which
//! is what makes the large factorization sweeps tractable on a CPU.

use crate::ops::{Bind, Bundle, Permute};
use crate::{clear_padding, words_for, AccumHv, HdcError, TernaryHv, WORD_BITS};
use rand::Rng;
use std::fmt;

/// A dense bipolar hypervector in `{-1, +1}^D`.
///
/// ```
/// use hdc::{BipolarHv, Bind};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let v = BipolarHv::random(256, &mut rng);
/// // Binding with itself gives the identity vector (all +1).
/// assert_eq!(v.bind(&v), BipolarHv::ones(256));
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BipolarHv {
    words: Vec<u64>,
    dim: usize,
}

impl Clone for BipolarHv {
    fn clone(&self) -> Self {
        BipolarHv {
            words: self.words.clone(),
            dim: self.dim,
        }
    }

    /// Copies into `self`'s existing word buffer: a copy between vectors
    /// of one dimension allocates nothing (the derived impl would).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.dim = source.dim;
    }
}

impl BipolarHv {
    /// Creates the all-`+1` vector, the multiplicative identity of binding.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        BipolarHv {
            words: vec![0; words_for(dim)],
            dim,
        }
    }

    /// Samples a uniformly random bipolar vector.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let mut words: Vec<u64> = (0..words_for(dim)).map(|_| rng.gen()).collect();
        clear_padding(&mut words, dim);
        BipolarHv { words, dim }
    }

    /// Builds a vector from explicit `±1` components.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDimension`] for an empty slice, and
    /// [`HdcError::InvalidDimension`] if any component is not `+1` or `-1`.
    pub fn from_components(components: &[i8]) -> Result<Self, HdcError> {
        if components.is_empty() {
            return Err(HdcError::InvalidDimension(0));
        }
        let mut hv = BipolarHv::ones(components.len());
        for (i, &c) in components.iter().enumerate() {
            match c {
                1 => {}
                -1 => hv.set_negative(i),
                _ => return Err(HdcError::InvalidDimension(components.len())),
            }
        }
        Ok(hv)
    }

    /// Builds from packed sign words whose padding bits are already
    /// clear.
    pub(crate) fn from_words(words: Vec<u64>, dim: usize) -> Self {
        debug_assert_eq!(words.len(), words_for(dim));
        debug_assert_eq!(words.last().map(|w| w & !crate::tail_mask(dim)), Some(0));
        BipolarHv { words, dim }
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed sign words (bit set ⇔ component is `-1`).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Component at `index`, as `+1` or `-1`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    #[inline]
    pub fn component(&self, index: usize) -> i8 {
        assert!(
            index < self.dim,
            "component {index} out of bounds (dim {})",
            self.dim
        );
        if self.words[index / WORD_BITS] >> (index % WORD_BITS) & 1 == 1 {
            -1
        } else {
            1
        }
    }

    #[inline]
    fn set_negative(&mut self, index: usize) {
        self.words[index / WORD_BITS] |= 1 << (index % WORD_BITS);
    }

    /// Flips each component independently with probability `p`.
    ///
    /// Used to model noisy channels (e.g. the simulated neural front-end).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn flip_noise<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability must be in [0,1]"
        );
        let mut out = self.clone();
        for i in 0..self.dim {
            if rng.gen_bool(p) {
                out.words[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
            }
        }
        out
    }

    /// The component-wise negation (`-v`).
    pub fn negated(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        clear_padding(&mut words, self.dim);
        BipolarHv {
            words,
            dim: self.dim,
        }
    }

    /// Dot product `Σ_i self_i · rhs_i` as an integer in `[-D, D]`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, rhs: &BipolarHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let disagreements: u32 = self
            .words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        self.dim as i64 - 2 * disagreements as i64
    }

    /// Normalized dot-product similarity `self · rhs / D`, the metric the
    /// paper uses for all recognition steps.
    #[inline]
    pub fn sim(&self, rhs: &BipolarHv) -> f64 {
        self.dot(rhs) as f64 / self.dim as f64
    }

    /// Hamming distance (number of disagreeing components).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn hamming(&self, rhs: &BipolarHv) -> usize {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        self.words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// In-place binding (`self ⊙= rhs`), avoiding an allocation in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn bind_assign(&mut self, rhs: &BipolarHv) {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
    }

    /// Serialized length of [`BipolarHv::to_le_bytes`] for dimension `dim`:
    /// one little-endian `u64` per 64 components.
    #[inline]
    pub fn byte_len(dim: usize) -> usize {
        words_for(dim) * 8
    }

    /// Serializes the packed sign words as little-endian bytes — the
    /// word-level wire form used by the `.fhd` model-artifact codec.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs a vector from [`BipolarHv::to_le_bytes`] output.
    /// Padding bits beyond `dim` are cleared, so the result is canonical.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidDimension`] if `dim == 0`, or
    /// [`HdcError::InvalidEncoding`] if `bytes` is not exactly
    /// [`BipolarHv::byte_len`] long.
    pub fn from_le_bytes(dim: usize, bytes: &[u8]) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::InvalidDimension(0));
        }
        let expected = Self::byte_len(dim);
        if bytes.len() != expected {
            return Err(HdcError::InvalidEncoding {
                expected,
                actual: bytes.len(),
            });
        }
        let mut words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        clear_padding(&mut words, dim);
        Ok(BipolarHv { words, dim })
    }

    /// Views this vector as a ternary vector with no zero components.
    pub fn to_ternary(&self) -> TernaryHv {
        TernaryHv::from_planes(
            vec![u64::MAX; self.words.len()],
            self.words.clone(),
            self.dim,
        )
    }

    /// Expands into an integer accumulator (each component `±1`).
    pub fn to_accum(&self) -> AccumHv {
        let mut acc = AccumHv::zeros(self.dim);
        acc.add_bipolar(self, 1);
        acc
    }

    /// Iterates over components as `i8` values (`+1` / `-1`).
    pub fn iter(&self) -> impl Iterator<Item = i8> + '_ {
        (0..self.dim).map(move |i| self.component(i))
    }
}

impl Bind for BipolarHv {
    type Output = BipolarHv;

    #[inline]
    fn bind(&self, rhs: &BipolarHv) -> BipolarHv {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let words = self
            .words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| a ^ b)
            .collect();
        BipolarHv {
            words,
            dim: self.dim,
        }
    }
}

impl Bundle for BipolarHv {
    type Output = AccumHv;

    fn bundle(&self, rhs: &BipolarHv) -> AccumHv {
        let mut acc = self.to_accum();
        acc.add_bipolar(rhs, 1);
        acc
    }
}

impl Permute for BipolarHv {
    fn permute(&self, shift: usize) -> Self {
        let shift = shift % self.dim;
        let mut out = BipolarHv::ones(self.dim);
        for i in 0..self.dim {
            if self.component(i) == -1 {
                out.set_negative((i + shift) % self.dim);
            }
        }
        out
    }
}

impl fmt::Debug for BipolarHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<i8> = self.iter().take(8).collect();
        f.debug_struct("BipolarHv")
            .field("dim", &self.dim)
            .field("head", &preview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn ones_is_binding_identity() {
        let mut rng = rng_from_seed(11);
        let v = BipolarHv::random(130, &mut rng);
        assert_eq!(v.bind(&BipolarHv::ones(130)), v);
    }

    #[test]
    fn binding_is_self_inverse() {
        let mut rng = rng_from_seed(12);
        let a = BipolarHv::random(257, &mut rng);
        let b = BipolarHv::random(257, &mut rng);
        assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn binding_is_commutative_and_associative() {
        let mut rng = rng_from_seed(13);
        let a = BipolarHv::random(100, &mut rng);
        let b = BipolarHv::random(100, &mut rng);
        let c = BipolarHv::random(100, &mut rng);
        assert_eq!(a.bind(&b), b.bind(&a));
        assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn dot_of_self_is_dim() {
        let mut rng = rng_from_seed(14);
        let v = BipolarHv::random(321, &mut rng);
        assert_eq!(v.dot(&v), 321);
        assert!((v.sim(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_of_negation_is_minus_dim() {
        let mut rng = rng_from_seed(15);
        let v = BipolarHv::random(200, &mut rng);
        assert_eq!(v.dot(&v.negated()), -200);
    }

    #[test]
    fn random_vectors_are_quasi_orthogonal() {
        let mut rng = rng_from_seed(16);
        let a = BipolarHv::random(4096, &mut rng);
        let b = BipolarHv::random(4096, &mut rng);
        assert!(a.sim(&b).abs() < 0.1, "sim was {}", a.sim(&b));
    }

    #[test]
    fn from_components_round_trips() {
        let comps = [1i8, -1, -1, 1, -1];
        let hv = BipolarHv::from_components(&comps).unwrap();
        let back: Vec<i8> = hv.iter().collect();
        assert_eq!(back, comps);
    }

    #[test]
    fn from_components_rejects_invalid() {
        assert!(BipolarHv::from_components(&[]).is_err());
        assert!(BipolarHv::from_components(&[1, 0, -1]).is_err());
    }

    #[test]
    fn hamming_matches_dot() {
        let mut rng = rng_from_seed(17);
        let a = BipolarHv::random(500, &mut rng);
        let b = BipolarHv::random(500, &mut rng);
        let h = a.hamming(&b) as i64;
        assert_eq!(a.dot(&b), 500 - 2 * h);
    }

    #[test]
    fn permute_is_cyclic() {
        let mut rng = rng_from_seed(18);
        let v = BipolarHv::random(97, &mut rng);
        assert_eq!(v.permute(0), v);
        assert_eq!(v.permute(97), v);
        assert_eq!(v.permute(13).permute(84), v);
        // A non-trivial shift decorrelates.
        assert!(v.sim(&v.permute(1)).abs() < 0.3);
    }

    #[test]
    fn flip_noise_zero_and_one() {
        let mut rng = rng_from_seed(19);
        let v = BipolarHv::random(128, &mut rng);
        assert_eq!(v.flip_noise(0.0, &mut rng), v);
        assert_eq!(v.flip_noise(1.0, &mut rng), v.negated());
    }

    #[test]
    fn flip_noise_rate_is_close() {
        let mut rng = rng_from_seed(20);
        let v = BipolarHv::random(10_000, &mut rng);
        let noisy = v.flip_noise(0.1, &mut rng);
        let flips = v.hamming(&noisy) as f64 / 10_000.0;
        assert!((flips - 0.1).abs() < 0.02, "flip rate {flips}");
    }

    #[test]
    fn bind_assign_matches_bind() {
        let mut rng = rng_from_seed(21);
        let a = BipolarHv::random(300, &mut rng);
        let b = BipolarHv::random(300, &mut rng);
        let mut c = a.clone();
        c.bind_assign(&b);
        assert_eq!(c, a.bind(&b));
    }

    #[test]
    fn clone_from_reuses_the_word_buffer() {
        let mut rng = rng_from_seed(23);
        let a = BipolarHv::random(300, &mut rng);
        let mut c = BipolarHv::random(300, &mut rng);
        let buffer = c.words.as_ptr();
        c.clone_from(&a);
        assert_eq!(c, a);
        assert_eq!(c.words.as_ptr(), buffer);
        // Across dimensions it is still a faithful copy.
        c.clone_from(&BipolarHv::ones(65));
        assert_eq!(c, BipolarHv::ones(65));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dim_mismatch_panics() {
        let mut rng = rng_from_seed(22);
        let a = BipolarHv::random(64, &mut rng);
        let b = BipolarHv::random(65, &mut rng);
        let _ = a.dot(&b);
    }

    #[test]
    fn le_bytes_round_trip() {
        let mut rng = rng_from_seed(24);
        for dim in [1, 63, 64, 65, 200, 1024] {
            let v = BipolarHv::random(dim, &mut rng);
            let bytes = v.to_le_bytes();
            assert_eq!(bytes.len(), BipolarHv::byte_len(dim));
            assert_eq!(BipolarHv::from_le_bytes(dim, &bytes).unwrap(), v);
        }
    }

    #[test]
    fn from_le_bytes_canonicalizes_padding() {
        // Garbage in the padding bits must not leak into the vector.
        let bytes = vec![0xFFu8; 8];
        let v = BipolarHv::from_le_bytes(3, &bytes).unwrap();
        assert_eq!(v, BipolarHv::from_components(&[-1, -1, -1]).unwrap());
    }

    #[test]
    fn from_le_bytes_validates() {
        assert!(matches!(
            BipolarHv::from_le_bytes(0, &[]),
            Err(crate::HdcError::InvalidDimension(0))
        ));
        assert!(matches!(
            BipolarHv::from_le_bytes(64, &[0u8; 7]),
            Err(crate::HdcError::InvalidEncoding {
                expected: 8,
                actual: 7
            })
        ));
    }

    #[test]
    fn to_ternary_preserves_dot() {
        let mut rng = rng_from_seed(23);
        let a = BipolarHv::random(222, &mut rng);
        let b = BipolarHv::random(222, &mut rng);
        assert_eq!(a.to_ternary().dot_bipolar(&b), a.dot(&b));
    }

    #[test]
    fn debug_is_nonempty() {
        let v = BipolarHv::ones(64);
        assert!(!format!("{v:?}").is_empty());
    }
}

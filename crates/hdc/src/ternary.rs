//! Ternary (`{-1, 0, +1}`) hypervectors stored as two packed bit planes.
//!
//! FactorHD clips every single-object clause bundle into this space (§III-A
//! of the paper: "we restrict and clip the component values of bundling
//! results of single object to the range of {-1, 0, 1}"), storing 2 bits per
//! dimension. The `mask` plane marks non-zero components; the `sign` plane
//! carries their sign (set bit ⇔ `-1`). Sign bits under a cleared mask bit
//! are kept at zero so equal vectors are bit-identical.

use crate::ops::{Bind, Bundle, Permute};
use crate::{clear_padding, words_for, AccumHv, BipolarHv, HdcError, WORD_BITS};
use std::fmt;

/// A ternary hypervector in `{-1, 0, +1}^D`.
///
/// ```
/// use hdc::{AccumHv, BipolarHv, TernaryHv};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let label = BipolarHv::random(512, &mut rng);
/// let item = BipolarHv::random(512, &mut rng);
///
/// // A FactorHD clause: clip(label + item) into {-1, 0, 1}.
/// let mut acc = AccumHv::zeros(512);
/// acc.add_bipolar(&label, 1);
/// acc.add_bipolar(&item, 1);
/// let clause = acc.clip_ternary();
/// // The clause stays similar to both of its members.
/// assert!(clause.sim_bipolar(&label) > 0.3);
/// assert!(clause.sim_bipolar(&item) > 0.3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TernaryHv {
    /// Bit set ⇔ component is non-zero.
    mask: Vec<u64>,
    /// Bit set ⇔ component is negative (only meaningful where mask is set).
    sign: Vec<u64>,
    dim: usize,
}

impl TernaryHv {
    /// The all-zero ternary vector.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        let n = words_for(dim);
        TernaryHv {
            mask: vec![0; n],
            sign: vec![0; n],
            dim,
        }
    }

    /// Builds from raw planes, canonicalizing sign bits under zero mask.
    pub(crate) fn from_planes(mut mask: Vec<u64>, mut sign: Vec<u64>, dim: usize) -> Self {
        debug_assert_eq!(mask.len(), words_for(dim));
        debug_assert_eq!(sign.len(), words_for(dim));
        clear_padding(&mut mask, dim);
        for (s, m) in sign.iter_mut().zip(&mask) {
            *s &= m;
        }
        TernaryHv { mask, sign, dim }
    }

    /// Builds a vector from explicit `{-1, 0, 1}` components.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDimension`] for an empty slice or for any
    /// component outside `{-1, 0, 1}`.
    pub fn from_components(components: &[i8]) -> Result<Self, HdcError> {
        if components.is_empty() {
            return Err(HdcError::InvalidDimension(0));
        }
        let mut hv = TernaryHv::zeros(components.len());
        for (i, &c) in components.iter().enumerate() {
            let (w, b) = (i / WORD_BITS, i % WORD_BITS);
            match c {
                0 => {}
                1 => hv.mask[w] |= 1 << b,
                -1 => {
                    hv.mask[w] |= 1 << b;
                    hv.sign[w] |= 1 << b;
                }
                _ => return Err(HdcError::InvalidDimension(components.len())),
            }
        }
        Ok(hv)
    }

    /// The dimensionality `D`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed non-zero mask plane (bit set ⇔ component is non-zero).
    #[inline]
    pub(crate) fn mask_words(&self) -> &[u64] {
        &self.mask
    }

    /// The packed sign plane (bit set ⇔ component is `-1`; canonical:
    /// zero under a cleared mask bit).
    #[inline]
    pub(crate) fn sign_words(&self) -> &[u64] {
        &self.sign
    }

    /// Component at `index` (`-1`, `0` or `+1`).
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
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        if self.mask[w] >> b & 1 == 0 {
            0
        } else if self.sign[w] >> b & 1 == 1 {
            -1
        } else {
            1
        }
    }

    /// Number of non-zero components.
    #[inline]
    pub fn nonzero_count(&self) -> usize {
        self.mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of non-zero components, `nonzero_count / D`.
    #[inline]
    pub fn density(&self) -> f64 {
        self.nonzero_count() as f64 / self.dim as f64
    }

    /// Dot product with a bipolar vector, exact integer result.
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
        let mut nonzero = 0u32;
        let mut neg = 0u32;
        for ((m, s), r) in self.mask.iter().zip(&self.sign).zip(rhs.words()) {
            nonzero += m.count_ones();
            neg += ((s ^ r) & m).count_ones();
        }
        nonzero as i64 - 2 * neg as i64
    }

    /// Dot product with another ternary vector, exact integer result.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, rhs: &TernaryHv) -> i64 {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let mut common = 0u32;
        let mut neg = 0u32;
        for i in 0..self.mask.len() {
            let both = self.mask[i] & rhs.mask[i];
            common += both.count_ones();
            neg += ((self.sign[i] ^ rhs.sign[i]) & both).count_ones();
        }
        common as i64 - 2 * neg as i64
    }

    /// Normalized dot similarity against a bipolar vector (`dot / D`).
    #[inline]
    pub fn sim_bipolar(&self, rhs: &BipolarHv) -> f64 {
        self.dot_bipolar(rhs) as f64 / self.dim as f64
    }

    /// Normalized dot similarity against another ternary vector (`dot / D`).
    #[inline]
    pub fn sim(&self, rhs: &TernaryHv) -> f64 {
        self.dot(rhs) as f64 / self.dim as f64
    }

    /// Serialized length of [`TernaryHv::to_le_bytes`] for dimension `dim`:
    /// two bit planes of one little-endian `u64` per 64 components each.
    #[inline]
    pub fn byte_len(dim: usize) -> usize {
        2 * words_for(dim) * 8
    }

    /// Serializes the mask plane followed by the sign plane as
    /// little-endian words — the word-level wire form used by the `.fhd`
    /// model-artifact codec.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::byte_len(self.dim));
        for w in self.mask.iter().chain(&self.sign) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs a vector from [`TernaryHv::to_le_bytes`] output.
    /// Padding bits and sign bits under a zero mask are cleared, so the
    /// result is canonical.
    ///
    /// # Errors
    ///
    /// [`HdcError::InvalidDimension`] if `dim == 0`, or
    /// [`HdcError::InvalidEncoding`] if `bytes` is not exactly
    /// [`TernaryHv::byte_len`] long.
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
        let n = words_for(dim);
        let word_at = |plane: usize, i: usize| {
            let start = (plane * n + i) * 8;
            u64::from_le_bytes(bytes[start..start + 8].try_into().expect("8-byte chunk"))
        };
        let mask: Vec<u64> = (0..n).map(|i| word_at(0, i)).collect();
        let sign: Vec<u64> = (0..n).map(|i| word_at(1, i)).collect();
        Ok(TernaryHv::from_planes(mask, sign, dim))
    }

    /// Expands into an integer accumulator.
    pub fn to_accum(&self) -> AccumHv {
        let mut acc = AccumHv::zeros(self.dim);
        acc.assign_planes(&self.sign, Some(&self.mask));
        acc
    }

    /// Iterates over components as `i8` values.
    pub fn iter(&self) -> impl Iterator<Item = i8> + '_ {
        (0..self.dim).map(move |i| self.component(i))
    }
}

impl Bind for TernaryHv {
    type Output = TernaryHv;

    /// Component-wise product: zero wherever either operand is zero, signs
    /// multiply elsewhere. This is how FactorHD binds clipped clauses into
    /// an object hypervector.
    #[inline]
    fn bind(&self, rhs: &TernaryHv) -> TernaryHv {
        assert_eq!(
            self.dim, rhs.dim,
            "dimension mismatch: {} vs {}",
            self.dim, rhs.dim
        );
        let n = self.mask.len();
        let mut mask = Vec::with_capacity(n);
        let mut sign = Vec::with_capacity(n);
        for i in 0..n {
            let m = self.mask[i] & rhs.mask[i];
            mask.push(m);
            sign.push((self.sign[i] ^ rhs.sign[i]) & m);
        }
        TernaryHv {
            mask,
            sign,
            dim: self.dim,
        }
    }
}

impl Bind<BipolarHv> for TernaryHv {
    type Output = TernaryHv;

    /// Binding with a bipolar vector flips signs but keeps the zero pattern;
    /// FactorHD uses this to unbind class labels from clipped clauses.
    #[inline]
    fn bind(&self, rhs: &BipolarHv) -> TernaryHv {
        assert_eq!(
            self.dim,
            rhs.dim(),
            "dimension mismatch: {} vs {}",
            self.dim,
            rhs.dim()
        );
        let mut sign = Vec::with_capacity(self.sign.len());
        for (i, s) in self.sign.iter().enumerate() {
            sign.push((s ^ rhs.words()[i]) & self.mask[i]);
        }
        TernaryHv {
            mask: self.mask.clone(),
            sign,
            dim: self.dim,
        }
    }
}

impl Bundle for TernaryHv {
    type Output = AccumHv;

    fn bundle(&self, rhs: &TernaryHv) -> AccumHv {
        let mut acc = self.to_accum();
        acc.add_ternary(rhs, 1);
        acc
    }
}

impl Permute for TernaryHv {
    fn permute(&self, shift: usize) -> Self {
        let shift = shift % self.dim;
        let mut out = TernaryHv::zeros(self.dim);
        for i in 0..self.dim {
            let c = self.component(i);
            if c != 0 {
                let j = (i + shift) % self.dim;
                let (w, b) = (j / WORD_BITS, j % WORD_BITS);
                out.mask[w] |= 1 << b;
                if c == -1 {
                    out.sign[w] |= 1 << b;
                }
            }
        }
        out
    }
}

impl From<BipolarHv> for TernaryHv {
    fn from(value: BipolarHv) -> Self {
        value.to_ternary()
    }
}

impl fmt::Debug for TernaryHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<i8> = self.iter().take(8).collect();
        f.debug_struct("TernaryHv")
            .field("dim", &self.dim)
            .field("density", &self.density())
            .field("head", &preview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    fn random_ternary(dim: usize, seed: u64) -> TernaryHv {
        let mut rng = rng_from_seed(seed);
        let a = BipolarHv::random(dim, &mut rng);
        let b = BipolarHv::random(dim, &mut rng);
        a.bundle(&b).clip_ternary()
    }

    #[test]
    fn from_components_round_trips() {
        let comps = [1i8, 0, -1, -1, 0, 1, 0];
        let hv = TernaryHv::from_components(&comps).unwrap();
        let back: Vec<i8> = hv.iter().collect();
        assert_eq!(back, comps);
        assert_eq!(hv.nonzero_count(), 4);
    }

    #[test]
    fn from_components_rejects_invalid() {
        assert!(TernaryHv::from_components(&[]).is_err());
        assert!(TernaryHv::from_components(&[2]).is_err());
    }

    #[test]
    fn bind_zero_annihilates() {
        let t = random_ternary(256, 1);
        let z = TernaryHv::zeros(256);
        assert_eq!(t.bind(&z), z);
    }

    #[test]
    fn bind_matches_componentwise_product() {
        let a = random_ternary(200, 2);
        let b = random_ternary(200, 3);
        let c = a.bind(&b);
        for i in 0..200 {
            assert_eq!(c.component(i), a.component(i) * b.component(i));
        }
    }

    #[test]
    fn bind_bipolar_matches_componentwise_product() {
        let a = random_ternary(200, 4);
        let mut rng = rng_from_seed(5);
        let b = BipolarHv::random(200, &mut rng);
        let c: TernaryHv = a.bind(&b);
        for i in 0..200 {
            assert_eq!(c.component(i), a.component(i) * b.component(i));
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a = random_ternary(333, 6);
        let b = random_ternary(333, 7);
        let naive: i64 = (0..333)
            .map(|i| a.component(i) as i64 * b.component(i) as i64)
            .sum();
        assert_eq!(a.dot(&b), naive);
    }

    #[test]
    fn dot_bipolar_matches_naive() {
        let a = random_ternary(333, 8);
        let mut rng = rng_from_seed(9);
        let b = BipolarHv::random(333, &mut rng);
        let naive: i64 = (0..333)
            .map(|i| a.component(i) as i64 * b.component(i) as i64)
            .sum();
        assert_eq!(a.dot_bipolar(&b), naive);
    }

    #[test]
    fn clipped_two_bundle_has_half_density() {
        // clip(a + b) for independent bipolar a,b: zero where they disagree
        // (probability 1/2).
        let t = random_ternary(20_000, 10);
        assert!((t.density() - 0.5).abs() < 0.02, "density {}", t.density());
    }

    #[test]
    fn label_unbinding_recovers_agreement_mask() {
        // (label + item) clipped, then bound with label, is +1 wherever
        // label and item agreed and 0 elsewhere — the "memorization clause"
        // elimination at the heart of FactorHD's factorization.
        let mut rng = rng_from_seed(11);
        let label = BipolarHv::random(1024, &mut rng);
        let item = BipolarHv::random(1024, &mut rng);
        let clause = label.bundle(&item).clip_ternary();
        let unbound: TernaryHv = clause.bind(&label);
        for i in 0..1024 {
            let expected = if label.component(i) == item.component(i) {
                1
            } else {
                0
            };
            assert_eq!(unbound.component(i), expected);
        }
    }

    #[test]
    fn le_bytes_round_trip() {
        for (dim, seed) in [(1usize, 20u64), (63, 21), (64, 22), (130, 23), (1024, 24)] {
            let t = random_ternary(dim, seed);
            let bytes = t.to_le_bytes();
            assert_eq!(bytes.len(), TernaryHv::byte_len(dim));
            assert_eq!(TernaryHv::from_le_bytes(dim, &bytes).unwrap(), t);
        }
    }

    #[test]
    fn from_le_bytes_canonicalizes() {
        // Sign bits under a zero mask and padding bits must be cleared.
        let mut bytes = vec![0u8; TernaryHv::byte_len(3)];
        bytes[0] = 0b101; // mask
        bytes[8] = 0b111; // sign (bit 1 is under a zero mask)
        let t = TernaryHv::from_le_bytes(3, &bytes).unwrap();
        assert_eq!(t, TernaryHv::from_components(&[-1, 0, -1]).unwrap());
    }

    #[test]
    fn from_le_bytes_validates() {
        assert!(TernaryHv::from_le_bytes(0, &[]).is_err());
        assert!(matches!(
            TernaryHv::from_le_bytes(64, &[0u8; 8]),
            Err(HdcError::InvalidEncoding {
                expected: 16,
                actual: 8
            })
        ));
    }

    #[test]
    fn permute_round_trip() {
        let t = random_ternary(101, 12);
        assert_eq!(t.permute(0), t);
        assert_eq!(t.permute(40).permute(61), t);
    }

    #[test]
    fn canonical_signs_give_equality() {
        // Two routes to the same logical vector must compare equal.
        let a = TernaryHv::from_components(&[1, 0, -1]).unwrap();
        let b_raw = TernaryHv::from_planes(vec![0b101], vec![0b110], 3);
        assert_eq!(a, b_raw);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dim_mismatch_panics() {
        let a = TernaryHv::zeros(10);
        let b = TernaryHv::zeros(11);
        let _ = a.dot(&b);
    }
}

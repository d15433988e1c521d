//! Property-based tests for the VSA algebra invariants.

use hdc::prelude::*;
use hdc::rng_from_seed;
use proptest::prelude::*;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=8,     // tiny, exercises tail masking
        60usize..=70,   // around one word boundary
        120usize..=200, // multi-word
        Just(1024usize),
    ]
}

fn arb_bipolar(dim: usize) -> impl Strategy<Value = BipolarHv> {
    any::<u64>().prop_map(move |seed| BipolarHv::random(dim, &mut rng_from_seed(seed)))
}

fn arb_ternary(dim: usize) -> impl Strategy<Value = TernaryHv> {
    proptest::collection::vec(-1i8..=1, dim)
        .prop_map(|c| TernaryHv::from_components(&c).expect("valid ternary components"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bipolar_bind_self_inverse((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bipolar_bind_commutative((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bipolar_dot_symmetric((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn bipolar_dot_bounds((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let dot = a.dot(&b);
        prop_assert!(dot.abs() <= dim as i64);
        // dot and dim always share parity for bipolar vectors.
        prop_assert_eq!((dot.rem_euclid(2)) as usize, dim % 2);
    }

    #[test]
    fn binding_distributes_over_dot((dim, s1, s2, s3) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>(), any::<u64>()))) {
        // <a ⊙ c, b ⊙ c> = <a, b>: binding by a common key preserves similarity.
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let c = BipolarHv::random(dim, &mut rng_from_seed(s3));
        prop_assert_eq!(a.bind(&c).dot(&b.bind(&c)), a.dot(&b));
    }

    #[test]
    fn ternary_bind_associative(dim in 1usize..100) {
        let run = |s: u64| {
            let comps: Vec<i8> = (0..dim).map(|i| ((hdc::derive_seed(&[s, i as u64]) % 3) as i8) - 1).collect();
            TernaryHv::from_components(&comps).expect("valid components")
        };
        let (a, b, c) = (run(1), run(2), run(3));
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn ternary_density_in_unit_interval(dim in 1usize..300, seed in any::<u64>()) {
        let comps: Vec<i8> = (0..dim).map(|i| ((hdc::derive_seed(&[seed, i as u64]) % 3) as i8) - 1).collect();
        let t = TernaryHv::from_components(&comps).expect("valid components");
        prop_assert!(t.density() >= 0.0 && t.density() <= 1.0);
        prop_assert_eq!(t.nonzero_count(), comps.iter().filter(|&&c| c != 0).count());
    }

    #[test]
    fn accum_bundle_commutes((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        prop_assert_eq!(a.bundle(&b), b.bundle(&a));
    }

    #[test]
    fn accum_unbind_recovers_dot((dim, s1, s2, s3) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>(), any::<u64>()))) {
        // (acc ⊙ k) · (v ⊙ k) == acc · v for any bipolar key k.
        let v = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let w = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let k = BipolarHv::random(dim, &mut rng_from_seed(s3));
        let acc = v.bundle(&w);
        let unbound = acc.bind(&k);
        prop_assert_eq!(unbound.dot_bipolar(&v.bind(&k)), acc.dot_bipolar(&v));
    }

    #[test]
    fn clip_ternary_then_dot_consistent(dim in 1usize..200, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let clause = a.bundle(&b).clip_ternary();
        let naive: i64 = (0..dim).map(|i| clause.component(i) as i64 * a.component(i) as i64).sum();
        prop_assert_eq!(clause.dot_bipolar(&a), naive);
    }

    #[test]
    fn permute_composes(dim in 2usize..150, s in any::<u64>(), k1 in 0usize..300, k2 in 0usize..300) {
        let v = BipolarHv::random(dim, &mut rng_from_seed(s));
        prop_assert_eq!(v.permute(k1).permute(k2), v.permute((k1 + k2) % dim));
    }

    #[test]
    fn codebook_best_match_is_argmax(seed in any::<u64>(), m in 2usize..32) {
        let cb = Codebook::derive(seed, m, 256);
        let q = BipolarHv::random(256, &mut rng_from_seed(seed ^ 0xABCD));
        let sims = cb.sims(&q);
        let best = cb.best_match(&q).expect("non-empty codebook");
        let max = sims.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((best.sim - max).abs() < 1e-12);
    }

    #[test]
    fn codebook_threshold_consistent(seed in any::<u64>(), m in 2usize..32, th in -0.5f64..0.9) {
        let cb = Codebook::derive(seed, m, 256);
        let q = BipolarHv::random(256, &mut rng_from_seed(seed ^ 0x1234));
        let hits = cb.above_threshold(&q, th);
        let sims = cb.sims(&q);
        let expected = sims.iter().filter(|&&s| s > th).count();
        prop_assert_eq!(hits.len(), expected);
        for hit in hits {
            prop_assert!(hit.sim > th);
            prop_assert!((sims[hit.index] - hit.sim).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Packed backend vs the f64/scalar reference (the oracle): dot,
    // Hamming, and every batched codebook search must agree exactly —
    // including at non-multiple-of-64 dimensions where tail-word masking
    // can go wrong.
    // ------------------------------------------------------------------

    #[test]
    fn packed_dot_and_hamming_match_reference((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let a = BipolarHv::random(dim, &mut rng_from_seed(s1));
        let b = BipolarHv::random(dim, &mut rng_from_seed(s2));
        let (pa, pb) = (PackedHv::from_bipolar(&a), PackedHv::from_bipolar(&b));
        prop_assert_eq!(pa.dot(&pb), a.dot(&b));
        prop_assert_eq!(pa.hamming(&pb), a.hamming(&b));
        prop_assert_eq!(pa.sim(&pb), a.sim(&b));
    }

    #[test]
    fn packed_ternary_dot_matches_reference((dim, s) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>()))) {
        let t = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(s));
            let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0xD00D));
            a.bundle(&b).clip_ternary()
        };
        let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0xBEEF));
        let pt = PackedHv::from_ternary(&t);
        prop_assert_eq!(pt.dot(&PackedHv::from_bipolar(&b)), t.dot_bipolar(&b));
        prop_assert_eq!(pt.sim_to(&b), t.sim_bipolar(&b));
    }

    #[test]
    fn packed_bind_matches_reference((dim, s1, s2) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), any::<u64>()))) {
        let make = |s: u64| {
            let a = BipolarHv::random(dim, &mut rng_from_seed(s));
            let b = BipolarHv::random(dim, &mut rng_from_seed(s ^ 0x5150));
            a.bundle(&b).clip_ternary()
        };
        let (t, u) = (make(s1), make(s2));
        let packed = PackedHv::from_ternary(&t).bind(&PackedHv::from_ternary(&u));
        let reference: TernaryHv = t.bind(&u);
        prop_assert_eq!(packed.to_ternary(), reference);
    }

    #[test]
    fn packed_top_k_matches_reference((dim, seed, m, k) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48, 0usize..64))) {
        let cb = Codebook::derive(seed, m, dim);
        // Small dims force many exact similarity ties: the packed heap
        // merge must reproduce the reference's stable tie ordering.
        let q = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xACE));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xDEAF));
            a.bundle(&b).clip_ternary()
        };
        prop_assert_eq!(q.scan_top_k(&cb, k), cb.top_k(&q, k));
        let dense = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0xF00));
        prop_assert_eq!(dense.scan_top_k(&cb, k), cb.top_k(&dense, k));
    }

    #[test]
    fn packed_above_threshold_matches_reference((dim, seed, m, th) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48, -0.6f64..0.9))) {
        let cb = Codebook::derive(seed, m, dim);
        let q = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x7777));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x8888));
            a.bundle(&b).clip_ternary()
        };
        prop_assert_eq!(q.scan_above_threshold(&cb, th), cb.above_threshold(&q, th));
        prop_assert_eq!(q.scan_best(&cb).unwrap(), cb.best_match(&q).unwrap());
    }

    #[test]
    fn packed_dots_match_per_item_reference((dim, seed, m) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..48))) {
        let cb = Codebook::derive(seed, m, dim);
        let q = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x1CE));
        let reference: Vec<i64> = cb.iter().map(|item| q.dot(item)).collect();
        prop_assert_eq!(cb.dots_bipolar(&q), reference);
    }

    #[test]
    fn accum_scan_route_matches_packed_route((dim, seed, m) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..32))) {
        // The AccumHv reference route and the packed ternary route answer
        // identically for any query that fits both representations.
        let cb = Codebook::derive(seed, m, dim);
        let t = {
            let a = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x3A3));
            let b = BipolarHv::random(dim, &mut rng_from_seed(seed ^ 0x4B4));
            a.bundle(&b).clip_ternary()
        };
        let acc = t.to_accum();
        prop_assert_eq!(acc.scan_top_k(&cb, 5), t.scan_top_k(&cb, 5));
        prop_assert_eq!(acc.scan_above_threshold(&cb, 0.05), t.scan_above_threshold(&cb, 0.05));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arb_ternary_produces_valid_vectors(t in arb_ternary(32)) {
        prop_assert_eq!(t.dim(), 32);
        for i in 0..32 {
            prop_assert!((-1..=1).contains(&t.component(i)));
        }
    }

    #[test]
    fn arb_bipolar_produces_valid_vectors(v in arb_bipolar(65)) {
        prop_assert_eq!(v.dim(), 65);
        prop_assert_eq!(v.dot(&v), 65);
    }
}

// ----------------------------------------------------------------------
// Word-level packing at the accumulator boundary vs the per-component
// constructors: every packer must reproduce them bit for bit, keep the
// padding bits of the last word clear, and refuse out-of-range values.
// ----------------------------------------------------------------------

fn arb_pack_dim() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(4097)]
}

/// Components in `{-1, 0, 1}` (`dense`: in `{-1, 1}`) drawn from `seed`.
fn unit_components(dim: usize, seed: u64, dense: bool) -> Vec<i8> {
    (0..dim)
        .map(|i| {
            let r = hdc::derive_seed(&[seed, i as u64]);
            if dense {
                if r.is_multiple_of(2) {
                    1
                } else {
                    -1
                }
            } else {
                (r % 3) as i8 - 1
            }
        })
        .collect()
}

fn accum_of(comps: &[i8]) -> AccumHv {
    AccumHv::from_components(comps.iter().map(|&c| i32::from(c)).collect())
}

/// Asserts the padding bits past `dim` are clear in every little-endian
/// plane of `bytes` (planes of `words_for(dim)` words each).
fn padding_clear(bytes: &[u8], dim: usize) -> bool {
    let words = dim.div_ceil(64);
    let rem = dim % 64;
    bytes.chunks_exact(words * 8).all(|plane| {
        let last = u64::from_le_bytes(plane[plane.len() - 8..].try_into().expect("8 bytes"));
        rem == 0 || last >> rem == 0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn word_packers_match_per_component_reference((dim, seed) in arb_pack_dim().prop_flat_map(|d| (Just(d), any::<u64>()))) {
        for dense in [false, true] {
            let comps = unit_components(dim, seed, dense);
            let acc = accum_of(&comps);
            let ternary = TernaryHv::from_components(&comps).expect("unit components");

            let lossless = acc.to_ternary_lossless().expect("in range");
            prop_assert_eq!(&lossless, &ternary);
            prop_assert_eq!(acc.clip_ternary(), ternary.clone());
            prop_assert_eq!(
                PackedHv::from_accum_lossless(&acc).expect("in range"),
                PackedHv::from_ternary(&ternary)
            );
            let signs: Vec<i8> = comps.iter().map(|&c| if c < 0 { -1 } else { 1 }).collect();
            let bipolar = BipolarHv::from_components(&signs).expect("signs");
            prop_assert_eq!(acc.sign_bipolar(), bipolar.clone());
            prop_assert!(padding_clear(&lossless.to_le_bytes(), dim));
            prop_assert!(padding_clear(&acc.sign_bipolar().to_le_bytes(), dim));

            // The opposite direction: expansion and accumulation.
            prop_assert_eq!(ternary.to_accum(), acc.clone());
            let mut expanded = AccumHv::from_components(vec![7; dim]);
            PackedHv::from_ternary(&ternary).expand_into(&mut expanded);
            prop_assert_eq!(&expanded, &acc);
            let base: Vec<i32> = (0..dim as i32).map(|i| i - 3).collect();
            let mut summed = AccumHv::from_components(base.clone());
            summed.add_ternary(&ternary, -3);
            let reference: Vec<i32> = base.iter().zip(&comps).map(|(&b, &c)| b - 3 * i32::from(c)).collect();
            prop_assert_eq!(summed.components(), &reference[..]);
        }
    }

    #[test]
    fn clipping_matches_reference_on_any_integers((dim, seed) in arb_pack_dim().prop_flat_map(|d| (Just(d), any::<u64>()))) {
        let values: Vec<i32> = (0..dim)
            .map(|i| match hdc::derive_seed(&[seed, i as u64]) % 6 {
                0 => i32::MIN,
                1 => i32::MAX,
                r => r as i32 - 4,
            })
            .collect();
        let acc = AccumHv::from_components(values.clone());
        let clipped: Vec<i8> = values.iter().map(|v| v.signum() as i8).collect();
        prop_assert_eq!(acc.clip_ternary(), TernaryHv::from_components(&clipped).expect("signs"));
        let signs: Vec<i8> = values.iter().map(|&v| if v < 0 { -1 } else { 1 }).collect();
        prop_assert_eq!(acc.sign_bipolar(), BipolarHv::from_components(&signs).expect("signs"));
    }

    #[test]
    fn out_of_range_components_do_not_pack((dim, seed, at) in arb_pack_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 0..d))) {
        for bad in [2, -2, i32::MIN, i32::MAX] {
            let mut values: Vec<i32> = unit_components(dim, seed, false).iter().map(|&c| i32::from(c)).collect();
            values[at] = bad;
            let acc = AccumHv::from_components(values);
            prop_assert!(acc.to_ternary_lossless().is_none(), "{} at {}", bad, at);
            prop_assert!(PackedHv::from_accum_lossless(&acc).is_none(), "{} at {}", bad, at);
        }
    }

    #[test]
    fn lossless_accum_scan_matches_reference_bits((dim, seed, m, k, dense) in arb_dim().prop_flat_map(|d| (Just(d), any::<u64>(), 1usize..24, 0usize..32, any::<bool>()))) {
        // Small dims force exact similarity ties: the packed form of a
        // lossless accumulator must scan in the reference's tie order and
        // produce the same similarity bits.
        let cb = Codebook::derive(seed, m, dim);
        let acc = accum_of(&unit_components(dim, seed ^ 0x5EED, dense));
        let packed = PackedHv::from_accum_lossless(&acc).expect("in range");
        let expected = cb.top_k(&acc, k);
        let got = packed.scan_top_k(&cb, k);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.index, e.index);
            prop_assert_eq!(g.sim.to_bits(), e.sim.to_bits());
        }
        let th = 0.05;
        prop_assert_eq!(packed.scan_above_threshold(&cb, th), cb.above_threshold(&acc, th));
    }
}

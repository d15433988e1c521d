//! Property-based tests for FactorHD encoding/factorization invariants.

use factorhd_core::prelude::*;
use factorhd_core::threshold::{clause_density, expected_signal};
use hdc::rng_from_seed;
use proptest::prelude::*;

/// A random small-but-meaningful taxonomy description.
fn arb_taxonomy_spec() -> impl Strategy<Value = (usize, Vec<Vec<usize>>, u64)> {
    let class = prop_oneof![
        proptest::collection::vec(2usize..10, 1..=1),
        proptest::collection::vec(2usize..6, 2..=2),
    ];
    (
        // High enough that argmax decode is essentially deterministic even
        // for 4 deep classes (signal 0.5^4 ≫ noise ~ 1/√D).
        prop_oneof![Just(4096usize), Just(8192usize)],
        proptest::collection::vec(class, 2..=4),
        any::<u64>(),
    )
}

fn build(dim: usize, classes: &[Vec<usize>], seed: u64) -> Taxonomy {
    let mut b = TaxonomyBuilder::new(dim).seed(seed);
    for (i, levels) in classes.iter().enumerate() {
        b = b.class(&format!("class{i}"), levels);
    }
    b.build().expect("valid generated taxonomy")
}

/// Algorithm 1 with a full level-1 rescan per iteration: every step is a
/// fresh one-object `factorize_multi` of the current residual, whose
/// level-1 dots come from a new scan, followed by the same
/// reconstruct-and-exclude.
fn rescan_each_iteration(
    taxonomy: &Taxonomy,
    config: FactorizeConfig,
    hv: &hdc::AccumHv,
) -> DecodedScene {
    let encoder = Encoder::new(taxonomy);
    let one_step = Factorizer::new(
        taxonomy,
        FactorizeConfig {
            max_objects: 1,
            ..config
        },
    );
    let mut residual = hv.clone();
    let mut objects = Vec::new();
    let mut stats = FactorizeStats::default();
    while objects.len() < config.max_objects {
        let step = one_step.factorize_multi(&residual).expect("decodable");
        stats.similarity_checks += step.stats.similarity_checks;
        stats.combination_tests += step.stats.combination_tests;
        stats.unbind_ops += step.stats.unbind_ops;
        stats.truncated_combinations |= step.stats.truncated_combinations;
        let Some(decoded) = step.objects.into_iter().next() else {
            break;
        };
        let reconstruction = encoder.encode_object(decoded.object()).expect("encodable");
        residual.sub_ternary(&reconstruction);
        objects.push(decoded);
        stats.objects_found += 1;
    }
    DecodedScene {
        objects,
        stats,
        residual_norm: residual.norm(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encoding then single-object factorization is the identity for any
    /// taxonomy shape at sufficient dimension.
    #[test]
    fn encode_factorize_roundtrip((dim, classes, seed) in arb_taxonomy_spec()) {
        let taxonomy = build(dim, &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
        let mut rng = rng_from_seed(seed ^ 0xF00D);
        let object = taxonomy.sample_object(&mut rng);
        let hv = encoder.encode_scene(&Scene::single(object.clone())).expect("encodable");
        let decoded = factorizer.factorize_single(&hv).expect("decodable");
        prop_assert_eq!(decoded.object(), &object);
    }

    /// Objects with absent classes round-trip too (NULL detection).
    #[test]
    fn null_classes_roundtrip((dim, classes, seed) in arb_taxonomy_spec()) {
        let taxonomy = build(dim.max(2048), &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
        let mut rng = rng_from_seed(seed ^ 0xBEEF);
        let object = taxonomy.sample_object_with_nulls(0.4, &mut rng);
        let hv = encoder.encode_scene(&Scene::single(object.clone())).expect("encodable");
        let decoded = factorizer.factorize_single(&hv).expect("decodable");
        prop_assert_eq!(decoded.object(), &object);
    }

    /// Clause density matches the analytic model for every clause width.
    #[test]
    fn clause_density_matches_model(levels in 1usize..5, seed in any::<u64>()) {
        let sizes = vec![4usize; levels];
        let taxonomy = build(16_384, &[sizes], seed);
        let encoder = Encoder::new(&taxonomy);
        let mut rng = rng_from_seed(seed);
        let object = taxonomy.sample_object(&mut rng);
        let clause = encoder
            .encode_clause(0, object.assignment(0))
            .expect("encodable clause");
        let k = levels + 1;
        let predicted = clause_density(k);
        prop_assert!(
            (clause.density() - predicted).abs() < 0.02,
            "k={} measured={} predicted={}", k, clause.density(), predicted
        );
    }

    /// The measured item similarity after label elimination matches the
    /// analytic expected signal within sampling noise.
    #[test]
    fn unbound_signal_matches_model((dim, classes, seed) in arb_taxonomy_spec()) {
        let taxonomy = build(dim.max(2048), &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let factorizer = Factorizer::new(&taxonomy, FactorizeConfig::default());
        let mut rng = rng_from_seed(seed ^ 0xCAFE);
        let object = taxonomy.sample_object(&mut rng);
        let hv = encoder.encode_scene(&Scene::single(object.clone())).expect("encodable");
        let decodes = factorizer.factorize_classes(&hv, &[0]).expect("decodable");
        let signal = expected_signal(&taxonomy.clause_sizes());
        // Winning similarity should be within 5 sigma of the prediction.
        let sigma = 5.0 / (taxonomy.dim() as f64).sqrt();
        prop_assert!(
            (decodes[0].sim - signal).abs() < sigma + 0.05,
            "sim={} signal={}", decodes[0].sim, signal
        );
    }

    /// Scene encoding is permutation-invariant (bundling commutes).
    #[test]
    fn scene_encoding_is_order_invariant((dim, classes, seed) in arb_taxonomy_spec()) {
        let taxonomy = build(dim, &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let mut rng = rng_from_seed(seed ^ 0xD00D);
        let a = taxonomy.sample_object(&mut rng);
        let b = taxonomy.sample_object(&mut rng);
        let ab = encoder.encode_scene(&Scene::new(vec![a.clone(), b.clone()])).expect("encodable");
        let ba = encoder.encode_scene(&Scene::new(vec![b, a])).expect("encodable");
        prop_assert_eq!(ab, ba);
    }

    /// Reconstruct-and-exclude is exact: re-encoding an object and
    /// subtracting it from the scene removes its contribution entirely
    /// (encoding is deterministic, so the residual of a single-object scene
    /// is the zero vector).
    #[test]
    fn exclusion_is_exact((dim, classes, seed) in arb_taxonomy_spec()) {
        let taxonomy = build(dim, &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let mut rng = rng_from_seed(seed ^ 0xAAAA);
        let object = taxonomy.sample_object(&mut rng);
        let mut hv = encoder.encode_scene(&Scene::single(object.clone())).expect("encodable");
        let reconstruction = encoder.encode_object(&object).expect("encodable");
        hv.sub_ternary(&reconstruction);
        prop_assert!(hv.is_zero());
    }

    /// Multi-object factorization of two distinct objects succeeds at high
    /// dimension for flat taxonomies.
    #[test]
    fn two_object_scenes_factorize(f in 2usize..5, m in 4usize..12, seed in any::<u64>()) {
        let taxonomy = TaxonomyBuilder::new(8192)
            .seed(seed)
            .uniform_classes(f, &[m])
            .build()
            .expect("valid taxonomy");
        let encoder = Encoder::new(&taxonomy);
        let factorizer = Factorizer::new(
            &taxonomy,
            FactorizeConfig {
                threshold: ThresholdPolicy::Analytic { n_objects: 2 },
                ..FactorizeConfig::default()
            },
        );
        let mut rng = rng_from_seed(seed ^ 0x2222);
        let scene = taxonomy.sample_scene(2, true, &mut rng);
        let hv = encoder.encode_scene(&scene).expect("encodable");
        let decoded = factorizer.factorize_multi(&hv).expect("decodable");
        prop_assert!(
            decoded.to_scene().same_multiset(&scene),
            "decoded {:?} vs truth {:?}", decoded.to_scene(), scene
        );
    }

    /// Replacing a codebook mid-serving can never leave a stale packed
    /// shard table in the scan path: after `set_codebook`, every scan
    /// through the taxonomy answers from the replacement items, even when
    /// the old codebook's table was already warm.
    #[test]
    fn set_codebook_never_serves_stale_packed_hits(
        (m, dim, seed) in (4usize..16, prop_oneof![Just(200usize), Just(512), Just(1000)], any::<u64>())
    ) {
        use hdc::{Codebook, CodebookScan};

        let taxonomy = TaxonomyBuilder::new(dim)
            .seed(seed)
            .class("a", &[m])
            .class("b", &[m])
            .build()
            .expect("valid taxonomy");

        // Warm the packed view of class 0's level-1 codebook.
        let stale = taxonomy.codebook(0, &[]).expect("codebook");
        let stale_generation = stale.packed_view().generation();
        prop_assert_eq!(stale_generation, stale.generation());

        // Install trained replacements.
        let replacement = Codebook::derive(seed ^ 0xFACE, m, dim);
        taxonomy.set_codebook(0, &[], replacement.clone()).expect("installable");

        // A re-fetched codebook carries a fresh generation and its packed
        // scans answer from the replacement items, bit-identical to the
        // scalar reference.
        let fresh = taxonomy.codebook(0, &[]).expect("codebook");
        prop_assert_ne!(fresh.generation(), stale_generation);
        for probe in 0..m {
            let query = replacement.item(probe).to_ternary();
            let hit = query.scan_best(&fresh).expect("non-empty");
            prop_assert_eq!(hit.index, probe);
            prop_assert!((hit.sim - 1.0).abs() < 1e-12);
            prop_assert_eq!(query.scan_top_k(&fresh, 3), fresh.top_k(&query, 3));
        }
        // The generation stamp pins any still-held pre-swap view to the
        // item set it was built from — staleness is detectable, never
        // silent.
        prop_assert_eq!(fresh.packed_view().generation(), fresh.generation());
        prop_assert_eq!(stale.packed_view().generation(), stale_generation);
    }

    /// The incremental level-1 dot table changes nothing: `factorize_multi`
    /// decodes every scene exactly as a loop that rescans the residual on
    /// each iteration — objects, confidence bits, stats and residual norm —
    /// across odd and even D, 1–6 objects, duplicates and `max_objects`
    /// cut-offs.
    #[test]
    fn incremental_multi_decode_equals_rescanning_loop(
        (dim, classes, seed) in (
            prop_oneof![Just(65usize), Just(1000usize), Just(2048usize)],
            proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(4usize..16, 1..=1),
                    proptest::collection::vec(3usize..6, 2..=2),
                ],
                2..=4,
            ),
            any::<u64>(),
        ),
        n in 1usize..=6,
        duplicate in 0u8..2,
        max_objects in 1usize..=8,
    ) {
        let taxonomy = build(dim, &classes, seed);
        let encoder = Encoder::new(&taxonomy);
        let mut rng = rng_from_seed(seed ^ 0x3333);
        let mut objects = taxonomy.sample_scene(n, false, &mut rng).objects().to_vec();
        if duplicate == 1 {
            objects[n - 1] = objects[0].clone();
        }
        let hv = encoder.encode_scene(&Scene::new(objects)).expect("encodable");
        let config = FactorizeConfig {
            max_objects,
            ..FactorizeConfig::default()
        };
        let decoded = Factorizer::new(&taxonomy, config).factorize_multi(&hv).expect("decodable");
        let reference = rescan_each_iteration(&taxonomy, config, &hv);
        let view = |scene: &DecodedScene| -> Vec<(ObjectSpec, u64)> {
            scene
                .objects
                .iter()
                .map(|d| (d.object().clone(), d.confidence().to_bits()))
                .collect()
        };
        prop_assert_eq!(view(&decoded), view(&reference));
        prop_assert_eq!(decoded.stats, reference.stats);
        prop_assert_eq!(decoded.residual_norm.to_bits(), reference.residual_norm.to_bits());
    }
}

//! Seeded input generators and the ground truth each output is checked
//! against.
//!
//! The program under test only ever sees generated inputs; the truth
//! (which objects a scene holds, which label an example has) stays here.
//! A decode that misses its truth is re-run through the direct core
//! reference ([`Checked`]): if the program's output equals the
//! reference it is a model miss, counted against `accuracy`; if it does
//! not, the program is wrong and the run fails.

use crate::model::DIM;
use factorhd_core::{Encoder, ItemPath, ObjectSpec, Scene, Taxonomy};
use factorhd_engine::{
    AnyOp, AnyOutput, Classify, EncodeScene, FactorizeRep1, FactorizeRep2, FactorizeRep3,
    MembershipProbe, ModelState, Op, PartialDecode, Retrain, Train,
};
use factorhd_neural::{CifarPipeline, CifarPipelineConfig};
use hdc::AccumHv;
use rand::Rng;
use std::collections::HashSet;

const TAG_WIRE: u64 = 0x5749_5245;
const TAG_REP3: u64 = 0x5245_5033;
const TAG_LEARN: u64 = 0x4C45_4152;

/// What a correct output must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Truth {
    /// Rep-1 / Rep-2: exactly this object.
    Object(ObjectSpec),
    /// Partial decode: these `(class, path)` pairs, in order.
    Classes(Vec<(usize, ItemPath)>),
    /// Membership probe: whether the probed combination is present.
    Member(bool),
    /// Encode: exactly this hypervector.
    Encoded(AccumHv),
    /// Rep-3: exactly these objects, in any order.
    Scene(Scene),
    /// Classify: the example's label.
    Label(usize),
    /// Train: acknowledged into this class.
    Trained(usize),
    /// Retrain of one epoch over a replay buffer of at most `retained`.
    Retrained {
        /// The replay-buffer bound.
        retained: u64,
    },
}

/// One op with its truth.
#[derive(Debug, Clone)]
pub struct Case {
    /// The op the program runs.
    pub op: AnyOp,
    /// What its output must say.
    pub truth: Truth,
}

/// How one output compared with its truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checked {
    /// Matches the truth.
    Hit,
    /// Misses the truth but equals the direct reference: a model miss.
    Miss,
    /// Differs from the direct reference (or is the wrong kind): a
    /// program error.
    Wrong,
}

/// Whether `output` says what `truth` says. Learn-op truths check the
/// output's shape, not a learned answer (see [`Truth`]).
pub fn matches(output: &AnyOutput, truth: &Truth) -> bool {
    match (output, truth) {
        (AnyOutput::Rep1(decoded) | AnyOutput::Rep2(decoded), Truth::Object(object)) => {
            decoded.object() == object
        }
        (AnyOutput::Partial(decodes), Truth::Classes(expected)) => {
            decodes.len() == expected.len()
                && decodes
                    .iter()
                    .zip(expected)
                    .all(|(d, (class, path))| d.class == *class && d.path.as_ref() == Some(path))
        }
        (AnyOutput::Membership(answer), Truth::Member(present)) => answer.present == *present,
        (AnyOutput::Encoded(hv), Truth::Encoded(expected)) => hv == expected,
        (AnyOutput::Rep3(decoded), Truth::Scene(scene)) => decoded.to_scene().same_multiset(scene),
        (AnyOutput::Classified(c), Truth::Label(label)) => {
            c.hits.len() == 1 && c.hits[0].class == *label
        }
        (AnyOutput::Trained(ack), Truth::Trained(class)) => ack.class == *class,
        (AnyOutput::Retrained(report), Truth::Retrained { retained }) => {
            report.epochs_requested == 1 && report.epochs_run <= 1 && report.retained <= *retained
        }
        _ => false,
    }
}

/// Checks a factorization/encoding output: against the truth, then on a
/// miss against `op` re-run directly on `model` on this thread.
pub fn check_against_reference(
    output: &AnyOutput,
    op: &AnyOp,
    truth: &Truth,
    model: &ModelState,
) -> Checked {
    if output.kind() != op.kind() {
        return Checked::Wrong;
    }
    if matches(output, truth) {
        return Checked::Hit;
    }
    match op.run(model) {
        Ok(reference) if &reference == output => Checked::Miss,
        _ => Checked::Wrong,
    }
}

fn encode(taxonomy: &Taxonomy, scene: &Scene) -> AccumHv {
    Encoder::new(taxonomy)
        .encode_scene(scene)
        .expect("sampled scenes encode")
}

/// The single-object op pool of `wire-single-open`: Rep-2 50 %, Rep-1
/// 10 %, partial decode 15 %, membership probe 15 %, encode 10 %.
pub fn wire_cases(taxonomy: &Taxonomy, seed: u64, count: usize) -> Vec<Case> {
    let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[seed, TAG_WIRE]));
    let classes = taxonomy.num_classes();
    (0..count)
        .map(|_| {
            let object = taxonomy.sample_object(&mut rng);
            let scene = Scene::single(object.clone());
            let hv = encode(taxonomy, &scene);
            let kind: f64 = rng.gen();
            // Partial decodes and probes name every class but one.
            let skipped = rng.gen_range(0..classes);
            let named: Vec<usize> = (0..classes).filter(|&c| c != skipped).collect();
            let path_of = |c: usize| object.assignment(c).expect("full object").clone();
            if kind < 0.50 {
                Case {
                    op: AnyOp::Rep2(FactorizeRep2 { scene: hv }),
                    truth: Truth::Object(object),
                }
            } else if kind < 0.60 {
                Case {
                    op: AnyOp::Rep1(FactorizeRep1 { scene: hv }),
                    truth: Truth::Object(object.truncated(1)),
                }
            } else if kind < 0.75 {
                Case {
                    op: AnyOp::Partial(PartialDecode {
                        scene: hv,
                        classes: named.clone(),
                    }),
                    truth: Truth::Classes(named.iter().map(|&c| (c, path_of(c))).collect()),
                }
            } else if kind < 0.90 {
                // Half the probes name an item the object does not hold
                // (another top-level item of the same class).
                let absent = rng.gen_bool(0.5);
                let mut items: Vec<(usize, ItemPath)> =
                    named.iter().map(|&c| (c, path_of(c))).collect();
                if absent {
                    let (class, path) = &mut items[0];
                    let top = taxonomy.level_size(*class, 0);
                    let mut indices = path.indices().to_vec();
                    indices[0] = ((indices[0] as usize + rng.gen_range(1..top)) % top) as u16;
                    *path = ItemPath::new(indices);
                }
                Case {
                    op: AnyOp::Membership(MembershipProbe {
                        scene: hv,
                        items,
                        absent: Vec::new(),
                    }),
                    truth: Truth::Member(!absent),
                }
            } else {
                Case {
                    op: AnyOp::Encode(EncodeScene { scene }),
                    truth: Truth::Encoded(hv),
                }
            }
        })
        .collect()
}

/// The Rep-3 scene stream of `rep3-multi-closed`: scene `i` holds
/// `2 + i % 3` distinct objects (one third each), and no scene repeats
/// within a stream.
pub struct Rep3Scenes<'a> {
    taxonomy: &'a Taxonomy,
    rng: rand::rngs::StdRng,
    seen: HashSet<Vec<ObjectSpec>>,
    next: usize,
}

impl<'a> Rep3Scenes<'a> {
    /// The stream for `seed`.
    pub fn new(taxonomy: &'a Taxonomy, seed: u64) -> Self {
        Rep3Scenes {
            taxonomy,
            rng: hdc::rng_from_seed(hdc::derive_seed(&[seed, TAG_REP3])),
            seen: HashSet::new(),
            next: 0,
        }
    }

    /// The next scene as a Rep-3 case.
    pub fn next_case(&mut self) -> Case {
        let n = 2 + self.next % 3;
        self.next += 1;
        loop {
            let scene = self.taxonomy.sample_scene(n, true, &mut self.rng);
            let mut key = scene.objects().to_vec();
            key.sort_by(|a, b| a.assignments().cmp(b.assignments()));
            if self.seen.insert(key) {
                let hv = encode(self.taxonomy, &scene);
                return Case {
                    op: AnyOp::Rep3(FactorizeRep3 { scene: hv }),
                    truth: Truth::Scene(scene),
                };
            }
        }
    }
}

/// Objects in a Rep-3 case's truth.
pub fn objects_in(case: &Case) -> usize {
    match &case.truth {
        Truth::Scene(scene) => scene.len(),
        _ => 1,
    }
}

/// Examples per pool of the learn workload.
pub const LEARN_POOL: usize = 1024;
/// `Classify` ops per learn batch.
pub const CLASSIFY_PER_BATCH: usize = 48;
/// `Train` ops per learn batch.
pub const TRAIN_PER_BATCH: usize = 16;
/// Every this-many-th learn batch also carries one `Retrain`.
pub const RETRAIN_EVERY: usize = 16;

/// Simulated CIFAR-10 feature encodings: a training pool and a held-out
/// query pool, labels cycling through the 10 classes.
pub struct LearnData {
    /// `(label, encoding)` examples `Train` ops bundle.
    pub train: Vec<(usize, AccumHv)>,
    /// `(label, encoding)` queries `Classify` ops score.
    pub test: Vec<(usize, AccumHv)>,
}

impl LearnData {
    /// The pools for `seed` (the feature model itself is fixed).
    pub fn new(seed: u64) -> Self {
        let pipeline = CifarPipeline::new(CifarPipelineConfig {
            dim: DIM,
            ..CifarPipelineConfig::cifar10()
        })
        .expect("the CIFAR-10 pipeline builds");
        let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[seed, TAG_LEARN]));
        let mut pool = |count: usize| -> Vec<(usize, AccumHv)> {
            (0..count)
                .map(|i| (i % 10, pipeline.encode_features(i % 10, &mut rng)))
                .collect()
        };
        let train = pool(LEARN_POOL);
        let test = pool(LEARN_POOL);
        LearnData { train, test }
    }

    /// Learn batch `b`: 48 top-1 `Classify` ops, then 16 retained
    /// `Train` ops with sample ids `16b..16b+16`, then — on every 16th
    /// batch — one `Retrain { epochs: 1 }`. Reads come first so a
    /// batch's reads see the snapshot published after the previous one.
    pub fn batch(&self, b: usize) -> Vec<Case> {
        let mut cases = Vec::with_capacity(CLASSIFY_PER_BATCH + TRAIN_PER_BATCH + 1);
        for k in 0..CLASSIFY_PER_BATCH {
            let (label, query) = &self.test[(b * CLASSIFY_PER_BATCH + k) % self.test.len()];
            cases.push(Case {
                op: AnyOp::Classify(Classify {
                    query: query.clone(),
                    top_k: 1,
                }),
                truth: Truth::Label(*label),
            });
        }
        for k in 0..TRAIN_PER_BATCH {
            let sample = (b * TRAIN_PER_BATCH + k) as u64;
            let (label, example) = &self.train[sample as usize % self.train.len()];
            cases.push(Case {
                op: AnyOp::Train(Train {
                    class: *label,
                    sample,
                    example: example.clone(),
                    retain: true,
                }),
                truth: Truth::Trained(*label),
            });
        }
        if b % RETRAIN_EVERY == RETRAIN_EVERY - 1 {
            cases.push(Case {
                op: AnyOp::Retrain(Retrain { epochs: 1 }),
                truth: Truth::Retrained {
                    retained: crate::model::learn_config().max_retained as u64,
                },
            });
        }
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use factorhd_core::DecodedScene;
    use factorhd_engine::ModelState;

    fn small_taxonomy() -> Taxonomy {
        factorhd_core::TaxonomyBuilder::new(2048)
            .uniform_classes(3, &[16, 4])
            .build()
            .expect("valid")
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let taxonomy = small_taxonomy();
        let a = wire_cases(&taxonomy, 5, 64);
        let b = wire_cases(&taxonomy, 5, 64);
        let c = wire_cases(&taxonomy, 6, 64);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.op == y.op && x.truth == y.truth));
        assert!(a.iter().zip(&c).any(|(x, y)| x.op != y.op));
        let mut s1 = Rep3Scenes::new(&taxonomy, 9);
        let mut s2 = Rep3Scenes::new(&taxonomy, 9);
        for i in 0..12 {
            let (x, y) = (s1.next_case(), s2.next_case());
            assert_eq!(x.op, y.op);
            assert_eq!(objects_in(&x), 2 + i % 3);
        }
    }

    #[test]
    fn checker_accepts_truth_and_rejects_a_corrupted_output() {
        let state = ModelState::new(small_taxonomy(), model::engine_config()).expect("valid");
        let mut scenes = Rep3Scenes::new(state.taxonomy(), 3);
        let case = scenes.next_case();
        let output = case.op.run(&state).expect("decodes");
        assert_eq!(
            check_against_reference(&output, &case.op, &case.truth, &state),
            Checked::Hit
        );

        // Corrupt the output: drop one recovered object.
        let AnyOutput::Rep3(decoded) = &output else {
            panic!("Rep-3 op answered {:?}", output.kind())
        };
        let corrupted = AnyOutput::Rep3(DecodedScene {
            objects: decoded.objects[1..].to_vec(),
            ..decoded.clone()
        });
        assert!(!matches(&corrupted, &case.truth));
        assert_eq!(
            check_against_reference(&corrupted, &case.op, &case.truth, &state),
            Checked::Wrong
        );

        // A wrong-kind output is wrong whatever it holds.
        let wire = wire_cases(state.taxonomy(), 3, 8);
        let single = wire[0].op.run(&state).expect("runs");
        assert_eq!(
            check_against_reference(&single, &case.op, &case.truth, &state),
            Checked::Wrong
        );
        for case in &wire {
            let output = case.op.run(&state).expect("runs");
            assert_eq!(
                check_against_reference(&output, &case.op, &case.truth, &state),
                Checked::Hit
            );
        }

        // A corrupted encoding is caught too.
        let scene = state
            .taxonomy()
            .sample_scene(1, true, &mut hdc::rng_from_seed(1));
        let truth = Truth::Encoded(encode(state.taxonomy(), &scene));
        let op = AnyOp::Encode(EncodeScene { scene });
        let mut hv = match op.run(&state).expect("encodes") {
            AnyOutput::Encoded(hv) => hv,
            other => panic!("encode answered {:?}", other.kind()),
        };
        assert_eq!(
            check_against_reference(&AnyOutput::Encoded(hv.clone()), &op, &truth, &state),
            Checked::Hit
        );
        hv.scale(2);
        assert_eq!(
            check_against_reference(&AnyOutput::Encoded(hv), &op, &truth, &state),
            Checked::Wrong
        );
    }

    #[test]
    fn learn_batches_have_the_documented_shape() {
        let data = LearnData {
            train: (0..20).map(|i| (i % 10, AccumHv::zeros(8))).collect(),
            test: (0..20).map(|i| (i % 10, AccumHv::zeros(8))).collect(),
        };
        let plain = data.batch(0);
        assert_eq!(plain.len(), 64);
        assert!(plain[..48]
            .iter()
            .all(|c| matches!(c.op, AnyOp::Classify(_))));
        assert!(plain[48..].iter().all(|c| matches!(c.op, AnyOp::Train(_))));
        let with_retrain = data.batch(RETRAIN_EVERY - 1);
        assert_eq!(with_retrain.len(), 65);
        assert!(matches!(with_retrain[64].op, AnyOp::Retrain(_)));
        let AnyOp::Train(first) = &data.batch(3)[48].op else {
            panic!("train expected")
        };
        assert_eq!(first.sample, 48);
    }
}

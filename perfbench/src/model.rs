//! The model every workload serves — the paper's Fig. 5 taxonomy (3
//! classes, 256 × 10 items, D = 4096) — and its timed set-up.

use factorhd_core::{FactorizeConfig, Taxonomy, TaxonomyBuilder, ThresholdPolicy};
use factorhd_engine::{EngineConfig, LearnConfig, ModelRegistry, ModelState};
use std::time::{Duration, Instant};

/// Registry name of the read-only Fig. 5 model.
pub const MODEL: &str = "fig5";
/// Registry name of the learnable model.
pub const LEARN_MODEL: &str = "learn";
/// Hypervector dimension of every model and input.
pub const DIM: usize = 4096;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 101;
/// Idle time before each set-up repetition. Back-to-back repetitions
/// finish within a few tens of milliseconds, so the median reads the
/// host's state at one instant, and on a shared host that moves a run's
/// figure by half; spread over a second, the repetitions sample the
/// host's average, and each starts from an idle CPU, as a real set-up
/// does.
const SETUP_GAP: Duration = Duration::from_millis(10);

/// The Fig. 5 taxonomy.
pub fn taxonomy() -> Taxonomy {
    TaxonomyBuilder::new(DIM)
        .uniform_classes(3, &[256, 10])
        .build()
        .expect("the Fig. 5 taxonomy is valid")
}

/// Engine configuration: the analytic threshold for three objects and
/// room for six, everything else at its default.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        factorize: FactorizeConfig {
            threshold: ThresholdPolicy::Analytic { n_objects: 3 },
            max_objects: 6,
            ..FactorizeConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// The learnable model's prototype configuration: 10 classes at D, and
/// a replay buffer bounded at 512 examples so retraining cost stops
/// growing early in a run.
pub fn learn_config() -> LearnConfig {
    LearnConfig {
        classes: 10,
        dim: DIM,
        max_retained: 512,
    }
}

/// The Fig. 5 model as `.fhd` bytes (built once per run, before any
/// timing).
pub fn artifact() -> Vec<u8> {
    let state = ModelState::new(taxonomy(), engine_config()).expect("valid engine config");
    let mut bytes = Vec::new();
    state
        .save_to(&mut bytes)
        .expect("writing to memory cannot fail");
    bytes
}

/// Loads `artifact` into `registry` under [`MODEL`].
pub fn load(registry: &ModelRegistry, artifact: &[u8]) {
    registry
        .load_from(MODEL, &mut &artifact[..], engine_config())
        .expect("the artifact this run wrote loads back");
}

/// Builds the learnable Fig. 5 model and installs it under
/// [`LEARN_MODEL`].
pub fn install_learnable(registry: &ModelRegistry) {
    let state = ModelState::new_learnable(taxonomy(), engine_config(), learn_config())
        .expect("valid learnable model");
    registry.install(LEARN_MODEL, state);
}

/// Derives every subclass codebook's packed table up front, so lazy
/// codebook construction is not charged to the first measured requests
/// (a long-running server pays it once; a run must not pay it inside
/// its window).
pub fn warm(state: &ModelState) {
    let taxonomy = state.taxonomy();
    for class in 0..taxonomy.num_classes() {
        for item in 0..taxonomy.level_size(class, 0) {
            taxonomy
                .codebook(class, &[item as u16])
                .expect("in-range codebook")
                .packed_view();
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, [`SETUP_GAP`] apart, and returns
/// the median wall time in seconds with the last repetition's result.
/// Each earlier result is dropped, outside the timed region, before the
/// next one is built, so the process never holds two models and
/// `peak_rss_mb` sees one.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        std::thread::sleep(SETUP_GAP);
        let start = Instant::now();
        let built = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (crate::stats::median(&times), last.expect("SETUP_REPS > 0"))
}

//! The SLO regression gate: diffs current `BENCH_*.json` documents
//! against committed baselines and fails on throughput regressions,
//! latency-tail inflation, and broken absolute SLOs.
//!
//! The gate is one table, `FAMILIES`: each document family (keyed by
//! its `bench` field) lists the point tables it diffs — where the points
//! live, which fields identify a point, and which metric rows to compare
//! under which tolerance — plus the named invariants that are not
//! diffs (the batch-512 cliff, the serving floor, the overload checks).
//! One generic diff walks every row; docs/OBSERVABILITY.md, "The SLO
//! gate", renders the table for readers.
//!
//! Baseline points with no matching current point are **skipped with a
//! note**, not failed — the grid legitimately varies with core count and
//! ISA availability — but a table that matched *zero* points fails, and
//! a matched point missing a metric field fails, so a renamed field or
//! emptied grid cannot pass vacuously.

use crate::json::JsonValue;

/// Margin the scaling-cliff check allows for run-to-run noise: warm
/// batch-512 must reach at least this fraction of warm batch-64. The
/// rollover this guards against was an ≈18% drop; a 10% allowance
/// catches that class of regression without tripping on scheduler noise.
pub const CLIFF_MARGIN: f64 = 0.9;

/// Fraction of baseline throughput a current run may lose before the
/// gate fails (and the fractional p95 allowance on top of the
/// one-bucket slack).
pub const GATE_MARGIN: f64 = 0.15;

/// Minimum fraction of the direct warm batch-64 throughput the network
/// front end must sustain at ≥ 8 concurrent clients. Below this, the
/// serving layer's per-request overhead (framing, checksums, batching,
/// scatter) is eating more than a fifth of the engine — an absolute
/// serving SLO, checked against the **current** document rather than
/// diffed against the baseline.
pub const SERVING_FLOOR: f64 = 0.8;

/// Minimum fraction of the *cooperative* throughput the overload
/// point's **admitted** requests must sustain at ≈4× offered load.
/// Load shedding exists to protect the engine's useful work: a server
/// that sheds is fine, a server whose admitted throughput collapses
/// while shedding is prioritizing refusals over service
/// (docs/ROBUSTNESS.md, "Shedding policy (admission control)").
pub const SERVING_OVERLOAD_FLOOR: f64 = 0.8;

/// Absolute accuracy loss the learning gate tolerates on the CIFAR
/// retraining curve's final held-out accuracy. The simulated front end
/// and the prototype updates are seeded, so run-to-run variation is
/// zero on one build; the slack absorbs legitimate cross-platform
/// float-ordering differences without letting a real learning
/// regression (a broken update rule classifies near chance, an ~0.8
/// drop) through.
pub const ACCURACY_SLACK: f64 = 0.05;

/// One metric row: a field of every point, and how its current value is
/// held against the baseline's.
#[derive(Clone, Copy, Debug)]
enum Row {
    /// A rate that may lose at most [`GATE_MARGIN`] of the baseline.
    Rate(&'static str),
    /// A latency p95 under one bucket of slack plus the margin (see
    /// `p95_limit`), with the name of the point's sample-count field. A
    /// baseline point without samples sets no ceiling; a current point
    /// without samples fails.
    P95(&'static str, &'static str),
    /// An accuracy that may fall at most this far below the baseline.
    Absolute(&'static str, f64),
}

use Row::{Absolute, Rate, P95};

/// One table of points a family diffs.
struct Table {
    /// Dotted path to the point array, or to a single point object;
    /// `""` is the document itself.
    path: &'static str,
    /// Fields identifying a point across the two documents.
    keys: &'static [&'static str],
    /// Whether a baseline point absent from the current run fails
    /// (rather than being skipped with a note).
    required: bool,
    rows: &'static [Row],
}

const fn table(path: &'static str, keys: &'static [&'static str], rows: &'static [Row]) -> Table {
    Table {
        path,
        keys,
        required: false,
        rows,
    }
}

/// One document family's gate, keyed by the documents' `bench` field.
struct Family {
    bench: &'static str,
    tables: &'static [Table],
    /// Why the p95 rows of a (current, baseline) pair are skipped, if
    /// they are: with metrics off the histograms are empty zeros, not
    /// measurements.
    metrics_off: Option<fn(&JsonValue, &JsonValue) -> Option<&'static str>>,
    /// Checks on the current document that are not diffs.
    invariants: &'static [fn(&JsonValue, &mut GateOutcome)],
}

/// The gate: one spec per document family, rendered for readers in
/// docs/OBSERVABILITY.md, "The SLO gate".
#[rustfmt::skip]
const FAMILIES: &[Family] = &[
    Family {
        bench: "engine_throughput",
        tables: &[
            table("points", &["batch", "threads"], &[Rate("warm_per_sec")]),
            Table { required: true, ..table("metrics.ops", &["kind"], &[P95("p95_ns", "latency_count")]) },
        ],
        metrics_off: Some(engine_metrics_off),
        invariants: &[scaling_cliff],
    },
    Family {
        bench: "packed_scan",
        tables: &[table("points", &["dim", "items", "shards"], &[Rate("packed_per_sec")])],
        metrics_off: None,
        invariants: &[],
    },
    Family {
        bench: "kernels",
        tables: &[table("points", &["kernel", "words"], &[Rate("hamming_per_sec")])],
        metrics_off: None,
        invariants: &[],
    },
    Family {
        bench: "serving",
        tables: &[
            table("points", &["clients", "pipeline"], &[
                Rate("throughput_per_sec"),
                P95("p95_ns", "latency_count"),
            ]),
            table("overload", &[], &[P95("p95_ns", "latency_count")]),
        ],
        metrics_off: Some(serving_metrics_off),
        invariants: &[serving_floor, cooperative_never_sheds, overload_sheds, overload_holds_floor],
    },
    Family {
        bench: "learn",
        tables: &[
            table("points", &["dim"], &[
                Rate("train_per_sec"),
                Rate("classify_per_sec"),
                P95("classify_p95_ns", "latency_count"),
            ]),
            table("", &[], &[Absolute("final_accuracy", ACCURACY_SLACK)]),
        ],
        metrics_off: None,
        invariants: &[],
    },
];

/// The result of gating one current document against its baseline.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// The document family (`bench` field) that was gated.
    pub bench: String,
    /// Number of comparisons actually performed.
    pub checks: usize,
    /// Human-readable failure descriptions; empty means the gate passed.
    pub failures: Vec<String>,
    /// Non-fatal observations (skipped points, absent metrics sections).
    pub notes: Vec<String>,
}

impl GateOutcome {
    fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_owned(),
            ..Self::default()
        }
    }

    /// Records a failure; repeating one already recorded adds nothing.
    fn fail(&mut self, failure: impl Into<String>) {
        let failure = failure.into();
        if !self.failures.contains(&failure) {
            self.failures.push(failure);
        }
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Whether every performed check held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Parses and gates a (current, baseline) document pair; parse errors
/// come back as gate failures so the bin treats corrupt artifacts as
/// regressions rather than silently passing.
pub fn gate_texts(current: &str, baseline: &str) -> GateOutcome {
    let mut outcome = GateOutcome::new("unparsed");
    match (JsonValue::parse(current), JsonValue::parse(baseline)) {
        (Ok(current), Ok(baseline)) => return gate_documents(&current, &baseline),
        (Err(e), _) => outcome.fail(format!("current document: {e}")),
        (_, Err(e)) => outcome.fail(format!("baseline document: {e}")),
    }
    outcome
}

/// Gates a parsed current document against its parsed baseline under
/// the spec of the baseline's `bench` family.
fn gate_documents(current: &JsonValue, baseline: &JsonValue) -> GateOutcome {
    fn bench_of(doc: &JsonValue) -> &str {
        doc.get("bench").and_then(JsonValue::as_str).unwrap_or("")
    }
    let (bench, current_bench) = (bench_of(baseline), bench_of(current));
    let mut outcome = GateOutcome::new(bench);
    if current_bench != bench {
        outcome.fail(format!("bench mismatch: {current_bench:?} vs {bench:?}"));
        return outcome;
    }
    let Some(family) = FAMILIES.iter().find(|family| family.bench == bench) else {
        outcome.fail(format!("unknown bench family {bench:?}"));
        return outcome;
    };
    let metrics_off = family.metrics_off.and_then(|off| off(current, baseline));
    if let Some(reason) = metrics_off {
        outcome.note(format!("{reason}; p95 rows skipped"));
    }
    for table in family.tables {
        table.diff(current, baseline, metrics_off.is_some(), &mut outcome);
    }
    for invariant in family.invariants {
        invariant(current, &mut outcome);
    }
    outcome
}

/// The points at `path`: the elements of an array, or a single object
/// as one point; none when the path is absent.
fn points_at<'a>(doc: &'a JsonValue, path: &str) -> &'a [JsonValue] {
    let mut segments = path.split('.').filter(|segment| !segment.is_empty());
    match segments.try_fold(doc, JsonValue::get) {
        Some(JsonValue::Arr(items)) => items,
        Some(value) => std::slice::from_ref(value),
        None => &[],
    }
}

fn number(point: &JsonValue, field: &str) -> Option<f64> {
    point.get(field).and_then(JsonValue::as_f64)
}

/// A point's label: its key fields, rendered — or, for a table with no
/// keys, the table's path. `None` when a key field is missing (the
/// point cannot be matched).
fn point_label(point: &JsonValue, keys: &[&str], path: &str) -> Option<String> {
    let mut fields = Vec::new();
    for key in keys {
        fields.push(format!("{key}={}", point.get(key)?.render()));
    }
    Some(match (keys, path) {
        ([], "") => "document".to_owned(),
        ([], path) => path.to_owned(),
        _ => format!("[{}]", fields.join(" ")),
    })
}

impl Table {
    /// The generic diff: every baseline point is matched to the current
    /// point with the same key fields, and every row (bar the p95 rows,
    /// when `skip_p95`) is compared under its tolerance. Unmatched
    /// baseline points are noted (or fail, for a `required` table); a
    /// table that matched nothing fails.
    fn diff(&self, current: &JsonValue, base: &JsonValue, skip_p95: bool, out: &mut GateOutcome) {
        let (path, keys) = (self.path, self.keys);
        let skipped = |row: &&Row| skip_p95 && matches!(row, P95(..));
        let base_points = points_at(base, path);
        if self.rows.iter().all(|row| skipped(&row)) {
            return;
        } else if base_points.is_empty() {
            return out.note(format!("baseline has no {path}; its rows skipped"));
        }
        let mut matched = 0usize;
        for base_point in base_points {
            let Some(label) = point_label(base_point, keys, path) else {
                out.fail(format!("baseline point at {path} lacks {keys:?}"));
                continue;
            };
            let matches = |p: &&JsonValue| point_label(p, keys, path).as_ref() == Some(&label);
            match points_at(current, path).iter().find(matches) {
                Some(current_point) => {
                    matched += 1;
                    for row in self.rows.iter().filter(|row| !skipped(row)) {
                        row.check(&label, base_point, current_point, out);
                    }
                }
                None if self.required => out.fail(format!("{label} absent from current run")),
                None => out.note(format!("{label} absent from current run; skipped")),
            }
        }
        if matched == 0 {
            out.fail(format!("no baseline point matched at {path}"));
        }
    }
}

impl Row {
    /// Compares this row of one matched point pair. A field the baseline
    /// has but the current point lacks is a failure, never a pass.
    fn check(self, label: &str, base: &JsonValue, current: &JsonValue, out: &mut GateOutcome) {
        let (Rate(field) | P95(field, _) | Absolute(field, _)) = self;
        let base_value = number(base, field);
        if let P95(_, count) = self {
            let base_samples = number(base, count).unwrap_or(0.0);
            if base_samples == 0.0 || base_value.unwrap_or(0.0) == 0.0 {
                return;
            } else if number(current, count).unwrap_or(0.0) == 0.0 {
                out.checks += 1;
                return out.fail(format!(
                    "{label} {field}: recorded no latency samples (baseline had {base_samples}) \
                     — instrumentation went missing"
                ));
            }
        }
        let Some(base) = base_value else {
            return out.fail(format!("baseline point {label} has no {field}"));
        };
        out.checks += 1;
        let Some(value) = number(current, field) else {
            return out.fail(format!("current point {label} has no {field}"));
        };
        let (floor, ceiling) = ((1.0 - GATE_MARGIN) * base, p95_limit(base));
        let (verb, limit, failed, digits) = match self {
            Rate(_) => ("regressed below floor", floor, value < floor, 0),
            P95(..) => ("inflated above ceiling", ceiling, value > ceiling, 0),
            Absolute(_, slack) => ("fell below floor", base - slack, value < base - slack, 3),
        };
        if failed {
            out.fail(format!(
                "{label} {field} {verb} {limit:.digits$}: \
                 {value:.digits$} vs baseline {base:.digits$}"
            ));
        }
    }
}

/// The p95 ceiling for a baseline value: one histogram bucket of slack
/// plus the fractional margin. The log2 latency histograms quantize
/// quantiles to bucket upper bounds (powers of two), so a value sitting
/// near a bucket edge legitimately flips one bucket (2×) between runs;
/// **two** buckets is a genuine tail regression, and that is what this
/// ceiling fails. The learning documents' classify p95 is an exact order
/// statistic, but a value near a scheduler hiccup still legitimately
/// doubles between runs, so the same ceiling applies.
fn p95_limit(baseline_p95: f64) -> f64 {
    baseline_p95 * 2.0 * (1.0 + GATE_MARGIN)
}

/// The engine's metrics-off skip: either document lacks the embedded
/// `metrics` section, or the current build compiled telemetry out.
fn engine_metrics_off(current: &JsonValue, baseline: &JsonValue) -> Option<&'static str> {
    let compiled_out = |metrics: &JsonValue| metrics.get("compiled_out")?.as_bool();
    match (
        baseline.get("metrics"),
        current.get("metrics").map(compiled_out),
    ) {
        (None, _) => Some("baseline has no metrics section"),
        (_, None) => Some("current run has no metrics section"),
        (_, Some(Some(true))) => Some("current build compiled metrics out"),
        _ => None,
    }
}

/// The serving metrics-off skip: either run recorded with the
/// `metrics_recording` gate off.
fn serving_metrics_off(current: &JsonValue, baseline: &JsonValue) -> Option<&'static str> {
    let recording = |doc: &JsonValue| doc.get("metrics_recording")?.as_bool();
    match (recording(baseline), recording(current)) {
        (Some(true), Some(true)) => None,
        (Some(true), _) => Some("current run had metrics off"),
        _ => Some("baseline had metrics off"),
    }
}

/// The scaling cliff on the **current** engine grid: at every measured
/// thread count, warm batch-512 throughput must reach at least
/// [`CLIFF_MARGIN`] × warm batch-64 throughput — the batch-512 rollover,
/// re-encoded as a failure. A grid with no batch-512 rows (or a
/// batch-512 row with no batch-64 partner) fails rather than passing
/// vacuously.
fn scaling_cliff(current: &JsonValue, outcome: &mut GateOutcome) {
    let grid: Vec<[f64; 3]> = points_at(current, "points")
        .iter()
        .filter_map(|p| {
            let [batch, threads, warm] = ["batch", "threads", "warm_per_sec"].map(|f| number(p, f));
            Some([batch?, threads?, warm?])
        })
        .collect();
    let mut checked = 0usize;
    for &[_, threads, warm512] in grid.iter().filter(|p| p[0] == 512.0) {
        let Some(&[_, _, warm64]) = grid.iter().find(|p| p[0] == 64.0 && p[1] == threads) else {
            outcome.fail(format!("cliff: no batch-64 row at {threads} threads"));
            continue;
        };
        checked += 1;
        if warm512 < CLIFF_MARGIN * warm64 {
            outcome.fail(format!(
                "cliff: warm batch-512 ({warm512:.0}/s) fell below {CLIFF_MARGIN} × warm \
                 batch-64 ({warm64:.0}/s) at {threads} threads — the batch-512 rollover is back"
            ));
        }
    }
    outcome.checks += checked;
    if checked == 0 {
        outcome.fail("cliff: no batch-512 rows to check");
    }
}

/// The absolute serving SLO on the **current** document: its
/// `serving_fraction` (best ≥ 8-client loopback throughput as a
/// fraction of the in-run direct warm batch-64 reference) must reach
/// [`SERVING_FLOOR`]. A document without the field fails.
fn serving_floor(current: &JsonValue, outcome: &mut GateOutcome) {
    let Some(fraction) = number(current, "serving_fraction") else {
        return outcome.fail("serving: current document has no serving_fraction");
    };
    outcome.checks += 1;
    if fraction < SERVING_FLOOR {
        outcome.fail(format!(
            "serving: fraction of direct warm batch-64 fell to {fraction:.2} at >=8 clients \
             (floor {SERVING_FLOOR}) — the front end is eating the engine"
        ));
    }
}

/// Cooperative grid points never shed: `requests_shed` is tolerable
/// only in the dedicated overload point (docs/ROBUSTNESS.md). A point
/// without the field fails.
fn cooperative_never_sheds(current: &JsonValue, outcome: &mut GateOutcome) {
    for point in points_at(current, "points") {
        let label = point_label(point, &["clients", "pipeline"], "points").unwrap_or_default();
        outcome.checks += 1;
        match point.get("requests_shed").and_then(JsonValue::as_u64) {
            Some(0) => {}
            Some(shed) => outcome.fail(format!(
                "serving overload: cooperative point {label} shed {shed} requests — \
                 the default queue depth must absorb cooperative load"
            )),
            None => outcome.fail(format!("cooperative point {label} has no requests_shed")),
        }
    }
}

/// A field of the current document's `overload` object. A missing
/// object or field fails: the overload SLO cannot be retired by
/// omission.
fn overload_field(current: &JsonValue, field: &str, outcome: &mut GateOutcome) -> Option<f64> {
    let Some(overload) = current.get("overload") else {
        outcome.fail("serving overload: current document has no overload object (schema v2)");
        return None;
    };
    let value = number(overload, field);
    if value.is_none() {
        outcome.fail(format!("serving overload: no overload.{field}"));
    }
    value
}

/// The overload point must actually have been overloaded: nonzero sheds.
fn overload_sheds(current: &JsonValue, outcome: &mut GateOutcome) {
    if let Some(shed) = overload_field(current, "requests_shed", outcome) {
        outcome.checks += 1;
        if shed == 0.0 {
            outcome.fail(
                "serving overload: the overload point shed nothing — the measurement \
                 never actually overloaded the admission queue",
            );
        }
    }
}

/// The overload point's admitted throughput must hold
/// [`SERVING_OVERLOAD_FLOOR`] × the cooperative rate at the same grid
/// point.
fn overload_holds_floor(current: &JsonValue, outcome: &mut GateOutcome) {
    let admitted = overload_field(current, "admitted_per_sec", outcome);
    let cooperative = overload_field(current, "cooperative_per_sec", outcome);
    if let (Some(admitted), Some(cooperative)) = (admitted, cooperative) {
        outcome.checks += 1;
        if admitted < SERVING_OVERLOAD_FLOOR * cooperative {
            outcome.fail(format!(
                "serving overload: admitted throughput {admitted:.0} req/s fell below \
                 {SERVING_OVERLOAD_FLOOR} x the cooperative {cooperative:.0} req/s — \
                 shedding is cannibalizing useful work"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_doc(points: &[(u64, u64, f64)], ops: &[(&str, u64, u64)]) -> JsonValue {
        JsonValue::obj(vec![
            ("bench", JsonValue::Str("engine_throughput".into())),
            ("schema_version", JsonValue::Uint(3)),
            (
                "points",
                JsonValue::Arr(
                    points
                        .iter()
                        .map(|&(batch, threads, warm)| {
                            JsonValue::obj(vec![
                                ("batch", JsonValue::Uint(batch)),
                                ("threads", JsonValue::Uint(threads)),
                                ("warm_per_sec", JsonValue::Num(warm)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                JsonValue::obj(vec![
                    ("compiled_out", JsonValue::Bool(false)),
                    (
                        "ops",
                        JsonValue::Arr(
                            ops.iter()
                                .map(|&(kind, count, p95)| {
                                    JsonValue::obj(vec![
                                        ("kind", JsonValue::Str(kind.into())),
                                        ("latency_count", JsonValue::Uint(count)),
                                        ("p95_ns", JsonValue::Uint(p95)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// A healthy grid: batch 512 holds above batch 64 at both thread
    /// counts, latencies steady.
    fn healthy() -> JsonValue {
        engine_doc(
            &[
                (64, 1, 100.0),
                (512, 1, 110.0),
                (64, 2, 180.0),
                (512, 2, 200.0),
            ],
            &[("rep2", 1000, 2047), ("rep3", 100, 16383)],
        )
    }

    #[test]
    fn identical_documents_pass() {
        let outcome = gate_documents(&healthy(), &healthy());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        // 4 throughput + 2 cliff + 2 p95.
        assert_eq!(outcome.checks, 8);
    }

    #[test]
    fn within_margin_noise_passes() {
        let current = engine_doc(
            &[
                (64, 1, 90.0), // 10% below baseline: inside the 15% margin
                (512, 1, 99.0),
                (64, 2, 170.0),
                (512, 2, 185.0),
            ],
            &[("rep2", 900, 4095), ("rep3", 90, 16383)], // one bucket up: slack
        );
        let outcome = gate_documents(&current, &healthy());
        assert!(outcome.passed(), "{:?}", outcome.failures);
    }

    #[test]
    fn synthetic_throughput_regression_fails() {
        let current = engine_doc(
            &[
                (64, 1, 80.0), // 20% below baseline: past the 15% margin
                (512, 1, 110.0),
                (64, 2, 180.0),
                (512, 2, 200.0),
            ],
            &[("rep2", 1000, 2047), ("rep3", 100, 16383)],
        );
        let outcome = gate_documents(&current, &healthy());
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("warm_per_sec regressed"), "{failure}");
    }

    #[test]
    fn scaling_cliff_rollover_fails() {
        // The recorded rollover (21.1k → 17.3k, ≈18% drop) on the current
        // grid must fail even when the baseline shows the same shape.
        let rollover = engine_doc(
            &[(64, 1, 21131.0), (512, 1, 17372.0)],
            &[("rep2", 1000, 2047)],
        );
        let outcome = gate_documents(&rollover, &rollover);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("batch-512 rollover"), "{failure}");
        // A grid with no batch-512 rows cannot vacuously pass the cliff.
        let no512 = engine_doc(&[(64, 1, 100.0)], &[("rep2", 1000, 2047)]);
        let outcome = gate_documents(&no512, &no512);
        assert!(outcome.failures.iter().any(|f| f.contains("no batch-512")));
        // A batch-512 row with no batch-64 partner is a failure too.
        let orphan = engine_doc(&[(512, 3, 100.0)], &[("rep2", 1000, 2047)]);
        let outcome = gate_documents(&orphan, &orphan);
        assert!(outcome.failures.iter().any(|f| f.contains("no batch-64")));
    }

    #[test]
    fn p95_inflation_beyond_one_bucket_fails() {
        let current = engine_doc(
            &[
                (64, 1, 100.0),
                (512, 1, 110.0),
                (64, 2, 180.0),
                (512, 2, 200.0),
            ],
            // rep2 jumped two buckets (2047 → 8191ns): a real tail regression.
            &[("rep2", 1000, 8191), ("rep3", 100, 16383)],
        );
        let outcome = gate_documents(&current, &healthy());
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("[kind=\"rep2\"] p95_ns inflated"),
            "{failure}"
        );
    }

    #[test]
    fn missing_current_samples_for_a_baseline_kind_fails() {
        let current = engine_doc(
            &[
                (64, 1, 100.0),
                (512, 1, 110.0),
                (64, 2, 180.0),
                (512, 2, 200.0),
            ],
            &[("rep2", 0, 0), ("rep3", 100, 16383)],
        );
        let outcome = gate_documents(&current, &healthy());
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("instrumentation went missing")));
    }

    #[test]
    fn compiled_out_current_build_skips_p95_with_a_note() {
        let mut current = healthy();
        if let JsonValue::Obj(fields) = &mut current {
            for (key, value) in fields.iter_mut() {
                if key == "metrics" {
                    if let JsonValue::Obj(metric_fields) = value {
                        metric_fields[0].1 = JsonValue::Bool(true); // compiled_out
                    }
                }
            }
        }
        let outcome = gate_documents(&current, &healthy());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("compiled metrics out")));
        assert_eq!(outcome.checks, 6, "p95 checks must be skipped");
    }

    #[test]
    fn unmatched_baseline_points_are_noted_but_an_empty_match_fails() {
        // Current grid measured fewer thread counts: skipped, not failed.
        let current = engine_doc(
            &[(64, 1, 100.0), (512, 1, 110.0)],
            &[("rep2", 1000, 2047), ("rep3", 100, 16383)],
        );
        let outcome = gate_documents(&current, &healthy());
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(
            outcome
                .notes
                .iter()
                .filter(|n| n.contains("skipped"))
                .count(),
            2
        );
        // No overlap at all: the gate must fail, not pass vacuously.
        let disjoint = engine_doc(&[(8, 1, 50.0)], &[]);
        let baseline = engine_doc(&[(64, 4, 100.0)], &[]);
        let outcome = gate_documents(&disjoint, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("no baseline point matched")));
    }

    fn packed_doc(points: &[(u64, u64, u64, f64)]) -> JsonValue {
        JsonValue::obj(vec![
            ("bench", JsonValue::Str("packed_scan".into())),
            (
                "points",
                JsonValue::Arr(
                    points
                        .iter()
                        .map(|&(dim, items, shards, rate)| {
                            JsonValue::obj(vec![
                                ("dim", JsonValue::Uint(dim)),
                                ("items", JsonValue::Uint(items)),
                                ("shards", JsonValue::Uint(shards)),
                                ("packed_per_sec", JsonValue::Num(rate)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn packed_scan_documents_gate_on_packed_per_sec() {
        let baseline = packed_doc(&[(1024, 256, 1, 400000.0), (8192, 256, 8, 100000.0)]);
        let good = packed_doc(&[(1024, 256, 1, 390000.0), (8192, 256, 8, 99000.0)]);
        assert!(gate_documents(&good, &baseline).passed());
        let bad = packed_doc(&[(1024, 256, 1, 200000.0), (8192, 256, 8, 99000.0)]);
        let outcome = gate_documents(&bad, &baseline);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("packed_per_sec regressed"));
    }

    #[test]
    fn kernel_documents_gate_on_hamming_per_sec_and_skip_absent_isas() {
        let kernel_doc = |points: &[(&str, u64, f64)]| {
            JsonValue::obj(vec![
                ("bench", JsonValue::Str("kernels".into())),
                (
                    "points",
                    JsonValue::Arr(
                        points
                            .iter()
                            .map(|&(kernel, words, rate)| {
                                JsonValue::obj(vec![
                                    ("kernel", JsonValue::Str(kernel.into())),
                                    ("words", JsonValue::Uint(words)),
                                    ("hamming_per_sec", JsonValue::Num(rate)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let baseline = kernel_doc(&[("avx2", 512, 3.0e9), ("avx512", 512, 8.0e9)]);
        // Current machine lacks avx512: that row is skipped, avx2 gates.
        let current = kernel_doc(&[("avx2", 512, 2.9e9)]);
        let outcome = gate_documents(&current, &baseline);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.checks, 1);
        assert!(outcome.notes[0].contains("skipped"));
        let slow = kernel_doc(&[("avx2", 512, 1.0e9)]);
        assert!(!gate_documents(&slow, &baseline).passed());
    }

    #[test]
    fn mismatched_and_unknown_bench_fields_fail() {
        let packed = packed_doc(&[(1024, 256, 1, 1.0)]);
        let outcome = gate_documents(&healthy(), &packed);
        assert!(outcome.failures[0].contains("bench mismatch"));
        let unknown = JsonValue::obj(vec![("bench", JsonValue::Str("mystery".into()))]);
        let outcome = gate_documents(&unknown, &unknown);
        assert!(outcome.failures[0].contains("unknown bench family"));
    }

    #[test]
    fn parse_errors_surface_as_failures() {
        let healthy_text = healthy().render();
        assert!(gate_texts("{", &healthy_text).failures[0].contains("current document"));
        assert!(gate_texts(&healthy_text, "[1,").failures[0].contains("baseline document"));
        assert!(gate_texts(&healthy_text, &healthy_text).passed());
    }

    #[test]
    fn p95_limit_allows_exactly_one_bucket_jump() {
        // Baseline edge 2047; next bucket edge 4095 passes, 8191 fails.
        assert!((4095f64) <= p95_limit(2047.0));
        assert!((8191f64) > p95_limit(2047.0));
    }

    /// `overload` is `(admitted, cooperative, shed, p95_ns)`; `None`
    /// models a pre-v2 document with no overload object.
    fn serving_doc_with(
        fraction: f64,
        recording: bool,
        points: &[(u64, u64, f64, u64, u64)],
        point_shed: u64,
        overload: Option<(f64, f64, u64, u64)>,
    ) -> JsonValue {
        let mut fields = vec![
            ("bench", JsonValue::Str("serving".into())),
            ("schema_version", JsonValue::Uint(2)),
            ("metrics_recording", JsonValue::Bool(recording)),
            ("serving_fraction", JsonValue::Num(fraction)),
            (
                "points",
                JsonValue::Arr(
                    points
                        .iter()
                        .map(|&(clients, pipeline, rate, count, p95)| {
                            JsonValue::obj(vec![
                                ("clients", JsonValue::Uint(clients)),
                                ("pipeline", JsonValue::Uint(pipeline)),
                                ("throughput_per_sec", JsonValue::Num(rate)),
                                ("latency_count", JsonValue::Uint(count)),
                                ("p95_ns", JsonValue::Uint(p95)),
                                ("requests_shed", JsonValue::Uint(point_shed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some((admitted, cooperative, shed, p95)) = overload {
            fields.push((
                "overload",
                JsonValue::obj(vec![
                    ("clients", JsonValue::Uint(8)),
                    ("pipeline", JsonValue::Uint(32)),
                    ("admitted_per_sec", JsonValue::Num(admitted)),
                    ("cooperative_per_sec", JsonValue::Num(cooperative)),
                    ("requests_shed", JsonValue::Uint(shed)),
                    ("latency_count", JsonValue::Uint(672)),
                    ("p95_ns", JsonValue::Uint(p95)),
                ]),
            ));
        }
        JsonValue::obj(fields)
    }

    fn serving_doc(
        fraction: f64,
        recording: bool,
        points: &[(u64, u64, f64, u64, u64)],
    ) -> JsonValue {
        serving_doc_with(
            fraction,
            recording,
            points,
            0,
            Some((17e3, 18e3, 5000, 4095)),
        )
    }

    #[test]
    fn serving_identical_documents_pass() {
        let doc = serving_doc(
            0.93,
            true,
            &[(1, 8, 5e3, 512, 2047), (8, 32, 18e3, 2048, 4095)],
        );
        let outcome = gate_documents(&doc, &doc);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        // 2 throughput + 1 floor + 2 p95 + 2 cooperative-shed
        // + overload shed/floor/p95.
        assert_eq!(outcome.checks, 10);
    }

    #[test]
    fn serving_current_without_overload_object_fails() {
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        let current = serving_doc_with(0.93, true, &[(8, 32, 18e3, 2048, 4095)], 0, None);
        let outcome = gate_documents(&current, &baseline);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("no overload object"), "{failure}");
    }

    #[test]
    fn serving_v1_baseline_downgrades_overload_p95_to_a_note() {
        // The baseline's points also predate requests_shed.
        let v1 = serving_doc_with(0.93, true, &[(8, 32, 18e3, 2048, 4095)], 0, None);
        let baseline = strip(&v1, "requests_shed");
        let current = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        let outcome = gate_documents(&current, &baseline);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(
            outcome
                .notes
                .iter()
                .any(|n| n.contains("baseline has no overload")),
            "{:?}",
            outcome.notes
        );
    }

    #[test]
    fn serving_cooperative_shedding_fails() {
        let doc = serving_doc_with(
            0.93,
            true,
            &[(8, 32, 18e3, 2048, 4095)],
            3,
            Some((17e3, 18e3, 5000, 4095)),
        );
        let outcome = gate_documents(&doc, &doc);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("cooperative point"), "{failure}");
    }

    #[test]
    fn serving_overload_that_never_shed_fails() {
        let doc = serving_doc_with(
            0.93,
            true,
            &[(8, 32, 18e3, 2048, 4095)],
            0,
            Some((17e3, 18e3, 0, 4095)),
        );
        let outcome = gate_documents(&doc, &doc);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("shed nothing"), "{failure}");
    }

    #[test]
    fn serving_overload_admitted_collapse_fails() {
        let doc = serving_doc_with(
            0.93,
            true,
            &[(8, 32, 18e3, 2048, 4095)],
            0,
            Some((9e3, 18e3, 5000, 4095)),
        );
        let outcome = gate_documents(&doc, &doc);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("cannibalizing"), "{failure}");
    }

    #[test]
    fn serving_overload_p95_inflation_fails() {
        let baseline = serving_doc_with(
            0.93,
            true,
            &[(8, 32, 18e3, 2048, 4095)],
            0,
            Some((17e3, 18e3, 5000, 2047)),
        );
        let current = serving_doc_with(
            0.93,
            true,
            &[(8, 32, 18e3, 2048, 4095)],
            0,
            Some((17e3, 18e3, 5000, 16383)),
        );
        let outcome = gate_documents(&current, &baseline);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("overload p95_ns inflated"), "{failure}");
    }

    #[test]
    fn serving_fraction_below_floor_fails() {
        let doc = serving_doc(0.7, true, &[(8, 32, 18e3, 2048, 4095)]);
        let outcome = gate_documents(&doc, &doc);
        let failure = outcome.failures.join("\n");
        assert!(failure.contains("fell to 0.70"), "{failure}");
        // A document that dropped the field cannot pass vacuously.
        let missing = JsonValue::obj(vec![
            ("bench", JsonValue::Str("serving".into())),
            ("metrics_recording", JsonValue::Bool(true)),
            (
                "points",
                JsonValue::Arr(vec![JsonValue::obj(vec![
                    ("clients", JsonValue::Uint(8)),
                    ("pipeline", JsonValue::Uint(32)),
                    ("throughput_per_sec", JsonValue::Num(18e3)),
                ])]),
            ),
        ]);
        let outcome = gate_documents(&missing, &missing);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("no serving_fraction")));
    }

    #[test]
    fn serving_throughput_regression_fails() {
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        let current = serving_doc(0.93, true, &[(8, 32, 14e3, 2048, 4095)]);
        let outcome = gate_documents(&current, &baseline);
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("throughput_per_sec regressed"),
            "{failure}"
        );
    }

    fn learn_doc(final_accuracy: f64, points: &[(u64, f64, f64, u64, u64)]) -> JsonValue {
        JsonValue::obj(vec![
            ("bench", JsonValue::Str("learn".into())),
            ("schema_version", JsonValue::Uint(1)),
            ("final_accuracy", JsonValue::Num(final_accuracy)),
            (
                "points",
                JsonValue::Arr(
                    points
                        .iter()
                        .map(|&(dim, train, classify, count, p95)| {
                            JsonValue::obj(vec![
                                ("dim", JsonValue::Uint(dim)),
                                ("train_per_sec", JsonValue::Num(train)),
                                ("classify_per_sec", JsonValue::Num(classify)),
                                ("latency_count", JsonValue::Uint(count)),
                                ("classify_p95_ns", JsonValue::Uint(p95)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn learn_identical_documents_pass() {
        let doc = learn_doc(
            0.92,
            &[(1024, 5e4, 8e4, 4000, 12000), (4096, 2e4, 3e4, 4000, 40000)],
        );
        let outcome = gate_documents(&doc, &doc);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        // 2 train + 2 classify + 2 p95 + 1 accuracy.
        assert_eq!(outcome.checks, 7);
    }

    #[test]
    fn learn_throughput_regressions_fail() {
        let baseline = learn_doc(0.92, &[(1024, 5e4, 8e4, 4000, 12000)]);
        let slow_train = learn_doc(0.92, &[(1024, 3e4, 8e4, 4000, 12000)]);
        let outcome = gate_documents(&slow_train, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("train_per_sec regressed")));
        let slow_classify = learn_doc(0.92, &[(1024, 5e4, 4e4, 4000, 12000)]);
        let outcome = gate_documents(&slow_classify, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("classify_per_sec regressed")));
    }

    #[test]
    fn learn_p95_inflation_and_accuracy_drop_fail() {
        let baseline = learn_doc(0.92, &[(1024, 5e4, 8e4, 4000, 12000)]);
        // One doubling passes (noise), past it fails.
        let doubled = learn_doc(0.92, &[(1024, 5e4, 8e4, 4000, 24000)]);
        assert!(gate_documents(&doubled, &baseline).passed());
        let inflated = learn_doc(0.92, &[(1024, 5e4, 8e4, 4000, 60000)]);
        let outcome = gate_documents(&inflated, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("classify_p95_ns inflated")));
        // Accuracy: within the slack passes, past it fails.
        let noisy = learn_doc(0.89, &[(1024, 5e4, 8e4, 4000, 12000)]);
        assert!(gate_documents(&noisy, &baseline).passed());
        let broken = learn_doc(0.70, &[(1024, 5e4, 8e4, 4000, 12000)]);
        let outcome = gate_documents(&broken, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("final_accuracy fell")));
        // A current document that dropped the field cannot pass.
        let missing = strip(&baseline, "final_accuracy");
        let outcome = gate_documents(&missing, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("no final_accuracy")));
    }

    #[test]
    fn serving_p95_two_bucket_inflation_fails_and_metrics_off_skips() {
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 2047)]);
        let inflated = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 8191)]);
        let outcome = gate_documents(&inflated, &baseline);
        assert!(outcome
            .failures
            .iter()
            .any(|f| f.contains("[clients=8 pipeline=32] p95_ns inflated")));
        // Either side recorded with metrics off → p95 skipped, noted.
        let off = serving_doc(0.93, false, &[(8, 32, 18e3, 0, 0)]);
        let outcome = gate_documents(&off, &baseline);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome.notes.iter().any(|n| n.contains("metrics off")));
    }

    /// `doc` with `field` removed from every object in it.
    fn strip(doc: &JsonValue, field: &str) -> JsonValue {
        match doc {
            JsonValue::Obj(fields) => JsonValue::Obj(
                fields
                    .iter()
                    .filter(|(key, _)| key != field)
                    .map(|(key, value)| (key.clone(), strip(value, field)))
                    .collect(),
            ),
            JsonValue::Arr(items) => {
                JsonValue::Arr(items.iter().map(|v| strip(v, field)).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn serving_point_without_p95_fails() {
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        let outcome = gate_documents(&strip(&baseline, "p95_ns"), &baseline);
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("current point [clients=8 pipeline=32] has no p95_ns"),
            "{failure}"
        );
        assert!(
            failure.contains("current point overload has no p95_ns"),
            "{failure}"
        );
    }

    #[test]
    fn learn_point_without_classify_p95_fails() {
        let baseline = learn_doc(0.92, &[(1024, 5e4, 8e4, 4000, 12000)]);
        let outcome = gate_documents(&strip(&baseline, "classify_p95_ns"), &baseline);
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("current point [dim=1024] has no classify_p95_ns"),
            "{failure}"
        );
    }

    #[test]
    fn serving_overload_without_throughput_fields_fails() {
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        // With both fields read as 0, `0 < 0.8 × 0` would hold the floor.
        let current = strip(&strip(&baseline, "admitted_per_sec"), "cooperative_per_sec");
        let outcome = gate_documents(&current, &baseline);
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("serving overload: no overload.admitted_per_sec"),
            "{failure}"
        );
    }

    #[test]
    fn serving_points_without_requests_shed_fail() {
        // The overload object is present, so only the cooperative
        // never-shed check can catch points that dropped the field.
        let baseline = serving_doc(0.93, true, &[(8, 32, 18e3, 2048, 4095)]);
        let JsonValue::Obj(fields) = &baseline else {
            unreachable!("serving_doc builds an object")
        };
        let current = JsonValue::Obj(
            fields
                .iter()
                .map(|(key, value)| match key.as_str() {
                    "points" => (key.clone(), strip(value, "requests_shed")),
                    _ => (key.clone(), value.clone()),
                })
                .collect(),
        );
        let outcome = gate_documents(&current, &baseline);
        let failure = outcome.failures.join("\n");
        assert!(
            failure.contains("cooperative point [clients=8 pipeline=32] has no requests_shed"),
            "{failure}"
        );
    }

    /// The spec against the real schema: every committed baseline gates
    /// clean against itself, and every metric row of its family's spec
    /// compares at least one point — a field name mistyped in the spec
    /// fails here rather than passing against hand-written documents.
    #[test]
    fn committed_baselines_pass_against_themselves_and_match_every_row() {
        let baselines = [
            include_str!("../../../baselines/BENCH_engine.json"),
            include_str!("../../../baselines/BENCH_packed_scan.json"),
            include_str!("../../../baselines/BENCH_kernels.json"),
            include_str!("../../../baselines/BENCH_serving.json"),
            include_str!("../../../baselines/BENCH_learn.json"),
        ];
        let mut gated = Vec::new();
        for text in baselines {
            let outcome = gate_texts(text, text);
            assert!(
                outcome.passed(),
                "{}: {:?}",
                outcome.bench,
                outcome.failures
            );
            let doc = JsonValue::parse(text).expect("committed baseline parses");
            let family = FAMILIES
                .iter()
                .find(|family| family.bench == outcome.bench)
                .expect("a spec for every committed baseline");
            for spec in family.tables {
                for row in spec.rows {
                    let one_row = Table {
                        rows: std::slice::from_ref(row),
                        ..table(spec.path, spec.keys, &[])
                    };
                    let mut probe = GateOutcome::new(family.bench);
                    one_row.diff(&doc, &doc, false, &mut probe);
                    assert!(
                        probe.checks > 0,
                        "{}: {row:?} at {:?} matched no point",
                        family.bench,
                        spec.path
                    );
                }
            }
            gated.push(family.bench);
        }
        let specs: Vec<_> = FAMILIES.iter().map(|family| family.bench).collect();
        assert_eq!(gated, specs, "one committed baseline per family");
    }
}

//! Metric names, units and the result line.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every [`END_TO_END`] metric; a traced run every
//! [`PER_LAYER`] metric. Both lists are mirrored in `BENCHMARK.json`
//! (a unit test keeps them in step).

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server_e2e_p50_ms", "ms"),
    ("serve.server_e2e_p99_ms", "ms"),
    ("serve.outside_server_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_est_p50_ms", "ms"),
    ("serve.codec_us_per_frame", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("engine.batch_ms_p50", "ms"),
    ("engine.batch_ms_p99", "ms"),
    ("engine.self_ms_per_batch", "ms"),
    ("engine.lane_utilization", "ratio"),
    ("engine.recon_hit_ratio", "ratio"),
    ("engine.publish_ms", "ms"),
    ("engine.stage_share.plan", "ratio"),
    ("engine.stage_share.scan", "ratio"),
    ("engine.stage_share.rerank", "ratio"),
    ("engine.stage_share.scatter", "ratio"),
    ("core.factorize_multi_ms.n2", "ms"),
    ("core.factorize_multi_ms.n3", "ms"),
    ("core.factorize_multi_ms.n4", "ms"),
    ("core.similarity_checks_per_scene", "count"),
    ("core.combination_tests_per_scene", "count"),
    ("core.objects_per_combination_test", "ratio"),
    ("core.factorize_single_us", "us"),
    ("core.encode_scene_us", "us"),
    ("learn.observe_us", "us"),
    ("learn.snapshot_ms", "ms"),
    ("learn.classify_us", "us"),
    ("learn.retrain_epoch_ms", "ms"),
    ("learn.retrain_errors", "count"),
    ("hdc.scalar_scan_ns_per_item", "ns"),
    ("hdc.packed_scan_ns_per_item", "ns"),
    ("hdc.scalar_scan_share_est", "ratio"),
    ("hdc.kernel_gb_per_s", "GB/s"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.whole_ms_per_op", "ms"),
    ("trace.share.gen", "ratio"),
    ("trace.share.serve", "ratio"),
    ("trace.share.engine", "ratio"),
    ("trace.share.core", "ratio"),
    ("trace.share.learn", "ratio"),
    ("trace.share.hdc", "ratio"),
    ("trace.share.unattributed", "ratio"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured metric values, checked against one of the name lists.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
    /// Names whose value a side probe measured on another workload's
    /// inputs (see [`Metrics::absorb_side`]).
    side: Vec<&'static str>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records `name = value`; the unit comes from the name lists.
    ///
    /// # Panics
    ///
    /// On a name in neither list, a repeated name, or a non-finite
    /// value — each a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        debug_assert!(valid_name(name), "metric name {name:?}");
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "metric {name} set twice"
        );
        self.values.push((name, unit, value));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// Names declared in `expected` but not recorded.
    pub fn missing(&self, expected: &[(&'static str, &str)]) -> Vec<&'static str> {
        expected
            .iter()
            .filter(|(name, _)| self.get(name).is_none())
            .map(|&(name, _)| name)
            .collect()
    }

    /// Moves every value of `other` in, marked as measured by a side
    /// probe: a layer this workload does not exercise, timed on inputs
    /// another workload's generator made from the same seed. The result
    /// line must still carry it; the table marks it.
    pub fn absorb_side(&mut self, other: Metrics) {
        for (name, _, value) in other.values {
            self.set(name, value);
            self.side.push(name);
        }
    }

    /// Human-readable `name = value unit` lines, in declaration order.
    pub fn table(&self, expected: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in expected {
            if let Some(value) = self.get(name) {
                let side = if self.side.contains(name) {
                    "  (side probe)"
                } else {
                    ""
                };
                let _ = writeln!(out, "  {name:<36} {value:>14.6} {unit}{side}");
            }
        }
        out
    }

    /// The `metrics` object of the result line, restricted to
    /// `expected` (in its order).
    fn json(&self, expected: &[(&str, &str)]) -> String {
        let fields: Vec<String> = expected
            .iter()
            .filter_map(|(name, unit)| {
                self.get(name).map(|v| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        num(v)
                    )
                })
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting keeps (integral values keep a trailing `.0`).
pub fn num(value: f64) -> String {
    assert!(value.is_finite(), "non-finite {value}");
    format!("{value:?}")
}

/// Escapes a string for a JSON string literal.
pub fn json_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    expected: &[(&str, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json(expected)
    )
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Cumulative ticks the host stole from this VM's CPUs (the `steal`
/// column of `/proc/stat`), 0 where unavailable.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory without spawning git; `"unknown"` outside a git
/// checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The environment record printed with every result: core count, scan
/// kernel, CPU features, pool lanes, metrics recording, seed, commit.
pub fn environment(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
\"scan_kernel\": {}, \"cpu_features\": {}, \"rayon_lanes\": {}, \"metrics_recording\": {}, \
\"git_commit\": {}}}",
        json_str(workload),
        json_str(hdc::kernels::selected_kernel().name()),
        json_str(&hdc::kernels::cpu_features()),
        rayon::current_num_threads(),
        factorhd_engine::metrics::snapshot().recording,
        json_str(&git_commit()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "invalid metric name {name:?}");
        }
        for (i, name) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(name), "duplicate metric {name}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "unit {unit:?}");
        }
        assert!(!valid_name("latency p50"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("serve/e2e"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let declared: Vec<&str> = doc
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let workloads: Vec<&str> = crate::cli::Workload::ALL.iter().map(|w| w.name()).collect();
        let metric_names: Vec<&str> = declared
            .iter()
            .copied()
            .filter(|n| !workloads.contains(n))
            .collect();
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(metric_names, ours);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in workloads {
            assert!(
                doc.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        metrics.set("ops_per_s", 2000.5);
        metrics.set("setup_s", 0.25);
        let line = result_line(true, 10, 0, &metrics, END_TO_END);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
{\"ops_per_s\": {\"value\": 2000.5, \"unit\": \"1/s\"}, \
\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            metrics.missing(&END_TO_END[..3]),
            vec!["latency_p50_ms", "latency_p99_ms"]
        );
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.1234567891234), "0.1234567891234");
    }

    #[test]
    fn side_probe_values_are_reported_and_marked() {
        let mut metrics = Metrics::new();
        metrics.set("engine.batch_ms_p50", 1.5);
        let mut side = Metrics::new();
        side.set("learn.classify_us", 40.0);
        metrics.absorb_side(side);
        assert_eq!(metrics.get("learn.classify_us"), Some(40.0));
        let table = metrics.table(PER_LAYER);
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.contains(name))
                .expect("listed")
                .to_owned()
        };
        assert!(line("learn.classify_us").ends_with("us  (side probe)"));
        assert!(line("engine.batch_ms_p50").ends_with(" ms"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_rejected() {
        Metrics::new().set("latency_p95_ms", 1.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

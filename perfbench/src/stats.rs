//! Order statistics for the reported metrics.
//!
//! A percentile is the nearest-rank order statistic, and it is refused
//! unless at least [`MIN_BEYOND`] samples lie beyond it: a p99 read off
//! 200 samples is the second-worst sample, not a tail estimate.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `sorted`, which must be
/// sorted ascending.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank
/// (for p99 that means fewer than 1000 samples).
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond rank {rank}, only {} of {n} are",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Sorts `values` ascending (total order; the benchmark never produces
/// NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median of a small set of repeated measurements (set-up times,
/// per-call probe times): the middle value, or the mean of the two
/// middle values. No tail rule applies — this is a location estimate.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `measure` applied to the items of the quiet windows: the quietest
/// windows that hold enough items for it to succeed.
///
/// `at_s[i]` places `items[i]` in window `floor(at_s[i] / window_s)`;
/// `steal[w]` is the CPU time the host stole from the machine during
/// window `w`. A window's noise is its own steal plus that of the windows
/// on either side (an op due late in a window is answered in the next
/// one, and a backlog a burst leaves behind drains into the window after
/// it). A window is quiet when its noise is at most a cap: first the
/// lower quartile of all windows' noise, so at least a quarter of the
/// windows count (all of them when the host reports no steal); while
/// `measure` refuses the kept items, the cap rises to the next noise
/// level, up to the noisiest window, which keeps every item.
///
/// On a shared host, time follows the host's CPU steal: a second in which
/// the host takes 20 % of the CPU triples the p99 of a 2,000 req/s loop.
/// Windows are chosen by steal alone — never by what is measured — and
/// every item of a kept window counts, so a stall of the program itself
/// shows wherever it lands.
///
/// # Errors
///
/// `measure`'s error on every item, when it refuses even those.
pub fn in_quiet_windows<T: Copy, R>(
    at_s: &[f64],
    items: &[T],
    window_s: f64,
    steal: &[u64],
    mut measure: impl FnMut(Vec<T>) -> Result<R, String>,
) -> Result<R, String> {
    assert_eq!(at_s.len(), items.len(), "one time per item");
    assert!(window_s > 0.0, "empty window");
    let noise: Vec<u64> = (0..steal.len())
        .map(|w| steal[w.saturating_sub(1)..(w + 2).min(steal.len())].iter().sum())
        .collect();
    let mut caps = noise.clone();
    caps.sort_unstable();
    let first = caps
        .get(caps.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0);
    caps.dedup();
    caps.retain(|&cap| cap >= first);
    let mut measured = Err("no window to measure".to_owned());
    for cap in caps {
        let kept = at_s
            .iter()
            .zip(items)
            .filter(|(&at, _)| {
                let window = (at / window_s).max(0.0) as usize;
                noise.get(window).is_some_and(|&n| n <= cap)
            })
            .map(|(_, &item)| item)
            .collect();
        measured = measure(kept);
        if measured.is_ok() {
            break;
        }
    }
    measured
}

/// The `p`-quantile of every sample in the quiet windows
/// ([`in_quiet_windows`]), pooled.
///
/// # Errors
///
/// The [`percentile`] tail rule, applied to every sample.
pub fn quiet_percentile(
    at_s: &[f64],
    samples: &[f64],
    window_s: f64,
    steal: &[u64],
    p: f64,
) -> Result<f64, String> {
    in_quiet_windows(at_s, samples, window_s, steal, |mut kept| {
        sort(&mut kept);
        percentile(&kept, p)
    })
}

/// Where the `p`-quantile of a log2-bucketed histogram lies (bucket
/// `i ≥ 1` holds values of bit width `i`, i.e. `[2^(i-1), 2^i)`; bucket
/// 0 holds 0): its bucket's range `[lo, hi)` and the quantile rank's
/// position inside the bucket as a fraction in `(0, 1)`. The serving
/// layer's histograms resolve a quantile only to this 2× range.
///
/// # Errors
///
/// The [`percentile`] tail rule, applied to the histogram's count.
pub fn log2_histogram_bucket(buckets: &[u64], p: f64) -> Result<(f64, f64, f64), String> {
    let count: u64 = buckets.iter().sum();
    let rank = ((p * count as f64).ceil() as u64).max(1);
    if count < rank + MIN_BEYOND as u64 {
        return Err(format!(
            "histogram p{} needs {MIN_BEYOND} observations beyond rank {rank} of {count}",
            p * 100.0
        ));
    }
    let mut below = 0u64;
    for (index, &in_bucket) in buckets.iter().enumerate() {
        if below + in_bucket >= rank {
            let fraction = ((rank - below) as f64 - 0.5) / in_bucket as f64;
            let (lo, hi) = match index {
                0 => (0.0, 1.0),
                i => ((1u64 << (i - 1)) as f64, (1u64 << i) as f64),
            };
            return Ok((lo, hi, fraction));
        }
        below += in_bucket;
    }
    unreachable!("rank {rank} ≤ count {count} lies in some bucket")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        // 999 samples: rank 990, only 9 beyond — refused.
        let refused = percentile(&ramp(999), 0.99).expect_err("too few samples");
        assert!(refused.contains("9 of 999"), "{refused}");
        assert!(percentile(&ramp(100), 0.99).is_err());
    }

    #[test]
    fn median_rank_is_nearest_rank() {
        assert_eq!(percentile(&ramp(100), 0.5), Ok(50.0));
        assert_eq!(percentile(&ramp(21), 0.5), Ok(11.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quiet_windows_drop_host_steal_but_keep_program_stalls() {
        // Eight 0.1 s windows of 1000 samples at 1..=1000 ms. In window 2
        // the program stalls: its last 100 samples take 10 s, with no
        // steal. Windows 5 and 6 were stolen from and run 20× slower.
        let window_s = 0.1;
        let mut due = Vec::new();
        let mut samples = Vec::new();
        for w in 0..8 {
            for i in 1..=1000 {
                due.push((w as f64 + i as f64 / 1001.0) * window_s);
                samples.push(match w {
                    2 if i > 900 => 10_000.0,
                    5 | 6 => 20.0 * i as f64,
                    _ => i as f64,
                });
            }
        }
        let steal = [0, 0, 0, 0, 2, 30, 40, 0];
        // Noise (steal of each window and its neighbours) is
        // [0, 0, 0, 2, 32, 72, 70, 40]: windows 3, 4 and 7 border the
        // burst and drop out with it. Quiet windows 0–2 hold 3000
        // samples; the stall's 100 are the top 3.3 %, so the pooled p99
        // is the stall.
        let quiet = |due: &[f64], samples: &[f64], steal: &[u64], p: f64| {
            quiet_percentile(due, samples, window_s, steal, p)
        };
        assert_eq!(quiet(&due, &samples, &steal, 0.99), Ok(10_000.0));
        assert_eq!(quiet(&due, &samples, &steal, 0.5), Ok(500.0));
        // With no steal reported every window counts, and the stolen
        // windows' tail (20 × 960 ms) sets the p99.
        let flat = [0; 8];
        assert_eq!(quiet(&due, &samples, &flat, 0.99), Ok(19_200.0));
        // 500 samples are too few for a p99.
        assert!(quiet(&due[..500], &samples[..500], &flat[..1], 0.99).is_err());
    }

    #[test]
    fn the_quiet_cap_rises_until_the_kept_samples_suffice() {
        // Four windows of 600 samples; window w holds (w + 1) × 1..=600.
        let window_s = 0.1;
        let mut at = Vec::new();
        let mut samples = Vec::new();
        for w in 0..4 {
            for i in 1..=600 {
                at.push((w as f64 + i as f64 / 601.0) * window_s);
                samples.push(((w + 1) * i) as f64);
            }
        }
        // Noise [0, 5, 14, 14]. Window 0 alone serves a p50; a p99 needs
        // 1000 samples, so it takes windows 0 and 1 (cap 5): the 13th
        // largest of 1..=600 and 2 × 1..=600 is 2 × 588.
        let steal = [0, 0, 5, 9];
        assert_eq!(quiet_percentile(&at, &samples, window_s, &steal, 0.5), Ok(300.0));
        assert_eq!(
            quiet_percentile(&at, &samples, window_s, &steal, 0.99),
            Ok(1176.0)
        );
        // Any measure: the count of kept items, refused below 1000.
        let count = |kept: Vec<f64>| match kept.len() {
            n if n >= 1000 => Ok(n),
            n => Err(format!("{n} items")),
        };
        assert_eq!(in_quiet_windows(&at, &samples, window_s, &steal, count), Ok(1200));
        assert_eq!(
            in_quiet_windows(&at[..600], &samples[..600], window_s, &steal[..1], count),
            Err("600 items".to_owned())
        );
    }

    #[test]
    fn histogram_quantile_resolves_to_its_bucket() {
        // 100 observations in bucket 11 ([1024, 2048)) and 100 in bucket
        // 12 ([2048, 4096)).
        let mut buckets = vec![0u64; 40];
        buckets[11] = 100;
        buckets[12] = 100;
        assert_eq!(
            log2_histogram_bucket(&buckets, 0.5),
            Ok((1024.0, 2048.0, 0.995))
        );
        assert_eq!(
            log2_histogram_bucket(&buckets, 0.75),
            Ok((2048.0, 4096.0, 0.495))
        );
        assert!(log2_histogram_bucket(&buckets, 0.99).is_err());
    }
}

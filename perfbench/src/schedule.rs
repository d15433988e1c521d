//! The open-loop arrival schedule and the sender that follows it.
//!
//! Arrivals are a Poisson process: exponential gaps drawn from a seeded
//! stream, so a seed fixes every send time. Latency is measured from the
//! *scheduled* time ([`latency_since_due`]): when the sender stalls, the
//! requests due during the stall are charged for the wait, instead of
//! the stall silently thinning the offered load (coordinated omission).

use rand::Rng;
use std::io;
use std::time::{Duration, Instant};

/// Stream tag of the arrival-gap generator.
const TAG_ARRIVALS: u64 = 0xA771_5A1E;

/// Send offsets (from the start of the window) of a Poisson process of
/// `rate_per_s` arrivals per second, covering `seconds`.
pub fn poisson_offsets(rate_per_s: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    assert!(rate_per_s > 0.0 && seconds > 0.0, "empty schedule");
    let mut rng = hdc::rng_from_seed(hdc::derive_seed(&[seed, TAG_ARRIVALS]));
    let mut offsets = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut at = 0.0f64;
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / rate_per_s;
        if at >= seconds {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
}

/// Latency of a request due at `start + offset` whose response was read
/// at `received`, in milliseconds — counted from the due time, not from
/// when the request actually left.
pub fn latency_since_due(start: Instant, offset: Duration, received: Instant) -> f64 {
    received
        .saturating_duration_since(start + offset)
        .as_secs_f64()
        * 1e3
}

/// Sends request `i` at (or as soon as possible after) `start +
/// offsets[i]`, for every `i`, and returns each send's lag behind its due
/// time in milliseconds.
///
/// `prepare(i)` builds request `i`'s frame; it runs right after the
/// previous send, while the sender would otherwise sleep, so encoding
/// stays off the lag path. `send` writes one frame. The sender sleeps
/// (never spins) until each due time: spinning would steal a core from
/// the server under test.
///
/// # Errors
///
/// The first error `send` returns.
pub fn drive<F>(
    start: Instant,
    offsets: &[Duration],
    mut prepare: impl FnMut(usize) -> F,
    mut send: impl FnMut(usize, &F) -> io::Result<()>,
) -> io::Result<Vec<f64>> {
    let mut lags = Vec::with_capacity(offsets.len());
    let Some(_) = offsets.first() else {
        return Ok(lags);
    };
    let mut next = prepare(0);
    for (i, &offset) in offsets.iter().enumerate() {
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        send(i, &next)?;
        if i + 1 < offsets.len() {
            next = prepare(i + 1);
        }
    }
    Ok(lags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_offsets(2000.0, 2.0, 11);
        let b = poisson_offsets(2000.0, 2.0, 11);
        let c = poisson_offsets(2000.0, 2.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets not sorted");
        assert!(a.last().expect("non-empty") < &Duration::from_secs(2));
        // 4000 expected arrivals; the Poisson count stays within ±5 %.
        assert!((3800..=4200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn latency_counts_from_the_schedule_through_an_injected_stall() {
        let offsets: Vec<Duration> = (0..5).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(40);
        let (tx, rx) = mpsc::channel::<(usize, Instant)>();
        // An "echo server" that answers the moment a request arrives.
        let echo = std::thread::spawn(move || {
            rx.iter()
                .map(|(i, _sent)| (i, Instant::now()))
                .collect::<Vec<_>>()
        });
        let start = Instant::now();
        let lags = drive(
            start,
            &offsets,
            |i| i,
            |i, _frame| {
                if i == 0 {
                    // The sender stalls for 40 ms before its first send.
                    std::thread::sleep(stall);
                }
                tx.send((i, Instant::now())).expect("echo alive");
                Ok(())
            },
        )
        .expect("sends succeed");
        drop(tx);
        let replies = echo.join().expect("echo thread");
        // Requests 1..4 left ~40 ms late; their lag and their latency
        // both carry the stall, though the echo answered instantly.
        for (i, received) in replies {
            let latency = latency_since_due(start, offsets[i], received);
            let charged = stall.as_secs_f64() * 1e3 - offsets[i].as_secs_f64() * 1e3;
            if i > 0 {
                assert!(lags[i] >= charged - 1.0, "lag {} of request {i}", lags[i]);
                assert!(latency >= charged - 1.0, "latency {latency} of request {i}");
            }
        }
    }
}

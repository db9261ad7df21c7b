//! Pure measurement logic: percentiles, the open-loop request timer, and
//! the per-disk alarm quality (FDR / FAR) of an alarm stream.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Nearest-rank `q`-quantile of `xs` (any order); `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The highest of the 50th, 90th, 99th and 99.9th percentiles that has at
/// least ten samples beyond it, with that percentile's value; `None` when
/// fewer than 20 samples exist.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0 - 1e-9)
        .and_then(|q| quantile(xs, q).map(|v| (q, v)))
}

/// A clock the open-loop driver reads and sleeps on; the real one is
/// [`WallClock`], tests drive a simulated one.
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Block until `now() >= t`.
    fn sleep_until(&mut self, t: Duration);
}

/// [`Clock`] over `std::time::Instant`. It sleeps until shortly before
/// the deadline and spins the rest, so sends leave on time.
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// A clock whose zero is `origin`.
    pub fn at(origin: std::time::Instant) -> Self {
        Self { start: origin }
    }

    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self::at(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        const SPIN: Duration = Duration::from_micros(100);
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// Drive `n` requests on an open-loop schedule (request `i` is due at
/// `i * period`) over one connection that answers in order.
///
/// `call(i)` sends request `i` and blocks until its reply. A request is
/// sent at its due time or, when the previous reply came back late, right
/// after it; either way its latency is measured from its *due* time, so a
/// stalled reply is charged to every request scheduled behind it rather
/// than silently thinning the load (no coordinated omission).
pub fn open_loop<C: Clock, E>(
    n: usize,
    period: Duration,
    clock: &mut C,
    mut call: impl FnMut(usize, &mut C) -> Result<(), E>,
) -> Result<Vec<Duration>, E> {
    let mut latencies = Vec::with_capacity(n);
    for i in 0..n {
        let due = period * i as u32;
        clock.sleep_until(due);
        call(i, clock)?;
        latencies.push(clock.now().saturating_sub(due));
    }
    Ok(latencies)
}

/// Per-disk alarm quality of one alarm stream (or of several, pooled).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlarmQuality {
    /// Failed disks in scope.
    pub failed_disks: usize,
    /// Failed disks with at least one alarm in the window before failure.
    pub detected: usize,
    /// Never-failed disks in scope.
    pub good_disks: usize,
    /// Never-failed disks with any alarm.
    pub false_alarmed: usize,
}

impl AlarmQuality {
    /// Score an alarm stream. `alarms` are `(disk_id, day)`; `failures`
    /// are `(disk_id, failure day)` of the failed disks in scope; `good`
    /// lists the never-failed disks in scope. A failed disk counts as
    /// detected when it has an alarm on a day `d` with
    /// `fail_day - window_days < d <= fail_day` (the labelling window,
    /// matching `eval::streaming`).
    pub fn score(
        alarms: &[(u32, u16)],
        failures: &[(u32, u16)],
        good: &[u32],
        window_days: u16,
    ) -> Self {
        let fail_day: BTreeMap<u32, u16> = failures.iter().copied().collect();
        let good: BTreeSet<u32> = good.iter().copied().collect();
        let mut detected = BTreeSet::new();
        let mut false_alarmed = BTreeSet::new();
        for &(disk, day) in alarms {
            if let Some(&fd) = fail_day.get(&disk) {
                if day <= fd && fd - day < window_days {
                    detected.insert(disk);
                }
            } else if good.contains(&disk) {
                false_alarmed.insert(disk);
            }
        }
        Self {
            failed_disks: fail_day.len(),
            detected: detected.len(),
            good_disks: good.len(),
            false_alarmed: false_alarmed.len(),
        }
    }

    /// Pool another stream's counts into these.
    pub fn add(&mut self, other: &Self) {
        self.failed_disks += other.failed_disks;
        self.detected += other.detected;
        self.good_disks += other.good_disks;
        self.false_alarmed += other.false_alarmed;
    }

    /// Failure detection rate, percent (0 when no disk failed).
    pub fn fdr_pct(&self) -> f64 {
        pct(self.detected, self.failed_disks)
    }

    /// False alarm rate, percent (0 when no disk survived).
    pub fn far_pct(&self) -> f64 {
        pct(self.false_alarmed, self.good_disks)
    }
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

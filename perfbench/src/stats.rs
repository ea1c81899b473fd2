//! Order statistics, seed mixing and arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The percentiles a latency may be reported at, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a percentile for it to be
/// reported: a tail estimate resting on fewer is mostly noise.
pub const MIN_BEYOND: f64 = 10.0;

/// Derives an independent 64-bit value from `seed` and a salt, so every
/// input the benchmark draws is a pure function of the `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::split_mix64(&mut state)
}

/// Percentile `p` of the values in each `window`-second bin of their
/// times, then the median over bins. A stall that spoils one bin moves
/// the result far less than it moves the percentile of the whole run.
pub fn windowed_percentile(points: &[(f64, f64)], window: f64, p: f64) -> f64 {
    let mut bins: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in points {
        bins.entry((t / window) as u64).or_default().push(v);
    }
    let per_bin: Vec<f64> = bins.values().map(|v| percentile(&sorted(v), p)).collect();
    median(&per_bin)
}

/// A root seed that travels exactly on the wire: JSON numbers are
/// doubles, exact for integers below 2^53.
pub fn wire_seed(x: u64) -> u64 {
    x >> 11
}

/// The `p`-th percentile (0–100) of ascending `sorted`, interpolating
/// linearly between the closest ranks. `NaN` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let h = (sorted.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Whether a sample of `n` supports percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    // The tolerance absorbs rounding in `100 - p` (e.g. 100 - 99.9).
    n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9
}

/// The highest of [`PERCENTILES`] that a sample of `n` supports, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| supports(n, p))
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First, second and third quartiles by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Send times (seconds from the start) of a Poisson arrival process at
/// `rate` per second over `duration` seconds. The same seed gives the
/// same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut times = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return times;
        }
        times.push(t);
    }
}

/// A Zipf(`s`) distribution over ranks `0..n`, sampled by inverting
/// its cumulative table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` has weight `1 / (r + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 500.0, 4.0);
        assert_eq!(a, poisson_schedule(7, 500.0, 4.0));
        assert_ne!(a, poisson_schedule(8, 500.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 2000 expected arrivals: the count lies well within 5 sigma.
        assert!((a.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(50, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 50));
        let zeros = draws.iter().filter(|&&r| r == 0).count();
        let tens = draws.iter().filter(|&&r| r == 10).count();
        assert!(zeros > 5 * tens, "rank 0: {zeros}, rank 10: {tens}");
    }

    #[test]
    fn windowed_percentile_is_the_median_over_bins() {
        // Three one-second bins; the middle one holds a stall.
        let mut points = Vec::new();
        for i in 0..100 {
            let t = f64::from(i) / 100.0;
            points.push((t, 1.0));
            points.push((1.0 + t, if i < 50 { 1.0 } else { 100.0 }));
            points.push((2.0 + t, 2.0));
        }
        assert_eq!(windowed_percentile(&points, 1.0, 90.0), 2.0);
        assert_eq!(windowed_percentile(&points, 1.0, 50.0), 2.0);
        assert!(windowed_percentile(&[], 1.0, 50.0).is_nan());
    }

    #[test]
    fn mix_separates_salts() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}

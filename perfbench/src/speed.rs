//! Host speed, for scaling timings to a reference host.
//!
//! The host the benchmark was built on (two shared vCPUs) changes speed
//! by up to half between sets of runs tens of minutes apart, for CPU
//! time as much as for wall time, which moves every raw timing by more
//! than any bound a metric may carry. So the end-to-end timings are
//! scaled to a reference host: between segments of a workload the
//! benchmark times a fixed computation of its own on every worker
//! thread at once, and scales the run's figures by the median ratio of
//! this host's speed at it to the reference host's.
//!
//! The speed also swings by a third within seconds, and a reading of a
//! few milliseconds tracks the next segment's rate only loosely, so one
//! median over the run's readings scales the whole run: it follows the
//! slow drift between runs, which is what moves a run's figures.
//!
//! The computation lives here, not in the program, so no change to the
//! program moves it. It mixes what the workloads do: complex 2×2 passes
//! over a 12-qubit state held in L2 (the kernels) and data-dependent
//! updates of an integer table (parsing, hashing, bookkeeping).

use crate::stats;
use std::time::Instant;

/// Seconds of workload between two readings.
pub const SEGMENT_SECS: f64 = 2.5;

/// Amplitudes of the reference state: 12 qubits, 64 KiB.
const AMPS: usize = 1 << 12;
const QUBITS: usize = 12;
/// Entries of the reference integer table: 128 KiB.
const TABLE: usize = 1 << 15;
/// Table updates per round.
const UPDATES: usize = 4096;
/// Rounds per burst, about 7 ms on the reference host.
const ROUNDS: usize = 64;
/// Bursts per reading; a reading is the median of their times.
const BURSTS: usize = 5;
/// Median burst seconds on the reference host: the 2-vCPU Xeon at
/// 2.1 GHz the benchmark was built on, on two threads, at its usual
/// speed.
const REFERENCE_BURST_S: f64 = 7.0e-3;

/// One thread's working set.
struct Lane {
    amps: Vec<(f64, f64)>,
    table: Vec<u32>,
    rng: u64,
}

impl Lane {
    fn new(seed: u64) -> Lane {
        let norm = (AMPS as f64).sqrt().recip();
        Lane {
            amps: vec![(norm, 0.0); AMPS],
            table: (0..TABLE as u32).collect(),
            rng: seed | 1,
        }
    }

    /// One rotation pass per qubit, then the table updates.
    fn round(&mut self) {
        // RX(θ) with cos θ/2 = 0.8: unitary, so the state stays normal.
        let (c, s) = (0.8, 0.6);
        for q in 0..QUBITS {
            let stride = 1 << q;
            for base in (0..AMPS).step_by(2 * stride) {
                let (lo, hi) = self.amps[base..base + 2 * stride].split_at_mut(stride);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let (ar, ai, br, bi) = (a.0, a.1, b.0, b.1);
                    *a = (c * ar - s * bi, c * ai + s * br);
                    *b = (c * br - s * ai, c * bi + s * ar);
                }
            }
        }
        let mut x = self.rng;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (TABLE - 1)];
            *slot = if *slot & 1 == 0 {
                slot.wrapping_mul(0x9E37_79B9) ^ (x >> 32) as u32
            } else {
                slot.rotate_left(7).wrapping_add(x as u32)
            };
        }
        self.rng = x;
        std::hint::black_box((&self.amps, &self.table));
    }
}

/// Readings of the host's speed over a run: 1 on the reference host, 2
/// on a host twice as fast.
pub struct HostSpeed {
    lanes: Vec<Lane>,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// A gauge that runs its computation on `threads` threads at once.
    pub fn new(threads: usize) -> HostSpeed {
        let mut gauge = HostSpeed {
            lanes: (0..threads.max(1) as u64).map(Lane::new).collect(),
            readings: Vec::new(),
        };
        // One untimed burst, so the first reading finds warm pages.
        gauge.burst();
        gauge
    }

    fn burst(&mut self) -> f64 {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for lane in &mut self.lanes {
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        lane.round();
                    }
                });
            }
        });
        started.elapsed().as_secs_f64()
    }

    /// Takes a reading: the median of a few bursts' times, as a
    /// speed.
    pub fn read(&mut self) {
        let times: Vec<f64> = (0..BURSTS).map(|_| self.burst()).collect();
        self.readings
            .push(REFERENCE_BURST_S / stats::median(&times));
    }

    /// The host's speed over the run: the median reading.
    pub fn speed(&self) -> f64 {
        stats::median(&self.readings)
    }

    /// Durations taken on this host over the run, scaled to the
    /// reference host, in ascending order.
    pub fn scale_times(&self, times: &[f64]) -> Vec<f64> {
        let speed = self.speed();
        stats::sorted(&times.iter().map(|t| t * speed).collect::<Vec<_>>())
    }

    /// Prints the readings' median and range.
    pub fn report(&self, workload: &str) {
        let sorted = stats::sorted(&self.readings);
        println!(
            "  {workload}: host speed over {} readings: median {:.4}, range {:.4}–{:.4} (1 = reference host)",
            sorted.len(),
            stats::median(&sorted),
            sorted.first().copied().unwrap_or(f64::NAN),
            sorted.last().copied().unwrap_or(f64::NAN),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_rounds_keep_the_state_normalised() {
        // A state that drifted towards zero or infinity would change
        // the computation's speed (subnormals) from run to run.
        let mut lane = Lane::new(1);
        for _ in 0..ROUNDS {
            lane.round();
        }
        let norm: f64 = lane.amps.iter().map(|(re, im)| re * re + im * im).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }
}

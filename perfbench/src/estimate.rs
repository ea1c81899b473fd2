//! `estimate`: the paper's own use, run locally with no serving layer.
//! Repeated `CompasProtocol::estimate` calls for tr(ρ₁ρ₂ρ₃) on seeded
//! random one-qubit mixed states, over both the Re and Im channels,
//! through a pooled `Executor` with `nproc` threads.

use crate::speed::{HostSpeed, SEGMENT_SECS};
use crate::stats::{self, mix};
use crate::{Ctx, Metrics, Outcome, Pass, Tally};
use compas::prelude::{exact_multivariate_trace, CompasProtocol, CswapScheme, TraceEstimate};
use engine::{Engine, EngineConfig, Executor};
use mathkit::complex::Complex;
use mathkit::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Parties and qubits per state: the 12-qubit, 103-instruction circuit.
pub const K: usize = 3;
pub const N: usize = 1;
/// Shots per channel in one `estimate` call. Small enough that a run
/// holds hundreds of calls, so the call latency supports a p90.
pub const SHOTS_PER_CHANNEL: usize = 32;
/// Distinct state triples a run cycles through.
const STATE_SETS: usize = 8;
/// Untimed calls before timing starts.
const WARMUP_CALLS: u64 = 24;
/// Protocol builds timed for `compas.build_us`.
const BUILD_REPS: usize = 401;
/// Cold starts timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Calls re-run on `Executor::sequential` to check the pooled result.
const VERIFY_PREFIX: usize = 16;
/// Agreement with the exact trace, in standard errors.
const SIGMAS: f64 = 5.0;

pub const HEADLINE: (&str, &str) = ("shots_per_s", "shots/s");

/// The pooled engine. Each call splits into four chunks per thread, so
/// a thread that the host delays briefly does not hold the call back.
pub fn engine(nproc: usize, shots_per_channel: usize) -> Engine {
    Engine::new(EngineConfig {
        threads: nproc,
        chunk_size: (shots_per_channel / (4 * nproc)).max(1) as u64,
        ..EngineConfig::default()
    })
}

/// The run's inputs: the protocol and its seeded states.
pub struct Inputs {
    pub protocol: CompasProtocol,
    pub states: Vec<Vec<Matrix>>,
    exact: Vec<Complex>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xE57));
        let states: Vec<Vec<Matrix>> = (0..STATE_SETS)
            .map(|_| {
                (0..K)
                    .map(|_| qsim::qrand::random_density_matrix(N, &mut rng))
                    .collect()
            })
            .collect();
        Inputs {
            protocol: CompasProtocol::new(K, N, CswapScheme::Teledata),
            exact: states.iter().map(|s| exact_multivariate_trace(s)).collect(),
            states,
        }
    }
}

/// Seconds to build the protocol (both channel circuits and the ledger).
pub fn build_seconds() -> Vec<f64> {
    (0..BUILD_REPS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(CompasProtocol::new(K, N, CswapScheme::Teledata));
            started.elapsed().as_secs_f64()
        })
        .collect()
}

struct Call {
    set: usize,
    seed: u64,
    estimate: TraceEstimate,
}

/// Timed calls for `secs`, after the warm-up, in segments with a host
/// speed reading on either side of each.
struct Timed {
    calls: Vec<Call>,
    latencies_ms: Vec<f64>,
    secs: f64,
    speed: HostSpeed,
}

impl Timed {
    /// Shots per second on this host, unscaled.
    fn raw_shots_per_s(&self) -> f64 {
        (self.calls.len() * 2 * SHOTS_PER_CHANNEL) as f64 / self.secs
    }

    /// Shots per second, scaled to the reference host.
    fn shots_per_s(&self) -> f64 {
        self.raw_shots_per_s() / self.speed.speed()
    }
}

fn call_seed(seed: u64, i: u64) -> u64 {
    mix(seed, 0xCA11 ^ (i << 8))
}

fn timed(ctx: &Ctx, inputs: &Inputs, exec: &Executor, secs: f64) -> Timed {
    let call = |i: u64| {
        let set = i as usize % STATE_SETS;
        let seed = call_seed(ctx.seed, i);
        let estimate = inputs.protocol.estimate(
            &inputs.states[set],
            SHOTS_PER_CHANNEL,
            &exec.with_seed(seed),
        );
        Call {
            set,
            seed,
            estimate,
        }
    };
    for i in 0..WARMUP_CALLS {
        std::hint::black_box(call(u64::MAX - i));
    }
    let mut speed = HostSpeed::new(ctx.nproc);
    let (mut calls, mut latencies_ms, mut timed_secs) = (Vec::new(), Vec::new(), 0.0);
    let count = (secs / SEGMENT_SECS).ceil().max(1.0);
    let mut i = 0;
    speed.read();
    for _ in 0..count as usize {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(secs / count);
        while Instant::now() < deadline {
            let t = Instant::now();
            calls.push(call(i));
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            i += 1;
        }
        timed_secs += started.elapsed().as_secs_f64();
        speed.read();
    }
    Timed {
        calls,
        latencies_ms,
        secs: timed_secs,
        speed,
    }
}

/// Checks the calls: a prefix must equal `Executor::sequential` for the
/// same seed bit for bit, and each state set's pooled parity counts
/// must lie within [`SIGMAS`] of the exact trace. Returns the failed
/// calls and whether the statistical check held.
fn verify(inputs: &Inputs, calls: &[Call]) -> (u64, bool) {
    let failed = calls
        .iter()
        .take(VERIFY_PREFIX)
        .filter(|c| {
            let reference = inputs.protocol.estimate(
                &inputs.states[c.set],
                SHOTS_PER_CHANNEL,
                &Executor::sequential(c.seed),
            );
            reference != c.estimate
        })
        .count() as u64;
    let odd = |mean: f64| ((1.0 - mean) * SHOTS_PER_CHANNEL as f64 / 2.0).round() as u64;
    let consistent = (0..STATE_SETS).all(|set| {
        let (mut re_odd, mut im_odd, mut shots) = (0, 0, 0);
        for c in calls.iter().filter(|c| c.set == set) {
            re_odd += odd(c.estimate.re);
            im_odd += odd(c.estimate.im);
            shots += SHOTS_PER_CHANNEL as u64;
        }
        shots == 0
            || TraceEstimate::from_parity_counts(re_odd, shots, im_odd, shots)
                .is_consistent_with(inputs.exact[set], SIGMAS)
    });
    (failed, consistent)
}

/// Seconds from nothing to a first answer: build the protocol and a
/// pooled executor, then make one call (which compiles both channels).
/// Scaled to the reference host by readings between them.
fn setup_seconds(ctx: &Ctx, inputs: &Inputs) -> Vec<f64> {
    let mut speed = HostSpeed::new(ctx.nproc);
    speed.read();
    let raw: Vec<f64> = (0..SETUP_REPS as u64)
        .map(|i| {
            let started = Instant::now();
            let protocol = CompasProtocol::new(K, N, CswapScheme::Teledata);
            let exec = Executor::pooled(
                engine(ctx.nproc, SHOTS_PER_CHANNEL),
                call_seed(ctx.seed, !i),
            );
            std::hint::black_box(protocol.estimate(&inputs.states[0], SHOTS_PER_CHANNEL, &exec));
            let elapsed = started.elapsed().as_secs_f64();
            drop(exec);
            speed.read();
            elapsed
        })
        .collect();
    crate::print_raw("estimate", "set-up median", stats::median(&raw), "s");
    speed.scale_times(&raw)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = Inputs::new(ctx.seed);
    let setup = setup_seconds(ctx, &inputs);
    let exec = Executor::pooled(engine(ctx.nproc, SHOTS_PER_CHANNEL), ctx.seed);
    let t = timed(ctx, &inputs, &exec, ctx.seconds);
    let (failed, checks_ok) = verify(&inputs, &t.calls);
    let mut metrics = Metrics::default();
    crate::push_setup("estimate", &setup, &mut metrics);
    metrics.push("shots_per_s", t.shots_per_s(), "shots/s");
    crate::print_raw("estimate", "shots_per_s", t.raw_shots_per_s(), "shots/s");
    let raw_p50 = stats::median(&t.latencies_ms);
    crate::print_raw("estimate", "latency p50", raw_p50, "ms");
    crate::push_latency(
        "estimate",
        &t.speed.scale_times(&t.latencies_ms),
        &mut metrics,
    );
    t.speed.report("estimate");
    metrics.push("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
    Outcome {
        tally: Tally {
            attempted: t.calls.len() as u64,
            failed,
        },
        checks_ok,
        metrics,
        row: None,
    }
}

/// One pass of `secs` for the traced run; traced, the engine times its
/// chunks into an `obs` registry.
pub fn pass(ctx: &Ctx, secs: f64, traced: bool) -> Pass {
    let inputs = Inputs::new(ctx.seed);
    let mut engine = engine(ctx.nproc, SHOTS_PER_CHANNEL);
    if traced {
        engine = engine.with_metrics(&obs::Registry::new());
    }
    let t = timed(ctx, &inputs, &Executor::pooled(engine, ctx.seed), secs);
    let (failed, checks_ok) = verify(&inputs, &t.calls);
    Pass {
        tally: Tally {
            attempted: t.calls.len() as u64,
            failed: failed + u64::from(!checks_ok),
        },
        headline: t.shots_per_s(),
        layer: Metrics::default(),
    }
}

//! The traced run: per-layer metrics, timed from the benchmark's own
//! code around calls into each layer's public functions, plus the
//! program's own `obs` stage histograms.
//!
//! A traced run of workload W makes an untraced and a traced pass of W
//! (their ratio is `obs.overhead_frac`). Layers that W's traffic
//! reaches are read from its traced pass; layers it bypasses are read
//! from a short traced burst of the workload that reaches them, so
//! every traced run prints the whole ledger. Probes of single layers
//! (compile, kernels, cache, reactor round trip, shard overhead) are
//! the same in every traced run.

use crate::stats::{self, mix};
use crate::{estimate, serve_mix, shard_compas};
use crate::{Ctx, Metrics, Outcome, Pass, Row, Tally};
use engine::{Backend, Counts, Engine, Executor};
use qsim::prelude::compile;
use service::cache::{CacheKey, ResultCache};
use service::{DiskCacheConfig, PreparedJob};
use std::time::Instant;

/// Share of the run's seconds given to each of the two own passes.
const OWN_SHARE: f64 = 0.35;
/// Seconds of a burst through a layer the workload bypasses.
const BURST_SECS: f64 = 2.5;
/// Repetitions behind the median of a short probe, and of one that
/// runs for tenths of a second.
const REPS: usize = 31;
const LONG_REPS: usize = 3;
/// Shots per timed `run_range` probe (the library's canonical count).
const RANGE_SHOTS: u64 = 256;
/// Shots per stabilizer probe call.
const STABILIZER_SHOTS: usize = 20_000;
/// Shots per channel in the engine scaling probe.
const ENGINE_SHOTS: usize = 256;
/// Entries written and read by the cache probes.
const CACHE_KEYS: u64 = 256;
/// `stats` round trips timed on an idle server.
const RTT_SAMPLES: usize = 500;

pub fn traced(name: &'static str, ctx: &Ctx) -> Outcome {
    let secs = ctx.seconds * OWN_SHARE;
    let pass = |traced: bool| -> Pass {
        match name {
            "estimate" => estimate::pass(ctx, secs, traced),
            "serve-mix" => serve_mix::pass(ctx, secs, traced),
            _ => shard_compas::pass(ctx, secs, traced),
        }
    };
    let headline = match name {
        "estimate" => estimate::HEADLINE,
        "serve-mix" => serve_mix::HEADLINE,
        _ => shard_compas::HEADLINE,
    };
    let untraced = pass(false);
    let traced = pass(true);
    let mut tally = untraced.tally;
    tally.add(traced.tally);
    let row = Row {
        workload: name,
        headline: headline.0,
        unit: headline.1,
        untraced: untraced.headline,
        traced: traced.headline,
        attempted: tally.attempted,
        failed: tally.failed,
    };

    let mut metrics = Metrics::default();
    metrics.push(
        "obs.overhead_frac",
        crate::overhead_frac(headline.0, untraced.headline, traced.headline),
        "fraction",
    );
    metrics.extend(traced.layer);
    if name != "serve-mix" {
        let burst = serve_mix::pass(ctx, BURST_SECS, true);
        tally.add(burst.tally);
        metrics.extend(burst.layer);
    }
    if name != "shard-compas" {
        let burst = shard_compas::pass(ctx, BURST_SECS, true);
        tally.add(burst.tally);
        metrics.extend(burst.layer);
    }
    probes(ctx, &mut metrics, &mut tally);
    metrics.push("error_frac", tally.error_frac(), "fraction");
    Outcome {
        tally,
        checks_ok: true,
        metrics,
        row: Some(row),
    }
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

fn probes(ctx: &Ctx, out: &mut Metrics, tally: &mut Tally) {
    let inputs = estimate::Inputs::new(ctx.seed);

    // compas: building the protocol's two channel circuits.
    out.push(
        "compas.build_us",
        stats::median(&estimate::build_seconds()) * 1e6,
        "us",
    );

    // qsim: compiling, the compiled circuit's exact counts per shot, and
    // computed kernel bytes over the measured time of sequential replay.
    let circuit = inputs.protocol.circuit();
    out.push(
        "qsim.compile_us",
        median_secs(REPS, || {
            std::hint::black_box(compile(std::hint::black_box(circuit)));
        }) * 1e6,
        "us",
    );
    let compiled = compile(circuit);
    let bytes_per_shot = compiled.kernel_bytes(circuit.num_qubits()) as f64;
    out.push(
        "qsim.kernel_passes",
        compiled.kernel_passes() as f64,
        "count",
    );
    out.push("qsim.interp_ops", compiled.interp_ops() as f64, "count");
    out.push("qsim.kernel_bytes_per_shot", bytes_per_shot, "B");
    let (_, job) =
        PreparedJob::prepare(circuit, Backend::StateVector, RANGE_SHOTS, mix(ctx.seed, 1))
            .expect("statevector runs the COMPAS circuit");
    let sequential = Engine::sequential();
    let replay = median_secs(LONG_REPS, || {
        std::hint::black_box(job.run_range(&sequential, 0..RANGE_SHOTS));
    });
    out.push(
        "qsim.kernel_gbps",
        bytes_per_shot * RANGE_SHOTS as f64 / replay / 1e9,
        "GB/s",
    );

    // stabilizer: tableau shots on the two Clifford library circuits.
    let mix_inputs = serve_mix::Mix::new(ctx.seed);
    let mut shots = 0usize;
    let started = Instant::now();
    for (name, _, circuit) in mix_inputs.circuits() {
        if name == "table4" || name == "fig9a" {
            let exec = Executor::sequential(mix(ctx.seed, 2));
            std::hint::black_box(
                Backend::Stabilizer
                    .sample_shots(circuit, STABILIZER_SHOTS, &exec)
                    .expect("Clifford circuit"),
            );
            shots += STABILIZER_SHOTS;
        }
    }
    out.push(
        "stabilizer.shots_per_s",
        shots as f64 / started.elapsed().as_secs_f64(),
        "shots/s",
    );

    // engine: the same estimate sequentially and pooled; both must agree.
    let states = &inputs.states[0];
    let seed = mix(ctx.seed, 3);
    let pooled_exec = Executor::pooled(estimate::engine(ctx.nproc, ENGINE_SHOTS), seed);
    let mut results = Vec::new();
    let seq = median_secs(LONG_REPS, || {
        results.push(
            inputs
                .protocol
                .estimate(states, ENGINE_SHOTS, &Executor::sequential(seed)),
        )
    });
    let pooled = median_secs(LONG_REPS, || {
        results.push(inputs.protocol.estimate(states, ENGINE_SHOTS, &pooled_exec))
    });
    tally.attempted += 1;
    tally.failed += u64::from(results.windows(2).any(|w| w[0] != w[1]));
    let shots = (2 * ENGINE_SHOTS) as f64;
    out.push("engine.seq_shots_per_s", shots / seq, "shots/s");
    out.push("engine.pooled_shots_per_s", shots / pooled, "shots/s");
    out.push(
        "engine.parallel_eff",
        seq / (pooled * ctx.nproc as f64),
        "fraction",
    );

    // engine: one sequential `run_range` per served circuit.
    let compas_circuit = shard_compas::circuit(ctx.seed);
    let served = mix_inputs.circuits().chain(std::iter::once((
        "compas",
        Backend::StateVector,
        &compas_circuit,
    )));
    for (name, backend, circuit) in served {
        let (_, job) = PreparedJob::prepare(circuit, backend, RANGE_SHOTS, mix(ctx.seed, 4))
            .expect("library circuits fit their backends");
        let t = median_secs(LONG_REPS, || {
            std::hint::black_box(job.run_range(&sequential, 0..RANGE_SHOTS));
        });
        out.push(format!("engine.run_range_ms.{name}"), t * 1e3, "ms");
    }

    cache_probes(ctx, out);

    // reactor: `stats` round trips on an idle server.
    let handle = service::Service::spawn(service::ServiceConfig::default()).expect("spawn service");
    let nudger =
        crate::loadgen::Nudger::new(vec![handle.addr()], std::time::Duration::from_millis(25));
    let mut conn = crate::loadgen::Conn::connect(handle.addr(), &nudger).expect("connect service");
    let line = serve_mix::stats_line();
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for i in 0..RTT_SAMPLES + 20 {
        let started = Instant::now();
        let ok = conn.roundtrip(&line).is_ok();
        if i >= 20 {
            rtt.push(started.elapsed().as_secs_f64() * 1e6);
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
        }
    }
    drop(conn);
    nudger.during(|| handle.shutdown());
    out.push("reactor.stats_rtt_us", stats::median(&rtt), "us");

    // service: the standalone server's capacity on the serve-mix traffic.
    let (capacity, capacity_tally) = serve_mix::capacity(ctx);
    tally.add(capacity_tally);
    out.push("serve.capacity_req_per_s", capacity, "req/s");

    // shard: what the coordinator adds over a direct scatter.
    let (overhead_ms, overhead_tally) = shard_compas::overhead(ctx);
    tally.add(overhead_tally);
    out.push("shard.overhead_ms", overhead_ms, "ms");
}

/// `ResultCache::get` and `insert`, with and without the disk tier.
fn cache_probes(ctx: &Ctx, out: &mut Metrics) {
    let keys: Vec<CacheKey> = (0..CACHE_KEYS)
        .map(|i| CacheKey {
            circuit_fp: mix(ctx.seed, 0xCAC4E + i),
            backend: "statevector",
            shots: RANGE_SHOTS,
            root_seed: i,
            start: 0,
        })
        .collect();
    let counts: Counts = (0..16).map(|k| (k, 16)).collect();
    let per_call_us = |started: Instant| started.elapsed().as_secs_f64() * 1e6 / CACHE_KEYS as f64;

    let mut memory = ResultCache::new(CACHE_KEYS as usize);
    for k in &keys {
        memory.insert(k.clone(), counts.clone());
    }
    let started = Instant::now();
    for k in &keys {
        std::hint::black_box(memory.get(k));
    }
    out.push("cache.mem_get_us", per_call_us(started), "us");

    // One memory entry: every read below goes to disk and is promoted.
    let dir = ctx.fresh_dir("cache-probe");
    let mut disk = ResultCache::with_disk(1, DiskCacheConfig::new(&dir));
    let started = Instant::now();
    for k in &keys {
        disk.insert(k.clone(), counts.clone());
    }
    out.push("cache.insert_us", per_call_us(started), "us");
    let started = Instant::now();
    for k in &keys {
        std::hint::black_box(disk.get(k));
    }
    out.push("cache.disk_get_us", per_call_us(started), "us");
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

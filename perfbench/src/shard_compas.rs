//! `shard-compas`: a closed loop from `nproc` batch clients to a shard
//! `Coordinator` over two in-process worker `Service`s with one engine
//! thread each. Every request is the COMPAS k=3, n=1 circuit with
//! seeded state-preparation rotations prepended, sent as QASM on the
//! statevector backend with its own seed, so each job splits into one
//! shot range per worker. A minority repeat a recent seed and are
//! answered by the coordinator's cache.

use crate::check::{self, ok_tallies};
use crate::loadgen::{self, Conn, Nudger, Reply};
use crate::serve_mix::{histo_quantile, open_after, stats_line, wire_metrics};
use crate::speed::{HostSpeed, SEGMENT_SECS};
use crate::stats::{self, mix};
use crate::{Ctx, Metrics, Outcome, Pass, Tally};
use circuit::circuit::Circuit;
use compas::prelude::{CompasProtocol, CswapScheme};
use engine::{merge_counts, partition_shots, Backend, Counts, Engine, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use shard::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shots per request, split into one range per worker. Small enough
/// that a run holds hundreds of requests, so latency supports a p90.
pub const SHOTS: u64 = 64;
/// Share of requests that repeat one of the last [`REPEAT_WINDOW`]
/// requests' seeds.
const REPEAT_SHARE: f64 = 0.1;
const REPEAT_WINDOW: u64 = 128;
const WORKERS: usize = 2;
/// Jobs each client keeps in flight. Two per client keep a range queued
/// at every worker, so the workers never idle between jobs and the job
/// order at each worker does not flip the latency between one and two
/// range times.
const DEPTH: usize = 2;
/// Topology spawns timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Coordinator-versus-direct pairs timed for `shard.overhead_ms`.
const OVERHEAD_PAIRS: u64 = 24;

/// A reply this overdue gets every process of the topology nudged (see
/// [`Nudger`]): well above any healthy job on this circuit.
const NUDGE_AFTER: Duration = Duration::from_millis(400);

pub const HEADLINE: (&str, &str) = ("shots_per_s", "shots/s");

/// The served circuit: seeded rotations on the three state qubits, then
/// the protocol's real-channel circuit.
pub fn circuit(seed: u64) -> Circuit {
    let protocol = CompasProtocol::new(3, 1, CswapScheme::Teledata);
    let base = protocol.circuit();
    let mut c = Circuit::new(base.num_qubits(), base.num_cbits());
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5A7E));
    // State p sits on qubit p·(n+1) of the interleaved layout.
    for q in [0, 2, 4] {
        c.ry(q, rng.random_range(0.0..std::f64::consts::PI));
        c.rz(q, rng.random_range(0.0..std::f64::consts::TAU));
    }
    for instr in base.instructions() {
        c.push(instr.clone());
    }
    c
}

/// Request `i`'s root seed: fresh, or a recent request's.
fn root_seed(seed: u64, i: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, i ^ 0x5EED_0000));
    if i > 0 && rng.random_bool(REPEAT_SHARE) {
        let j = rng.random_range(i.saturating_sub(REPEAT_WINDOW)..i);
        return root_seed(seed, j);
    }
    stats::wire_seed(mix(seed, i ^ 0xF2E5))
}

/// Two workers and the coordinator in front of them.
pub struct Topology {
    workers: Vec<ServiceHandle>,
    pub coordinator: CoordinatorHandle,
    /// The coordinator's own registry, when traced.
    pub registry: Option<obs::Registry>,
    pub nudger: Arc<Nudger>,
}

impl Topology {
    pub fn spawn(traced: bool) -> Topology {
        let workers: Vec<ServiceHandle> = (0..WORKERS)
            .map(|_| {
                Service::spawn(ServiceConfig {
                    workers: 1,
                    engine: Engine::sequential(),
                    metrics: traced.then(obs::Registry::new),
                    ..ServiceConfig::default()
                })
                .expect("spawn worker")
            })
            .collect();
        let registry = traced.then(obs::Registry::new);
        let coordinator = Coordinator::spawn(CoordinatorConfig {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            metrics: registry.clone(),
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");
        let mut addrs = vec![coordinator.addr()];
        addrs.extend(workers.iter().map(ServiceHandle::addr));
        Topology {
            workers,
            coordinator,
            registry,
            nudger: Nudger::new(addrs, NUDGE_AFTER),
        }
    }

    pub fn worker_addrs(&self) -> Vec<std::net::SocketAddr> {
        self.workers.iter().map(ServiceHandle::addr).collect()
    }

    pub fn shutdown(self) {
        let Topology {
            workers,
            coordinator,
            nudger,
            ..
        } = self;
        nudger.during(|| {
            coordinator.shutdown();
            for w in workers {
                w.shutdown();
            }
        });
    }
}

/// Seconds from spawning the topology until the coordinator's `stats`
/// reply shows both workers live (unscaled).
fn setup_once() -> f64 {
    let started = Instant::now();
    let topology = Topology::spawn(false);
    let mut conn =
        Conn::connect(topology.coordinator.addr(), &topology.nudger).expect("connect coordinator");
    let live = loop {
        let reply = conn.roundtrip(&stats_line()).expect("stats round trip");
        let text = String::from_utf8(reply).expect("utf-8 reply");
        if let Ok(Response::Stats { workers, .. }) = Response::from_line(&text) {
            if workers.len() == WORKERS && workers.iter().all(|w| w.alive) {
                break true;
            }
        }
        if started.elapsed() > Duration::from_secs(10) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let elapsed = started.elapsed().as_secs_f64();
    drop(conn);
    topology.shutdown();
    assert!(live, "coordinator never reported both workers live");
    elapsed
}

struct Inputs {
    seed: u64,
    qasm: String,
    circuit: Circuit,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let circuit = circuit(seed);
        Inputs {
            seed,
            qasm: circuit::qasm::to_qasm3(&circuit),
            circuit,
        }
    }

    fn run_request(&self, root_seed: u64) -> RunRequest {
        RunRequest::new(
            self.qasm.as_str(),
            SHOTS,
            root_seed,
            Backend::StateVector.name(),
        )
    }

    fn line(&self, i: u64) -> Vec<u8> {
        Request::run(
            Some(format!("s{i}")),
            self.run_request(root_seed(self.seed, i)),
        )
        .to_line()
        .into_bytes()
    }

    fn reference(&self, root_seed: u64) -> Counts {
        Backend::StateVector
            .sample_shots(
                &self.circuit,
                SHOTS as usize,
                &Executor::sequential(root_seed),
            )
            .expect("statevector runs the COMPAS circuit")
    }

    /// Replies that differ from `Backend::sample_shots`, plus lost ones.
    fn failures(&self, replies: &[Reply], sent: u64, threads: usize) -> u64 {
        let seed_of = |r: &Reply| root_seed(self.seed, r.index);
        check::failures(replies, sent, threads, seed_of, |&s| self.reference(s))
    }
}

/// Replies a traced pass keeps for its wire codec probes.
const SAMPLE: usize = 2000;

/// One closed-loop phase on a fresh topology, in segments with a host
/// speed reading on either side of each. Each segment's replies are
/// checked after its closing reading and then dropped, so the process's
/// memory does not grow with the request rate.
struct Closed {
    latencies_ms: Vec<f64>,
    replies: u64,
    secs: f64,
    speed: HostSpeed,
    sent: u64,
    failed: u64,
    nudges: u64,
    /// The first replies, as many as asked for.
    sample: Vec<Reply>,
}

impl Closed {
    /// Served shots per second on this host, unscaled.
    fn raw_shots_per_s(&self) -> f64 {
        (self.replies * SHOTS) as f64 / self.secs
    }

    /// Served shots per second, scaled to the reference host.
    fn shots_per_s(&self) -> f64 {
        self.raw_shots_per_s() / self.speed.speed()
    }
}

fn closed(ctx: &Ctx, inputs: &Inputs, topology: &Topology, secs: f64, keep: usize) -> Closed {
    let mut phase = Closed {
        latencies_ms: Vec::new(),
        replies: 0,
        secs: 0.0,
        speed: HostSpeed::new(ctx.nproc),
        sent: 0,
        failed: 0,
        nudges: 0,
        sample: Vec::new(),
    };
    let count = (secs / SEGMENT_SECS).ceil().max(1.0);
    for _ in 0..count as usize {
        let base = phase.sent;
        let make = |i: u64| inputs.line(base + i);
        phase.speed.read();
        let (mut replies, secs, sent) = loadgen::closed_loop(
            topology.coordinator.addr(),
            &make,
            ctx.nproc,
            DEPTH,
            Duration::from_secs_f64(secs / count),
            &topology.nudger,
        );
        phase.speed.read();
        for r in &mut replies {
            r.index += base;
        }
        phase.replies += replies.len() as u64;
        phase.secs += secs;
        phase
            .latencies_ms
            .extend(replies.iter().map(|r| r.latency * 1e3));
        phase.sent += sent;
        phase.failed += inputs.failures(&replies, sent, ctx.nproc);
        let room = keep.saturating_sub(phase.sample.len());
        phase.sample.extend(replies.into_iter().take(room));
    }
    phase.nudges = topology.nudger.count();
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut speed = HostSpeed::new(ctx.nproc);
    speed.read();
    let raw: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let secs = setup_once();
            speed.read();
            secs
        })
        .collect();
    crate::print_raw("shard-compas", "set-up median", stats::median(&raw), "s");
    let setup = speed.scale_times(&raw);
    let inputs = Inputs::new(ctx.seed);
    let topology = Topology::spawn(false);
    let phase = closed(ctx, &inputs, &topology, ctx.seconds, 0);
    topology.shutdown();
    let mut metrics = Metrics::default();
    crate::push_setup("shard-compas", &setup, &mut metrics);
    metrics.push("shots_per_s", phase.shots_per_s(), "shots/s");
    let raw = phase.raw_shots_per_s();
    crate::print_raw("shard-compas", "shots_per_s", raw, "shots/s");
    crate::print_raw("shard-compas", "req_per_s", raw / SHOTS as f64, "req/s");
    let raw_p50 = stats::median(&phase.latencies_ms);
    crate::print_raw("shard-compas", "latency p50", raw_p50, "ms");
    let scaled = phase.speed.scale_times(&phase.latencies_ms);
    crate::push_latency("shard-compas", &scaled, &mut metrics);
    metrics.push("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
    phase.speed.report("shard-compas");
    crate::report_nudges("shard-compas", phase.nudges);
    Outcome {
        tally: Tally {
            attempted: phase.sent,
            failed: phase.failed,
        },
        checks_ok: true,
        metrics,
        row: None,
    }
}

/// One closed-loop pass of `secs` for the traced run. Traced, every
/// process of the topology records into an `obs` registry and the pass
/// reads back the shard layer's metrics.
pub fn pass(ctx: &Ctx, secs: f64, traced: bool) -> Pass {
    let inputs = Inputs::new(ctx.seed);
    let topology = Topology::spawn(traced);
    let keep = if traced { SAMPLE } else { 0 };
    let phase = closed(ctx, &inputs, &topology, secs, keep);
    let mut layer = Metrics::default();
    if traced {
        let coord = &topology.coordinator;
        let stats = coord.stats();
        let snapshot = topology
            .registry
            .as_ref()
            .map(obs::Registry::snapshot)
            .unwrap_or_default();
        layer.push(
            "shard.dispatch_ms",
            histo_quantile(&snapshot, "shard.dispatch", 0.5) / 1e6,
            "ms",
        );
        let redispatched: u64 = coord.worker_rows().iter().map(|w| w.redispatched).sum();
        layer.push("shard.redispatched", redispatched as f64, "count");
        layer.push(
            "shard.cache_hit_ratio",
            stats.cache_hits as f64 / stats.received.max(1) as f64,
            "fraction",
        );
        let sample: Vec<u64> = phase.sample.iter().map(|r| r.index).collect();
        let lines: Vec<String> = sample
            .iter()
            .map(|&i| String::from_utf8(inputs.line(i)).expect("utf-8"))
            .collect();
        let runs: Vec<RunRequest> = sample
            .iter()
            .map(|&i| inputs.run_request(root_seed(inputs.seed, i)))
            .collect();
        let responses: Vec<Response> = phase
            .sample
            .iter()
            .filter_map(|r| Response::from_line(std::str::from_utf8(&r.bytes).ok()?).ok())
            .collect();
        wire_metrics(&lines, &runs, &responses, &mut layer);
        layer.push(
            "reactor.open_after",
            open_after(|| coord.stats().open_connections) as f64,
            "count",
        );
        layer.push("shard.nudged_stalls", phase.nudges as f64, "count");
    }
    topology.shutdown();
    Pass {
        tally: Tally {
            attempted: phase.sent,
            failed: phase.failed,
        },
        headline: phase.shots_per_s(),
        layer,
    }
}

/// `shard.overhead_ms`: the median coordinator round trip less the
/// median of the benchmark's own concurrent scatter of the same two
/// shot ranges straight to the same workers. Each round trip uses a
/// fresh seed, so no cache answers. Returns the overhead and the round
/// trips that failed their check.
pub fn overhead(ctx: &Ctx) -> (f64, Tally) {
    let inputs = Inputs::new(ctx.seed);
    let topology = Topology::spawn(false);
    let nudger = &topology.nudger;
    let mut client =
        Conn::connect(topology.coordinator.addr(), nudger).expect("connect coordinator");
    let mut direct: Vec<Conn> = topology
        .worker_addrs()
        .into_iter()
        .map(|a| Conn::connect(a, nudger).expect("connect worker"))
        .collect();
    let parts = partition_shots(0..SHOTS, WORKERS);
    let (mut via_coordinator, mut straight) = (Vec::new(), Vec::new());
    let mut results: Vec<(u64, Counts)> = Vec::new();
    let mut tally = Tally::default();
    for j in 0..OVERHEAD_PAIRS {
        let (a, b) = (
            stats::wire_seed(mix(ctx.seed, 0x0C00 + 2 * j)),
            stats::wire_seed(mix(ctx.seed, 0x0C01 + 2 * j)),
        );
        let line = Request::run(None, inputs.run_request(a)).to_line();
        let started = Instant::now();
        let reply = client.roundtrip(line.as_bytes());
        via_coordinator.push(started.elapsed().as_secs_f64() * 1e3);
        let counts = reply.ok().and_then(|r| ok_tallies(&r));
        tally.attempted += 2;
        match counts {
            Some(c) => results.push((a, c)),
            None => tally.failed += 1,
        }

        let started = Instant::now();
        let replies: Vec<Option<Counts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = direct
                .iter_mut()
                .zip(&parts)
                .map(|(conn, range)| {
                    let run = inputs
                        .run_request(b)
                        .with_shot_range(range.start, range.end);
                    let line = Request::run(None, run).to_line();
                    scope.spawn(move || {
                        conn.roundtrip(line.as_bytes())
                            .ok()
                            .and_then(|r| ok_tallies(&r))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread"))
                .collect()
        });
        straight.push(started.elapsed().as_secs_f64() * 1e3);
        let mut merged = Counts::new();
        if replies.iter().all(Option::is_some) {
            for r in replies.into_iter().flatten() {
                merge_counts(&mut merged, r);
            }
            results.push((b, merged));
        } else {
            tally.failed += 1;
        }
    }
    drop(client);
    drop(direct);
    topology.shutdown();
    tally.failed += results
        .iter()
        .filter(|(seed, counts)| &inputs.reference(*seed) != counts)
        .count() as u64;
    (
        stats::median(&via_coordinator) - stats::median(&straight),
        tally,
    )
}

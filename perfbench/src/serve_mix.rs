//! `serve-mix`: Poisson arrivals of the nine-entry trace workload
//! library to an in-process standalone `Service` over loopback TCP.
//!
//! A seeded Zipf repeat distribution over (circuit, seed) keys sends
//! most requests to the result cache. The memory tier holds fewer
//! entries than the key working set and disk spill is on, so hits come
//! from both tiers, and misses execute on every backend.

use crate::check;
use crate::loadgen::{self, Conn, Nudger, Reply};
use crate::stats::{self, mix, Zipf};
use crate::{Ctx, Metrics, Outcome, Pass, Tally};
use circuit::circuit::Circuit;
use engine::{Backend, Executor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{admit, Op, Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered open-loop rate (requests/s). Fixed, so every commit is
/// offered the same load: about 65% of the capacity that [`capacity`]
/// read for the commit which introduced the benchmark, on the 2-vCPU
/// host it was built on (five runs: 22 800 to 34 400 req/s, median
/// 28 700).
pub const OFFERED_REQ_PER_S: f64 = 18_000.0;
/// Shots per request: the library's canonical count.
const SHOTS: u64 = 256;
/// Memory-tier entries, below the key working set.
const MEMORY_CACHE_ENTRIES: usize = 128;
/// Distinct root seeds per circuit; 9 circuits give 864 keys.
const RANKS: usize = 96;
const ZIPF_EXPONENT: f64 = 1.1;
const CLIENTS: u64 = 16;
/// Arrival rates (req/s) of the traced run's capacity sweep, after a
/// warm-up at [`OFFERED_REQ_PER_S`] on the same server. The capacity is
/// the highest rate served at any step; past it the generator and the
/// server's backlog compete for the same cores and the served rate
/// falls, so the sweep runs well beyond it.
const SATURATION_SWEEP: [f64; 6] = [15_000.0, 20_000.0, 25_000.0, 30_000.0, 35_000.0, 40_000.0];
/// Seconds of arrivals per sweep step.
const SATURATION_SECS: f64 = 2.0;
/// Server spawns timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Open-loop requests due in the first this many seconds fill the
/// caches; they are checked but not timed.
const WARMUP_SECS: f64 = 1.0;
/// Open-loop latency percentiles are taken per window of due times and
/// reported as their median over windows.
const WINDOW_SECS: f64 = 1.0;
/// A reply this overdue gets its server nudged (see [`Nudger`]): far
/// above any healthy reply on this mix.
const NUDGE_AFTER: Duration = Duration::from_millis(25);
/// First request index of the open loop, so that it draws another
/// sequence than the saturation phase over the same keys (and another
/// arrival schedule).
const OPEN_LOOP_BASE: u64 = 1 << 40;

pub const HEADLINE: (&str, &str) = ("latency_p50_ms", "ms");

/// The traffic mix: every request is a pure function of its index.
pub struct Mix {
    seed: u64,
    circuits: Vec<(&'static str, Backend, Circuit, String)>,
    zipf: Zipf,
}

/// A request's identity: circuit index and root seed.
type Key = (usize, u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let circuits = trace::workloads::WORKLOADS
            .iter()
            .map(|w| {
                let circuit = (w.build)();
                let qasm = circuit::qasm::to_qasm3(&circuit);
                (w.name, w.backend, circuit, qasm)
            })
            .collect();
        Mix {
            seed,
            circuits,
            zipf: Zipf::new(RANKS, ZIPF_EXPONENT),
        }
    }

    pub fn circuits(&self) -> impl Iterator<Item = (&'static str, Backend, &Circuit)> {
        self.circuits
            .iter()
            .map(|(name, backend, c, _)| (*name, *backend, c))
    }

    fn key(&self, i: u64) -> Key {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, i));
        let c = rng.random_range(0..self.circuits.len());
        let rank = self.zipf.sample(&mut rng);
        (
            c,
            stats::wire_seed(mix(self.seed ^ 0x5EED, (c * RANKS + rank) as u64)),
        )
    }

    pub fn run_request(&self, i: u64) -> RunRequest {
        let (c, root_seed) = self.key(i);
        let (_, backend, _, qasm) = &self.circuits[c];
        RunRequest::new(qasm.as_str(), SHOTS, root_seed, backend.name())
            .with_client(format!("client-{}", mix(self.seed, !i) % CLIENTS))
    }

    pub fn line(&self, i: u64) -> Vec<u8> {
        Request::run(Some(format!("r{i}")), self.run_request(i))
            .to_line()
            .into_bytes()
    }

    /// Checks every reply against `Backend::sample_shots` for its key;
    /// returns how many failed (lost replies included).
    fn failures(&self, replies: &[Reply], sent: u64, threads: usize) -> u64 {
        check::failures(
            replies,
            sent,
            threads,
            |r| self.key(r.index),
            |&(c, seed)| {
                let (_, backend, circuit, _) = &self.circuits[c];
                backend
                    .sample_shots(circuit, SHOTS as usize, &Executor::sequential(seed))
                    .expect("library circuits fit their backends")
            },
        )
    }
}

/// A running service and the nudger that watches its replies.
struct Server {
    handle: ServiceHandle,
    nudger: Arc<Nudger>,
}

impl Server {
    fn spawn(dir: &Path, metrics: Option<obs::Registry>) -> Server {
        let handle = Service::spawn(ServiceConfig {
            cache_capacity: MEMORY_CACHE_ENTRIES,
            cache_dir: Some(dir.to_path_buf()),
            queue_capacity: 4096,
            metrics,
            ..ServiceConfig::default()
        })
        .expect("spawn service");
        let nudger = Nudger::new(vec![handle.addr()], NUDGE_AFTER);
        Server { handle, nudger }
    }

    fn shutdown(self) {
        let Server { handle, nudger } = self;
        nudger.during(|| handle.shutdown());
    }
}

pub fn stats_line() -> Vec<u8> {
    Request {
        id: None,
        op: Op::Stats,
    }
    .to_line()
    .into_bytes()
}

/// Seconds from spawning a service until its first `stats` reply.
fn setup_once(ctx: &Ctx) -> f64 {
    let dir = ctx.fresh_dir("serve-setup");
    let started = Instant::now();
    let server = Server::spawn(&dir, None);
    let reply = Conn::connect(server.handle.addr(), &server.nudger)
        .and_then(|mut c| c.roundtrip(&stats_line()));
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let ok = reply.is_ok_and(|b| b.starts_with(br#"{"status":"stats""#));
    assert!(ok, "service answered its first stats request wrongly");
    elapsed
}

/// Waits until the reactor has closed every client connection; returns
/// the connections still open when it gave up.
pub fn open_after(gauges: impl Fn() -> u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let open = gauges();
        if open == 0 || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One open-loop phase on a fresh service.
struct OpenLoop {
    replies: Vec<Reply>,
    /// When each request was due, seconds from the phase start.
    due: Vec<f64>,
    handle_stats: service::ServiceStats,
    snapshot: obs::Snapshot,
    open_after: u64,
    nudges: u64,
}

/// Seconds from the first due time to the last reply; request `i` of
/// `due` is the mix's request `base + i`.
fn span(due: &[f64], replies: &[Reply], base: u64) -> f64 {
    let last = replies
        .iter()
        .map(|r| due[(r.index - base) as usize] + r.latency)
        .fold(0.0, f64::max);
    last - due.first().copied().unwrap_or(0.0)
}

/// Poisson arrivals at `rate` for `secs` to `server`, with the load
/// generator's connections; request `i` of the phase is the mix's
/// request `base + i`. Returns the due times and the replies.
fn arrivals(
    ctx: &Ctx,
    server: &Server,
    mix: &Mix,
    rate: f64,
    secs: f64,
    base: u64,
) -> (Vec<f64>, Vec<Reply>) {
    let due = stats::poisson_schedule(mix.seed ^ base, rate, secs);
    let make = |i: u64| mix.line(base + i);
    let conns = (ctx.nproc / 2).max(1);
    let mut replies = loadgen::open_loop(server.handle.addr(), &due, &make, conns, &server.nudger);
    for r in &mut replies {
        r.index += base;
    }
    (due, replies)
}

impl OpenLoop {
    /// (due time, latency in ms) of the requests due after the warm-up.
    fn timed_ms(&self, base: u64) -> Vec<(f64, f64)> {
        self.replies
            .iter()
            .map(|r| (self.due[(r.index - base) as usize], r.latency * 1e3))
            .filter(|&(due, _)| due >= WARMUP_SECS)
            .collect()
    }

    /// Ascending latencies (ms) of the requests due after the warm-up.
    fn latencies_ms(&self, base: u64) -> Vec<f64> {
        stats::sorted(
            &self
                .timed_ms(base)
                .iter()
                .map(|&(_, l)| l)
                .collect::<Vec<_>>(),
        )
    }

    /// Latency percentile `p` (ms): the median over one-second windows.
    fn windowed_ms(&self, base: u64, p: f64) -> f64 {
        stats::windowed_percentile(&self.timed_ms(base), WINDOW_SECS, p)
    }
}

/// Poisson arrivals at `rate` for `secs` to a fresh service. Request
/// `i` of the phase is the mix's request `base + i`.
fn open_loop(
    ctx: &Ctx,
    mix: &Mix,
    rate: f64,
    secs: f64,
    base: u64,
    metrics: Option<obs::Registry>,
) -> OpenLoop {
    let dir = ctx.fresh_dir("serve-open");
    let server = Server::spawn(&dir, metrics);
    let handle = &server.handle;
    let (due, replies) = arrivals(ctx, &server, mix, rate, secs, base);
    let open_after = open_after(|| handle.gauges().open);
    let phase = OpenLoop {
        due,
        handle_stats: handle.stats(),
        snapshot: handle.metrics_snapshot(),
        open_after,
        nudges: server.nudger.count(),
        replies,
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    phase
}

/// An untraced run: server set-up, then the open loop at
/// [`OFFERED_REQ_PER_S`] for the whole run.
pub fn run(ctx: &Ctx) -> Outcome {
    let mix = Mix::new(ctx.seed);
    let setup: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(ctx)).collect();
    let open = open_loop(
        ctx,
        &mix,
        OFFERED_REQ_PER_S,
        ctx.seconds,
        OPEN_LOOP_BASE,
        None,
    );
    let sent = open.due.len() as u64;
    let tally = Tally {
        attempted: sent,
        failed: mix.failures(&open.replies, sent, ctx.nproc),
    };

    let span = span(&open.due, &open.replies, OPEN_LOOP_BASE);
    let done = open.replies.len() as f64;
    let mut metrics = Metrics::default();
    crate::push_setup("serve-mix", &setup, &mut metrics);
    metrics.push("shots_per_s", done * SHOTS as f64 / span, "shots/s");
    metrics.push(
        "latency_p50_ms",
        open.windowed_ms(OPEN_LOOP_BASE, 50.0),
        "ms",
    );
    println!(
        "  serve-mix: latency p90 {:.4} ms",
        open.windowed_ms(OPEN_LOOP_BASE, 90.0)
    );
    crate::print_support("serve-mix", &open.latencies_ms(OPEN_LOOP_BASE));
    metrics.push("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
    crate::report_nudges("serve-mix", open.nudges);
    Outcome {
        tally,
        checks_ok: true,
        metrics,
        row: None,
    }
}

/// The saturation probe of the traced run: on one server, a warm-up of
/// [`WARMUP_SECS`] at [`OFFERED_REQ_PER_S`] to fill the caches, then
/// each rate of [`SATURATION_SWEEP`] for [`SATURATION_SECS`]. A step's
/// rate is its replies over the time from its first arrival to its last
/// reply; the capacity is the highest. Each step is checked before the
/// next begins. It is an open loop because arrivals keep the server's
/// event loop turning however its replies are delayed: in a closed loop
/// every client may wait on a stalled reactor loop at once (see
/// [`Nudger`]), and the rate would measure the nudge interval.
pub fn capacity(ctx: &Ctx) -> (f64, Tally) {
    let mix = Mix::new(ctx.seed);
    let dir = ctx.fresh_dir("serve-capacity");
    let server = Server::spawn(&dir, None);
    let mut tally = Tally::default();
    let mut best = 0.0_f64;
    let steps = std::iter::once((OFFERED_REQ_PER_S, WARMUP_SECS))
        .chain(SATURATION_SWEEP.map(|rate| (rate, SATURATION_SECS)));
    for (step, (rate, secs)) in steps.enumerate() {
        let base = (step as u64) << 32;
        let (due, replies) = arrivals(ctx, &server, &mix, rate, secs, base);
        let sent = due.len() as u64;
        tally.add(Tally {
            attempted: sent,
            failed: mix.failures(&replies, sent, ctx.nproc),
        });
        if step > 0 {
            let served = replies.len() as f64 / span(&due, &replies, base);
            println!(
                "  serve-mix capacity sweep: offered {rate:.0} req/s, served {served:.0} req/s"
            );
            best = best.max(served);
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (best, tally)
}

/// One open-loop pass of `secs`, for the traced run. Traced, the
/// service records into an `obs` registry and the pass reads back the
/// standalone server's layer metrics.
pub fn pass(ctx: &Ctx, secs: f64, traced: bool) -> Pass {
    let mix = Mix::new(ctx.seed);
    let registry = traced.then(obs::Registry::new);
    let open = open_loop(ctx, &mix, OFFERED_REQ_PER_S, secs, OPEN_LOOP_BASE, registry);
    let sent = open.due.len() as u64;
    let tally = Tally {
        attempted: sent,
        failed: mix.failures(&open.replies, sent, ctx.nproc),
    };
    let lat = open.latencies_ms(OPEN_LOOP_BASE);
    let mut layer = Metrics::default();
    if traced {
        layer_metrics(&mix, &open, &lat, &mut layer);
    }
    Pass {
        tally,
        headline: open.windowed_ms(OPEN_LOOP_BASE, 50.0),
        layer,
    }
}

/// The stages the scheduler and reactor time, in request order.
const STAGES: [&str; 7] = [
    "parse",
    "cache_lookup",
    "compile",
    "execute",
    "merge",
    "encode",
    "write",
];

fn layer_metrics(mix: &Mix, open: &OpenLoop, lat_ms: &[f64], out: &mut Metrics) {
    let s = &open.handle_stats;
    let received = s.received.max(1) as f64;
    out.push(
        "cache.hit_ratio",
        s.cache_hits as f64 / received,
        "fraction",
    );
    out.push(
        "cache.coalesced_ratio",
        s.coalesced as f64 / received,
        "fraction",
    );
    out.push(
        "service.rejected",
        (s.rejected_busy + s.rejected_quota + s.rejected_rate) as f64,
        "count",
    );
    for stage in STAGES {
        let name = format!("stage.{stage}");
        out.push(
            format!("service.stage.{stage}_p50_us"),
            histo_quantile(&open.snapshot, &name, 0.50) / 1e3,
            "us",
        );
        out.push(
            format!("service.stage.{stage}_p99_us"),
            histo_quantile(&open.snapshot, &name, 0.99) / 1e3,
            "us",
        );
    }
    // Derived, not measured: the program has no queue-wait span, so the
    // wait is the mean latency less the mean time in every timed stage.
    let staged_ns: u64 = open
        .snapshot
        .histos
        .iter()
        .filter(|(name, _)| name.starts_with("stage."))
        .map(|(_, h)| h.sum)
        .sum();
    let mean_ms = lat_ms.iter().sum::<f64>() / lat_ms.len().max(1) as f64;
    out.push(
        "service.queue_wait_ms",
        mean_ms - staged_ns as f64 / received / 1e6,
        "ms",
    );
    out.push("reactor.open_after", open.open_after as f64, "count");
    out.push("reactor.nudged_stalls", open.nudges as f64, "count");
    let late: Vec<f64> = stats::sorted(
        &open
            .replies
            .iter()
            .map(|r| r.late * 1e3)
            .collect::<Vec<_>>(),
    );
    out.push("loadgen.late_p99_ms", stats::percentile(&late, 99.0), "ms");
    out.push(
        "serve.latency_p99_ms",
        stats::percentile(lat_ms, 99.0),
        "ms",
    );

    let sample: Vec<u64> = open.replies.iter().take(2000).map(|r| r.index).collect();
    let lines: Vec<String> = sample
        .iter()
        .map(|&i| String::from_utf8(mix.line(i)).expect("utf-8"))
        .collect();
    let runs: Vec<RunRequest> = sample.iter().map(|&i| mix.run_request(i)).collect();
    let responses: Vec<Response> = open
        .replies
        .iter()
        .take(2000)
        .filter_map(|r| Response::from_line(std::str::from_utf8(&r.bytes).ok()?).ok())
        .collect();
    wire_metrics(&lines, &runs, &responses, out);
}

/// The `obs` readout of histogram `name`'s `q`-quantile (a bucket
/// midpoint, as `compas-client --metrics` shows it); `NaN` when the
/// histogram is missing or empty.
pub fn histo_quantile(snapshot: &obs::Snapshot, name: &str, q: f64) -> f64 {
    match snapshot.histo(name) {
        Some(h) if h.count > 0 => h.quantile(q) as f64,
        _ => f64::NAN,
    }
}

/// Per-call cost of the wire codec and admission on a workload's own
/// request and reply lines.
pub fn wire_metrics(
    lines: &[String],
    runs: &[RunRequest],
    responses: &[Response],
    out: &mut Metrics,
) {
    let per_call_us =
        |n: usize, started: Instant| started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    let started = Instant::now();
    for line in lines {
        std::hint::black_box(Request::from_line(std::hint::black_box(line)).is_ok());
    }
    out.push(
        "protocol.decode_us",
        per_call_us(lines.len(), started),
        "us",
    );
    let started = Instant::now();
    for response in responses {
        std::hint::black_box(std::hint::black_box(response).to_line());
    }
    out.push(
        "protocol.encode_us",
        per_call_us(responses.len(), started),
        "us",
    );
    let started = Instant::now();
    for run in runs {
        std::hint::black_box(admit(std::hint::black_box(run)).is_ok());
    }
    out.push("admission.admit_us", per_call_us(runs.len(), started), "us");
}

//! perfbench — one benchmark over the engine, the standalone server and
//! the sharded topology. See `NOTES.md` for the workloads, the metrics
//! and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <estimate|serve-mix|shard-compas|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics on an untraced run, the per-layer metrics on a traced one.
//! `--workload all` runs every workload traced and prints the report
//! table only.

mod check;
mod estimate;
mod host;
mod layers;
mod loadgen;
mod serve_mix;
mod shard_compas;
mod speed;
mod stats;

use jsonlite::Json;
use std::path::PathBuf;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Appends metrics to a list, keeping the first value of each name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !self.0.iter().any(|m| m.name == name) {
            self.0.push(Metric { name, value, unit });
        }
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(m.name, m.value, m.unit);
        }
    }
}

/// Requests sent and how many of them failed a check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One pass of a workload inside a traced run.
pub struct Pass {
    pub tally: Tally,
    /// The workload's headline figure, compared untraced vs traced.
    pub headline: f64,
    /// Layer metrics read from the pass's own traffic (traced only).
    pub layer: Metrics,
}

/// Pushes `setup_s`, the median of a run's set-up timings, and prints
/// their quartiles.
pub fn push_setup(workload: &str, samples: &[f64], out: &mut Metrics) {
    out.push("setup_s", stats::median(samples), "s");
    if let Some([q1, q2, q3]) = stats::quartiles(samples) {
        println!(
            "  {workload}: set-up over {} repetitions: quartiles {q1:.6} / {q2:.6} / {q3:.6} s",
            samples.len()
        );
    }
}

/// Prints an unscaled figure next to the scaled metrics (see
/// [`speed`]).
pub fn print_raw(workload: &str, what: &str, value: f64, unit: &str) {
    println!("  {workload}: unscaled {what} {value:.6} {unit}");
}

/// Pushes the latency metric every workload reports, the median of
/// `sorted_ms`, and prints its p90 and the sample's support.
pub fn push_latency(workload: &str, sorted_ms: &[f64], out: &mut Metrics) {
    out.push("latency_p50_ms", stats::percentile(sorted_ms, 50.0), "ms");
    println!(
        "  {workload}: latency p90 {:.4} ms",
        stats::percentile(sorted_ms, 90.0)
    );
    print_support(workload, sorted_ms);
}

/// Prints the sample count of a latency sample and the highest
/// percentile it supports (see [`stats::supports`]).
pub fn print_support(workload: &str, sorted_ms: &[f64]) {
    let n = sorted_ms.len();
    match stats::highest_supported(n) {
        Some(p) => println!(
            "  {workload}: {n} latency samples; highest supported percentile p{p} = {:.4} ms",
            stats::percentile(sorted_ms, p)
        ),
        None => println!("  {workload}: {n} latency samples support no percentile"),
    }
    if !stats::supports(n, 90.0) {
        eprintln!("perfbench: {workload}: {n} latency samples do not support a p90");
    }
}

/// Reports how often the load generator had to wake a stalled server
/// (see [`loadgen::Nudger`]).
pub fn report_nudges(workload: &str, nudges: u64) {
    println!("  {workload}: replies rescued from a stalled reactor loop: {nudges}");
}

/// The result of one run.
pub struct Outcome {
    pub tally: Tally,
    /// Checks that are not per request (statistical agreement).
    pub checks_ok: bool,
    pub metrics: Metrics,
    /// Report-table cells: workload's headline metric untraced and
    /// traced, with its unit.
    pub row: Option<Row>,
}

/// One row of the report table.
pub struct Row {
    pub workload: &'static str,
    pub headline: &'static str,
    pub unit: &'static str,
    pub untraced: f64,
    pub traced: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Root of this run's temporary files, inside the working directory.
    pub tmp: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under [`Ctx::tmp`].
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = self
            .tmp
            .join(format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark temp dir");
        dir
    }
}

/// Removes a run's temporary tree when the run ends, however it ends.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

const WORKLOADS: [&str; 3] = ["estimate", "serve-mix", "shard-compas"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &'static str, ctx: &Ctx, trace: bool) -> Outcome {
    if trace {
        return layers::traced(name, ctx);
    }
    match name {
        "estimate" => estimate::run(ctx),
        "serve-mix" => serve_mix::run(ctx),
        "shard-compas" => shard_compas::run(ctx),
        other => unreachable!("unvalidated workload {other}"),
    }
}

fn print_host(ctx: &Ctx) {
    println!(
        "host: nproc {} | caches {} | commit {} | seed {} | {} s per run",
        ctx.nproc,
        host::cache_sizes(),
        host::git_describe(),
        ctx.seed,
        ctx.seconds
    );
}

/// The SPEC-rate style table: one row per workload, its headline
/// metric untraced and traced, and the tracing overhead.
fn print_table(rows: &[Row]) {
    println!(
        "| {:<13} | {:<22} | {:>12} | {:>12} | {:>9} | {:>9} | {:>6} |",
        "workload", "headline metric", "untraced", "traced", "overhead", "attempted", "failed"
    );
    println!(
        "|{:-<15}|{:-<24}|{:->14}|{:->14}|{:->11}|{:->11}|{:->8}|",
        "", "", "", "", "", "", ""
    );
    for r in rows {
        let overhead = overhead_frac(r.headline, r.untraced, r.traced);
        println!(
            "| {:<13} | {:<22} | {:>12.4} | {:>12.4} | {:>8.2}% | {:>9} | {:>6} |",
            r.workload,
            format!("{} ({})", r.headline, r.unit),
            r.untraced,
            r.traced,
            overhead * 100.0,
            r.attempted,
            r.failed
        );
    }
}

/// Tracing overhead as a share of the untraced figure: for a rate the
/// traced run loses throughput, for a latency it gains time.
pub fn overhead_frac(headline: &str, untraced: f64, traced: f64) -> f64 {
    if headline.contains("latency") {
        traced / untraced - 1.0
    } else {
        untraced / traced - 1.0
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<(String, Json)> = outcome
        .metrics
        .0
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct(outcome))),
        ("attempted", Json::from_u64(outcome.tally.attempted.max(1))),
        ("failed", Json::from_u64(outcome.tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}

fn correct(outcome: &Outcome) -> bool {
    outcome.checks_ok
        && outcome.tally.failed == 0
        && outcome.tally.attempted > 0
        && outcome.metrics.0.iter().all(|m| m.value.is_finite())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let guard = TmpGuard(tmp.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: host::nproc(),
        tmp,
    };
    print_host(&ctx);

    if args.workload == "all" {
        let mut rows = Vec::new();
        let mut all_correct = true;
        for name in WORKLOADS {
            let outcome = run_workload(name, &ctx, true);
            all_correct &= correct(&outcome);
            rows.extend(outcome.row);
        }
        print_table(&rows);
        drop(guard);
        std::process::exit(if all_correct { 0 } else { 1 });
    }

    let name = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("validated workload");
    let outcome = run_workload(name, &ctx, args.trace);
    for m in &outcome.metrics.0 {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(row) = &outcome.row {
        print_table(std::slice::from_ref(row));
    }
    let ok = correct(&outcome);
    println!("{}", result_json(&outcome));
    drop(guard);
    if !ok {
        std::process::exit(1);
    }
}

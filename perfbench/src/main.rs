//! Outside-in benchmark of the Astrea decode stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads, each loading a different layer a shot passes through
//! (see `BENCHMARK.json` for why each was chosen):
//!
//! * `ler-d7-p1e-3`  streamed `estimate_ler`: sampling, screen, easy
//!   tiers, closed forms and the subset DP;
//! * `ler-d7-p5e-3`  the same at a hot p: the deep solve over the GWT;
//! * `ler-d15-p1e-3` GWT-free: on-demand deep discovery, one tile per job;
//! * `serve-d5-p5e-3` the TCP wire protocol, batcher and worker pool,
//!   open loop at a fixed rate, then saturated.
//!
//! Every workload runs at [`THREADS`] threads on the shipped defaults and
//! only calls public functions. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same workload once untraced and once
//! with spans at every layer boundary, prints the per-layer metrics and
//! writes the spans to `perfbench/out/<workload>.spans.tsv`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod ler;
mod probe;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Threads every workload runs at: what `nproc` reports on the host the
/// benchmark was written for.
pub const THREADS: usize = 2;

/// Set-ups timed per run (`setup_s` is their median): at least
/// `SETUP_MIN`, then more while their total stays under `SETUP_BUDGET_S`,
/// up to `SETUP_MAX`.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 1.0;

/// Whether to time another set-up after the ones in `times`.
pub fn another_setup(times: &[f64]) -> bool {
    let spent: f64 = times.iter().sum();
    times.len() < SETUP_MIN || (times.len() < SETUP_MAX && spent < SETUP_BUDGET_S)
}

/// Metrics printed by an untraced run, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("shots_per_s", "1/s"),
    ("defects_per_core_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics printed by a traced run, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("ler", "1"),
    ("sample.ns_per_shot", "ns"),
    ("sample.busy_frac", "1"),
    ("harness.tiles", "count"),
    ("harness.consumer_busy_frac", "1"),
    ("harness.queue_wait_frac", "1"),
    ("harness.send_wait_frac", "1"),
    ("tile.self_ns_per_shot", "ns"),
    ("easy.trivial", "count"),
    ("easy.hw1", "count"),
    ("easy.hw2", "count"),
    ("closed_form.shots", "count"),
    ("closed_form.calls", "count"),
    ("closed_form.ns_per_shot", "ns"),
    ("dp.shots", "count"),
    ("dp.ns_per_shot", "ns"),
    ("hard_cache.lookups", "count"),
    ("hard_cache.hit_rate", "1"),
    ("deep.shots", "count"),
    ("deep.mean_k", "count"),
    ("deep.ns_per_shot", "ns"),
    ("deep.discover_ns_per_shot", "ns"),
    ("deep.solve_ns_per_shot", "ns"),
    ("ondemand.settled_per_shot", "count"),
    ("ondemand.pruned_frac", "1"),
    ("setup.context_s", "s"),
    ("serve.gen_late_p50_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.send_to_recv_p50_us", "us"),
    ("serve.lat_p50_us", "us"),
    ("serve.lat_p99_us", "us"),
    ("serve.lat_p999_us", "us"),
    ("serve.lat_samples", "count"),
    ("serve.shots_per_tile_open", "count"),
    ("serve.shots_per_tile_sat", "count"),
    ("serve.worker_busy_frac", "1"),
    ("serve.worker_ns_per_shot", "ns"),
    ("trace.overhead_frac", "1"),
    ("trace.accounted_frac", "1"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\nworkloads:";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: traced.ok_or("missing --trace")?,
    })
}

/// SplitMix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_json(failed: u64, attempted: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn print_result(report: &Report, names: &[(&str, &str)]) {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        println!("{name:<30} {v:>16.6} {unit}");
        metrics.push(metric_json(name, v, unit));
    }
    println!("{}", result_json(report.failed, report.attempted, &metrics));
}

/// `--workload all`: runs every workload in a child process of its own
/// (so each peak RSS is its own), one after another, and ends with one
/// result whose metrics are named `<workload>/<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let (mut attempted, mut failed, mut metrics) = (0u64, 0u64, Vec::new());
    for name in workload_names() {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        if !out.status.success() || !last.starts_with("{\"correct\"") {
            eprintln!("perfbench: workload {name} failed ({})", out.status);
            return ExitCode::FAILURE;
        }
        println!("== {name}");
        for line in lines {
            println!("{line}");
        }
        let field = |key: &str| -> u64 {
            let at = last.find(key).expect("result field") + key.len();
            last[at..]
                .split(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty())
                .and_then(|s| s.parse().ok())
                .expect("numeric result field")
        };
        attempted += field("\"attempted\":");
        failed += field("\"failed\":");
        // Each metric of the child's result is `"name": {"value": v, "unit": "u"}`.
        let body = &last[last.find("\"metrics\": {").expect("metrics object") + 12..];
        for entry in body
            .trim_end_matches('}')
            .split("}, ")
            .filter(|e| !e.is_empty())
        {
            let entry = entry.trim_end_matches('}');
            metrics.push(format!("\"{name}/{}}}", entry.trim_start_matches('"')));
        }
    }
    println!("{}", result_json(failed, attempted, &metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE} {}", workload_names().join(" "));
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let (report, threads) = if let Some(point) = ler::point(&args.workload) {
        ler::run(point, args.seed, args.seconds, args.trace)
    } else if args.workload == serve::NAME {
        serve::run(args.seed, args.seconds, args.trace)
    } else {
        eprintln!(
            "perfbench: unknown workload {}\n{USAGE} {}",
            args.workload,
            workload_names().join(" ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.tsv", args.workload));
        if let Err(e) = trace::write_spans(&path, &threads) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print_result(&report, PER_LAYER);
    } else {
        print_result(&report, END_TO_END);
    }
    ExitCode::SUCCESS
}

/// Every workload, in the order `--workload all` runs them.
fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = ler::POINTS.iter().map(|p| p.name).collect();
    names.push(serve::NAME);
    names
}

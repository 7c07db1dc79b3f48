//! The RelGo-RS benchmark of record.
//!
//! ```sh
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload snb-ic --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `snb-ic` and `job` run their suites in-process through
//! `Session::run`; `serve-mixed` drives an in-process `relgo-server` over a
//! durable session. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! is a separate run of the same seed that times calls into each layer and
//! reads the program's own reports. Every metric is printed as
//! `metric <name> <value> <unit>`; the last line is one JSON object with the
//! metrics listed in `BENCHMARK.json`. The run reports `"correct": false`
//! and exits 1 when the correctness gate fails or any operation failed.
//! See `perfbench/README.md`.

mod analytic;
mod gate;
mod http;
mod serve;
mod stats;
mod suite;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`, in order). `serve-mixed` also prints `fresh_*`,
/// `commit_*` and `recover_s`, and every run prints `failed_frac`.
const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "cold_pass_s",
    "qps",
    "query_p50_ms",
    "query_p99_ms",
    "peak_rss_mb",
];

/// Per-layer metrics every workload reports (`BENCHMARK.json`
/// `per_layer`, in order). The traced run prints more (server, WAL,
/// checkpoint and plan-cache layers on `serve-mixed`; every operator kind);
/// these are the ones all three workloads measure.
const LAYER_METRICS: [&str; 20] = [
    "datagen.generate_s",
    "graph.view_build_s",
    "relgo.open_s",
    "glogue.cold_count_s",
    "glogue.patterns",
    "core.optimize_ms",
    "core.agnostic_ratio",
    "exec.execute_ms",
    "exec.scan_vertex.self_ms",
    "exec.scan_vertex.rows",
    "exec.expand.self_ms",
    "exec.expand.rows",
    "exec.scan_graph_table.self_ms",
    "exec.scan_graph_table.rows",
    "exec.max_qerror",
    "core.parameterize_us",
    "cache.lookup_us",
    "core.rebind_us",
    "trace.overhead_frac",
    "trace.coverage",
];

/// The command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate mismatches (any entry fails the run).
    pub mismatches: Vec<String>,
    /// Settings and sizes recorded with the result.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Record a gate result; a mismatch also counts as a failed operation.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.mismatches.push(e);
        }
    }

    /// The run passes its gate: no mismatch and no failed operation.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A small deterministic generator for the benchmark's own draws
/// (splitmix64), so the inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Config {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (`NaN`/infinities become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_line(outcome: &Outcome, names: &[&str], correct: bool) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, name) in names.iter().enumerate() {
        let m = outcome
            .get(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload snb-ic|job|serve-mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut steal = stats::StealClock::start();
    let run = match workload.as_str() {
        "snb-ic" => analytic::run(analytic::Dataset::Snb, cfg),
        "job" => analytic::run(analytic::Dataset::Imdb, cfg),
        "serve-mixed" => serve::run(cfg),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (snb-ic, job, serve-mixed)");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::from(1);
        }
    };
    // Interference from other guests on the host, for reading the result.
    outcome.note("cpu_steal_frac", format!("{:.4}", steal.lap()));
    finish(&workload, cfg, outcome)
}

/// Print the run's provenance, every metric and the result line; exit 1
/// unless the run is [`Outcome::correct`].
fn finish(workload: &str, cfg: Config, mut outcome: Outcome) -> ExitCode {
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metric("failed_frac", failed_frac, "ratio");

    let mut provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"nproc\": {}",
        json_str(workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        json_str(&git_rev()),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (k, v) in &outcome.provenance {
        let _ = write!(provenance, ", {}: {}", json_str(k), json_str(v));
    }
    provenance.push('}');
    println!("provenance {provenance}");
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, json_num(m.value), m.unit);
    }
    for e in &outcome.mismatches {
        eprintln!("perfbench: correctness gate: {e}");
    }
    let correct = outcome.correct();
    let names: &[&str] = if cfg.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    match result_line(&outcome, names, correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above must be exactly the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), E2E_METRICS);
        assert_eq!(section("per_layer"), LAYER_METRICS);
    }

    #[test]
    fn result_line_needs_every_listed_metric() {
        let mut o = Outcome::default();
        o.metric("qps", 12.5, "1/s");
        o.attempted = 3;
        let line = result_line(&o, &["qps"], true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(&o, &["qps", "setup_s"], true).is_err());
    }

    #[test]
    fn shuffles_are_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}

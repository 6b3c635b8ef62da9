//! `ezrt-perfbench`: the end-to-end and per-layer benchmark of the
//! ezRealtime pipeline (spec → net → search → schedule → artifacts) and
//! its HTTP service. See `README.md` in this directory for the workloads,
//! the metrics and the layer → end-to-end map.
//!
//! Usage: `ezrt-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; lines before it that
//! start with `#` record the core count and sample counts.

#[cfg(test)]
mod determinism;
mod edit_serve;
mod http;
mod oracle;
mod overload;
mod pipeline;
mod pump;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed on every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`. A layer
/// a workload never calls reads 0 there; README.md says which workload
/// each metric shows on.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("latency_ms_p90", "ms"),
    ("dsl.parse_us", "us"),
    ("artifacts.digest_us", "us"),
    ("artifacts.fields_us", "us"),
    ("artifacts.render_us.report", "us"),
    ("artifacts.render_us.table", "us"),
    ("artifacts.render_us.gantt", "us"),
    ("artifacts.render_bytes", "bytes"),
    ("compose.translate_us", "us"),
    ("compose.places", "count"),
    ("compose.transitions", "count"),
    ("scheduler.search_ms", "ms"),
    ("scheduler.states_visited", "count"),
    ("scheduler.states_per_s", "1/s"),
    ("scheduler.backtracks", "count"),
    ("scheduler.useful_ratio", "ratio"),
    ("scheduler.bytes_per_state", "bytes"),
    ("scheduler.dead_set_mb", "MB"),
    ("scheduler.por_stubborn_skips", "count"),
    ("scheduler.por_sleep_skips", "count"),
    ("scheduler.seeded_search_ms", "ms"),
    ("scheduler.incr_replayed", "count"),
    ("scheduler.incr_states_saved", "count"),
    ("scheduler.warm_start_ratio", "ratio"),
    ("scheduler.derive_us", "us"),
    ("scheduler.validate_us", "us"),
    ("sim.replay_us", "us"),
    ("codegen.emit_us", "us"),
    ("codegen.bytes", "bytes"),
    ("server.memory_hit_us", "us"),
    ("server.rendered_hit_us", "us"),
    ("server.not_modified_us", "us"),
    ("server.render_miss_us", "us"),
    ("server.handler_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_joined", "count"),
    ("server.not_modified", "count"),
    ("server.http_errors", "count"),
    ("server.shed_connections", "count"),
    ("edit_latency_ms_p50", "ms"),
    ("edit_latency_ms_p90", "ms"),
    ("read_latency_ms_p50", "ms"),
    ("read_latency_ms_p90", "ms"),
    ("codegen_bytes", "bytes"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.nproc", "count"),
    ("trace.samples", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, found {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.clamp(1, 60),
                "--trace" => trace = number()? == 1,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }

    /// The fixed op count of a run: `seconds` at the workload's nominal
    /// rate. It never depends on measured speed, so every run of one
    /// seed does exactly the same work.
    pub fn op_count(&self, nominal_ops_per_s: f64) -> usize {
        (self.seconds as f64 * nominal_ops_per_s).round().max(100.0) as usize
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// The harness self-test: a deliberately wrong expected answer was
    /// counted as a failure.
    pub selftest_ok: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and tails, printed as `#` lines.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Counts one checked op, reporting the first few failures.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("op {} failed: {reason}", self.attempted);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs `setup` `times` times and returns the median duration in seconds
/// together with the last set-up state.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut durations = stats::Samples::default();
    let mut last = None;
    for _ in 0..times {
        let started = Instant::now();
        last = Some(setup());
        durations.push(started.elapsed().as_secs_f64());
    }
    (durations.median(), last.expect("at least one set-up"))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|value| {
                    value
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn result_line(args: &Args, report: &RunReport) -> String {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // JSON has no NaN or infinity; a ratio over an empty sample
            // reads 0 like a layer the workload never calls.
            let value = report
                .metrics
                .get(name)
                .copied()
                .filter(|value| value.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.selftest_ok,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ezrt-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "pump-pipeline" => pump::run(&args),
        "overload-proof" => overload::run(&args),
        "edit-serve" => edit_serve::run(&args),
        other => {
            eprintln!("ezrt-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("trace.nproc", nproc() as f64);
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    println!(
        "# workload={} seed={} nproc={} jobs=1 trace={}",
        args.workload,
        args.seed,
        nproc(),
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&args, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metric_catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own
        };
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = text
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section");
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect("key");
                        rest[..rest.find('"').expect("quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_junk() {
        let args = |list: &[&str]| Args::parse(list.iter().map(|s| s.to_string()));
        let parsed = args(&[
            "--workload",
            "edit-serve",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "x", "--workload", "a"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}

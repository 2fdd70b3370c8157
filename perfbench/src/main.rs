//! End-to-end benchmark of the Soteria workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_functional --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` and checks
//! the workload's outputs; `--trace 1` runs a fixed amount of work twice,
//! untraced and traced, and reports the per-layer metrics. `--workload
//! all` runs every workload in a child process of its own and prints a
//! combined result. The last stdout line is always one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`; the process
//! exits non-zero when any output check fails. See `perfbench/README.md`.

mod calib;
mod counts;
mod fig10;
mod jobs;
mod kernels;
mod kv;
mod span;
mod stats;

use std::process::{Command, ExitCode};

use soteria_rt::json::Json;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "kv_functional",
    "fig10_timing",
    "compare_udr",
    "crashck_sweep",
];

/// The seed whose outputs and work counts are pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned outputs and work counts at [`DEFAULT_SEED`], per workload.
const PINS: &str = include_str!("../pins.json");

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ns", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload does not call reports 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("crypto.ctr_line_ns", "ns"),
    ("crypto.data_mac_ns", "ns"),
    ("crypto.sha256_64B_ns", "ns"),
    ("ecc.encode_ns", "ns"),
    ("ecc.decode_clean_ns", "ns"),
    ("crypto.ctr_lines_per_op", "1/op"),
    ("crypto.data_macs_per_op", "1/op"),
    ("ecc.encodes_per_op", "1/op"),
    ("ecc.decodes_per_op", "1/op"),
    ("crypto.modelled_share", "ratio"),
    ("ecc.modelled_share", "ratio"),
    ("core.unexplained_share", "ratio"),
    ("crypto.read_modelled_share", "ratio"),
    ("ecc.read_modelled_share", "ratio"),
    ("core.read_unexplained_share", "ratio"),
    ("crypto.write_modelled_share", "ratio"),
    ("ecc.write_modelled_share", "ratio"),
    ("core.write_unexplained_share", "ratio"),
    ("core.read_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.read_p99_ns", "ns"),
    ("core.write_p99_ns", "ns"),
    ("core.nvm_reads_per_op", "1/op"),
    ("core.nvm_writes_per_op", "1/op"),
    ("core.evictions_per_op", "1/op"),
    ("core.clone_writes_per_op", "1/op"),
    ("core.shadow_writes_per_op", "1/op"),
    ("mdcache.miss_ratio", "ratio"),
    ("mdcache.dirty_evictions_per_op", "1/op"),
    ("nvm.device_reads_per_op", "1/op"),
    ("nvm.device_writes_per_op", "1/op"),
    ("nvm.wpq_stalls_per_op", "1/op"),
    ("nvm.wpq_drains_per_op", "1/op"),
    ("workloads.next_op_ns", "ns"),
    ("simcpu.run_self_ns_per_op", "ns"),
    ("simcpu.llc_miss_ratio", "ratio"),
    ("simcpu.sim_cycles_per_op", "cycle/op"),
    ("faultsim.block_ms_p50", "ms"),
    ("faultsim.block_ms_p99", "ms"),
    ("faultsim.merge_ms", "ms"),
    ("faultsim.iterations_with_faults", "count"),
    ("core.controller_new_us", "us"),
    ("core.recover_us", "us"),
    ("core.sac_lazy_failed_calls", "count"),
    ("bench.self_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The per-layer metrics only `crashck_sweep` reports, after
/// [`PER_LAYER`]. `BENCHMARK.json` does not list them, because it does
/// not gate `crashck_sweep` (see the README).
const CRASHCK_LAYER: [(&str, &str); 3] = [
    ("crashck.sweep_ms", "ms"),
    ("crashck.point_us", "us"),
    ("crashck.points", "count"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured and checked.
pub struct Report {
    workload: &'static str,
    seed: u64,
    /// Operations issued (controller calls, simulated ops, iterations or
    /// crash points).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    metrics: Vec<(String, f64, String, u64)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a metric with the number of samples behind it.
    pub fn metric(&mut self, name: &str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .chain(CRASHCK_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics
            .push((name.to_string(), value, unit.to_string(), samples));
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Compares `got` with the value pinned for `key` at the default
    /// seed; at other seeds it does nothing. A mismatch line names the
    /// key and both values, which is all a refresh of `pins.json` needs.
    pub fn pin(&mut self, key: &str, got: String) {
        if self.seed == DEFAULT_SEED {
            let pins = Json::parse(PINS).expect("pins.json is valid JSON");
            let want = pins
                .get(self.workload)
                .and_then(|w| w.get(key))
                .and_then(Json::as_str)
                .map(str::to_string);
            match want {
                Some(w) if w == got => {}
                Some(w) => self
                    .mismatches
                    .push(format!("pin {key}: expected {w}, got {got}")),
                None => self
                    .mismatches
                    .push(format!("pin {key}: not pinned (got {got})")),
            }
        }
    }
}

fn usage() -> &'static str {
    "usage: perfbench --workload <kv_functional|fig10_timing|compare_udr|crashck_sweep|all> \
     [--seed N] [--seconds S] [--trace 0|1]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| format!("bad --seed {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Formats a number with every digit Rust's shortest round-trip
/// representation gives (a non-finite value, already reported as a
/// mismatch, prints as 0 to keep the line valid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(args: &Args) -> ExitCode {
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == args.workload)
        .expect("validated workload");
    let mut report = Report::new(workload, args.seed);
    match workload {
        "kv_functional" => kv::run(args, &mut report),
        "fig10_timing" => fig10::run(args, &mut report),
        "compare_udr" => jobs::run_compare(args, &mut report),
        _ => jobs::run_crashck(args, &mut report),
    }
    if args.trace {
        // Layers the workload does not call report 0, so every traced
        // run names every per-layer metric.
        for (name, _) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.0 == name) {
                report.metric(name, 0.0, 0);
            }
        }
    } else {
        report.metric("peak_rss_mib", stats::peak_rss_mib(), 1);
    }
    let declared: Vec<&str> = if args.trace {
        let extra: &[(&str, &str)] = if workload == "crashck_sweep" {
            &CRASHCK_LAYER
        } else {
            &[]
        };
        PER_LAYER.iter().chain(extra).map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut metrics = Vec::new();
    for name in declared {
        let (_, value, unit, samples) = report
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("{workload} did not report {name}"));
        let shown = if *value != 0.0 && value.abs() < 0.01 {
            format!("{value:.4e}")
        } else {
            format!("{value:.4}")
        };
        println!("{workload:>14} {name:<34} {shown:>16} {unit:<8} n={samples}");
        metrics.push((name.to_string(), *value, unit.clone()));
    }
    for (name, value, _) in &metrics {
        report.check(value.is_finite(), || {
            format!("{name} is not a finite number")
        });
    }
    for m in &report.mismatches {
        println!("{workload:>14} MISMATCH {m}");
    }
    let correct = report.mismatches.is_empty();
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process (so each reports its own peak
/// RSS), relays their output, and prints one combined result whose
/// metric names are prefixed with the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Ok(doc) = Json::parse(last) else {
            eprintln!("{w} printed no result");
            return ExitCode::from(2);
        };
        correct &= out.status.success() && doc.get("correct") == Some(&Json::Bool(true));
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (name, m) in doc.get("metrics").and_then(Json::entries).unwrap_or(&[]) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push((format!("{w}.{name}"), value, unit));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

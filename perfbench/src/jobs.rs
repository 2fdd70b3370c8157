//! The two job workloads, `compare_udr` and `crashck_sweep`.
//!
//! Each builds its jobs from JSON request bodies with the parsers the CLI
//! and HTTP paths use (`threads: 1`) and runs them through
//! `faultsim::job::run_spec`, as those paths do. A run is a set of jobs,
//! each with a seed of its own, issued round-robin in a closed loop; every
//! repetition of a job must return the bytes of its first run, which are
//! pinned by fingerprint at the default seed. The traced pass runs the
//! same jobs as their fleet blocks (`run_block_range` per block, then
//! `merge_partials`), whose merged bytes must equal `run_spec`'s.

use std::hint::black_box;
use std::time::Instant;

use soteria::recovery::recover;
use soteria::{CloningPolicy, DataAddr, SecureMemoryConfig, SecureMemoryController, TreeUpdate};
use soteria_faultsim::compare::{compare_config_from_json, CompareConfig};
use soteria_faultsim::crashck::{crashck_config_from_json, sweep_cell, CrashckConfig};
use soteria_faultsim::job::{run_spec, JobSpec};
use soteria_faultsim::shard::{merge_partials, run_block_range, total_blocks};
use soteria_rt::crashck::gen_script;
use soteria_rt::json::Json;

use crate::calib::{Calibration, Piece};
use crate::span::Tracer;
use crate::stats::{fnv1a, median, percentile, sorted};
use crate::{Args, Report, DEFAULT_SEED};

/// A job's `result_json` and NDJSON artifacts.
type Artifacts = (String, String);

/// Parses of a job's request body in one set-up, which is otherwise too
/// short to time.
const PARSES: usize = 200;
/// The crashck matrix's cloning policies.
const POLICIES: [CloningPolicy; 3] = [
    CloningPolicy::None,
    CloningPolicy::Relaxed,
    CloningPolicy::Aggressive,
];
/// Jobs of one `compare_udr` run, and each job's Monte Carlo iterations
/// and per-scheme slowdown-trace ops. Each job is sized so that fault
/// sampling and per-scheme loss analysis take most of its time (at the
/// CLI's 512 iterations and 2048-op trace, the trace half would). Each
/// job's merge also builds, crashes and recovers one small functional
/// controller per scheme for its trace: about a fifth of a job at this
/// size, and a larger share of a smaller job. A job's cost per iteration
/// depends on the faults its seed draws: two seeds' jobs differed by 5 %
/// run after run, so a run averages eight jobs' seeds.
const COMPARE_JOBS: u64 = 8;
const COMPARE_ITERATIONS: u64 = 8192;
const COMPARE_TRACE_OPS: u64 = 128;
/// Jobs of one `crashck_sweep` run, each the whole 18-cell matrix with
/// one script per cell (the CLI default is 2). A crash point's cost grows
/// with its script's length, so a job's cost per point depends on the
/// lengths its seed draws; 144 scripts average that out to a few percent,
/// where 36 moved it by 15 % between seeds.
const CRASHCK_JOBS: u64 = 8;
/// Calibration-loop samples taken after every job. A job is too long
/// for the loop's usual spacing to sample during it, and one 0.1 ms
/// sample alone is too noisy to price it.
const BURST: usize = 8;
/// Job repetitions per run at most (their buffer is allocated up front,
/// so peak memory does not depend on run length).
const MAX_RUNS: usize = 4096;
/// Controllers built and recoveries run for the crashck-shaped timings.
const CONTROLLER_SAMPLES: usize = 15;

/// Job `job`'s seed: at the default seed, job 0 runs the job kind's
/// default seed.
fn job_seed(default: u64, seed: u64, job: u64) -> u64 {
    default ^ seed.wrapping_sub(DEFAULT_SEED) ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn compare_bodies(seed: u64) -> Vec<String> {
    (0..COMPARE_JOBS)
        .map(|job| {
            let seed = job_seed(CompareConfig::default().seed, seed, job);
            format!(
                "{{\"fit\": 1500, \"iterations\": {COMPARE_ITERATIONS}, \
                 \"trace_ops\": {COMPARE_TRACE_OPS}, \"seed\": \"{seed:#x}\", \"threads\": 1}}"
            )
        })
        .collect()
}

fn crashck_bodies(seed: u64) -> Vec<String> {
    (0..CRASHCK_JOBS)
        .map(|job| {
            let seed = job_seed(CrashckConfig::default().seed, seed, job);
            format!("{{\"seed\": \"{seed:#x}\", \"scripts_per_cell\": 1, \"threads\": 1}}")
        })
        .collect()
}

/// Parses a request body as the CLI and HTTP paths do.
fn parse(body: &str, kind: &str) -> JobSpec {
    let json = Json::parse(body).expect("benchmark request bodies are valid JSON");
    match kind {
        "compare" => JobSpec::Compare(compare_config_from_json(&json).expect("valid compare body")),
        _ => JobSpec::Crashck(crashck_config_from_json(&json).expect("valid crashck body")),
    }
}

fn summary(result: &str, key: &str) -> u64 {
    Json::parse(result)
        .ok()
        .and_then(|r| {
            r.get("summary")
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
        })
        .unwrap_or(0.0) as u64
}

/// A job's work units: Monte Carlo iterations for compare, crash points
/// for crashck.
fn job_ops(spec: &JobSpec, result: &str) -> u64 {
    match spec {
        JobSpec::Compare(c) => c.iterations,
        _ => summary(result, "points"),
    }
}

/// Every job once through `run_spec`: the reference bytes. Pins their
/// fingerprint and checks crashck's divergence count.
fn reference(report: &mut Report, specs: &[JobSpec], kind: &str) -> Vec<Artifacts> {
    let out: Vec<Artifacts> = specs.iter().map(run_spec).collect();
    let all = |part: fn(&Artifacts) -> &String| {
        let bytes: Vec<u8> = out.iter().flat_map(|o| part(o).bytes()).collect();
        fnv1a(&bytes)
    };
    report.pin("result_json", all(|o| &o.0));
    report.pin("ndjson", all(|o| &o.1));
    if kind == "crashck" {
        let divergences: u64 = out.iter().map(|o| summary(&o.0, "divergences")).sum();
        report.check(divergences == 0, || {
            format!("crashck reported {divergences} divergences")
        });
    }
    out
}

/// Set-up and the timed closed loop shared by both job workloads.
///
/// The jobs run once for their reference bytes and to warm caches and
/// the allocator. The timed loop then issues them round-robin: set-up,
/// what the program does before a job runs, is parsing the job's request
/// body into its config; then the job runs through `run_spec`. Each is
/// timed as one piece, so `setup_s` is a median over every call.
fn run_jobs(args: &Args, report: &mut Report, bodies: &[String], kind: &str) {
    let mut cal = Calibration::new();
    let specs: Vec<JobSpec> = bodies.iter().map(|b| parse(b, kind)).collect();
    let expected = reference(report, &specs, kind);
    let ops: Vec<u64> = specs
        .iter()
        .zip(&expected)
        .map(|(spec, out)| job_ops(spec, &out.0))
        .collect();

    let mut runs: Vec<(usize, Piece)> = Vec::with_capacity(MAX_RUNS);
    let mut setups: Vec<Piece> = Vec::with_capacity(MAX_RUNS);
    let start = cal.now();
    cal.burst(BURST);
    while runs.len() < specs.len() || (cal.now() - start < args.seconds && runs.len() < MAX_RUNS) {
        let job = runs.len() % specs.len();
        let from = cal.now();
        for _ in 0..PARSES {
            black_box(parse(black_box(&bodies[job]), kind));
        }
        let to = cal.now();
        setups.push((to - from, from, to));
        let from = cal.now();
        let out = run_spec(&specs[job]);
        let to = cal.now();
        cal.burst(BURST);
        report.check(out == expected[job], || {
            format!("run {} of job {job} returned different bytes", runs.len())
        });
        runs.push((job, (to - from, from, to)));
    }
    for &(job, _) in &runs {
        report.attempted += ops[job];
        report.failed += summary(&expected[job].0, "divergences");
    }
    // Throughput is the jobs' total ops over the sum of each job's median
    // normalised time. The p50 is the median call's normalised time per
    // op: a per-call mean, since a job's ops are not visible one by one
    // from outside.
    let norm = |t: &Piece| cal.normalise(t.0, t.1, t.2);
    let job_s: Vec<f64> = (0..specs.len())
        .map(|j| {
            let times: Vec<f64> = runs
                .iter()
                .filter(|r| r.0 == j)
                .map(|r| norm(&r.1))
                .collect();
            median(&times)
        })
        .collect();
    let per_op_ns: Vec<f64> = runs
        .iter()
        .map(|(j, t)| norm(t) * 1e9 / ops[*j] as f64)
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|t| norm(t) / PARSES as f64).collect();
    let n = runs.len() as u64;
    report.metric("setup_s", median(&setup_s), setups.len() as u64);
    report.metric(
        "ops_per_s",
        ops.iter().sum::<u64>() as f64 / job_s.iter().sum::<f64>(),
        n,
    );
    report.metric("op_p50_ns", median(&per_op_ns), n);
    let raw_s: f64 = (0..specs.len())
        .map(|j| {
            let times: Vec<f64> = runs.iter().filter(|r| r.0 == j).map(|r| r.1 .0).collect();
            median(&times)
        })
        .sum();
    println!(
        "{:>14} {n} runs of {} jobs; raw {:.0} op/s; calibration loop median {:.1} us",
        "",
        specs.len(),
        ops.iter().sum::<u64>() as f64 / raw_s,
        cal.median_us()
    );
}

/// Runs every job as its fleet blocks, one `run_block_range` call per
/// block and then `merge_partials`; with a tracer, each call runs inside
/// a span whose op id is the block's index across all jobs. Returns the
/// seconds of each block and of each merge, and each job's merged bytes.
fn run_blocks(
    specs: &[JobSpec],
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<f64>, Vec<Result<Artifacts, String>>) {
    let (mut block_s, mut merge_s, mut merged) = (Vec::new(), Vec::new(), Vec::new());
    let mut id = 0u64;
    for spec in specs {
        let blocks = total_blocks(spec);
        let mut partials = Vec::with_capacity(blocks as usize);
        for b in 0..blocks {
            let t = Instant::now();
            let partial = match tracer.as_deref_mut() {
                Some(tr) => {
                    let root = tr.begin(id, "bench.op", None);
                    let p = tr.span(id, "faultsim.run_block_range", Some(root), || {
                        run_block_range(spec, b, b + 1)
                    });
                    tr.end(root);
                    p
                }
                None => run_block_range(spec, b, b + 1),
            };
            block_s.push(t.elapsed().as_secs_f64());
            partials.push(partial);
            id += 1;
        }
        let t = Instant::now();
        merged.push(match tracer.as_deref_mut() {
            Some(tr) => tr.span(id, "faultsim.merge_partials", None, || {
                merge_partials(spec, &partials)
            }),
            None => merge_partials(spec, &partials),
        });
        merge_s.push(t.elapsed().as_secs_f64());
    }
    (block_s, merge_s, merged)
}

/// The traced block pass, after an untraced one for the tracing
/// overhead: spans per block and per merge, whose bytes must equal
/// `run_spec`'s. Returns the untraced and traced seconds.
fn traced_blocks(
    report: &mut Report,
    tracer: &mut Tracer,
    specs: &[JobSpec],
    expected: &[Artifacts],
) -> (f64, f64) {
    let (plain_blocks, plain_merges, _) = run_blocks(specs, None);
    let plain_s = plain_blocks.iter().chain(&plain_merges).sum::<f64>();
    let (block_s, merge_s, merged) = run_blocks(specs, Some(tracer));
    for (job, (got, want)) in merged.iter().zip(expected).enumerate() {
        report.check(got.as_ref() == Ok(want), || {
            format!("job {job}: run_block_range + merge_partials bytes differ from run_spec's")
        });
    }
    let block_ms = sorted(block_s.iter().map(|s| s * 1e3).collect());
    let n = block_ms.len() as u64;
    report.metric("faultsim.block_ms_p50", percentile(&block_ms, 50.0), n);
    report.metric("faultsim.block_ms_p99", percentile(&block_ms, 99.0), n);
    report.metric(
        "faultsim.merge_ms",
        merge_s.iter().sum::<f64>() * 1e3 / merge_s.len() as f64,
        merge_s.len() as u64,
    );
    (plain_s, block_s.iter().chain(&merge_s).sum::<f64>())
}

/// `compare_udr`: eight 8192-iteration compare jobs at FIT 1500.
pub fn run_compare(args: &Args, report: &mut Report) {
    let bodies = compare_bodies(args.seed);
    if !args.trace {
        return run_jobs(args, report, &bodies, "compare");
    }
    let specs: Vec<JobSpec> = bodies.iter().map(|b| parse(b, "compare")).collect();
    let expected = reference(report, &specs, "compare");
    let mut tracer = Tracer::new();
    let (plain_s, traced_s) = traced_blocks(report, &mut tracer, &specs, &expected);
    let faults: u64 = expected
        .iter()
        .map(|o| summary(&o.0, "iterations_with_faults"))
        .sum();
    let iterations = COMPARE_JOBS * COMPARE_ITERATIONS;
    report.pin("iterations_with_faults", faults.to_string());
    report.metric("faultsim.iterations_with_faults", faults as f64, iterations);
    report.attempted += 2 * iterations;
    crate::kernels::report(report, &crate::kernels::measure());
    crate::span::report(
        report,
        &tracer,
        "compare_udr",
        iterations,
        plain_s,
        traced_s,
    );
}

/// The crashck harness's controller shape: 256 KiB, an 8 KiB 4-way
/// metadata cache and a 16-entry WPQ.
fn crashck_controller(update: TreeUpdate, policy: CloningPolicy) -> SecureMemoryController {
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 18)
        .metadata_cache(8 * 1024, 4)
        .wpq_entries(16)
        .cloning(policy)
        .tree_update(update)
        .build()
        .expect("crashck-shaped configuration is valid");
    SecureMemoryController::new(config)
}

/// Median µs of `SecureMemoryController::new` and of `recover` after a
/// crashck-sized script, on the crashck controller shape.
pub fn controller_costs(report: &mut Report, seed: u64) {
    let config = CrashckConfig::default();
    let script = gen_script(seed, config.max_txns, config.max_writes, 4096);
    let (mut new_us, mut recover_us) = (Vec::new(), Vec::new());
    for _ in 0..CONTROLLER_SAMPLES {
        let t = Instant::now();
        let mut ctl = crashck_controller(TreeUpdate::Lazy, CloningPolicy::Aggressive);
        new_us.push(t.elapsed().as_secs_f64() * 1e6);
        for tx in &script {
            let mut staged = ctl.transaction();
            for &(line, fill) in &tx.writes {
                staged.write(DataAddr::new(line), &[fill; 64]);
            }
            if staged.commit().is_err() {
                report.failed += 1;
            }
        }
        let image = ctl.crash();
        let t = Instant::now();
        let (_, _report) = recover(image);
        recover_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let n = CONTROLLER_SAMPLES as u64;
    report.metric("core.controller_new_us", median(&new_us), n);
    report.metric("core.recover_us", median(&recover_us), n);
}

/// `crashck_sweep`: eight runs of the 18-cell crashck matrix, one script
/// per cell each.
pub fn run_crashck(args: &Args, report: &mut Report) {
    let bodies = crashck_bodies(args.seed);
    if !args.trace {
        return run_jobs(args, report, &bodies, "crashck");
    }
    let specs: Vec<JobSpec> = bodies.iter().map(|b| parse(b, "crashck")).collect();
    let expected = reference(report, &specs, "crashck");

    // One span per (cell, script) through the public `sweep_cell`, with
    // the cells and seeds the jobs themselves reported.
    let mut tracer = Tracer::new();
    let mut points = 0u64;
    let mut id = 0u64;
    for (spec, out) in specs.iter().zip(&expected) {
        let JobSpec::Crashck(config) = spec else {
            unreachable!("parsed as crashck")
        };
        let result = Json::parse(&out.0).expect("crashck result is JSON");
        let sweeps = result.get("sweeps").and_then(Json::as_array).unwrap_or(&[]);
        for sweep in sweeps {
            let field = |k: &str| {
                sweep
                    .get(k)
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            let policy = POLICIES
                .into_iter()
                .find(|p| p.name() == field("cloning"))
                .expect("crashck reports a matrix policy");
            let seed = u64::from_str_radix(field("seed").trim_start_matches("0x"), 16)
                .expect("crashck reports hex seeds");
            let want = sweep.get("points").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let root = tracer.begin(id, "bench.op", None);
            let (got, divergence) = tracer.span(id, "crashck.sweep_cell", Some(root), || {
                sweep_cell(
                    &field("tree_update"),
                    &policy,
                    &field("recovery"),
                    seed,
                    config.max_txns,
                    config.max_writes,
                )
            });
            tracer.end(root);
            points += got;
            report.check(got == want && divergence.is_none(), || {
                format!(
                    "sweep_cell {id} checked {got} points (job: {want}), divergence {divergence:?}"
                )
            });
            id += 1;
        }
    }
    report.attempted += 2 * points;
    report.pin("points", points.to_string());
    let sweep_ms = sorted(
        tracer
            .durations("crashck.sweep_cell")
            .iter()
            .map(|ns| ns / 1e6)
            .collect(),
    );
    report.metric(
        "crashck.sweep_ms",
        percentile(&sweep_ms, 50.0),
        sweep_ms.len() as u64,
    );
    let sweep_us: f64 = sweep_ms.iter().sum::<f64>() * 1e3;
    report.metric("crashck.point_us", sweep_us / points.max(1) as f64, points);
    report.metric("crashck.points", points as f64, 1);

    // The same units again as fleet blocks; unit i of the matrix is sweep
    // i, so both passes' spans of one unit share its op id.
    let (plain_s, traced_s) = traced_blocks(report, &mut tracer, &specs, &expected);
    controller_costs(report, args.seed);
    crate::kernels::report(report, &crate::kernels::measure());
    crate::span::report(report, &tracer, "crashck_sweep", points, plain_s, traced_s);
}

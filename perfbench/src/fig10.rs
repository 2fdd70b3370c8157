//! `fig10_timing`: the Fig. 10 suite (all 16 generators of
//! `standard_suite`) × {Baseline, SRC, SAC} through `simcpu::System::run`
//! in Timing fidelity, one run after another.
//!
//! Each run starts from a freshly built Table 3 system, so its caches
//! start empty, as in the repository's Fig. 10 binary. A run's simulated
//! statistics depend only on the seed; they are pinned at the default
//! seed and must repeat on every pass at any seed. Host time is measured
//! around `System::run`; building the systems and generators is set-up.

use std::time::Instant;

use soteria::CloningPolicy;
use soteria_simcpu::system::{RunResult, System, SystemConfig};
use soteria_workloads::{standard_suite, MemOp, SuiteConfig, Workload};

use crate::calib::{Calibration, Piece};
use crate::counts::{report_counts, Counts};
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::{Args, Report, DEFAULT_SEED};

const FOOTPRINT: u64 = 64 << 20;
const CAPACITY: u64 = 64 << 20;
const OPS_PER_RUN: u64 = 20_000;
/// Simulated ops per host-latency window of the untraced pass.
const WINDOW: u64 = 64;
/// One generator span is recorded per this many ops in the traced pass.
const SPAN_EVERY: u64 = 16;
/// The seed of the repository's Fig. 10 binary, used at the default seed.
const FIG10_SEED: u64 = 0xda7a;

const SCHEMES: [CloningPolicy; 3] = [
    CloningPolicy::None,
    CloningPolicy::Relaxed,
    CloningPolicy::Aggressive,
];

fn suite_config(seed: u64) -> SuiteConfig {
    SuiteConfig {
        footprint_bytes: FOOTPRINT,
        seed: FIG10_SEED ^ seed.wrapping_sub(DEFAULT_SEED),
    }
}

/// A run's key (`workload/scheme`) and the simulated statistics that
/// must repeat exactly.
fn fingerprint(r: &RunResult) -> (String, String) {
    let stats = format!(
        "cycles={} nvm_reads={} nvm_writes={} evictions={:?} md_miss={:#x}",
        r.cycles,
        r.nvm_reads,
        r.nvm_writes,
        r.evictions_by_level,
        r.metadata_miss_ratio.to_bits()
    );
    (format!("{}/{}", r.workload, r.scheme), stats)
}

/// A generator wrapper that times the host between windows of ops.
struct Windowed<'a> {
    inner: &'a mut dyn Workload,
    ops: u64,
    window_start: Instant,
    windows: &'a mut Vec<f64>,
}

impl Workload for Windowed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }
    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
    fn next_op(&mut self) -> MemOp {
        if self.ops.is_multiple_of(WINDOW) {
            let now = Instant::now();
            if self.ops > 0 {
                let ns = (now - self.window_start).as_nanos() as f64;
                self.windows.push(ns / WINDOW as f64);
            }
            self.window_start = now;
        }
        self.ops += 1;
        self.inner.next_op()
    }
}

/// A generator wrapper that records a span around every
/// [`SPAN_EVERY`]-th `next_op` call.
struct Spanned<'a> {
    inner: &'a mut dyn Workload,
    ops: u64,
    tracer: &'a mut Tracer,
    run: u64,
    parent: usize,
}

impl Workload for Spanned<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn is_persistent(&self) -> bool {
        self.inner.is_persistent()
    }
    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
    fn next_op(&mut self) -> MemOp {
        self.ops += 1;
        if self.ops.is_multiple_of(SPAN_EVERY) {
            let inner = &mut *self.inner;
            self.tracer
                .span(self.run, "workloads.next_op", Some(self.parent), || {
                    inner.next_op()
                })
        } else {
            self.inner.next_op()
        }
    }
}

/// One (generator, scheme) run of a pass, built but not yet run.
fn build(config: &SuiteConfig, run: usize) -> (Box<dyn Workload>, System) {
    let generator = standard_suite(config).swap_remove(run / SCHEMES.len());
    let scheme = SCHEMES[run % SCHEMES.len()].clone();
    let system = System::new(SystemConfig::table3(scheme, CAPACITY));
    (generator, system)
}

const RUNS: usize = 16 * SCHEMES.len();
/// Passes per run at most (their buffers are allocated up front, so peak
/// memory does not depend on run length).
const MAX_PASSES: usize = 512;

/// Sums the exact work counts of finished runs.
#[derive(Default)]
struct Totals {
    ops: u64,
    cycles: u64,
    llc_hits: u64,
    llc_misses: u64,
    counts: Counts,
}

impl Totals {
    fn add(&mut self, r: &RunResult, system: &System) {
        self.ops += r.ops;
        self.cycles += r.cycles;
        self.llc_hits += r.llc.hits;
        self.llc_misses += r.llc.misses;
        self.counts = self.counts.plus(Counts::of(system.controller()));
    }
}

/// Checks a pass's fingerprints against the first pass (and, at the
/// default seed, against the pins).
fn check_pass(report: &mut Report, first: &mut Vec<String>, got: Vec<(String, String)>) {
    if first.is_empty() {
        for (key, fp) in &got {
            report.pin(key, fp.clone());
        }
        *first = got.into_iter().map(|(_, fp)| fp).collect();
        return;
    }
    for ((key, fp), want) in got.iter().zip(first.iter()) {
        report.check(fp == want, || {
            format!("{key} did not repeat: {fp} vs {want}")
        });
    }
}

/// Runs the workload: end-to-end metrics, or per-layer with `--trace 1`.
pub fn run(args: &Args, report: &mut Report) {
    if args.trace {
        return run_traced(args, report);
    }
    let config = suite_config(args.seed);
    let mut cal = Calibration::new();
    let mut setup_s = Vec::with_capacity(MAX_PASSES);
    // Normalised host seconds of each run index on every pass, and each
    // pass's normalised window p50/p99.
    let mut run_s: Vec<Vec<Piece>> = (0..RUNS).map(|_| Vec::with_capacity(MAX_PASSES)).collect();
    let (mut p50s, mut p99s) = (
        Vec::with_capacity(MAX_PASSES),
        Vec::with_capacity(MAX_PASSES),
    );
    let mut windows = Vec::with_capacity((RUNS as u64 * OPS_PER_RUN / WINDOW) as usize);
    let mut first = Vec::new();
    let mut ops_per_pass = 0;
    let start = cal.now();
    while setup_s.is_empty() || (cal.now() - start < args.seconds && setup_s.len() < MAX_PASSES) {
        let mut pass_setup = 0.0;
        let mut got = Vec::with_capacity(RUNS);
        windows.clear();
        ops_per_pass = 0;
        let pass_from = cal.now();
        for (run, times) in run_s.iter_mut().enumerate() {
            let ((mut generator, mut system), secs) = cal.piece(|| build(&config, run));
            pass_setup += secs;
            let mut timed = Windowed {
                inner: generator.as_mut(),
                ops: 0,
                window_start: Instant::now(),
                windows: &mut windows,
            };
            let from = cal.now();
            let result = system.run(&mut timed, OPS_PER_RUN);
            let to = cal.now();
            times.push((to - from, from, to));
            ops_per_pass += result.ops;
            got.push(fingerprint(&result));
            cal.tick();
        }
        let factor = cal.normalise(1.0, pass_from, cal.now());
        setup_s.push(pass_setup);
        check_pass(report, &mut first, got);
        windows.sort_by(f64::total_cmp);
        p50s.push(percentile(&windows, 50.0) * factor);
        p99s.push(percentile(&windows, 99.0) * factor);
    }
    let passes = setup_s.len() as u64;
    report.attempted += passes * ops_per_pass;
    // Each run's median normalised time; the suite's time is their sum.
    let pass_s: f64 = run_s
        .iter()
        .map(|t| {
            median(
                &t.iter()
                    .map(|&(s, from, to)| cal.normalise(s, from, to))
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    report.metric("setup_s", median(&setup_s), passes);
    report.metric(
        "ops_per_s",
        ops_per_pass as f64 / pass_s,
        passes * RUNS as u64,
    );
    report.metric("op_p50_ns", median(&p50s), passes);
    println!(
        "{:>14} 64-op window p99 {:.0} ns per op; calibration loop median {:.1} us",
        "fig10_timing",
        median(&p99s),
        cal.median_us()
    );
}

/// One untraced and one traced pass over the same runs.
fn run_traced(args: &Args, report: &mut Report) {
    let config = suite_config(args.seed);
    // Two untraced passes; the first warms caches and the allocator, the
    // second is the reference the traced pass is compared with.
    let mut plain = Vec::with_capacity(RUNS);
    let mut plain_s = 0.0;
    for _ in 0..2 {
        plain.clear();
        plain_s = 0.0;
        for run in 0..RUNS {
            let (mut generator, mut system) = build(&config, run);
            let t = Instant::now();
            let result = system.run(generator.as_mut(), OPS_PER_RUN);
            plain_s += t.elapsed().as_secs_f64();
            plain.push(fingerprint(&result));
        }
    }
    let mut first = Vec::new();
    check_pass(report, &mut first, plain);

    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let mut traced = Vec::with_capacity(RUNS);
    let mut traced_s = 0.0;
    for run in 0..RUNS {
        let id = run as u64;
        let root = tracer.begin(id, "bench.op", None);
        let (mut generator, mut system) =
            tracer.span(id, "simcpu.system_new", Some(root), || build(&config, run));
        let span = tracer.begin(id, "simcpu.run", Some(root));
        let mut spanned = Spanned {
            inner: generator.as_mut(),
            ops: 0,
            tracer: &mut tracer,
            run: id,
            parent: span,
        };
        let t = Instant::now();
        let result = system.run(&mut spanned, OPS_PER_RUN);
        traced_s += t.elapsed().as_secs_f64();
        tracer.end(span);
        tracer.end(root);
        totals.add(&result, &system);
        traced.push(fingerprint(&result));
    }
    report.attempted += 2 * totals.ops;
    check_pass(report, &mut first, traced);
    for (key, value) in totals.counts.pinned() {
        report.pin(key, value.to_string());
    }

    let ops = totals.ops;
    // Generator spans are sampled, so the generator's share of a run is
    // its mean span times the run's ops.
    let gen = tracer.durations("workloads.next_op");
    let gen_mean = gen.iter().sum::<f64>() / gen.len().max(1) as f64;
    let run_ns: f64 = tracer.durations("simcpu.run").iter().sum();
    let run_self = run_ns - gen_mean * ops as f64;
    report.metric("simcpu.run_self_ns_per_op", run_self / ops as f64, ops);
    report.metric(
        "simcpu.llc_miss_ratio",
        ratio(
            totals.llc_misses as f64,
            (totals.llc_hits + totals.llc_misses) as f64,
        ),
        totals.llc_hits + totals.llc_misses,
    );
    report.metric(
        "simcpu.sim_cycles_per_op",
        totals.cycles as f64 / ops as f64,
        ops,
    );
    report_counts(report, &totals.counts, ops);
    crate::kernels::report(report, &crate::kernels::measure());
    crate::span::report(report, &tracer, "fig10_timing", ops, plain_s, traced_s);
}

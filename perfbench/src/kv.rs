//! `kv_functional`: the PMEMKV-like generator replayed op by op on a
//! Functional-fidelity controller with SAC cloning.
//!
//! The controller protects 4 MiB with a 16 KiB metadata cache, so the
//! security metadata (64 KiB of counter blocks plus the tree above them)
//! is over four times the cache and the cache misses in steady state.
//! Set-up is the load phase of a KV store: build the controller, write
//! every data line once, then replay a warm-up stretch of the generator.
//! After the load phase every read hits a written line, which is what
//! makes the crypto and ECC work counts below exact.
//!
//! The timed and traced passes run Eager tree updates, on which no op
//! fails. The registry's SAC scheme runs Lazy ones, and fault-free runs
//! of this shape fail under Lazy (the README's "Known defect"), so every
//! run also replays a fixed stretch on the registry's SAC configuration,
//! untimed, as a probe of that defect: it prints how many calls failed,
//! pins that count at the default seed and reports it in the traced
//! pass. That replay is also the one that runs the Anubis shadow table
//! and dirty metadata writebacks; its work counts are pinned with the
//! others.

use std::time::Instant;

use soteria::policy::Sac;
use soteria::{
    CloningPolicy, DataAddr, Fidelity, ProtectionPolicy, SecureMemoryConfig,
    SecureMemoryController, TreeUpdate,
};
use soteria_workloads::{MemOp, OpKind, Pmemkv, Splitmix, Workload};

use crate::calib::Calibration;
use crate::counts::{report_counts, Counts};
use crate::kernels::KernelCosts;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio, sorted};
use crate::{Args, Report};

const CAPACITY: u64 = 4 << 20;
const CACHE_BYTES: u64 = 16 << 10;
const CACHE_WAYS: usize = 8;
/// The builder's default write-pending queue depth.
const WPQ_ENTRIES: usize = 8;
/// Warm-up ops of the load phase (a multiple of [`CHUNK_OPS`]).
const WARMUP_OPS: u64 = 20_480;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops per timed chunk of the untraced pass.
const CHUNK_OPS: usize = 4096;
/// Chunks per run at most (their buffer is allocated up front, so peak
/// memory does not depend on run length).
const MAX_CHUNKS: usize = 16_384;
/// Ops in each fixed pass of a traced run.
const TRACED_OPS: u64 = 40_000;
/// Lines of one page re-encrypted on a minor-counter overflow.
const LINES_PER_PAGE: u64 = 64;
/// Ops of the replay on the registry's SAC configuration, after its load
/// phase. At seeds 1-3 and 51-52 the first failure comes between op 5 655
/// and op 67 951 of the replay (warm-up included).
const SAC_OPS: u64 = 200_000;

/// The timed configuration: SAC cloning with Eager tree updates.
fn eager_config() -> SecureMemoryConfig {
    SecureMemoryConfig::builder()
        .capacity_bytes(CAPACITY)
        .metadata_cache(CACHE_BYTES, CACHE_WAYS)
        .wpq_entries(WPQ_ENTRIES)
        .cloning(CloningPolicy::Aggressive)
        .tree_update(TreeUpdate::Eager)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("benchmark controller configuration is valid")
}

/// The plaintext of `line` after its `version`-th write.
fn fill(line: u64, version: u32) -> [u8; 64] {
    let mut rng = Splitmix::new(line << 32 | u64::from(version));
    let mut out = [0u8; 64];
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Work done by the calls of one class (reads or writes), for the
/// crypto/ECC time model.
#[derive(Default)]
struct ClassWork {
    calls: u64,
    ns: u64,
    device_reads: u64,
    device_writes: u64,
    reencryptions: u64,
}

impl ClassWork {
    /// One CTR line and one data MAC per call (the line's encryption or
    /// decryption and its tag or verification), plus two of each for
    /// every line of a re-encrypted page (old-pad strip and verify, new
    /// pad and tag).
    fn ctr_lines(&self) -> u64 {
        self.calls + 2 * LINES_PER_PAGE * self.reencryptions
    }

    fn data_macs(&self) -> u64 {
        self.ctr_lines()
    }

    fn crypto_ns(&self, k: &KernelCosts) -> f64 {
        self.ctr_lines() as f64 * k.ctr_line_ns + self.data_macs() as f64 * k.data_mac_ns
    }

    /// One chipkill encode per device write, one decode per device read.
    fn ecc_ns(&self, k: &KernelCosts) -> f64 {
        self.device_writes as f64 * k.ecc_encode_ns
            + self.device_reads as f64 * k.ecc_decode_clean_ns
    }
}

struct Kv {
    ctl: SecureMemoryController,
    gen: Pmemkv,
    /// Per line, the version of its last successful write.
    versions: Vec<u32>,
    /// Per line, the version of its last attempted write. A write that
    /// returned an error may or may not have landed, so until the next
    /// successful write a read may return the last successful version or
    /// any failed one after it.
    attempted: Vec<u32>,
    lines: u64,
    failed: u64,
    mismatched: u64,
    first_mismatch: Option<String>,
}

impl Kv {
    /// The load phase: controller, one write per data line, warm-up.
    /// Returns the set-up and its seconds at the reference host speed,
    /// timed in pieces with the calibration loop sampled between them.
    fn setup(config: SecureMemoryConfig, seed: u64, cal: &mut Calibration) -> (Self, f64) {
        let (ctl, mut secs) = cal.piece(|| SecureMemoryController::new(config));
        let lines = ctl.layout().data_lines();
        let mut kv = Self {
            ctl,
            gen: Pmemkv::new(CAPACITY, seed),
            versions: vec![0; lines as usize],
            attempted: vec![0; lines as usize],
            lines,
            failed: 0,
            mismatched: 0,
            first_mismatch: None,
        };
        for first in (0..lines).step_by(CHUNK_OPS) {
            let ((), s) = cal.piece(|| {
                for line in first..(first + CHUNK_OPS as u64).min(lines) {
                    if kv.ctl.write(DataAddr::new(line), &fill(line, 0)).is_err() {
                        kv.failed += 1;
                    }
                }
            });
            secs += s;
        }
        for _ in 0..WARMUP_OPS / CHUNK_OPS as u64 {
            secs += cal.piece(|| kv.replay(CHUNK_OPS as u64)).1;
        }
        (kv, secs)
    }

    /// Issues `op` to the controller and checks a read against the
    /// model. `call` receives the controller and the call itself, so the
    /// caller decides how the call is measured.
    fn issue(
        &mut self,
        op: MemOp,
        call: impl FnOnce(&mut SecureMemoryController, &mut dyn FnMut(&mut SecureMemoryController)),
    ) {
        let line = (op.addr / 64) % self.lines;
        let addr = DataAddr::new(line);
        match op.kind {
            OpKind::Read => {
                let mut result = None;
                call(&mut self.ctl, &mut |ctl| result = Some(ctl.read(addr)));
                match result.expect("the read was issued") {
                    Ok(got) => {
                        let (done, tried) =
                            (self.versions[line as usize], self.attempted[line as usize]);
                        if !(done..=tried).any(|v| got == fill(line, v)) {
                            self.mismatched += 1;
                            self.first_mismatch.get_or_insert_with(|| {
                                format!("read of line {line} returned stale or corrupt data")
                            });
                        }
                    }
                    Err(_) => self.failed += 1,
                }
            }
            OpKind::Write => {
                let version = self.attempted[line as usize] + 1;
                self.attempted[line as usize] = version;
                let data = fill(line, version);
                let mut result = None;
                call(&mut self.ctl, &mut |ctl| {
                    result = Some(ctl.write(addr, &data))
                });
                match result.expect("the write was issued") {
                    Ok(()) => self.versions[line as usize] = version,
                    Err(_) => self.failed += 1,
                }
            }
        }
    }

    /// Replays `ops` generator ops without measuring them.
    fn replay(&mut self, ops: u64) {
        for _ in 0..ops {
            let op = self.gen.next_op();
            self.issue(op, |ctl, f| f(ctl));
        }
    }

    /// Checks that no read disagreed with the model and returns the
    /// number of calls that returned an error.
    fn settle(self, report: &mut Report) -> u64 {
        let mismatched = self.mismatched;
        report.check(mismatched == 0, || {
            format!(
                "{mismatched} reads disagreed with the last write: {}",
                self.first_mismatch.unwrap_or_default()
            )
        });
        self.failed
    }
}

/// The untimed replay on the registry's SAC configuration (Lazy tree
/// updates): load phase, warm-up and [`SAC_OPS`] more ops, as a probe of
/// the known defect. Reads are checked against the model like everywhere
/// else. Its calls are not the workload's ops, so they count in neither
/// `attempted` nor `failed`: their errors are fixed per seed, and against
/// a timed pass's op count they would give a failure ratio that moves
/// with host speed. The errors are printed on every run, pinned with the
/// replay's work counts at the default seed, and returned for the traced
/// pass to report.
fn sac_replay(seed: u64, report: &mut Report) -> u64 {
    let config = Sac
        .build_config(CAPACITY, CACHE_BYTES, CACHE_WAYS, WPQ_ENTRIES)
        .expect("benchmark controller configuration is valid");
    let mut kv = Kv::setup(config, seed, &mut Calibration::new()).0;
    kv.replay(SAC_OPS);
    let calls = kv.lines + WARMUP_OPS + SAC_OPS;
    let c = Counts::of(&kv.ctl);
    let failed = kv.settle(report);
    println!(
        "{:>14} KNOWN DEFECT probe, SAC (Lazy) replay: {failed} of {calls} controller \
         calls failed; {} shadow writes, {} dirty metadata evictions",
        "kv_functional", c.shadow_writes, c.md_dirty_evictions
    );
    report.pin("sac.failed", failed.to_string());
    report.pin("sac.shadow_writes", c.shadow_writes.to_string());
    report.pin("sac.evictions", c.evictions.to_string());
    report.pin(
        "sac.mdcache_dirty_evictions",
        c.md_dirty_evictions.to_string(),
    );
    report.pin("sac.device_writes", c.device_writes.to_string());
    failed
}

/// Runs the workload: end-to-end metrics, or per-layer with `--trace 1`.
pub fn run(args: &Args, report: &mut Report) {
    let sac_failed = sac_replay(args.seed, report);
    if args.trace {
        report.metric("core.sac_lazy_failed_calls", sac_failed as f64, 1);
        return run_traced(args, report);
    }
    let mut cal = Calibration::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kv = None;
    for _ in 0..SETUPS {
        drop(kv.take());
        let (built, secs) = Kv::setup(eager_config(), args.seed, &mut cal);
        kv = Some(built);
        setup_s.push(secs);
    }
    let mut kv = kv.expect("at least one set-up");
    report.metric("setup_s", median(&setup_s), SETUPS as u64);

    // Per chunk of CHUNK_OPS ops: its interval, then p50/p99 of all
    // calls, of reads and of writes. Buffers are reused, so memory stays
    // flat however many ops a run gets through.
    let mut chunks: Vec<(f64, f64, [f64; 6])> = Vec::with_capacity(MAX_CHUNKS);
    let mut lat = [(); 3].map(|()| Vec::with_capacity(CHUNK_OPS));
    let start = cal.now();
    while chunks.is_empty() || (cal.now() - start < args.seconds && chunks.len() < MAX_CHUNKS) {
        lat.iter_mut().for_each(Vec::clear);
        let from = cal.now();
        for _ in 0..CHUNK_OPS {
            let op = kv.gen.next_op();
            let mut ns = 0.0;
            kv.issue(op, |ctl, f| {
                let t = Instant::now();
                f(ctl);
                ns = t.elapsed().as_nanos() as f64;
            });
            lat[0].push(ns);
            lat[if op.kind == OpKind::Read { 1 } else { 2 }].push(ns);
        }
        let to = cal.now();
        let mut stats = [0.0; 6];
        for (i, l) in lat.iter_mut().enumerate() {
            l.sort_by(f64::total_cmp);
            stats[2 * i] = percentile(l, 50.0);
            stats[2 * i + 1] = percentile(l, 99.0);
        }
        chunks.push((from, to, stats));
        cal.tick();
    }
    let ops = (chunks.len() * CHUNK_OPS) as u64;
    report.attempted += ops;
    report.failed += kv.settle(report);
    // Host-speed factor of each chunk, then medians over the chunks.
    let factors: Vec<f64> = chunks
        .iter()
        .map(|c| cal.normalise(1.0, c.0, c.1))
        .collect();
    let throughput: Vec<f64> = chunks
        .iter()
        .zip(&factors)
        .map(|(c, f)| CHUNK_OPS as f64 / ((c.1 - c.0) * f))
        .collect();
    let stat = |i: usize| {
        median(
            &chunks
                .iter()
                .zip(&factors)
                .map(|(c, f)| c.2[i] * f)
                .collect::<Vec<_>>(),
        )
    };
    let n = chunks.len() as u64;
    report.metric("ops_per_s", median(&throughput), n);
    report.metric("op_p50_ns", stat(0), n);
    for (class, i) in [("all", 0), ("read", 2), ("write", 4)] {
        println!(
            "{:>14} {class:<5} p50 {:.0} ns  p99 {:.0} ns  ({n} chunks of {CHUNK_OPS} ops)",
            "kv_functional",
            stat(i),
            stat(i + 1),
        );
    }
    println!(
        "{:>14} raw whole-run mean {:.0} op/s over {ops} ops; calibration loop median {:.1} us",
        "kv_functional",
        ops as f64 / (cal.now() - start),
        cal.median_us()
    );
}

/// Device reads, device writes and page re-encryptions so far.
fn class_counters(ctl: &SecureMemoryController) -> [u64; 3] {
    let dev = ctl.device().stats();
    [dev.reads, dev.writes, ctl.stats().page_reencryptions]
}

/// Two identical fixed passes from identical state, untraced then
/// traced: the first gives the tracing overhead and a cross-check of the
/// work counts, the second the spans and the per-class work.
fn run_traced(args: &Args, report: &mut Report) {
    let kernels = crate::kernels::measure();

    let mut cal = Calibration::new();
    let mut plain = Kv::setup(eager_config(), args.seed, &mut cal).0;
    let base = Counts::of(&plain.ctl);
    let start = Instant::now();
    plain.replay(TRACED_OPS);
    let plain_s = start.elapsed().as_secs_f64();
    let plain_counts = Counts::of(&plain.ctl).since(base);
    report.failed += plain.settle(report);

    let mut kv = Kv::setup(eager_config(), args.seed, &mut cal).0;
    let base = Counts::of(&kv.ctl);
    let mut tracer = Tracer::new();
    let mut work = [ClassWork::default(), ClassWork::default()];
    let start = Instant::now();
    for id in 0..TRACED_OPS {
        let root = tracer.begin(id, "bench.op", None);
        let op = tracer.span(id, "workloads.next_op", Some(root), || kv.gen.next_op());
        let (class, name) = match op.kind {
            OpKind::Read => (0, "core.read"),
            OpKind::Write => (1, "core.write"),
        };
        let tracer = &mut tracer;
        let w = &mut work[class];
        kv.issue(op, |ctl, f| {
            let before = class_counters(ctl);
            let span = tracer.begin(id, name, Some(root));
            f(ctl);
            tracer.end(span);
            let after = class_counters(ctl);
            w.calls += 1;
            w.device_reads += after[0] - before[0];
            w.device_writes += after[1] - before[1];
            w.reencryptions += after[2] - before[2];
        });
        tracer.end(root);
    }
    let traced_s = start.elapsed().as_secs_f64();
    let counts = Counts::of(&kv.ctl).since(base);
    report.failed += kv.settle(report);
    report.attempted += 2 * TRACED_OPS;
    report.check(counts == plain_counts, || {
        format!("traced pass did different work: {counts:?} vs untraced {plain_counts:?}")
    });
    for (key, value) in counts.pinned() {
        report.pin(key, value.to_string());
    }

    for (class, name) in [(0, "core.read"), (1, "core.write")] {
        let d = tracer.durations(name);
        work[class].ns = d.iter().sum::<f64>() as u64;
    }
    let ops = TRACED_OPS as f64;
    let n = TRACED_OPS;
    let [read, write] = &work;
    let total = ClassWork {
        calls: read.calls + write.calls,
        ns: read.ns + write.ns,
        device_reads: read.device_reads + write.device_reads,
        device_writes: read.device_writes + write.device_writes,
        reencryptions: read.reencryptions + write.reencryptions,
    };
    for (prefix, w) in [("", &total), ("read_", read), ("write_", write)] {
        let crypto = ratio(w.crypto_ns(&kernels), w.ns as f64);
        let ecc = ratio(w.ecc_ns(&kernels), w.ns as f64);
        report.metric(&format!("crypto.{prefix}modelled_share"), crypto, w.calls);
        report.metric(&format!("ecc.{prefix}modelled_share"), ecc, w.calls);
        report.metric(
            &format!("core.{prefix}unexplained_share"),
            1.0 - crypto - ecc,
            w.calls,
        );
    }
    report.metric("crypto.ctr_lines_per_op", total.ctr_lines() as f64 / ops, n);
    report.metric("crypto.data_macs_per_op", total.data_macs() as f64 / ops, n);
    report.metric("ecc.encodes_per_op", total.device_writes as f64 / ops, n);
    report.metric("ecc.decodes_per_op", total.device_reads as f64 / ops, n);
    for name in ["core.read", "core.write"] {
        let d = sorted(tracer.durations(name));
        report.metric(&format!("{name}_ns"), percentile(&d, 50.0), d.len() as u64);
        report.metric(
            &format!("{name}_p99_ns"),
            percentile(&d, 99.0),
            d.len() as u64,
        );
    }
    report_counts(report, &counts, n);
    crate::jobs::controller_costs(report, args.seed);
    crate::kernels::report(report, &kernels);
    crate::span::report(report, &tracer, "kv_functional", n, plain_s, traced_s);
}

//! `soteria` — the command-line face of the Soteria secure-NVM simulator.
//!
//! ```text
//! soteria info                          # configs (Tables 2/3/4), layout math
//! soteria perf --workload pmemkv --ops 200000 --scheme sac --cores 4
//! soteria campaign --fit 80 --iterations 100000 [--ecc secded] [--tree bmt] [--scrub_hours 24]
//! soteria compare --iterations 512 --trace_ops 2048 # every scheme: UDR + slowdown matrix
//! soteria rare --fit 80 --samples 3000  # importance-sampled clone UDR
//! soteria crash-demo --scheme src [--fault]
//! ```
//!
//! Job commands (`campaign`, `compare`, `crashck`, `submit`, `loadgen`,
//! `coordinate`) turn every `--key value` that is not one of their own
//! flags into field `key` of the job's JSON body, and validate that body
//! with the job's strict parser (`JobSpec::from_kind`) before anything
//! runs or is sent — the same parser the service and the fleet use.

mod args;

use std::process::ExitCode;

use args::Args;
use soteria::analysis::ExpectedLossModel;
use soteria::clone::CloningPolicy;
use soteria::recovery::recover;
use soteria::{DataAddr, SecureMemoryConfig, SecureMemoryController};
use soteria_faultsim::{
    cluster_mtbf_hours, estimate_clone_udr, run_spec, sweep_cell, CampaignConfig, JobSpec,
    STANDARD_POLICIES,
};
use soteria_rt::json::Json;
use soteria_svc::http::ReadLimits;
use soteria_svc::{
    client, fleet, submit_burst, Coordinator, FleetConfig, LoadReport, Server, ServerConfig,
};
use soteria_simcpu::{System, SystemConfig};
use soteria_workloads::{standard_suite, SuiteConfig, Workload};

/// Every subcommand with its one-line description — the single source
/// behind `help`, `--help`, and the unknown-command listing. The
/// dispatcher in [`run`] must have an arm per entry (a unit test cross
/// checks the usage text against this table).
const COMMANDS: &[(&str, &str)] = &[
    ("info", "print configurations and layout math"),
    ("perf", "run a workload through the simulated system"),
    ("campaign", "Monte Carlo fault campaign (FaultSim-style)"),
    ("compare", "sweep every protection scheme: UDR + slowdown matrix"),
    ("rare", "rare-event clone-UDR estimate"),
    ("record", "capture a workload's memory trace to a file"),
    ("crash-demo", "write, crash, optionally break metadata, recover"),
    ("crashck", "exhaustive crash-point consistency sweep (WPQ/ADR)"),
    ("trace-validate", "check an NDJSON trace for shape & ordering"),
    ("serve", "run the campaign service (HTTP API over a job queue)"),
    ("submit", "send a campaign to a server and fetch its artifacts"),
    ("http", "one-shot HTTP request against a running server"),
    ("loadgen", "concurrent submission burst to exercise backpressure"),
    ("coordinate", "shard a job across fleet workers, merge identical bytes"),
    ("worker", "serve jobs and register with a fleet coordinator"),
    ("help", "show this command listing"),
];

/// The flags each command reads itself, declared once and checked before
/// the command does anything: its `--key value` options, its bare
/// switches, and — for a job command — the job kind (`--kind` overrides
/// it where the command reads that option). A job command turns every
/// other `--key value` into a field of the job's JSON body; for
/// `campaign`, `compare` and `crashck` the first two options name the
/// result and NDJSON artifact paths. A command absent here takes no flag.
const FLAGS: &[(&str, &str, &str, Option<&str>)] = &[
    ("perf", "workload ops scheme cores trace", "metrics", None),
    ("campaign", "json trace", "", Some("campaign")),
    ("compare", "json ndjson", "", Some("compare")),
    ("rare", "fit samples", "", None),
    ("record", "workload ops out", "", None),
    ("crash-demo", "scheme trace", "fault", None),
    ("crashck", "json ndjson", "", Some("crashck")),
    ("trace-validate", "file", "", None),
    (
        "serve",
        "addr workers queue max-body read-timeout-ms port-file",
        "",
        None,
    ),
    (
        "submit",
        "addr out trace-out poll-ms timeout-s",
        "",
        Some("campaign"),
    ),
    ("http", "addr method path body", "", None),
    ("loadgen", "addr clients targets", "", Some("campaign")),
    (
        "coordinate",
        "kind addr min-workers chunk register-timeout-s out ndjson port-file",
        "",
        Some("campaign"),
    ),
    (
        "worker",
        "coordinator advertise addr workers queue port-file",
        "",
        None,
    ),
];

/// The `COMMANDS:` block shown by help and after an unknown command.
fn command_listing() -> String {
    let mut out = String::from("COMMANDS:\n");
    for (name, one_liner) in COMMANDS {
        out.push_str(&format!("  {name:<15}{one_liner}\n"));
    }
    out
}

const OPTION_DETAILS: &str = "\
OPTIONS (by command; a flag a command does not read is an error):
  perf
      --workload NAME          suite workload (default sps; try `soteria info`)
      --ops N                  memory operations per core (default 100000)
      --scheme S               baseline | src | sac (default src)
      --cores N                co-running copies (default 1)
      --trace PATH             replay a recorded trace instead of a workload
      --metrics                print a controller metrics snapshot
  campaign                     (job fields: --key value is field `key` of the
                                POST /v1/campaigns JSON body)
      --fit F                  FIT per chip (default 80)
      --iterations N           iterations (default 10000, at most 10^7)
      --ecc E                  secded | chipkill | double (default chipkill)
      --tree T                 toc | bmt (default toc)
      --scrub_hours H          patrol-scrub interval (default: off)
      --seed S                 RNG seed, decimal or 0x-hex (default Table 4)
      --threads N              worker threads (result & trace are identical
                               for any N; default: all cores)
      --capacity_bytes BYTES   protected capacity (default 16 GiB)
      --json PATH              write results + metrics snapshot as JSON
      --trace PATH             write the deterministic NDJSON event trace
  compare                      (job fields: the POST /v1/compare body)
      --fit F                  FIT per chip (default 1500)
      --iterations N           Monte Carlo iterations (default 512, at most
                               10^6)
      --seed S                 RNG seed, decimal or 0x-hex
      --threads N              worker threads (artifacts are byte-identical
                               for any N; default 1)
      --capacity_bytes BYTES   protected capacity (default 64 MiB, at most
                               1 GiB)
      --trace_ops N            slowdown-trace operations (default 2048)
      --json PATH              write the soteria-compare/v1 matrix
      --ndjson PATH            write per-iteration UDR + per-scheme records
  rare
      --fit F                  FIT per chip (default 80)
      --samples N              samples per conditioned k (default 3000)
  record
      --workload NAME          suite workload (default sps)
      --ops N                  operations to record (default 100000)
      --out PATH               output file (default workload.trace)
  crash-demo
      --scheme S               baseline | src | sac (default src)
      --fault                  inject a 2-chip fault into a counter block
      --trace PATH             write the controller/recovery event trace
  crashck                      (job fields: the POST /v1/crashck body)
      --seed S                 script-stream seed, decimal or 0x-hex
      --scripts_per_cell N     transaction scripts per matrix cell (default
                               2, at most 64)
      --max_txns N             max transactions per script (default 6, at
                               most 16)
      --max_writes N           max writes per transaction (default 3, at
                               most 8)
      --threads N              worker threads (report is byte-identical
                               for any N; default: all cores)
      --json PATH              write the soteria-crashck/v1 report
      --ndjson PATH            write one NDJSON record per sweep
  trace-validate
      --file PATH              trace file to validate
  serve
      --addr A                 listen address (default 127.0.0.1:7787; port 0
                               picks an ephemeral port)
      --workers N              campaign worker threads (default 2)
      --queue N                queued-job capacity before 429 (default 8)
      --max-body BYTES         request body limit (default 1048576)
      --read-timeout-ms N      per-connection read timeout (default 5000)
      --port-file PATH         write the bound address for scripts
  submit                       (plus the campaign job fields; unset ones
                                take the same defaults as `campaign`)
      --addr A                 server address (default 127.0.0.1:7787)
      --out PATH               write the result JSON (default: stdout)
      --trace-out PATH         also fetch and write the NDJSON trace
      --poll-ms N              status poll interval (default 50)
      --timeout-s N            give up after this long (default 600)
  http
      --addr A                 server address (default 127.0.0.1:7787)
      --method M               request method (default GET)
      --path P                 request path (default /healthz)
      --body JSON              request body (sent as application/json)
  loadgen                      (plus the campaign job fields, as for submit)
      --addr A                 server address (default 127.0.0.1:7787)
      --clients N              concurrent submitters (default 16)
      --targets LIST           comma-separated host:port list; clients are
                               fanned out round-robin across the targets
                               (overrides --addr)
  coordinate                   (plus the job fields of --kind, as for the
                                campaign, compare or crashck command)
      --kind K                 campaign | compare | crashck (default campaign)
      --addr A                 control-plane listen address (default
                               127.0.0.1:7799; port 0 picks an ephemeral one)
      --min-workers N          registrations to wait for before sharding
                               (default 1)
      --chunk N                accumulation blocks per lease (default 4)
      --register-timeout-s N   how long to wait for the starting quorum
                               (default 30)
      --out PATH               write the merged result JSON (default: stdout)
      --ndjson PATH            write the merged NDJSON artifact
      --port-file PATH         write the bound control address for scripts
  worker
      --coordinator A          coordinator control-plane address (required)
      --advertise A            address the coordinator should dial back
                               (default: the bound listen address)
      --addr A                 listen address (default 127.0.0.1:0)
      --workers N              job worker threads (default 2)
      --queue N                queued-job capacity before 429 (default 8)
      --port-file PATH         write the bound address for scripts
";

fn usage() -> String {
    format!(
        "soteria — resilient integrity-protected & encrypted NVM simulator (MICRO'21 reproduction)\n\
         \nUSAGE: soteria <command> [--option value ...]\n\n{}\n{}",
        command_listing(),
        OPTION_DETAILS
    )
}

fn scheme_of(name: &str) -> Result<CloningPolicy, String> {
    match name {
        "baseline" | "none" => Ok(CloningPolicy::None),
        "src" | "relaxed" => Ok(CloningPolicy::Relaxed),
        "sac" | "aggressive" => Ok(CloningPolicy::Aggressive),
        other => Err(format!("unknown scheme '{other}' (baseline|src|sac)")),
    }
}

fn cmd_info() {
    println!("== Table 2: cloning depths (9-level / 1 TB tree) ==");
    for policy in [CloningPolicy::Relaxed, CloningPolicy::Aggressive] {
        let depths: Vec<String> = (1..=9).map(|l| policy.depth(l, 9).to_string()).collect();
        println!("  {:>3}: L1..L9 = {}", policy.name(), depths.join(" "));
    }
    println!("\n== Table 3: simulated system ==");
    println!("  4-core x86 2.67 GHz | L1 32kB/2w | L2 512kB/8w | LLC 8MB/64w");
    println!("  PCM 150/300 ns | AES-CTR, 64-ary split counters | ToC arity 8");
    println!("  metadata cache 512 kB 8-way");
    println!("\n== Table 4: FaultSim DIMM ==");
    println!("  18 chips (9/rank x 2) | 16 banks | 16384 rows | 4096 cols | Chipkill");
    println!("\n== expected-loss amplification (Fig. 3 model) ==");
    for cap in [16u64 << 30, 1 << 40, 4 << 40] {
        let m = ExpectedLossModel::new(cap);
        println!(
            "  {:>5} GiB: {} levels, secure memory {:.1}x less resilient",
            cap >> 30,
            m.levels(),
            m.amplification()
        );
    }
    let suite = standard_suite(&SuiteConfig::default());
    let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
    println!("\n== workloads ==\n  {}", names.join(", "));
}

/// The suite workload `name` (64 MiB footprint, seeded with `seed`).
fn suite_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let suite = standard_suite(&SuiteConfig {
        footprint_bytes: 64 << 20,
        seed,
    });
    let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
    let err = format!("unknown workload '{name}'; available: {names:?}");
    suite.into_iter().find(|w| w.name() == name).ok_or(err)
}

fn cmd_perf(args: &Args) -> Result<(), String> {
    let name = args.get_or("workload", "sps").to_string();
    let ops = args.get_num("ops", 100_000u64)?;
    let cores = args.get_num("cores", 1usize)?;
    let policy = scheme_of(args.get_or("scheme", "src"))?;
    let mut instances: Vec<Box<dyn Workload>> = (0..cores)
        .map(|i| match args.get("trace") {
            Some(path) => soteria_workloads::trace::ReplayWorkload::open(path)
                .map(|w| Box::new(w) as Box<dyn Workload>)
                .map_err(|e| format!("trace '{path}': {e}")),
            None => suite_workload(&name, 0xda7a ^ i as u64),
        })
        .collect::<Result<_, _>>()?;
    let mut system = System::with_cores(SystemConfig::table3(policy, 64 << 20), cores);
    if args.has_flag("metrics") {
        system.controller_mut().enable_obs();
    }
    let r = {
        let mut refs: Vec<&mut dyn Workload> = instances
            .iter_mut()
            .map(|w| &mut **w as &mut dyn Workload)
            .collect();
        system.run_multi(&mut refs, ops)
    };
    println!(
        "workload {} | scheme {} | {} cores | {} ops total",
        r.workload, r.scheme, cores, r.ops
    );
    println!("cycles        : {}", r.cycles);
    println!("NVM reads     : {}", r.nvm_reads);
    println!("NVM writes    : {}", r.nvm_writes);
    println!("evictions/op  : {:.3}%", r.evictions_per_op() * 100.0);
    println!("md-cache miss : {:.2}%", r.metadata_miss_ratio * 100.0);
    let stats = system.controller().stats();
    println!(
        "write breakdown: cipher {} | mac {} | shadow {} | evict {} | leaf-mac {} | clone {} | reenc {}",
        stats.writes.cipher,
        stats.writes.data_mac,
        stats.writes.shadow,
        stats.writes.eviction,
        stats.writes.leaf_mac,
        stats.writes.clone,
        stats.writes.reencrypt,
    );
    if args.has_flag("metrics") {
        println!(
            "metrics snapshot:\n{}",
            system.controller().metrics_snapshot().to_pretty_string()
        );
    }
    Ok(())
}

/// A number in a result document (0 when absent).
fn num(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// A string in a result document ("" when absent).
fn text<'a>(doc: &'a Json, path: &[&str]) -> &'a str {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_str)
        .unwrap_or("")
}

/// `campaign`, `compare` and `crashck`: runs the job through
/// [`run_spec`] — the runner behind the service and the fleet — prints
/// a summary of its result, and writes the two artifacts to the paths
/// the command's first two options name.
fn cmd_job(args: &Args, name: &str, options: &str, spec: &JobSpec) -> Result<(), String> {
    let (result, ndjson) = run_spec(spec);
    let doc = Json::parse(&result).map_err(|e| format!("result JSON: {e}"))?;
    match name {
        "campaign" => print_campaign(&doc),
        "compare" => print_compare(&doc),
        _ => print_crashck(&doc),
    }
    for (flag, bytes) in options.split_whitespace().zip([&result, &ndjson]) {
        if let Some(path) = args.get(flag) {
            write_file(path, bytes)?;
            println!("--{flag} artifact to {path}");
        }
    }
    let divergences = num(&doc, &["summary", "divergences"]);
    if divergences > 0.0 {
        return Err(format!(
            "{divergences} crash point(s) violated the atomic-commit contract"
        ));
    }
    Ok(())
}

fn print_campaign(doc: &Json) {
    let fit = num(doc, &["config", "fit_per_chip"]);
    let iterations = num(doc, &["config", "iterations"]);
    println!(
        "FIT {fit}/chip -> 20k-node cluster MTBF {:.1} h | {iterations} iterations | 5 years",
        cluster_mtbf_hours(fit, 20_000, 4, 18)
    );
    println!(
        "{:>9} | {:>12} | {:>12} | {:>14}",
        "scheme", "mean UDR", "L_error", "iters w/ UDR"
    );
    println!("{}", "-".repeat(58));
    let results = doc.get("results").and_then(Json::as_array).unwrap_or(&[]);
    for r in results {
        println!(
            "{:>9} | {:>12.3e} | {:>12.3e} | {:>14}",
            text(r, &["policy"]),
            num(r, &["mean_udr"]),
            num(r, &["mean_error_ratio"]),
            num(r, &["iterations_with_udr"])
        );
    }
    if let Some(r) = results.first() {
        println!(
            "({} of {iterations} iterations saw faults; {} defeated the ECC somewhere)",
            num(r, &["iterations_with_faults"]),
            num(r, &["iterations_with_ue"])
        );
    }
}

fn print_compare(doc: &Json) {
    println!(
        "compared every registered scheme: FIT {}/chip, {} iterations, {}-op trace, seed {}",
        num(doc, &["config", "fit_per_chip"]),
        num(doc, &["config", "iterations"]),
        num(doc, &["config", "trace_ops"]),
        text(doc, &["config", "seed"])
    );
    println!(
        "{:>10} | {:>8} | {:>9} | {:>7} | {:>12} | {:>9} | {:>8} | {:>12}",
        "scheme", "cloning", "tree", "recov", "mean UDR", "WA", "slowdown", "recovery ns"
    );
    println!("{}", "-".repeat(96));
    for r in doc.get("schemes").and_then(Json::as_array).unwrap_or(&[]) {
        println!(
            "{:>10} | {:>8} | {:>9} | {:>7} | {:>12.3e} | {:>9.3} | {:>8.3} | {:>12}",
            text(r, &["scheme"]),
            text(r, &["cloning"]),
            text(r, &["tree_update"]),
            text(r, &["recovery"]),
            num(r, &["mean_udr"]),
            num(r, &["write_amplification"]),
            num(r, &["slowdown"]),
            num(r, &["recovery_est_ns"])
        );
    }
    println!(
        "({} of {} iterations saw faults; {} defeated the ECC somewhere)",
        num(doc, &["summary", "iterations_with_faults"]),
        num(doc, &["config", "iterations"]),
        num(doc, &["summary", "iterations_with_ue"])
    );
}

/// Prints the crashck summary and, for each divergent sweep, the cell,
/// seed, crash point, reason and script — plus the trace tail, which
/// the report does not carry, from a replay of that one sweep.
fn print_crashck(doc: &Json) {
    let max_txns = num(doc, &["config", "max_txns"]) as usize;
    let max_writes = num(doc, &["config", "max_writes"]) as usize;
    println!(
        "crashck: TreeUpdate x CloningPolicy x {{anubis,osiris}} matrix, \
         {} scripts/cell, <= {max_txns} txns x {max_writes} writes, seed {}",
        num(doc, &["config", "scripts_per_cell"]),
        text(doc, &["config", "seed"])
    );
    println!(
        "swept {} crash points over {} scripts across {} cells",
        num(doc, &["summary", "points"]),
        num(doc, &["summary", "scripts"]),
        num(doc, &["summary", "cells"])
    );
    let sweeps = doc.get("sweeps").and_then(Json::as_array).unwrap_or(&[]);
    let divergent: Vec<&Json> = sweeps
        .iter()
        .filter(|s| s.get("divergent") == Some(&Json::Bool(true)))
        .collect();
    if divergent.is_empty() {
        println!("every crash point observed a prefix of committed transactions: OK");
    }
    for sweep in divergent {
        let (tree, recovery) = (text(sweep, &["tree_update"]), text(sweep, &["recovery"]));
        let seed = text(sweep, &["seed"]);
        let replay = STANDARD_POLICIES
            .iter()
            .find(|p| p.name() == text(sweep, &["cloning"]))
            .zip(soteria_faultsim::job::parse_u64(seed))
            .and_then(|(policy, seed)| {
                sweep_cell(tree, policy, recovery, seed, max_txns, max_writes).1
            });
        eprintln!(
            "DIVERGENCE cell {tree}/{}/{recovery} seed {seed} point {}: {}\n  script: {}\n\
             -- trace tail --\n{}",
            text(sweep, &["cloning"]),
            num(sweep, &["divergence_point"]),
            text(sweep, &["divergence_reason"]),
            text(sweep, &["script"]),
            replay.map_or(String::new(), |d| d.trace_tail)
        );
    }
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let name = args.get_or("workload", "sps").to_string();
    let ops = args.get_num("ops", 100_000u64)?;
    let default_out = format!("{name}.trace");
    let out = args.get_or("out", &default_out).to_string();
    let mut w = suite_workload(&name, 0xda7a)?;
    soteria_workloads::trace::record(w.as_mut(), ops, &out).map_err(|e| e.to_string())?;
    println!("recorded {ops} ops of {name} to {out}");
    Ok(())
}

fn cmd_rare(args: &Args) -> Result<(), String> {
    let fit = args.get_num("fit", 80.0f64)?;
    let samples = args.get_num("samples", 3000u64)?;
    let config = CampaignConfig::table4(fit);
    let results = estimate_clone_udr(
        &config,
        &[CloningPolicy::Relaxed, CloningPolicy::Aggressive],
        samples,
        5,
    );
    println!(
        "conditioned on k >= 2 bank-scale faults (lambda = {:.4}), {samples} samples/k",
        results[0].lambda_large
    );
    for r in &results {
        println!("  {:>3}: UDR = {:.3e}", r.policy.name(), r.mean_udr);
    }
    Ok(())
}

fn cmd_crash_demo(args: &Args) -> Result<(), String> {
    let policy = scheme_of(args.get_or("scheme", "src"))?;
    let inject = args.has_flag("fault");
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(1 << 20)
        .metadata_cache(16 * 1024, 8)
        .cloning(policy.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut memory = SecureMemoryController::new(config);
    let trace_path = args.get("trace").map(str::to_string);
    if trace_path.is_some() {
        memory.enable_obs();
    }
    println!("writing 128 lines under {} ...", policy.name());
    for i in 0..128u64 {
        memory
            .write(
                DataAddr::new(i * 64 % memory.layout().data_lines()),
                &[i as u8; 64],
            )
            .map_err(|e| e.to_string())?;
    }
    println!("power loss!");
    let mut image = memory.crash();
    if inject {
        println!("... and a two-chip uncorrectable error hits counter block L1[0] while down");
        let layout = image.config().build_layout();
        let target = layout.meta_addr(soteria::MetaId::new(1, 0));
        let loc = image.device_mut().geometry().locate(target);
        for chip in [1u32, 10] {
            let g = *image.device_mut().geometry();
            image
                .device_mut()
                .inject_fault(soteria_nvm::fault::FaultRecord::on_chip(
                    &g,
                    chip,
                    soteria_nvm::fault::FaultFootprint::SingleWord {
                        bank: loc.bank,
                        row: loc.row,
                        col: loc.col,
                        beat: 0,
                    },
                    soteria_nvm::fault::FaultKind::Permanent,
                ));
        }
    }
    let (mut memory, report) = recover(image);
    println!("recovery report:");
    println!("  shadow root intact : {}", report.shadow_root_intact);
    println!("  entries seen       : {}", report.entries_seen);
    println!("  blocks restored    : {}", report.blocks_restored);
    println!("  Osiris-recovered   : {}", report.counters_recovered);
    println!("  clone repairs      : {}", report.clone_repairs);
    println!("  stale entries      : {}", report.stale_entries);
    println!(
        "  unverifiable       : {} blocks / {} lines",
        report.unverifiable.len(),
        report.unverifiable_lines()
    );
    println!(
        "  est. duration      : {:.3} ms",
        report.estimated_duration_ns() as f64 / 1e6
    );
    let mut ok = 0;
    let mut lost = 0;
    for i in 0..128u64 {
        match memory.read(DataAddr::new(i * 64 % memory.layout().data_lines())) {
            Ok(line) if line == [i as u8; 64] => ok += 1,
            _ => lost += 1,
        }
    }
    println!("post-recovery readback: {ok} intact, {lost} lost");
    if inject && policy == CloningPolicy::None {
        println!("(the baseline loses the faulted block's coverage; rerun with --scheme src)");
    }
    if let Some(path) = &trace_path {
        // The trace survives the crash with the controller, so this one
        // file spans pre-crash writes, recovery, and readback.
        let ndjson = memory.export_trace_ndjson();
        let events = ndjson.lines().count();
        write_file(path, ndjson)?;
        println!("trace: {events} events to {path}");
    }
    Ok(())
}

fn cmd_trace_validate(args: &Args) -> Result<(), String> {
    let path = args
        .get("file")
        .ok_or("trace-validate needs --file PATH")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
    let events = soteria_rt::obs::parse_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut domains: Vec<(&str, u64)> = Vec::new();
    for ev in &events {
        let d = ev.get("domain").and_then(Json::as_str).unwrap_or("?");
        match domains.iter_mut().find(|(n, _)| *n == d) {
            Some((_, c)) => *c += 1,
            None => domains.push((d, 1)),
        }
    }
    println!("{path}: {} events, valid NDJSON, per-domain seq monotonic", events.len());
    for (d, c) in domains {
        println!("  {d:>10}: {c} events");
    }
    Ok(())
}

/// Writes an artifact or port file, naming the path on failure.
fn write_file(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing '{path}': {e}"))
}

/// Renders a non-2xx response as the server's one-line error message.
fn http_failure(resp: &client::HttpResponse) -> String {
    let detail = resp
        .json()
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| resp.text().trim().to_string());
    format!("server said HTTP {}: {detail}", resp.status)
}

/// Binds a job server at `--addr` and writes `--port-file`.
fn bind_server(args: &Args, default_addr: &str, config: ServerConfig) -> Result<Server, String> {
    let addr = args.get_or("addr", default_addr);
    let server = Server::bind(addr, config).map_err(|e| format!("binding '{addr}': {e}"))?;
    if let Some(path) = args.get("port-file") {
        write_file(path, format!("{}\n", server.local_addr()))?;
    }
    Ok(server)
}

/// Serves until a drain completes.
fn serve_until_drained(server: Server) {
    let handle = server.handle();
    server.serve();
    println!("drained: {} job(s) accepted over this run", handle.job_count());
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let workers = args.get_num("workers", 2usize)?;
    let queue = args.get_num("queue", 8usize)?;
    let max_body = args.get_num("max-body", 1024 * 1024usize)?;
    let read_timeout_ms = args.get_num("read-timeout-ms", 5000u64)?;
    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        retry_after_secs: 1,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        limits: ReadLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: max_body,
        },
    };
    let server = bind_server(args, "127.0.0.1:7787", config)?;
    let local = server.local_addr();
    println!("soteria-svc listening on {local} ({workers} workers, queue capacity {queue})");
    println!("POST /v1/shutdown (or `soteria http --method POST --path /v1/shutdown`) drains and exits");
    serve_until_drained(server);
    Ok(())
}

fn cmd_submit(args: &Args, body: &Json) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7787").to_string();
    let resp = client::post_json(&*addr, "/v1/campaigns", body)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    if resp.status != 202 {
        return Err(http_failure(&resp));
    }
    let id = resp
        .json()?
        .get("job")
        .and_then(Json::as_f64)
        .ok_or("submit response missing 'job' id")? as u64;
    let poll = args.get_num("poll-ms", 50u64)?;
    let timeout = args.get_num("timeout-s", 600u64)?;
    eprintln!("job {id} accepted by {addr}; polling every {poll} ms");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(timeout);
    loop {
        let status = client::get(&*addr, &format!("/v1/jobs/{id}"))
            .map_err(|e| format!("polling {addr}: {e}"))?;
        if status.status != 200 {
            return Err(http_failure(&status));
        }
        let doc = status.json()?;
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => {
                let why = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("campaign panicked");
                return Err(format!("job {id} failed: {why}"));
            }
            _ => {
                if std::time::Instant::now() > deadline {
                    return Err(format!("job {id} still not done after {timeout}s"));
                }
                std::thread::sleep(std::time::Duration::from_millis(poll));
            }
        }
    }
    let result = client::get(&*addr, &format!("/v1/jobs/{id}/result"))
        .map_err(|e| format!("fetching result: {e}"))?;
    if result.status != 200 {
        return Err(http_failure(&result));
    }
    match args.get("out") {
        Some(path) => {
            write_file(path, &result.body)?;
            eprintln!("result to {path}");
        }
        None => print!("{}", result.text()),
    }
    if let Some(path) = args.get("trace-out") {
        let trace = client::get(&*addr, &format!("/v1/jobs/{id}/trace"))
            .map_err(|e| format!("fetching trace: {e}"))?;
        if trace.status != 200 {
            return Err(http_failure(&trace));
        }
        write_file(path, &trace.body)?;
        eprintln!("trace to {path}");
    }
    Ok(())
}

fn cmd_http(args: &Args) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7787");
    let method = args.get_or("method", "GET");
    let path = args.get_or("path", "/healthz");
    let body = args
        .get("body")
        .map(|b| ("application/json", b.as_bytes()));
    let resp = client::request(addr, method, path, body)
        .map_err(|e| format!("{method} {addr}{path}: {e}"))?;
    eprintln!("HTTP {} {}", resp.status, resp.reason);
    use std::io::Write as _;
    std::io::stdout()
        .write_all(&resp.body)
        .map_err(|e| e.to_string())?;
    if resp.status >= 400 {
        return Err(http_failure(&resp));
    }
    Ok(())
}

/// Resolves a `host:port` list (comma-separated) to socket addresses.
fn parse_targets(spec: &str) -> Result<Vec<std::net::SocketAddr>, String> {
    use std::net::ToSocketAddrs;
    let targets: Vec<std::net::SocketAddr> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.to_socket_addrs()
                .map_err(|e| format!("resolving '{s}': {e}"))?
                .next()
                .ok_or_else(|| format!("'{s}' resolves to no address"))
        })
        .collect::<Result<_, _>>()?;
    if targets.is_empty() {
        return Err("--targets needs at least one host:port".into());
    }
    Ok(targets)
}

/// Deals `clients` across `targets` round-robin: target `i` takes
/// client `i`, `i + targets`, `i + 2*targets`, … so the shares differ
/// by at most one.
fn split_round_robin(clients: usize, targets: usize) -> Vec<usize> {
    (0..targets)
        .map(|i| clients / targets + usize::from(i < clients % targets))
        .collect()
}

fn cmd_loadgen(args: &Args, body: &Json) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    let clients = args.get_num("clients", 16usize)?;
    let targets = match args.get("targets") {
        Some(spec) => parse_targets(spec)?,
        None => {
            let addr = args.get_or("addr", "127.0.0.1:7787");
            vec![addr
                .to_socket_addrs()
                .map_err(|e| format!("resolving '{addr}': {e}"))?
                .next()
                .ok_or_else(|| format!("'{addr}' resolves to no address"))?]
        }
    };
    let shares = split_round_robin(clients, targets.len());
    let reports: Vec<LoadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .zip(&shares)
            .map(|(&target, &share)| s.spawn(move || submit_burst(target, body, share)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen burst thread"))
            .collect()
    });
    if targets.len() > 1 {
        for (target, report) in targets.iter().zip(&reports) {
            println!("{target}: {}", report.summary());
        }
    }
    let total = LoadReport {
        outcomes: reports.into_iter().flat_map(|r| r.outcomes).collect(),
    };
    println!("{}", total.summary());
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for outcome in &total.outcomes {
        match counts.iter_mut().find(|(s, _)| *s == outcome.status) {
            Some((_, n)) => *n += 1,
            None => counts.push((outcome.status, 1)),
        }
    }
    counts.sort_unstable();
    for (status, n) in counts {
        println!("  HTTP {status}: {n}");
    }
    Ok(())
}

fn cmd_coordinate(args: &Args, kind: &str, body: &Json) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7799").to_string();
    let mut config = FleetConfig {
        min_workers: args.get_num("min-workers", 1usize)?,
        chunk_blocks: args.get_num("chunk", 4u64)?,
        ..FleetConfig::default()
    };
    config.register_timeout =
        std::time::Duration::from_secs(args.get_num("register-timeout-s", 30u64)?);
    let coordinator =
        Coordinator::bind(&*addr, config).map_err(|e| format!("binding '{addr}': {e}"))?;
    let local = coordinator.local_addr();
    if let Some(path) = args.get("port-file") {
        write_file(path, format!("{local}\n"))?;
    }
    eprintln!(
        "fleet coordinator on {local}: {kind} job, waiting for {} worker(s)",
        args.get_or("min-workers", "1")
    );
    eprintln!("register workers with `soteria worker --coordinator {local}`");
    let (result, ndjson) = coordinator.run(kind, body)?;
    match args.get("out") {
        Some(path) => {
            write_file(path, &result)?;
            eprintln!("merged result to {path}");
        }
        None => print!("{result}"),
    }
    if let Some(path) = args.get("ndjson") {
        write_file(path, &ndjson)?;
        eprintln!("merged ndjson to {path}");
    }
    Ok(())
}

fn cmd_worker(args: &Args) -> Result<(), String> {
    let coordinator = args
        .get("coordinator")
        .ok_or("worker needs --coordinator ADDR")?
        .to_string();
    let workers = args.get_num("workers", 2usize)?;
    let config = ServerConfig {
        workers,
        queue_capacity: args.get_num("queue", 8usize)?,
        ..ServerConfig::default()
    };
    let server = bind_server(args, "127.0.0.1:0", config)?;
    let local = server.local_addr();
    let advertise = args.get_or("advertise", &local.to_string()).to_string();
    println!("fleet worker on {local} ({workers} job threads), registering with {coordinator}");
    // Register from a side thread with patient retries: the worker may
    // boot before its coordinator, and serving must not wait on it.
    std::thread::spawn(move || {
        match fleet::register_worker(
            &coordinator,
            &advertise,
            40,
            std::time::Duration::from_millis(250),
            &Default::default(),
        ) {
            Ok(id) => eprintln!("registered with {coordinator} as worker {id}"),
            Err(e) => eprintln!("registration with {coordinator} failed: {e}"),
        }
    });
    serve_until_drained(server);
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1)).map_err(|e| e.to_string())?;
    let Some(name) = args.command().filter(|_| !args.has_flag("help")) else {
        println!("{}", usage());
        return Ok(());
    };
    if !COMMANDS.iter().any(|(n, _)| *n == name) {
        return Err(format!("unknown command '{name}'\n\n{}", command_listing()));
    }
    let (options, switches, job) = FLAGS
        .iter()
        .find(|f| f.0 == name)
        .map_or(("", "", None), |&(_, options, switches, job)| {
            (options, switches, job)
        });
    args.check(options, switches, job.is_some())?;
    if let Some(default_kind) = job {
        // The job's own parser validates the body before anything runs
        // or is sent.
        let kind = args.get_or("kind", default_kind);
        let body = args.job_body(options);
        let spec = JobSpec::from_kind(kind, &body)?;
        return match name {
            "submit" => cmd_submit(&args, &body),
            "loadgen" => cmd_loadgen(&args, &body),
            "coordinate" => cmd_coordinate(&args, kind, &body),
            _ => cmd_job(&args, name, options, &spec),
        };
    }
    match name {
        "info" => {
            cmd_info();
            Ok(())
        }
        "perf" => cmd_perf(&args),
        "record" => cmd_record(&args),
        "rare" => cmd_rare(&args),
        "crash-demo" => cmd_crash_demo(&args),
        "trace-validate" => cmd_trace_validate(&args),
        "serve" => cmd_serve(&args),
        "http" => cmd_http(&args),
        "worker" => cmd_worker(&args),
        _ => {
            println!("{}", usage());
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_faultsim::compare::COMPARE_FIELDS;
    use soteria_faultsim::crashck::CRASHCK_FIELDS;
    use soteria_faultsim::job::CAMPAIGN_FIELDS;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    fn flags(name: &str) -> (&'static str, &'static str, Option<&'static str>) {
        FLAGS
            .iter()
            .find(|f| f.0 == name)
            .map_or(("", "", None), |&(_, options, switches, job)| {
                (options, switches, job)
            })
    }

    /// The body a job command builds, through its kind's parser.
    fn job(line: &str) -> Result<JobSpec, String> {
        let a = args(line);
        let (options, _, kind) = flags(a.command().unwrap());
        JobSpec::from_kind(a.get_or("kind", kind.unwrap()), &a.job_body(options))
    }

    #[test]
    fn every_command_is_listed_once_with_a_description() {
        let listing = command_listing();
        let text = usage();
        for (name, one_liner) in COMMANDS {
            assert!(!one_liner.is_empty(), "{name} needs a description");
            assert_eq!(
                listing.matches(&format!("\n  {name} ")).count(),
                1,
                "{name} must appear exactly once in the listing"
            );
            assert!(text.contains(one_liner), "usage must carry {name}'s one-liner");
        }
        for (name, ..) in FLAGS {
            assert!(
                COMMANDS.iter().any(|(n, _)| n == name),
                "flags for unknown {name}"
            );
        }
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate command names");
    }

    /// `OPTION_DETAILS` lists, under each command, exactly the flags the
    /// command declares — plus, for `campaign`/`compare`/`crashck`, the
    /// job fields their parser accepts.
    #[test]
    fn option_details_list_exactly_each_commands_flags() {
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in OPTION_DETAILS.lines() {
            if let Some(flag) = line.strip_prefix("      --") {
                let flag = flag.split_whitespace().next().unwrap();
                listed
                    .last_mut()
                    .expect("a flag under a command")
                    .1
                    .push(flag);
            } else if let Some(header) = line.strip_prefix("  ").filter(|h| !h.starts_with(' ')) {
                listed.push((header.split_whitespace().next().unwrap(), Vec::new()));
            }
        }
        for (name, _) in &listed {
            assert!(COMMANDS.iter().any(|(n, _)| n == name), "no command {name}");
        }
        for (name, _) in COMMANDS {
            let (options, switches, _) = flags(name);
            let mut expected: Vec<&str> = options.split_whitespace().collect();
            expected.extend(switches.split_whitespace());
            match *name {
                "campaign" => expected.extend(CAMPAIGN_FIELDS),
                "compare" => expected.extend(COMPARE_FIELDS),
                "crashck" => expected.extend(CRASHCK_FIELDS),
                _ => {}
            }
            let mut got = listed
                .iter()
                .find(|(n, _)| n == name)
                .map_or(Vec::new(), |(_, flags)| flags.clone());
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "OPTION_DETAILS for {name}");
        }
    }

    #[test]
    fn seed_parsing_accepts_both_radixes() {
        let seed = |flag: &str| -> Result<u64, String> {
            match job(&format!("campaign --seed {flag}"))? {
                JobSpec::Campaign(config) => Ok(config.seed),
                other => panic!("campaign parsed as {other:?}"),
            }
        };
        assert_eq!(seed("42"), Ok(42));
        assert_eq!(seed("0xdead"), Ok(0xdead));
        // Above 2^53: neither spelling may round through an f64.
        assert_eq!(seed("0x20000000000001"), Ok(0x20_0000_0000_0001));
        assert_eq!(seed("9007199254740993"), Ok(9_007_199_254_740_993));
        assert!(seed("0xzz").unwrap_err().contains("0xzz"));
    }

    #[test]
    fn campaign_body_maps_flags_to_service_fields() {
        let a = args(
            "submit --fit 1500 --iterations 200 --ecc double --tree bmt --seed 0x7 \
             --capacity_bytes 67108864 --addr 127.0.0.1:1",
        );
        let body = a.job_body(flags("submit").0);
        assert_eq!(body.get("fit").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(body.get("iterations").and_then(Json::as_f64), Some(200.0));
        assert_eq!(body.get("ecc").and_then(Json::as_str), Some("double"));
        assert_eq!(body.get("tree").and_then(Json::as_str), Some("bmt"));
        assert_eq!(body.get("seed").and_then(Json::as_str), Some("0x7"));
        assert_eq!(
            body.get("capacity_bytes").and_then(Json::as_f64),
            Some(67108864.0)
        );
        // The command's own flags and unset fields stay out of the body.
        assert!(body.get("addr").is_none());
        assert!(body.get("threads").is_none());
        // Bad values and old spellings fail locally with the parser's message.
        assert!(job("submit --ecc raid")
            .unwrap_err()
            .contains("unknown ecc 'raid'"));
        let err = job("campaign --iters 64").unwrap_err();
        assert!(
            err.contains("unknown field 'iters' (fit, iterations,"),
            "{err}"
        );
    }

    #[test]
    fn fleet_bodies_map_flags_to_service_fields() {
        let JobSpec::Compare(c) = job(
            "coordinate --kind compare --fit 1500 --iterations 128 --trace_ops 512 --seed 0x9 \
             --chunk 2",
        )
        .unwrap() else {
            panic!("--kind compare must parse a compare job");
        };
        assert_eq!(c.fit_per_chip, 1500.0);
        assert_eq!(c.iterations, 128);
        assert_eq!(c.trace_ops, 512);
        assert_eq!(c.seed, 9);

        let JobSpec::Crashck(c) = job(
            "coordinate --kind crashck --scripts_per_cell 2 --max_txns 4 --max_writes 3 \
             --threads 2",
        )
        .unwrap() else {
            panic!("--kind crashck must parse a crashck job");
        };
        assert_eq!(
            (c.scripts_per_cell, c.max_txns, c.max_writes, c.threads),
            (2, 4, 3, 2)
        );
        assert_eq!(
            c.seed,
            soteria_faultsim::CrashckConfig::default().seed,
            "unset stays default"
        );
        assert!(job("coordinate --kind blocks")
            .unwrap_err()
            .contains("unknown kind"));
    }

    #[test]
    fn round_robin_split_covers_every_client() {
        assert_eq!(split_round_robin(16, 3), vec![6, 5, 5]);
        assert_eq!(split_round_robin(2, 4), vec![1, 1, 0, 0]);
        for (clients, targets) in [(0, 1), (1, 1), (7, 3), (16, 5), (100, 7)] {
            let shares = split_round_robin(clients, targets);
            assert_eq!(shares.len(), targets);
            assert_eq!(shares.iter().sum::<usize>(), clients);
            let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(max - min <= 1, "round-robin shares differ by at most one");
        }
    }

    #[test]
    fn target_lists_parse_and_reject_garbage() {
        let targets = parse_targets("127.0.0.1:9001, 127.0.0.1:9002").unwrap();
        assert_eq!(targets.len(), 2);
        assert!(parse_targets("").unwrap_err().contains("at least one"));
        assert!(parse_targets("nonsense").unwrap_err().contains("nonsense"));
    }
}

//! Differential golden tests for the [`ProtectionPolicy`] refactor.
//!
//! The trait re-expresses every pre-existing scheme (Baseline/SRC/SAC
//! cloning, Anubis shadow recovery, Osiris forward trials) behind one
//! interface. These tests prove the refactor moved *zero* behavior: the
//! committed golden fixtures — captured before the trait existed — must
//! replay byte-identically when every knob is derived from the scheme
//! registry instead of being spelled out by hand.
//!
//! If a fixture diff ever shows up here but not in `determinism_golden`
//! / `crash_demo_golden`, the trait plumbing itself (not the artifact
//! format) changed scheme semantics: that is a bug, not a fixture
//! regeneration.

use soteria::recovery::RecoveryReport;
use soteria::{
    scheme_by_name, standard_schemes, DataAddr, ProtectionPolicy, SecureMemoryController,
};
use soteria_faultsim::campaign::CampaignConfig;
use soteria_faultsim::{report_json, run_campaign_traced, run_compare, CompareConfig};

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("missing golden fixture {path}: {e}"),
    }
}

/// The campaign fixture replayed with cloning policies pulled from the
/// registry (`baseline`/`src`/`sac` in roster order) instead of the
/// hard-coded `STANDARD_POLICIES` list.
#[test]
fn campaign_fixture_replays_through_registry_policies() {
    let policies: Vec<_> = standard_schemes()[..3]
        .iter()
        .map(|scheme| scheme.cloning())
        .collect();
    let mut config = CampaignConfig::table4(1500.0);
    config.iterations = 200;
    config.seed = 0xc1;
    config.threads = 1;
    config.trace = true;
    let (results, trace) = run_campaign_traced(&config, &policies);
    let result_json = report_json(&config, &results, &trace).to_pretty_string();

    assert_eq!(
        result_json,
        golden("campaign_seed0xc1.json"),
        "registry-derived campaign JSON drifted from the golden fixture"
    );
    assert_eq!(
        trace.export_ndjson(),
        golden("campaign_seed0xc1.ndjson"),
        "registry-derived campaign trace drifted from the golden fixture"
    );
}

/// The compare fixture — captured with `soteria compare --fit 3000
/// --iterations 256 --seed 0xc1 --trace_ops 256 --threads 3 --json ...
/// --ndjson ...` — replayed at one thread. At FIT 3000 several of its
/// fault sets defeat Chipkill only in bank-wide regions, so the fixture
/// pins each registry scheme's loss profile on bank-scale faults as well
/// as on row/column ones.
#[test]
fn compare_fixture_replays_through_the_registry_profiles() {
    let config = CompareConfig {
        fit_per_chip: 3000.0,
        iterations: 256,
        seed: 0xc1,
        threads: 1,
        trace_ops: 256,
        ..CompareConfig::default()
    };
    let out = run_compare(&config);
    assert_eq!(
        out.result_json,
        golden("compare_seed0xc1.json"),
        "compare result JSON drifted from the golden fixture"
    );
    assert_eq!(
        out.ndjson,
        golden("compare_seed0xc1.ndjson"),
        "compare NDJSON drifted from the golden fixture"
    );
}

/// The crash-demo flow driven entirely by a [`ProtectionPolicy`]: config
/// built by the trait, recovery dispatched by the trait's hook.
fn crash_demo_via_policy(scheme: &dyn ProtectionPolicy) -> (String, RecoveryReport) {
    let config = scheme
        .build_config(1 << 20, 16 * 1024, 8, 8)
        .expect("registered scheme config is valid");
    let mut memory = SecureMemoryController::new(config);
    memory.enable_obs();
    let data_lines = memory.layout().data_lines();
    for i in 0..128u64 {
        memory
            .write(DataAddr::new(i * 64 % data_lines), &[i as u8; 64])
            .expect("pre-crash writes succeed");
    }
    let (mut memory, report) = scheme.recover(memory.crash());
    for i in 0..128u64 {
        let got = memory
            .read(DataAddr::new(i * 64 % data_lines))
            .expect("post-recovery reads succeed");
        assert_eq!(got, [i as u8; 64], "line {i} must survive the crash");
    }
    (memory.export_trace_ndjson(), report)
}

/// The `crash_demo_src.ndjson` fixture — captured from the pre-trait CLI
/// — replayed byte-for-byte with every knob coming from
/// `scheme_by_name("src")`.
#[test]
fn crash_demo_fixture_replays_through_the_src_policy() {
    let src = scheme_by_name("src").expect("src is registered");
    let (trace, report) = crash_demo_via_policy(src);
    assert!(report.is_complete(), "SRC demo recovery must be complete");
    assert_eq!(
        trace,
        golden("crash_demo_src.ndjson"),
        "trait-driven crash-demo trace drifted from the golden fixture"
    );
}

/// Every registered scheme survives the crash-demo flow through the
/// trait (128 lines written, crash, the scheme's own recovery hook, full
/// readback), and two replays agree byte-for-byte — the determinism
/// floor the compare campaign stands on.
#[test]
fn every_scheme_replays_the_crash_demo_deterministically() {
    for scheme in standard_schemes() {
        let (a, report) = crash_demo_via_policy(*scheme);
        let (b, _) = crash_demo_via_policy(*scheme);
        assert_eq!(
            a,
            b,
            "{}: two in-process replays must agree byte-for-byte",
            scheme.name()
        );
        assert_eq!(
            report.unverifiable_lines(),
            0,
            "{}: fault-free crash recovery must verify everything",
            scheme.name()
        );
    }
}

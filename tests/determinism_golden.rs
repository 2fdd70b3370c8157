//! Golden-seed determinism gate for the fault-campaign artifacts.
//!
//! The fixtures in `tests/golden/` were captured from the CLI
//! (`soteria campaign --fit 1500 --iterations 200 --seed 0xc1 --threads 3
//! --json ... --trace ...`) **before** the deterministic-collection
//! migrations (HashMap → BTreeMap in `soteria-nvm`, HashSet → BTreeSet
//! in `soteria`), so this test proves two things at once:
//!
//! * the migrations did not change a single byte of the campaign JSON
//!   or the NDJSON trace, and
//! * the artifacts are byte-identical across thread counts (fixtures
//!   were produced with `--threads 3`; this run uses one thread).
//!
//! If an intentional change to the artifact format lands, regenerate the
//! fixtures with the CLI invocation above and say so in the PR.

use soteria_faultsim::campaign::CampaignConfig;
use soteria_faultsim::job::run_job;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("missing golden fixture {path}: {e}"),
    }
}

#[test]
fn campaign_artifacts_match_pre_migration_fixtures() {
    let mut config = CampaignConfig::table4(1500.0);
    config.iterations = 200;
    config.seed = 0xc1;
    config.threads = 1;
    config.trace = true;
    let out = run_job(&config);

    let want_json = golden("campaign_seed0xc1.json");
    let want_trace = golden("campaign_seed0xc1.ndjson");
    assert_eq!(
        out.result_json, want_json,
        "campaign result JSON drifted from the golden fixture"
    );
    assert_eq!(
        out.trace_ndjson, want_trace,
        "campaign NDJSON trace drifted from the golden fixture"
    );
}

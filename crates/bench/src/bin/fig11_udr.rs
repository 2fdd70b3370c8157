//! Figure 11: Unverifiable Data Ratio vs failure rate (FIT 1–80) for the
//! secure baseline, SRC and SAC, under Chipkill over five simulated
//! years — plus the Table 4 FaultSim configuration.
//!
//! Paper numbers at FIT 80: baseline ~3e-5, SRC ~2.66e-8, SAC ~1.5e-9;
//! geometric-mean UDR reductions ~2.5e3 (SRC) and ~3.7e4 (SAC).
//!
//! ```text
//! SOTERIA_ITERS=1000000 cargo run --release -p soteria-bench --bin fig11_udr
//! ```

use soteria::clone::CloningPolicy;
use std::io::Write;

use soteria_bench::{csv_sink, env_u64, geomean, header};
use soteria_faultsim::{
    cluster_mtbf_hours, estimate_clone_udr, run_campaign, CampaignConfig, STANDARD_POLICIES,
};

fn main() {
    let iterations = env_u64("SOTERIA_ITERS", 100_000);

    header("Table 4 — FaultSim configuration");
    println!("Chips 18 (9/rank x 2 ranks) | banks 16 | rows 16384 | cols 4096");
    println!("Repair: Chipkill-Correct | failure distribution: Hopper [39]");
    println!("Data block 512 bits | 5-year campaigns | {iterations} iterations/FIT");

    header("Figure 11 — UDR vs FIT (Baseline / SRC / SAC)");
    println!(
        "{:>5} | {:>10} | {:>12} | {:>12} | {:>12} | {:>9} {:>9}",
        "FIT", "MTBF(h)", "Baseline", "SRC", "SAC", "SRC gain", "SAC gain"
    );
    println!("{}", "-".repeat(86));
    let mut csv = csv_sink("fig11");
    if let Some(f) = &mut csv {
        let _ = writeln!(f, "fit,baseline_udr,src_udr,sac_udr");
    }
    let mut src_gains = Vec::new();
    let mut sac_gains = Vec::new();
    for fit in [1.0f64, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0] {
        let mut config = CampaignConfig::table4(fit);
        config.iterations = iterations;
        let results = run_campaign(&config, &STANDARD_POLICIES);
        let (base, src, sac) = (&results[0], &results[1], &results[2]);
        let mtbf = cluster_mtbf_hours(fit, 20_000, 4, 18);
        let gain = |udr: f64| {
            if udr > 0.0 && base.mean_udr > 0.0 {
                format!("{:.1e}", base.mean_udr / udr)
            } else if base.mean_udr > 0.0 {
                "inf".to_string()
            } else {
                "-".to_string()
            }
        };
        if let Some(f) = &mut csv {
            let _ = writeln!(
                f,
                "{},{:e},{:e},{:e}",
                fit, base.mean_udr, src.mean_udr, sac.mean_udr
            );
        }
        if src.mean_udr > 0.0 && base.mean_udr > 0.0 {
            src_gains.push(base.mean_udr / src.mean_udr);
        }
        if sac.mean_udr > 0.0 && base.mean_udr > 0.0 {
            sac_gains.push(base.mean_udr / sac.mean_udr);
        }
        println!(
            "{:>5} | {:>10.1} | {:>12.3e} | {:>12.3e} | {:>12.3e} | {:>9} {:>9}",
            fit,
            mtbf,
            base.mean_udr,
            src.mean_udr,
            sac.mean_udr,
            gain(src.mean_udr),
            gain(sac.mean_udr),
        );
    }
    if !src_gains.is_empty() {
        println!(
            "\ngeomean UDR reduction (where both nonzero): SRC {:.2e}",
            geomean(&src_gains)
        );
    }
    if !sac_gains.is_empty() {
        println!(
            "geomean UDR reduction (where both nonzero): SAC {:.2e}",
            geomean(&sac_gains)
        );
    }
    println!("\nPaper: SRC 2.5e3x and SAC 3.7e4x geomean reduction; at low FIT Soteria");
    println!("shows *no* metadata loss at all while the baseline already loses data.");
    println!("(Clone-scheme losses need >= 2 co-active bank-scale faults; naive Monte");
    println!("Carlo rarely samples them — the rare-event panel below resolves them.)");

    header("Figure 11 (rare-event panel) — clone-scheme UDR at FIT 80");
    let samples = env_u64("SOTERIA_RARE", 3000);
    let config = CampaignConfig::table4(80.0);
    let rare = estimate_clone_udr(
        &config,
        &[CloningPolicy::Relaxed, CloningPolicy::Aggressive],
        samples,
        5,
    );
    let mut base_config = CampaignConfig::table4(80.0);
    base_config.iterations = iterations;
    let base = run_campaign(&base_config, &[CloningPolicy::None]);
    println!(
        "importance sampling conditioned on k >= 2 large faults (lambda = {:.4}),",
        rare[0].lambda_large
    );
    println!("{samples} samples per k, exact Poisson reweighting:\n");
    println!("{:>9} | {:>12} | {:>14}", "scheme", "UDR", "vs baseline");
    println!("{}", "-".repeat(44));
    println!(
        "{:>9} | {:>12.3e} | {:>14}",
        "Baseline", base[0].mean_udr, "1x"
    );
    for r in &rare {
        println!(
            "{:>9} | {:>12.3e} | {:>13.2e}x",
            r.policy.name(),
            r.mean_udr,
            base[0].mean_udr / r.mean_udr.max(f64::MIN_POSITIVE),
        );
    }
    println!("\nPaper at FIT 80: baseline ~3e-5, SRC 2.66e-8, SAC 1.5e-9.");
}

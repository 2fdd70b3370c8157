//! Figure 12: total data loss (`L_error` + `L_unverifiable`) translated
//! to an 8 TB NVM main memory, for Non-Secure, Secure Baseline, SRC and
//! SAC.
//!
//! Paper shape: the secure baseline loses ~5x more data than non-secure
//! (verification failures on top of plain errors); SRC and SAC pull
//! `L_total` back to essentially `L_error`.
//!
//! ```text
//! SOTERIA_ITERS=1000000 cargo run --release -p soteria-bench --bin fig12_data_loss
//! ```

use soteria::clone::CloningPolicy;
use soteria_bench::{env_u64, header};
use soteria_faultsim::{estimate_clone_udr, run_campaign, CampaignConfig, STANDARD_POLICIES};

fn main() {
    let iterations = env_u64("SOTERIA_ITERS", 100_000);
    let fit = 80.0;
    let total_bytes = 8.0 * (1u64 << 40) as f64;

    header(&format!(
        "Figure 12 — data loss for an 8 TB NVM (FIT {fit}, {iterations} iterations)"
    ));
    let mut config = CampaignConfig::table4(fit);
    config.iterations = iterations;
    let results = run_campaign(&config, &STANDARD_POLICIES);
    // Clone-scheme UDRs are dominated by rare >= 2-large-fault events that
    // naive sampling misses; resolve them with the importance-sampled
    // estimator (see fig11's rare-event panel).
    let rare = estimate_clone_udr(
        &config,
        &[CloningPolicy::Relaxed, CloningPolicy::Aggressive],
        env_u64("SOTERIA_RARE", 3000),
        5,
    );
    // The 16 GiB campaign DIMM scales to 8 TB as independent DIMMs: the
    // loss *ratios* carry over directly (as in the paper's translation).
    let l_error = results[0].mean_error_ratio * total_bytes;
    println!(
        "\n{:>16} | {:>14} | {:>16} | {:>14} | {:>8}",
        "scheme", "L_error (MB)", "L_unverif (MB)", "L_total (MB)", "vs non-sec"
    );
    println!("{}", "-".repeat(82));
    let mb = 1024.0 * 1024.0;
    println!(
        "{:>16} | {:>14.3} | {:>16.3} | {:>14.3} | {:>8.2}x",
        "Non-Secure",
        l_error / mb,
        0.0,
        l_error / mb,
        1.0
    );
    for r in &results {
        let udr = match r.policy {
            CloningPolicy::Relaxed => r.mean_udr.max(rare[0].mean_udr),
            CloningPolicy::Aggressive => r.mean_udr.max(rare[1].mean_udr),
            _ => r.mean_udr,
        };
        let unverifiable = udr * total_bytes;
        let total = l_error + unverifiable;
        let name = match r.policy {
            CloningPolicy::None => "Secure Baseline",
            CloningPolicy::Relaxed => "SRC",
            CloningPolicy::Aggressive => "SAC",
            CloningPolicy::Custom(_) => "Custom",
        };
        println!(
            "{:>16} | {:>14.3} | {:>16.3} | {:>14.3} | {:>8.2}x",
            name,
            l_error / mb,
            unverifiable / mb,
            total / mb,
            total / l_error,
        );
    }
    println!("\nPaper: Secure Baseline loses ~5.06x the non-secure system; SRC/SAC keep");
    println!("L_total essentially equal to L_error.");
}

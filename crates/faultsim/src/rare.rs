//! Rare-event estimation of clone-scheme UDR by conditioning on large
//! faults (importance sampling with exact Poisson reweighting).
//!
//! With Soteria's bank/column-disjoint clone placement, a metadata block
//! and its clones can only fall together inside uncorrectable regions
//! when **at least two bank-scale-or-larger faults** are simultaneously
//! live: rank-level events, single-bank faults pairing up across chips,
//! or multi-bank faults intersecting another large fault. (A single UE
//! region never spans a block and its bank-disjoint clone; sub-bank fault
//! pairs yield single-row/column regions that cannot either.) Naive
//! Monte Carlo at the paper's 10^6 iterations barely samples this —
//! which is why Fig. 11's SRC/SAC points sit at 1e-8/1e-9 with visible
//! noise. This module instead:
//!
//! 1. computes `λ_large`, the Poisson rate of bank-scale-or-larger
//!    faults per DIMM lifetime, analytically;
//! 2. for each `k ≥ 2`, samples fault sets **conditioned on exactly `k`
//!    large faults** (plus an unconditioned background of small faults)
//!    and measures the conditional mean UDR;
//! 3. returns `Σ_k P(N = k) · E[UDR | N = k]` — an unbiased estimate of
//!    the clone scheme's true UDR, resolvable with ~10^4 samples instead
//!    of ~10^9.

use soteria_rt::rng::StdRng;

use soteria::analysis::ResilienceModel;
use soteria::clone::CloningPolicy;

use crate::campaign::{sample_fault_set_filtered, CampaignConfig};
use crate::rates::FaultMode;

/// Which fault modes count as "large" (bank-scale or larger).
pub fn is_large_mode(mode: FaultMode) -> bool {
    matches!(
        mode,
        FaultMode::SingleBank | FaultMode::MultiBank | FaultMode::MultiRank
    )
}

/// Poisson probability mass function.
fn poisson_pmf(lambda: f64, k: u64) -> f64 {
    let mut log_p = -lambda + k as f64 * lambda.ln();
    for i in 1..=k {
        log_p -= (i as f64).ln();
    }
    log_p.exp()
}

/// Result of the rare-event estimation for one policy.
#[derive(Clone, Debug, PartialEq)]
pub struct RareEventResult {
    /// The policy evaluated.
    pub policy: CloningPolicy,
    /// Estimated mean UDR (`Σ_k P(N=k) · E[UDR|N=k]`).
    pub mean_udr: f64,
    /// Rate of large faults per DIMM lifetime used for the weighting.
    pub lambda_large: f64,
    /// Conditional mean UDR per conditioned `k` (index 0 ↔ k = 2).
    pub conditional_udr: Vec<f64>,
}

/// Runs the rare-event estimator for clone policies.
///
/// `samples_per_k` fault sets are drawn for each `k` in `2..=k_max`.
/// Baseline (no-clone) UDR should come from the ordinary campaign — its
/// loss is dominated by *single* UE regions that this estimator
/// deliberately conditions away.
pub fn estimate_clone_udr(
    config: &CampaignConfig,
    policies: &[CloningPolicy],
    samples_per_k: u64,
    k_max: u64,
) -> Vec<RareEventResult> {
    let layout = config.build_layout();
    let geometry = config.build_geometry(&layout);
    let rates = config.rates.scaled_to(config.fit_per_chip);

    // λ_large: sum over large buckets of (rate × population).
    let mut lambda_large = 0.0;
    for (mode, _permanent, fit) in rates.buckets() {
        if !is_large_mode(mode) {
            continue;
        }
        let population = if mode == FaultMode::MultiRank {
            geometry.chips_per_rank() as f64
        } else {
            geometry.chips() as f64
        };
        lambda_large += fit * config.hours / 1e9 * population;
    }

    let model =
        ResilienceModel::new(&layout, &geometry).with_correctable_chips(config.correctable_chips);
    let schemes = config.schemes(policies);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x4a5e_e4a5);

    let mut conditional: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for k in 2..=k_max {
        let mut sums = vec![0.0f64; policies.len()];
        for _ in 0..samples_per_k {
            let faults = sample_fault_set_filtered(&mut rng, &geometry, &rates, config.hours, k);
            let assessments = model.assess(&faults, &schemes);
            for (i, a) in assessments.iter().enumerate() {
                sums[i] += a.udr(layout.data_lines());
            }
        }
        for (i, s) in sums.iter().enumerate() {
            conditional[i].push(s / samples_per_k as f64);
        }
    }

    policies
        .iter()
        .enumerate()
        .map(|(i, policy)| {
            let mean_udr: f64 = (2..=k_max)
                .zip(conditional[i].iter())
                .map(|(k, &e)| poisson_pmf(lambda_large, k) * e)
                .sum();
            RareEventResult {
                policy: policy.clone(),
                mean_udr,
                lambda_large,
                conditional_udr: conditional[i].clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_pmf_sums_to_one() {
        let lambda = 0.7;
        let total: f64 = (0..40).map(|k| poisson_pmf(lambda, k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn poisson_pmf_known_values() {
        assert!((poisson_pmf(1.0, 0) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((poisson_pmf(2.0, 2) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn large_mode_classification() {
        assert!(is_large_mode(FaultMode::SingleBank));
        assert!(is_large_mode(FaultMode::MultiBank));
        assert!(is_large_mode(FaultMode::MultiRank));
        assert!(!is_large_mode(FaultMode::SingleBit));
        assert!(!is_large_mode(FaultMode::SingleRow));
        assert!(!is_large_mode(FaultMode::SingleColumn));
    }

    #[test]
    fn estimator_orders_policies_and_is_tiny() {
        let mut config = CampaignConfig::table4(80.0);
        config.capacity_bytes = 1 << 28; // 256 MiB keeps assessments quick
        let results = estimate_clone_udr(
            &config,
            &[CloningPolicy::Relaxed, CloningPolicy::Aggressive],
            400,
            4,
        );
        let (src, sac) = (&results[0], &results[1]);
        assert!(src.lambda_large > 0.0);
        assert!(
            src.mean_udr >= sac.mean_udr,
            "SAC must not lose more than SRC"
        );
        // Conditioned means are well above the weighted estimate: the
        // Poisson weight is what makes the final UDR tiny.
        assert!(
            src.mean_udr < 1e-4,
            "weighted estimate must be small: {}",
            src.mean_udr
        );
    }

    #[test]
    fn conditional_udr_grows_with_k() {
        // More co-active large faults can only increase expected loss.
        let mut config = CampaignConfig::table4(80.0);
        config.capacity_bytes = 1 << 28;
        let r = &estimate_clone_udr(&config, &[CloningPolicy::Relaxed], 400, 5)[0];
        let first = r.conditional_udr.first().copied().unwrap_or(0.0);
        let last = r.conditional_udr.last().copied().unwrap_or(0.0);
        assert!(last >= first, "k=5 {last} vs k=2 {first}");
    }
}

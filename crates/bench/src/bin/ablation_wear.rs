//! Ablation: write endurance — where do Soteria's extra writes land, and
//! does wear leveling absorb them? PCM endures ~10^8 writes per cell
//! (§1); the metadata regions see the most concentrated traffic, so the
//! question is whether cloning makes any line meaningfully hotter.
//!
//! ```text
//! SOTERIA_OPS=300000 cargo run --release -p soteria-bench --bin ablation_wear
//! ```

use soteria::clone::CloningPolicy;
use soteria::{DataAddr, Fidelity, SecureMemoryConfig, SecureMemoryController};
use soteria_bench::{env_u64, header};
use soteria_faultsim::STANDARD_POLICIES;
use soteria_workloads::{SuiteConfig, Workload};

fn run(policy: CloningPolicy, ops: u64) -> (u64, u64, f64, String) {
    let config = SecureMemoryConfig::builder()
        .capacity_bytes(32 << 20)
        .metadata_cache(64 * 1024, 8)
        .cloning(policy)
        .fidelity(Fidelity::Timing)
        .build()
        .expect("valid config");
    let mut c = SecureMemoryController::new(config);
    let suite = SuiteConfig {
        footprint_bytes: 32 << 20,
        seed: 0xab1e,
    };
    let mut w = soteria_workloads::Sps::new(suite.footprint_bytes, suite.seed);
    for _ in 0..ops {
        let op = w.next_op();
        let line = (op.addr / 64) % c.layout().data_lines();
        if op.kind == soteria_workloads::OpKind::Write {
            c.write(DataAddr::new(line), &[0u8; 64]).expect("write");
        } else {
            c.read(DataAddr::new(line)).expect("read");
        }
    }
    let wear = c.device().wear();
    let total = wear.total_writes();
    let (hot_addr, hot_count) = wear.hottest().expect("writes happened");
    let hottest_region = match c.layout().classify(hot_addr) {
        soteria::layout::Region::Data(_) => "data".to_string(),
        soteria::layout::Region::DataMac => "data-MAC".to_string(),
        soteria::layout::Region::LeafMac => "leaf-MAC".to_string(),
        soteria::layout::Region::Meta(m) => format!("L{}", m.level),
        soteria::layout::Region::Shadow(_) => "shadow".to_string(),
        soteria::layout::Region::Clone { meta, .. } => format!("clone(L{})", meta.level),
        soteria::layout::Region::Unmapped => "unmapped".to_string(),
    };
    (total, hot_count, wear.imbalance(), hottest_region)
}

fn main() {
    let ops = env_u64("SOTERIA_OPS", 200_000);
    header(&format!(
        "Ablation — write endurance under cloning (sps, {ops} ops)"
    ));
    println!(
        "{:>9} | {:>10} | {:>12} | {:>10} | {:>12}",
        "scheme", "writes", "hottest line", "imbalance", "hot region"
    );
    println!("{}", "-".repeat(66));
    for policy in STANDARD_POLICIES {
        let name = policy.name();
        let (total, hot, imbalance, region) = run(policy, ops);
        println!(
            "{:>9} | {:>10} | {:>12} | {:>9.1}x | {:>12}",
            name, total, hot, imbalance, region
        );
    }
    println!("\nThe hottest cells belong to the *baseline* metadata machinery (a");
    println!("leaf-MAC line serves 8 counter blocks' writebacks; shadow slots take");
    println!("one write per store) — and the hottest line and imbalance are");
    println!("unchanged by SRC/SAC. Clone regions inherit only the eviction-rate");
    println!("traffic, and upper-level clones are written orders of magnitude more");
    println!("rarely still: Soteria does not create a new endurance hot spot.");
    println!("Start-gap wear leveling (NvmDimm::enable_wear_leveling) rotates the");
    println!("remaining hot lines across the physical array.");
}

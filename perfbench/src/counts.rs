//! Exact work counts read from a controller's public statistics: the
//! "timing travels with counts" half of every traced run. Counts repeat
//! exactly for a seed, so they are pinned at the default seed and a
//! change in work shows regardless of host noise.

use soteria::SecureMemoryController;

use crate::stats::ratio;
use crate::Report;

/// Exact work counts, read from the controller's public statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub data_reads: u64,
    pub data_writes: u64,
    pub nvm_reads: u64,
    pub nvm_writes: u64,
    pub evictions: u64,
    pub clone_writes: u64,
    pub shadow_writes: u64,
    pub reencryptions: u64,
    pub device_reads: u64,
    pub device_writes: u64,
    pub md_hits: u64,
    pub md_misses: u64,
    pub md_dirty_evictions: u64,
    pub wpq_stalls: u64,
    pub wpq_drains: u64,
}

/// The WPQ's stall and drain counters from the controller's metrics
/// snapshot.
fn wpq_counters(ctl: &SecureMemoryController) -> (u64, u64) {
    let snapshot = ctl.metrics_snapshot();
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(soteria_rt::json::Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    (counter("wpq.stalls"), counter("wpq.drains"))
}

impl Counts {
    pub fn of(ctl: &SecureMemoryController) -> Self {
        let s = ctl.stats();
        let cache = ctl.cache_stats();
        let dev = ctl.device().stats();
        let (wpq_stalls, wpq_drains) = wpq_counters(ctl);
        Self {
            data_reads: s.data_reads,
            data_writes: s.data_writes,
            nvm_reads: s.nvm_reads,
            nvm_writes: s.nvm_writes,
            evictions: s.total_evictions(),
            clone_writes: s.writes.clone,
            shadow_writes: s.writes.shadow,
            reencryptions: s.page_reencryptions,
            device_reads: dev.reads,
            device_writes: dev.writes,
            md_hits: cache.hits,
            md_misses: cache.misses,
            md_dirty_evictions: cache.dirty_evictions,
            wpq_stalls,
            wpq_drains,
        }
    }

    /// Field-wise `self - base`.
    pub fn since(self, base: Self) -> Self {
        self.zip(base, |a, b| a - b)
    }

    /// Field-wise `self + other`.
    pub fn plus(self, other: Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    fn zip(self, o: Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            data_reads: f(self.data_reads, o.data_reads),
            data_writes: f(self.data_writes, o.data_writes),
            nvm_reads: f(self.nvm_reads, o.nvm_reads),
            nvm_writes: f(self.nvm_writes, o.nvm_writes),
            evictions: f(self.evictions, o.evictions),
            clone_writes: f(self.clone_writes, o.clone_writes),
            shadow_writes: f(self.shadow_writes, o.shadow_writes),
            reencryptions: f(self.reencryptions, o.reencryptions),
            device_reads: f(self.device_reads, o.device_reads),
            device_writes: f(self.device_writes, o.device_writes),
            md_hits: f(self.md_hits, o.md_hits),
            md_misses: f(self.md_misses, o.md_misses),
            md_dirty_evictions: f(self.md_dirty_evictions, o.md_dirty_evictions),
            wpq_stalls: f(self.wpq_stalls, o.wpq_stalls),
            wpq_drains: f(self.wpq_drains, o.wpq_drains),
        }
    }

    pub fn pinned(&self) -> [(&'static str, u64); 15] {
        [
            ("data_reads", self.data_reads),
            ("data_writes", self.data_writes),
            ("nvm_reads", self.nvm_reads),
            ("nvm_writes", self.nvm_writes),
            ("evictions", self.evictions),
            ("clone_writes", self.clone_writes),
            ("shadow_writes", self.shadow_writes),
            ("page_reencryptions", self.reencryptions),
            ("device_reads", self.device_reads),
            ("device_writes", self.device_writes),
            ("mdcache_hits", self.md_hits),
            ("mdcache_misses", self.md_misses),
            ("mdcache_dirty_evictions", self.md_dirty_evictions),
            ("wpq_stalls", self.wpq_stalls),
            ("wpq_drains", self.wpq_drains),
        ]
    }
}

/// The count-derived per-layer metrics of a pass of `ops` ops.
pub fn report_counts(report: &mut Report, c: &Counts, ops: u64) {
    let per_op = |v: u64| v as f64 / ops as f64;
    report.metric("core.nvm_reads_per_op", per_op(c.nvm_reads), ops);
    report.metric("core.nvm_writes_per_op", per_op(c.nvm_writes), ops);
    report.metric("core.evictions_per_op", per_op(c.evictions), ops);
    report.metric("core.clone_writes_per_op", per_op(c.clone_writes), ops);
    report.metric("core.shadow_writes_per_op", per_op(c.shadow_writes), ops);
    report.metric(
        "mdcache.miss_ratio",
        ratio(c.md_misses as f64, (c.md_hits + c.md_misses) as f64),
        c.md_hits + c.md_misses,
    );
    report.metric(
        "mdcache.dirty_evictions_per_op",
        per_op(c.md_dirty_evictions),
        ops,
    );
    report.metric("nvm.device_reads_per_op", per_op(c.device_reads), ops);
    report.metric("nvm.device_writes_per_op", per_op(c.device_writes), ops);
    report.metric("nvm.wpq_stalls_per_op", per_op(c.wpq_stalls), ops);
    report.metric("nvm.wpq_drains_per_op", per_op(c.wpq_drains), ops);
}

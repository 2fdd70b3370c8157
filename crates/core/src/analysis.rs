//! Resilience analytics: the Fig. 3 expected-loss model and the UDR
//! (Unverifiable Data Ratio) assessment that Figs. 11–12 are built on.
//!
//! * [`ExpectedLossModel`] — the §2.7 analytic model: errors land
//!   uniformly over all stored lines; losing a line costs its *coverage*
//!   (1 line for data, 8 for a MAC line, `64·8^(ℓ-1)` for a level-ℓ tree
//!   block). Each tree level contributes the same expected loss as the
//!   whole data region, which is why a secure memory is ≈ `levels + 2`
//!   (~12×) less resilient than a non-secure one.
//!
//! * [`ResilienceModel::assess`] — takes the fault set of one Monte Carlo
//!   iteration (from `soteria-faultsim`), determines where Chipkill is
//!   defeated (two distinct faulty chips sharing a codeword), maps those
//!   uncorrectable regions onto the memory layout, and reports, per
//!   protection scheme, `L_error` (data lines directly lost) and
//!   `L_unverifiable` (data covered by metadata whose **every copy** —
//!   original and all Soteria clones — fell inside uncorrectable regions
//!   and which the scheme's [`LossProfile`] cannot reconstruct).

use soteria_nvm::fault::{FaultFootprint, FaultRecord};
use soteria_nvm::geometry::DimmGeometry;
use soteria_nvm::LineAddr;

use crate::clone::CloningPolicy;
use crate::layout::{MemoryLayout, MetaId, Region, COUNTERS_PER_BLOCK, TREE_ARITY};

// ---------------------------------------------------------------------
// Fig. 3: expected loss vs number of uncorrectable errors
// ---------------------------------------------------------------------

/// Analytic expected-loss model for a given protected capacity.
#[derive(Clone, Debug)]
pub struct ExpectedLossModel {
    data_lines: u64,
    data_mac_lines: u64,
    leaf_mac_lines: u64,
    level_counts: Vec<u64>,
}

impl ExpectedLossModel {
    /// Builds the model for `capacity_bytes` of protected data.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of 4 KiB.
    pub fn new(capacity_bytes: u64) -> Self {
        let data_lines = capacity_bytes / 64;
        assert!(data_lines > 0 && data_lines.is_multiple_of(COUNTERS_PER_BLOCK));
        let mut level = data_lines / COUNTERS_PER_BLOCK;
        let mut level_counts = vec![level];
        while level > TREE_ARITY {
            level = level.div_ceil(TREE_ARITY);
            level_counts.push(level);
        }
        Self {
            data_lines,
            data_mac_lines: data_lines / 8,
            leaf_mac_lines: (data_lines / COUNTERS_PER_BLOCK).div_ceil(8),
            level_counts,
        }
    }

    /// Tree levels stored in memory (excluding the root).
    pub fn levels(&self) -> u8 {
        self.level_counts.len() as u8
    }

    fn total_lines(&self) -> u64 {
        self.data_lines
            + self.data_mac_lines
            + self.leaf_mac_lines
            + self.level_counts.iter().sum::<u64>()
    }

    /// Expected data bytes lost/unverifiable per uncorrectable error in a
    /// **secure** memory (error uniform over data + metadata lines).
    pub fn secure_loss_per_error_bytes(&self) -> f64 {
        // Sum of coverage over all lines, in data lines.
        let mut coverage = self.data_lines as f64; // data lines cover themselves
        coverage += self.data_mac_lines as f64 * 8.0; // 8 MACs per line
        coverage += self.leaf_mac_lines as f64 * 8.0 * COUNTERS_PER_BLOCK as f64;
        for (i, &count) in self.level_counts.iter().enumerate() {
            let per_block = (COUNTERS_PER_BLOCK * TREE_ARITY.pow(i as u32)) as f64;
            coverage += count as f64 * per_block.min(self.data_lines as f64);
        }
        coverage / self.total_lines() as f64 * 64.0
    }

    /// Expected data bytes lost per uncorrectable error in a non-secure
    /// memory: exactly one line.
    pub fn nonsecure_loss_per_error_bytes(&self) -> f64 {
        64.0
    }

    /// Expected loss for `errors` uncorrectable errors (secure memory).
    pub fn secure_loss_bytes(&self, errors: u64) -> f64 {
        errors as f64 * self.secure_loss_per_error_bytes()
    }

    /// Expected loss for `errors` uncorrectable errors (non-secure).
    pub fn nonsecure_loss_bytes(&self, errors: u64) -> f64 {
        errors as f64 * self.nonsecure_loss_per_error_bytes()
    }

    /// How many times less resilient the secure memory is (Fig. 3 reports
    /// ≈ 12× for 4 TB).
    pub fn amplification(&self) -> f64 {
        self.secure_loss_per_error_bytes() / self.nonsecure_loss_per_error_bytes()
    }
}

// ---------------------------------------------------------------------
// Figs. 11-12: UDR under a concrete fault set
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sel {
    All,
    One(u32),
}

impl Sel {
    fn intersect(self, other: Sel) -> Option<Sel> {
        match (self, other) {
            (Sel::All, x) | (x, Sel::All) => Some(x),
            (Sel::One(a), Sel::One(b)) if a == b => Some(Sel::One(a)),
            _ => None,
        }
    }

    fn contains(self, v: u32) -> bool {
        match self {
            Sel::All => true,
            Sel::One(x) => x == v,
        }
    }
}

/// A region of (bank, row, col, beat) coordinates where Chipkill is
/// defeated (≥ 2 distinct chips faulty in the same codeword).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct UeRegion {
    bank_mask: u32,
    row: Sel,
    col: Sel,
    beat: Sel,
}

fn footprint_shape(fp: &FaultFootprint) -> (u32, Sel, Sel, Sel) {
    match *fp {
        FaultFootprint::SingleBit {
            bank,
            row,
            col,
            beat,
            ..
        }
        | FaultFootprint::SingleWord {
            bank,
            row,
            col,
            beat,
        } => (
            1 << bank,
            Sel::One(row),
            Sel::One(col),
            Sel::One(beat as u32),
        ),
        FaultFootprint::SingleColumn { bank, col } => {
            (1 << bank, Sel::All, Sel::One(col), Sel::All)
        }
        FaultFootprint::SingleRow { bank, row } => (1 << bank, Sel::One(row), Sel::All, Sel::All),
        FaultFootprint::SingleBank { bank } => (1 << bank, Sel::All, Sel::All, Sel::All),
        FaultFootprint::MultiBank { bank_mask } => (bank_mask, Sel::All, Sel::All, Sel::All),
        FaultFootprint::WholeChip => (u32::MAX, Sel::All, Sel::All, Sel::All),
    }
}

fn intersect_shapes(a: (u32, Sel, Sel, Sel), b: (u32, Sel, Sel, Sel)) -> Option<UeRegion> {
    let banks = a.0 & b.0;
    if banks == 0 {
        return None;
    }
    Some(UeRegion {
        bank_mask: banks,
        row: a.1.intersect(b.1)?,
        col: a.2.intersect(b.2)?,
        beat: a.3.intersect(b.3)?,
    })
}

/// Result of assessing one fault set against the layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LossAssessment {
    /// Data lines directly uncorrectable (`L_error`).
    pub error_data_lines: u64,
    /// Data lines rendered unverifiable by lost metadata
    /// (`L_unverifiable`). Zero unless **all** copies of some metadata
    /// block were uncorrectable.
    pub unverifiable_data_lines: u64,
    /// Metadata blocks lost with all their clones.
    pub lost_meta_blocks: Vec<MetaId>,
}

impl LossAssessment {
    /// UDR: unverifiable data over total protected data.
    pub fn udr(&self, data_lines: u64) -> f64 {
        self.unverifiable_data_lines as f64 / data_lines as f64
    }

    /// Direct-error data ratio.
    pub fn error_ratio(&self, data_lines: u64) -> f64 {
        self.error_data_lines as f64 / data_lines as f64
    }
}

/// Maps fault sets to data loss for a given layout.
///
/// One model serves any number of protection schemes: [`Self::assess`]
/// computes the uncorrectable regions and `L_error` once and evaluates
/// every scheme against the same fault set (the paired comparison the
/// Monte Carlo jobs rely on).
#[derive(Clone, Debug)]
pub struct ResilienceModel<'a> {
    layout: &'a MemoryLayout,
    geometry: &'a DimmGeometry,
    correctable_chips: usize,
}

impl<'a> ResilienceModel<'a> {
    /// Creates the model with Chipkill-Correct (1 correctable chip) — the
    /// paper's configuration.
    pub fn new(layout: &'a MemoryLayout, geometry: &'a DimmGeometry) -> Self {
        Self {
            layout,
            geometry,
            correctable_chips: 1,
        }
    }

    /// Sets the number of simultaneously-faulty chips the DIMM's ECC
    /// corrects per codeword (0 = SEC-DED-class, 1 = Chipkill,
    /// 2 = double-Chipkill) — the §3.1/§6.2 ECC-strength ablation.
    pub fn with_correctable_chips(mut self, chips: usize) -> Self {
        self.correctable_chips = chips;
        self
    }

    /// Recursively intersects `need` more fault footprints (on chips
    /// disjoint from `used`) into `shape`, collecting completed regions.
    fn extend_overlaps(
        &self,
        faults: &[FaultRecord],
        start: usize,
        shape: (u32, Sel, Sel, Sel),
        used_chips: &[u32],
        distinct: usize,
        regions: &mut Vec<UeRegion>,
    ) {
        if distinct > self.correctable_chips {
            let r = UeRegion {
                bank_mask: shape.0,
                row: shape.1,
                col: shape.2,
                beat: shape.3,
            };
            if !regions.contains(&r) {
                regions.push(r);
            }
            return;
        }
        for (i, f) in faults.iter().enumerate().skip(start) {
            let new_chips: Vec<u32> = f
                .chips
                .iter()
                .copied()
                .filter(|c| !used_chips.contains(c))
                .collect();
            if new_chips.is_empty() {
                continue;
            }
            if let Some(r) = intersect_shapes(shape, footprint_shape(&f.footprint)) {
                let mut used = used_chips.to_vec();
                used.extend_from_slice(&new_chips);
                self.extend_overlaps(
                    faults,
                    i + 1,
                    (r.bank_mask, r.row, r.col, r.beat),
                    &used,
                    distinct + new_chips.len(),
                    regions,
                );
            }
        }
    }

    fn ue_regions(&self, faults: &[FaultRecord]) -> Vec<UeRegion> {
        let mut regions = Vec::new();
        // Single faults spanning more chips than the ECC corrects defeat
        // it on their own footprint.
        for f in faults {
            if f.chips.len() > self.correctable_chips {
                let s = footprint_shape(&f.footprint);
                let r = UeRegion {
                    bank_mask: s.0,
                    row: s.1,
                    col: s.2,
                    beat: s.3,
                };
                if !regions.contains(&r) {
                    regions.push(r);
                }
            }
        }
        // Combinations of faults on distinct chips whose footprints all
        // overlap: more bad symbols in one codeword than the ECC corrects.
        for (i, f) in faults.iter().enumerate() {
            let shape = footprint_shape(&f.footprint);
            self.extend_overlaps(faults, i + 1, shape, &f.chips, f.chips.len(), &mut regions);
        }
        regions
    }

    fn region_contains_line(&self, region: &UeRegion, line: u64) -> bool {
        let loc = self.geometry.locate(LineAddr::new(line));
        region.bank_mask & (1 << loc.bank) != 0
            && region.row.contains(loc.row)
            && region.col.contains(loc.col)
    }

    fn any_region_contains(&self, regions: &[UeRegion], line: u64) -> bool {
        regions.iter().any(|r| self.region_contains_line(r, line))
    }

    /// A region that blankets the whole device.
    fn is_total(&self, region: &UeRegion) -> bool {
        region.row == Sel::All
            && region.col == Sel::All
            && (0..self.geometry.banks()).all(|b| region.bank_mask & (1 << b) != 0)
    }

    /// Closed-form count of the lines of `[start, end)` inside `region`.
    fn count_lines_in(&self, region: &UeRegion, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        let cols = self.geometry.cols_per_row() as i128;
        let banks = self.geometry.banks() as u64;
        let rows = self.geometry.rows() as i128;
        let rb = cols * banks as i128; // lines per full row group
        let (s, e) = (start as i128, end as i128);
        let mut total: u64 = 0;
        for bank in 0..banks {
            if region.bank_mask & (1 << bank) == 0 {
                continue;
            }
            let off = bank as i128 * cols;
            match (region.row, region.col) {
                (Sel::One(row), Sel::One(c)) => {
                    let line = row as i128 * rb + off + c as i128;
                    if line >= s && line < e {
                        total += 1;
                    }
                }
                (Sel::One(row), Sel::All) => {
                    let rs = row as i128 * rb + off;
                    let overlap = (rs + cols).min(e) - rs.max(s);
                    if overlap > 0 {
                        total += overlap as u64;
                    }
                }
                (Sel::All, Sel::One(c)) => {
                    // Arithmetic progression row*rb + off + c, step rb.
                    let o = off + c as i128;
                    let lo = (s - o).div_euclid(rb) + i128::from((s - o).rem_euclid(rb) != 0);
                    let hi = (e - 1 - o).div_euclid(rb);
                    let lo = lo.max(0);
                    let hi = hi.min(rows - 1);
                    if hi >= lo {
                        total += (hi - lo + 1) as u64;
                    }
                }
                (Sel::All, Sel::All) => {
                    // Runs of `cols` lines at row*rb + off for each row.
                    let r_lo = ((s - off - cols + 1).div_euclid(rb)).max(0);
                    let r_hi = ((e - 1 - off).div_euclid(rb)).min(rows - 1);
                    for row in r_lo..=r_hi {
                        let rs = row * rb + off;
                        let overlap = (rs + cols).min(e) - rs.max(s);
                        if overlap > 0 {
                            total += overlap as u64;
                        }
                        // Middle rows all contribute `cols`; collapse them.
                        if rs >= s && rs + cols <= e {
                            let last_full = ((e - cols - off).div_euclid(rb)).min(rows - 1);
                            if last_full > row {
                                total += ((last_full - row) as u64) * cols as u64;
                            }
                            // Tail partial row, if any.
                            let tail = last_full + 1;
                            if tail <= r_hi {
                                let ts = tail * rb + off;
                                let overlap = (ts + cols).min(e) - ts.max(s);
                                if overlap > 0 {
                                    total += overlap as u64;
                                }
                            }
                            break;
                        }
                    }
                }
            }
        }
        total
    }

    /// Calls `f` for every line of `[start, end)` inside `region`.
    fn for_each_line_in(&self, region: &UeRegion, start: u64, end: u64, f: &mut impl FnMut(u64)) {
        let cols = self.geometry.cols_per_row() as u64;
        let banks = self.geometry.banks() as u64;
        let lines_per_row_group = cols * banks;
        let row_first = start / lines_per_row_group;
        let row_last = (end.saturating_sub(1)) / lines_per_row_group;
        for row in row_first..=row_last {
            if !region.row.contains(row as u32) {
                continue;
            }
            for bank in 0..banks {
                if region.bank_mask & (1 << bank) == 0 {
                    continue;
                }
                let run_start = row * lines_per_row_group + bank * cols;
                match region.col {
                    Sel::One(c) => {
                        let line = run_start + c as u64;
                        if line >= start && line < end {
                            f(line);
                        }
                    }
                    Sel::All => {
                        let s = run_start.max(start);
                        let e = (run_start + cols).min(end);
                        for line in s..e {
                            f(line);
                        }
                    }
                }
            }
        }
    }

    fn is_bankwide(region: &UeRegion) -> bool {
        region.row == Sel::All && region.col == Sel::All
    }

    /// Counts lines `x` in `[start, end)` with `bank(x) == bank` and
    /// `col(x) ∈ [col_lo, col_hi)` — closed form over the 16384-line row
    /// period of the global address map.
    fn count_bank_col(&self, start: u64, end: u64, bank: u64, col_lo: u64, col_hi: u64) -> u64 {
        let cols = self.geometry.cols_per_row() as u64;
        let banks = self.geometry.banks() as u64;
        let period = cols * banks;
        let width = col_hi - col_lo;
        let offset = bank * cols + col_lo; // interval start within a period
        let prefix = |n: u64| -> u64 {
            let full = n / period * width;
            let rem = n % period;
            full + rem.saturating_sub(offset).min(width)
        };
        prefix(end) - prefix(start)
    }

    /// Fast evaluation when every UE region is bank-wide (rank/bank-scale
    /// faults — the regime the rare-event estimator conditions on):
    /// block lostness depends only on (level, bank, carry segment of the
    /// column), so per-level lost fractions come out in closed form. The
    /// per-line coverage union across levels is combined as
    /// `1 - Π(1 - f_l)` (levels map a given data line to effectively
    /// independent banks under the interleaved address map). Levels the
    /// scheme rebuilds lose nothing, exactly as in the scan.
    fn assess_bankwide(
        &self,
        regions: &[UeRegion],
        schemes: &[SchemeLoss<'_>],
        error_lines: u64,
    ) -> Vec<LossAssessment> {
        let banks = self.geometry.banks() as u64;
        let cols = self.geometry.cols_per_row() as u64;
        let mask_union: u32 = regions.iter().fold(0, |m, r| m | r.bank_mask);
        schemes
            .iter()
            .map(|scheme| {
                let mut keep = 1.0f64;
                for level in 1..=self.layout.levels() {
                    if scheme.profile.rebuilds(level) {
                        continue;
                    }
                    let extra = scheme.cloning.extra_clones(level, self.layout.levels());
                    let base = self.layout.meta_addr(MetaId::new(level, 0)).index();
                    let count = self.layout.level_count(level);
                    // Column-carry boundaries: clone skew 67·(c+1) spills
                    // into the next bank when col ≥ cols − 67·(c+1).
                    let mut bounds: Vec<u64> = vec![0, cols];
                    for c in 1..=extra as u64 {
                        let b = cols.saturating_sub(67 * c);
                        if b > 0 && b < cols {
                            bounds.push(b);
                        }
                    }
                    bounds.sort_unstable();
                    bounds.dedup();
                    let mut lost = 0u64;
                    for bank in 0..banks {
                        if mask_union & (1 << bank) == 0 {
                            continue;
                        }
                        for seg in bounds.windows(2) {
                            let (lo, hi) = (seg[0], seg[1]);
                            let all_clones_dead = (1..=extra as u64).all(|c| {
                                let carry = u64::from(lo >= cols - 67 * c);
                                let clone_bank = (bank + c + carry) % banks;
                                mask_union & (1 << clone_bank) != 0
                            });
                            if all_clones_dead {
                                lost += self.count_bank_col(base, base + count, bank, lo, hi);
                            }
                        }
                    }
                    keep *= 1.0 - lost as f64 / count as f64;
                }
                let unverifiable = ((1.0 - keep) * self.layout.data_lines() as f64).round() as u64;
                LossAssessment {
                    error_data_lines: error_lines,
                    unverifiable_data_lines: unverifiable,
                    lost_meta_blocks: Vec::new(),
                }
            })
            .collect()
    }

    /// `L_error`: lines of the data region inside any UE region. Regions
    /// from distinct fault pairs virtually never overlap; the per-region
    /// closed-form counts are summed and capped (a (rare) overlap makes
    /// this a tight upper bound).
    fn error_lines_in(&self, regions: &[UeRegion], data_lines: u64) -> u64 {
        if regions.len() == 1 {
            return self.count_lines_in(&regions[0], 0, data_lines);
        }
        let approx: u64 = regions
            .iter()
            .map(|r| self.count_lines_in(r, 0, data_lines))
            .sum();
        if approx <= 1 << 17 {
            // Small enough to count the union exactly (sort + dedup
            // keeps this hot path deterministic and allocation-light).
            let mut counted: Vec<u64> = Vec::with_capacity(approx as usize);
            for r in regions {
                self.for_each_line_in(r, 0, data_lines, &mut |line| {
                    counted.push(line);
                });
            }
            counted.sort_unstable();
            counted.dedup();
            counted.len() as u64
        } else {
            approx.min(data_lines)
        }
    }

    /// Assesses one fault set under several protection schemes at once:
    /// the UE regions and `L_error` are computed a single time and every
    /// scheme — a cloning policy plus the [`LossProfile`] of what its
    /// recovery reconstructs — is judged against them.
    ///
    /// A fault set whose UE regions are all bank-wide takes a closed form
    /// when every scheme's leaf recovery is [`LeafRecovery::Fatal`] (the
    /// closed form cannot express per-leaf trial rescue); every other
    /// fault set takes the exact per-block scan.
    pub fn assess(
        &self,
        faults: &[FaultRecord],
        schemes: &[SchemeLoss<'_>],
    ) -> Vec<LossAssessment> {
        let regions = self.ue_regions(faults);
        if regions.is_empty() {
            return vec![LossAssessment::default(); schemes.len()];
        }
        let data_lines = self.layout.data_lines();

        // Whole-device UE (e.g. a rank-pair failure): everything is lost
        // under every scheme — clones need intact copies, trials intact
        // data lines and rebuilds intact leaves.
        if regions.iter().any(|r| self.is_total(r)) {
            let top = self.layout.levels();
            let lost: Vec<MetaId> = (0..self.layout.level_count(top))
                .map(|i| MetaId::new(top, i))
                .collect();
            return vec![
                LossAssessment {
                    error_data_lines: data_lines,
                    unverifiable_data_lines: data_lines,
                    lost_meta_blocks: lost,
                };
                schemes.len()
            ];
        }

        let error_lines = self.error_lines_in(&regions, data_lines);

        // Bank-scale-only fault sets take the closed-form path (the slow
        // scan below enumerates millions of metadata lines for them).
        if regions.iter().all(Self::is_bankwide)
            && schemes
                .iter()
                .all(|s| s.profile.leaf == LeafRecovery::Fatal)
        {
            return self.assess_bankwide(&regions, schemes, error_lines);
        }

        // Metadata loss per scheme: a block is lost only if its primary
        // AND all its clones fall inside UE regions, and the scheme's
        // recovery cannot reconstruct it.
        let meta_start = self.layout.meta_addr(MetaId::new(1, 0)).index();
        let top = self.layout.levels();
        let meta_end = self
            .layout
            .meta_addr(MetaId::new(top, self.layout.level_count(top) - 1))
            .index()
            + 1;
        // Collected as plain vectors (a meta can repeat only when regions
        // overlap, which is rare); sort + dedup below canonicalizes.
        let mut lost: Vec<Vec<MetaId>> = vec![Vec::new(); schemes.len()];
        for r in &regions {
            self.for_each_line_in(r, meta_start, meta_end, &mut |line| {
                let Region::Meta(meta) = self.layout.classify(LineAddr::new(line)) else {
                    return;
                };
                for (s, scheme) in schemes.iter().enumerate() {
                    if scheme.profile.rebuilds(meta.level) {
                        continue;
                    }
                    let extra = scheme
                        .cloning
                        .extra_clones(meta.level, self.layout.levels());
                    let all_clones_dead = (1..=extra).all(|c| {
                        let ca = self.layout.clone_addr(meta, c).index();
                        self.any_region_contains(&regions, ca)
                    });
                    if !all_clones_dead {
                        continue;
                    }
                    // A destroyed leaf counter block is re-derivable by
                    // bounded forward MAC trials only when every covered
                    // data line (and its MAC) survived to trial against.
                    if meta.level == 1 && scheme.profile.leaf == LeafRecovery::Trials {
                        let (start, count) = self.layout.covered_data_range(meta);
                        let (s0, e0) = (start.index(), start.index() + count);
                        let covered_hit =
                            regions.iter().any(|r| self.count_lines_in(r, s0, e0) > 0);
                        if !covered_hit {
                            continue;
                        }
                    }
                    lost[s].push(meta);
                }
            });
        }

        lost.into_iter()
            .map(|mut set| {
                set.sort_unstable();
                set.dedup();
                // Union of covered data ranges (a lost L2 node covers its
                // lost leaves' ranges too).
                let mut ranges: Vec<(u64, u64)> = set
                    .iter()
                    .map(|&m| {
                        let (start, count) = self.layout.covered_data_range(m);
                        (start.index(), start.index() + count)
                    })
                    .collect();
                ranges.sort_unstable();
                let mut unverifiable = 0u64;
                let mut cursor = 0u64;
                for (s, e) in ranges {
                    let s = s.max(cursor);
                    if e > s {
                        unverifiable += e - s;
                        cursor = e;
                    }
                }
                LossAssessment {
                    error_data_lines: error_lines,
                    unverifiable_data_lines: unverifiable,
                    lost_meta_blocks: set,
                }
            })
            .collect()
    }

    /// Assesses one fault set under one cloning policy and the default
    /// (ToC) loss profile.
    pub fn assess_policy(&self, faults: &[FaultRecord], policy: &CloningPolicy) -> LossAssessment {
        self.assess(
            faults,
            &[SchemeLoss {
                cloning: policy,
                profile: LossProfile::default(),
            }],
        )
        .remove(0)
    }
}

/// How a scheme's recovery path handles a leaf counter block destroyed
/// with all its clones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LeafRecovery {
    /// The covered data becomes unverifiable (ToC + Anubis: nothing can
    /// re-derive the counters).
    #[default]
    Fatal,
    /// Bounded forward MAC trials re-derive the counters from the data
    /// MACs (Osiris-style), provided every covered data line survived.
    Trials,
}

/// What a protection scheme's recovery machinery can reconstruct — the
/// loss-accounting half of a `ProtectionPolicy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossProfile {
    /// Lowest tree level (≥ 2) rebuildable from its children at
    /// recovery; `u8::MAX` means never (plain ToC).
    pub rebuild_floor: u8,
    /// Leaf counter-block recovery mode.
    pub leaf: LeafRecovery,
}

impl Default for LossProfile {
    fn default() -> Self {
        Self {
            rebuild_floor: u8::MAX,
            leaf: LeafRecovery::Fatal,
        }
    }
}

impl LossProfile {
    /// Whether a lost tree node at `level` is recomputed from its
    /// children at recovery (BMT rehash / Phoenix counter refold): a
    /// rebuild, not data loss. Leaves (level 1) never are.
    pub fn rebuilds(&self, level: u8) -> bool {
        level >= 2 && level >= self.rebuild_floor
    }
}

/// One scheme's inputs to [`ResilienceModel::assess`].
#[derive(Clone, Copy, Debug)]
pub struct SchemeLoss<'a> {
    /// The metadata cloning policy (Baseline / SRC / SAC).
    pub cloning: &'a CloningPolicy,
    /// What recovery reconstructs.
    pub profile: LossProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::geometry_for;
    use soteria_nvm::fault::FaultKind;

    #[test]
    fn four_tb_amplification_is_about_12x() {
        let m = ExpectedLossModel::new(4u64 << 40);
        let amp = m.amplification();
        assert!((11.0..13.0).contains(&amp), "amplification {amp}");
    }

    #[test]
    fn amplification_grows_with_capacity() {
        let small = ExpectedLossModel::new(1 << 30).amplification();
        let large = ExpectedLossModel::new(1 << 42).amplification();
        assert!(
            large > small,
            "more levels, more exposure: {small} vs {large}"
        );
    }

    #[test]
    fn expected_loss_is_linear_in_errors() {
        let m = ExpectedLossModel::new(1 << 32);
        assert!((m.secure_loss_bytes(10) - 10.0 * m.secure_loss_bytes(1)).abs() < 1e-6);
        assert_eq!(m.nonsecure_loss_bytes(10), 640.0);
    }

    fn setup() -> (MemoryLayout, DimmGeometry) {
        let layout = MemoryLayout::new((64u64 << 20) / 64, 128, 4); // 64 MiB
        let geometry = geometry_for(layout.total_lines());
        (layout, geometry)
    }

    #[test]
    fn no_faults_no_loss() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        assert_eq!(model.assess_policy(&[], &policy), LossAssessment::default());
    }

    #[test]
    fn single_chip_fault_is_harmless() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let f = FaultRecord::on_chip(
            &geometry,
            3,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        );
        let a = model.assess_policy(&[f], &policy);
        assert_eq!(a.error_data_lines, 0);
        assert_eq!(a.unverifiable_data_lines, 0);
    }

    #[test]
    fn two_chip_row_overlap_loses_that_row() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        // Both faults in bank 0, row 0 — overlapping rows on two chips.
        let f1 = FaultRecord::on_chip(
            &geometry,
            1,
            FaultFootprint::SingleRow { bank: 0, row: 0 },
            FaultKind::Permanent,
        );
        let f2 = FaultRecord::on_chip(
            &geometry,
            7,
            FaultFootprint::SingleRow { bank: 0, row: 0 },
            FaultKind::Permanent,
        );
        let a = model.assess_policy(&[f1, f2], &policy);
        // Row 0 of bank 0 = the first 1024 lines, all data.
        assert_eq!(a.error_data_lines, 1024);
    }

    #[test]
    fn same_chip_twice_is_still_correctable() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let f1 = FaultRecord::on_chip(
            &geometry,
            1,
            FaultFootprint::SingleRow { bank: 0, row: 0 },
            FaultKind::Permanent,
        );
        let f2 = FaultRecord::on_chip(
            &geometry,
            1,
            FaultFootprint::SingleBank { bank: 0 },
            FaultKind::Permanent,
        );
        let a = model.assess_policy(&[f1, f2], &policy);
        assert_eq!(a.error_data_lines, 0);
    }

    #[test]
    fn word_faults_in_different_beats_do_not_collide() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let mk = |chip, beat| {
            FaultRecord::on_chip(
                &geometry,
                chip,
                FaultFootprint::SingleWord {
                    bank: 0,
                    row: 0,
                    col: 0,
                    beat,
                },
                FaultKind::Permanent,
            )
        };
        assert_eq!(
            model
                .assess_policy(&[mk(1, 0), mk(2, 1)], &policy)
                .error_data_lines,
            0
        );
        assert_eq!(
            model
                .assess_policy(&[mk(1, 0), mk(2, 0)], &policy)
                .error_data_lines,
            1
        );
    }

    #[test]
    fn metadata_loss_without_clones() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        // Hit exactly the primary line of the top-level node 0 with a
        // two-chip word fault.
        let meta = MetaId::new(layout.levels(), 0);
        let loc = geometry.locate(layout.meta_addr(meta));
        let mk = |chip| {
            FaultRecord::on_chip(
                &geometry,
                chip,
                FaultFootprint::SingleWord {
                    bank: loc.bank,
                    row: loc.row,
                    col: loc.col,
                    beat: 0,
                },
                FaultKind::Permanent,
            )
        };
        let a = model.assess_policy(&[mk(0), mk(9)], &policy);
        assert_eq!(a.lost_meta_blocks, vec![meta]);
        assert_eq!(a.unverifiable_data_lines, layout.covered_data_lines(meta));
    }

    #[test]
    fn clones_rescue_metadata() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::Relaxed;
        let model = ResilienceModel::new(&layout, &geometry);
        let meta = MetaId::new(layout.levels(), 0);
        let loc = geometry.locate(layout.meta_addr(meta));
        let mk = |chip| {
            FaultRecord::on_chip(
                &geometry,
                chip,
                FaultFootprint::SingleWord {
                    bank: loc.bank,
                    row: loc.row,
                    col: loc.col,
                    beat: 0,
                },
                FaultKind::Permanent,
            )
        };
        let a = model.assess_policy(&[mk(0), mk(9)], &policy);
        assert!(a.lost_meta_blocks.is_empty(), "SRC clone must survive");
        assert_eq!(a.unverifiable_data_lines, 0);
    }

    #[test]
    fn rank_pair_fault_loses_everything_even_with_clones() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::Aggressive;
        let model = ResilienceModel::new(&layout, &geometry);
        let f = FaultRecord::on_rank(
            &geometry,
            0,
            FaultFootprint::WholeChip,
            FaultKind::Permanent,
        );
        let a = model.assess_policy(&[f], &policy);
        assert_eq!(a.error_data_lines, layout.data_lines());
        assert_eq!(a.unverifiable_data_lines, layout.data_lines());
    }

    #[test]
    fn secded_class_fails_on_single_chip() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry).with_correctable_chips(0);
        let f = FaultRecord::on_chip(
            &geometry,
            3,
            FaultFootprint::SingleRow { bank: 0, row: 0 },
            FaultKind::Permanent,
        );
        let a = model.assess_policy(&[f], &policy);
        assert_eq!(
            a.error_data_lines, 1024,
            "one faulty chip already defeats SEC-DED"
        );
    }

    #[test]
    fn double_chipkill_survives_two_chips() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry).with_correctable_chips(2);
        let mk = |chip| {
            FaultRecord::on_chip(
                &geometry,
                chip,
                FaultFootprint::SingleRow { bank: 0, row: 0 },
                FaultKind::Permanent,
            )
        };
        assert_eq!(
            model
                .assess_policy(&[mk(1), mk(7)], &policy)
                .error_data_lines,
            0
        );
        // But three distinct chips defeat it.
        let a = model.assess_policy(&[mk(1), mk(7), mk(12)], &policy);
        assert_eq!(a.error_data_lines, 1024);
    }

    /// A BMT-style profile: every tree node above the counter blocks is
    /// rebuilt from its children.
    const BMT: LossProfile = LossProfile {
        rebuild_floor: 2,
        leaf: LeafRecovery::Fatal,
    };

    /// An Osiris-style profile: lost leaves are re-derived by MAC trials.
    const TRIALS: LossProfile = LossProfile {
        rebuild_floor: u8::MAX,
        leaf: LeafRecovery::Trials,
    };

    /// A two-chip word fault on the primary line of `meta`.
    fn word_pair_on(
        layout: &MemoryLayout,
        geometry: &DimmGeometry,
        meta: MetaId,
    ) -> Vec<FaultRecord> {
        let loc = geometry.locate(layout.meta_addr(meta));
        [0, 9]
            .map(|chip| {
                FaultRecord::on_chip(
                    geometry,
                    chip,
                    FaultFootprint::SingleWord {
                        bank: loc.bank,
                        row: loc.row,
                        col: loc.col,
                        beat: 0,
                    },
                    FaultKind::Permanent,
                )
            })
            .to_vec()
    }

    /// Two chips faulty across one whole bank: a bank-wide UE region.
    fn bank_pair(geometry: &DimmGeometry, bank: u32) -> Vec<FaultRecord> {
        [1, 7]
            .map(|chip| {
                FaultRecord::on_chip(
                    geometry,
                    chip,
                    FaultFootprint::SingleBank { bank },
                    FaultKind::Permanent,
                )
            })
            .to_vec()
    }

    #[test]
    fn bmt_ignores_intermediate_node_loss() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let faults = word_pair_on(&layout, &geometry, MetaId::new(layout.levels(), 0));
        let bmt = SchemeLoss {
            cloning: &policy,
            profile: BMT,
        };
        assert!(
            model
                .assess_policy(&faults, &policy)
                .unverifiable_data_lines
                > 0
        );
        assert_eq!(model.assess(&faults, &[bmt])[0].unverifiable_data_lines, 0);
    }

    #[test]
    fn bmt_still_loses_counter_blocks() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let leaf = MetaId::new(1, 0);
        let bmt = SchemeLoss {
            cloning: &policy,
            profile: BMT,
        };
        let a = &model.assess(&word_pair_on(&layout, &geometry, leaf), &[bmt])[0];
        assert_eq!(a.unverifiable_data_lines, layout.covered_data_lines(leaf));
    }

    #[test]
    fn bankwide_closed_form_matches_the_scan_under_a_rebuild_floor() {
        // With every tree node rebuilt only the counter blocks count, so
        // the closed form's per-level union is exact. A Trials scheme in
        // the roster forces the exact scan for the same BMT scheme.
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let bmt = SchemeLoss {
            cloning: &policy,
            profile: BMT,
        };
        let trials = SchemeLoss {
            cloning: &policy,
            profile: TRIALS,
        };
        for bank in [0, 5, 15] {
            let faults = bank_pair(&geometry, bank);
            let closed = &model.assess(&faults, &[bmt])[0];
            let scanned = &model.assess(&faults, &[bmt, trials])[0];
            assert!(scanned.unverifiable_data_lines > 0, "bank {bank}");
            assert_eq!(
                closed.unverifiable_data_lines, scanned.unverifiable_data_lines,
                "bank {bank}"
            );
        }
    }

    #[test]
    fn a_trials_scheme_keeps_the_roster_off_the_closed_form() {
        // The closed form names no lost blocks; the scan names every one.
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        let toc = SchemeLoss {
            cloning: &policy,
            profile: LossProfile::default(),
        };
        let trials = SchemeLoss {
            cloning: &policy,
            profile: TRIALS,
        };
        let faults = bank_pair(&geometry, 3);
        let fatal_only = &model.assess(&faults, &[toc])[0];
        assert!(fatal_only.unverifiable_data_lines > 0);
        assert!(fatal_only.lost_meta_blocks.is_empty(), "closed form");
        for a in model.assess(&faults, &[toc, trials]) {
            assert!(!a.lost_meta_blocks.is_empty(), "exact scan");
        }
    }

    #[test]
    fn nested_coverage_not_double_counted() {
        let (layout, geometry) = setup();
        let policy = CloningPolicy::None;
        let model = ResilienceModel::new(&layout, &geometry);
        // Lose a leaf AND its ancestor: unverifiable lines must equal the
        // ancestor's coverage alone.
        let top = MetaId::new(layout.levels(), 0);
        let leaf = MetaId::new(1, 0);
        let mut faults = Vec::new();
        for meta in [top, leaf] {
            let loc = geometry.locate(layout.meta_addr(meta));
            for chip in [0u32, 9] {
                faults.push(FaultRecord::on_chip(
                    &geometry,
                    chip,
                    FaultFootprint::SingleWord {
                        bank: loc.bank,
                        row: loc.row,
                        col: loc.col,
                        beat: 0,
                    },
                    FaultKind::Permanent,
                ));
            }
        }
        let a = model.assess_policy(&faults, &policy);
        assert_eq!(a.lost_meta_blocks.len(), 2);
        assert_eq!(a.unverifiable_data_lines, layout.covered_data_lines(top));
    }
}

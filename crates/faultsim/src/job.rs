//! The block-job engine shared by the CLI, the campaign service
//! (`soteria-svc`) and the fleet.
//!
//! Every front-end must produce **byte-identical artifacts** for the same
//! job: `soteria campaign --json/--trace` writes the bytes that
//! `POST /v1/campaigns` + `GET /v1/jobs/{id}/result` / `…/trace` return,
//! and a fleet merge of the job's blocks returns them too. That contract
//! holds by construction:
//!
//! * **One parser per kind, one entry.** [`JobSpec::from_kind`] maps a
//!   kind name to its strict JSON parser ([`config_from_json`],
//!   [`crate::compare::compare_config_from_json`],
//!   [`crate::crashck::crashck_config_from_json`]); the three share one
//!   set of field readers. The CLI turns its job flags into the same
//!   JSON body, so a flag and a JSON key cannot mean different things.
//! * **One engine.** Campaign, compare and crashck are [`BlockJob`]s: a
//!   fixed list of blocks, each computed from `(job, block id)` alone,
//!   folded in id order by one `merge`. [`AnyJob`] drives every kind the
//!   same way. A single-node run computes all blocks in memory and
//!   merges them ([`AnyJob::run`]); a fleet worker serializes a block
//!   range as a `soteria-blocks/v1` document
//!   ([`AnyJob::run_block_range`]) and the coordinator unwires and
//!   merges the documents ([`AnyJob::merge_partials`]). Both paths end
//!   in the same `merge`.

use soteria::analysis::TreeKind;
use soteria::clone::CloningPolicy;
use soteria_rt::json::Json;
use soteria_rt::obs::TraceBuffer;
use soteria_rt::thread::fan_out;

use crate::campaign::{run_campaign_traced, CampaignConfig, PolicyResult};
use crate::shard::{u64_wire, BLOCKS_SCHEMA};

/// The three schemes every campaign artifact reports, in table order —
/// also the cloning policies of the crashck matrix.
pub const STANDARD_POLICIES: [CloningPolicy; 3] = [
    CloningPolicy::None,
    CloningPolicy::Relaxed,
    CloningPolicy::Aggressive,
];

// ---------------------------------------------------------------------
// Field readers shared by the three strict parsers. Each names the
// field in its error and allocates only on the error path.
// ---------------------------------------------------------------------

/// 2^53: every integer below it is exact in an `f64`, so a JSON number
/// is only trusted as a seed below it.
const EXACT_F64_INTS: f64 = 9_007_199_254_740_992.0;

/// A job body's fields, or an error naming the kind.
#[inline]
pub(crate) fn fields_of<'a>(body: &'a Json, kind: &str) -> Result<&'a [(String, Json)], String> {
    body.entries()
        .ok_or_else(|| format!("{kind} config must be a JSON object"))
}

/// The error for a field the parser does not know, listing the ones it
/// does.
pub(crate) fn unknown_field(other: &str, known: &[&str]) -> String {
    format!("unknown field '{other}' ({})", known.join(", "))
}

/// Parses a `u64` written in decimal or `0x`-prefixed hex.
#[inline]
pub fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Reads field `seed`: a JSON integer below 2^53, or a string in
/// decimal or `0x`-hex, which carries any `u64` exactly. A JSON number
/// of 2^53 or more is rejected — it may already have been rounded.
#[inline]
pub(crate) fn read_seed(v: &Json) -> Result<u64, String> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && (0.0..EXACT_F64_INTS).contains(n) => Ok(*n as u64),
        Json::Num(n) if *n >= EXACT_F64_INTS => Err(
            "field 'seed' is 2^53 or more, which a JSON number cannot carry exactly; \
             pass it as a decimal or 0x-hex string"
                .into(),
        ),
        Json::Str(s) => parse_u64(s)
            .ok_or_else(|| format!("field 'seed' has invalid value '{s}' (decimal or 0x-hex)")),
        _ => Err("field 'seed' must be an integer or a decimal or 0x-hex string".into()),
    }
}

/// Reads a positive integer field no larger than `max`.
#[inline]
pub(crate) fn read_count(v: &Json, field: &str, max: u64) -> Result<u64, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("field '{field}' must be a number"))?;
    if n < 1.0 || n.fract() != 0.0 {
        return Err(format!("field '{field}' must be a positive integer"));
    }
    if n > max as f64 {
        return Err(format!("field '{field}' must be at most {max}"));
    }
    Ok(n as u64)
}

/// Reads a positive, finite number field.
#[inline]
pub(crate) fn read_positive(v: &Json, field: &str) -> Result<f64, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("field '{field}' must be a number"))?;
    if !(n > 0.0 && n.is_finite()) {
        return Err(format!("field '{field}' must be a positive number"));
    }
    Ok(n)
}

/// The fields [`config_from_json`] accepts, in listing order.
pub const CAMPAIGN_FIELDS: [&str; 8] = [
    "fit",
    "iterations",
    "ecc",
    "tree",
    "scrub_hours",
    "seed",
    "threads",
    "capacity_bytes",
];

/// Builds a traced [`CampaignConfig`] from a JSON request body.
///
/// Recognized fields (all optional; anything else is rejected so typos
/// fail loudly):
///
/// * `fit` — FIT per chip (default 80)
/// * `iterations` — Monte Carlo iterations (default 10000, capped at 10^7)
/// * `ecc` — `secded` | `chipkill` | `double`
/// * `tree` — `toc` | `bmt`
/// * `scrub_hours` — patrol-scrub interval (off when absent)
/// * `seed` — RNG seed: an integer below 2^53, or a decimal or `"0x…"`
///   string
/// * `threads` — worker threads (results are identical for any value)
/// * `capacity_bytes` — protected capacity (default 16 GiB)
///
/// The returned config always has `trace = true`: jobs keep their NDJSON
/// trace alongside the result.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn config_from_json(body: &Json) -> Result<CampaignConfig, String> {
    let mut config = CampaignConfig::table4(80.0);
    for (key, value) in fields_of(body, "campaign")? {
        match key.as_str() {
            // Only the target changes here; the campaign scales its mode
            // mix to `fit_per_chip` at run time.
            "fit" => config.fit_per_chip = read_positive(value, "fit")?,
            "iterations" => config.iterations = read_count(value, "iterations", 10_000_000)?,
            "ecc" => {
                config.correctable_chips = match value.as_str() {
                    Some("secded") => 0,
                    Some("chipkill") => 1,
                    Some("double") => 2,
                    Some(other) => {
                        return Err(format!("unknown ecc '{other}' (secded|chipkill|double)"))
                    }
                    None => return Err("field 'ecc' must be a string".into()),
                }
            }
            "tree" => {
                config.tree = match value.as_str() {
                    Some("toc") => TreeKind::Toc,
                    Some("bmt") => TreeKind::Bmt,
                    Some(other) => return Err(format!("unknown tree '{other}' (toc|bmt)")),
                    None => return Err("field 'tree' must be a string".into()),
                }
            }
            "scrub_hours" => {
                config.scrub_interval_hours = Some(read_positive(value, "scrub_hours")?);
            }
            "seed" => config.seed = read_seed(value)?,
            "threads" => config.threads = read_count(value, "threads", u64::MAX)? as usize,
            "capacity_bytes" => {
                let bytes = read_count(value, "capacity_bytes", u64::MAX)?;
                if !(1 << 20..=1u64 << 44).contains(&bytes) {
                    return Err("field 'capacity_bytes' must be between 1 MiB and 16 TiB".into());
                }
                config.capacity_bytes = bytes;
            }
            other => return Err(unknown_field(other, &CAMPAIGN_FIELDS)),
        }
    }
    config.trace = true;
    Ok(config)
}

/// The campaign's machine-readable artifact: config echo, per-policy
/// results, and a metrics snapshot derived from the event trace. This is
/// the single serializer behind `soteria campaign --json` and the
/// service's result endpoint.
pub fn report_json(
    config: &CampaignConfig,
    results: &[PolicyResult],
    trace: &TraceBuffer,
) -> Json {
    let mut event_counts: Vec<(String, u64)> = Vec::new();
    for ev in trace.events() {
        match event_counts.iter_mut().find(|(n, _)| n == ev.name) {
            Some((_, c)) => *c += 1,
            None => event_counts.push((ev.name.to_string(), 1)),
        }
    }
    Json::Obj(vec![
        (
            "config".into(),
            Json::Obj(vec![
                ("seed".into(), Json::Str(format!("{:#018x}", config.seed))),
                ("iterations".into(), Json::Num(config.iterations as f64)),
                ("fit_per_chip".into(), Json::Num(config.fit_per_chip)),
                (
                    "capacity_bytes".into(),
                    Json::Num(config.capacity_bytes as f64),
                ),
            ]),
        ),
        (
            "results".into(),
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("policy".into(), Json::Str(r.policy.name().into())),
                            (
                                "iterations_with_faults".into(),
                                Json::Num(r.iterations_with_faults as f64),
                            ),
                            (
                                "iterations_with_ue".into(),
                                Json::Num(r.iterations_with_ue as f64),
                            ),
                            (
                                "iterations_with_udr".into(),
                                Json::Num(r.iterations_with_udr as f64),
                            ),
                            ("mean_error_ratio".into(), Json::Num(r.mean_error_ratio)),
                            ("mean_udr".into(), Json::Num(r.mean_udr)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            Json::Obj(vec![
                ("trace_events".into(), Json::Num(trace.len() as f64)),
                ("trace_dropped".into(), Json::Num(trace.dropped() as f64)),
                (
                    "events_by_name".into(),
                    Json::Obj(
                        event_counts
                            .into_iter()
                            .map(|(n, c)| (n, Json::Num(c as f64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// A finished campaign job: the exact artifact bytes a front-end serves
/// or writes to disk, plus the numeric results for tabular display.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Per-policy results for [`STANDARD_POLICIES`], in order.
    pub results: Vec<PolicyResult>,
    /// The pretty-printed result JSON (trailing newline included).
    pub result_json: String,
    /// The NDJSON event trace.
    pub trace_ndjson: String,
}

impl JobOutput {
    /// Serializes merged campaign results and their trace.
    pub(crate) fn new(
        config: &CampaignConfig,
        (results, trace): (Vec<PolicyResult>, TraceBuffer),
    ) -> JobOutput {
        let result_json = report_json(config, &results, &trace).to_pretty_string();
        JobOutput {
            results,
            result_json,
            trace_ndjson: trace.export_ndjson(),
        }
    }
}

/// Runs one campaign over [`STANDARD_POLICIES`] and serializes its
/// artifacts. For a fixed `config.seed` the output bytes are identical
/// at any `config.threads` value.
pub fn run_job(config: &CampaignConfig) -> JobOutput {
    JobOutput::new(config, run_campaign_traced(config, &STANDARD_POLICIES))
}

/// One kind of block-sharded job.
///
/// A job is `total_blocks` fixed blocks. A block's result depends only
/// on `(job, block id)` — never on which thread or node computed it —
/// and [`BlockJob::merge`] folds the blocks in id order, so any
/// partition of the blocks over threads or fleet workers yields the
/// same artifacts.
pub trait BlockJob: Sync {
    /// One block's partial result.
    type Block: Send;
    /// The kind name: `campaign`, `compare` or `crashck`.
    const KIND: &'static str;
    /// The schema of the job's result artifact.
    const SCHEMA: &'static str;
    /// Worker threads a local run uses (artifacts do not depend on it).
    fn threads(&self) -> usize;
    /// How many blocks the job comprises.
    fn total_blocks(&self) -> u64;
    /// Computes the blocks `ids`, returned sorted by id.
    fn run_blocks(&self, ids: &[u64]) -> Vec<Self::Block>;
    /// A block's id.
    fn block_id(block: &Self::Block) -> u64;
    /// One block's wire form: an object whose `block` field is its id.
    fn wire(&self, block: &Self::Block) -> Json;
    /// Parses one block's wire form.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on a malformed block.
    fn unwire(&self, obj: &Json) -> Result<Self::Block, String>;
    /// Folds blocks `0..total_blocks`, sorted by id, into the job's
    /// `(result_json, ndjson)` artifacts.
    fn merge(&self, blocks: Vec<Self::Block>) -> (String, String);
}

/// Computes every block of `job` in memory, sorted by id — the first
/// half of a single-node run.
pub(crate) fn run_all<J: BlockJob>(job: &J) -> Vec<J::Block> {
    let ids: Vec<u64> = (0..job.total_blocks()).collect();
    job.run_blocks(&ids)
}

/// Runs `run_block` over the block `ids` on up to `threads` workers,
/// the fan-out behind every [`BlockJob::run_blocks`]. Worker `t` claims
/// list entries `t, t + workers, …` and keeps one `make_scratch()`
/// value for all of its blocks. Returns the blocks sorted by id.
pub(crate) fn fan_out_blocks<S, B, M, R>(
    ids: &[u64],
    threads: usize,
    make_scratch: M,
    run_block: R,
) -> Vec<B>
where
    B: Send,
    M: Fn() -> S + Sync,
    R: Fn(&mut S, u64) -> B + Sync,
{
    let workers = threads.max(1).min(ids.len().max(1));
    let mut tagged: Vec<(u64, B)> = fan_out(workers, |t| {
        let mut scratch = make_scratch();
        ids.iter()
            .skip(t)
            .step_by(workers)
            .map(|&id| (id, run_block(&mut scratch, id)))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    tagged.sort_by_key(|&(id, _)| id);
    tagged.into_iter().map(|(_, block)| block).collect()
}

/// The object-safe face of a [`BlockJob`], implemented for every one:
/// the generic driver behind [`run_spec`] and the `shard` entry points.
pub trait AnyJob {
    /// The schema of the job's result artifact.
    fn schema(&self) -> &'static str;
    /// Worker threads a local run uses.
    fn threads(&self) -> usize;
    /// How many blocks the job comprises.
    fn total_blocks(&self) -> u64;
    /// Runs every block in memory and merges them: the single-node
    /// path, which serializes no block.
    fn run(&self) -> (String, String);
    /// Computes blocks `lo..hi` as a `soteria-blocks/v1` document. The
    /// bytes depend only on `(job, lo, hi)`; a range past the end is
    /// clipped, so the merge reports the missing coverage.
    fn run_block_range(&self, lo: u64, hi: u64) -> Json;
    /// Folds `soteria-blocks/v1` documents into the job's artifacts —
    /// byte-identical to [`AnyJob::run`]. Blocks may arrive in any order
    /// and duplicated (a reassigned block computed twice); duplicates
    /// are identical by construction, so the first copy wins.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on a malformed document, a schema or
    /// kind mismatch, or incomplete coverage of `0..total_blocks`.
    fn merge_partials(&self, partials: &[Json]) -> Result<(String, String), String>;
}

impl<J: BlockJob> AnyJob for J {
    fn schema(&self) -> &'static str {
        J::SCHEMA
    }

    fn threads(&self) -> usize {
        BlockJob::threads(self)
    }

    fn total_blocks(&self) -> u64 {
        BlockJob::total_blocks(self)
    }

    fn run(&self) -> (String, String) {
        self.merge(run_all(self))
    }

    fn run_block_range(&self, lo: u64, hi: u64) -> Json {
        let hi = hi.min(BlockJob::total_blocks(self));
        let ids: Vec<u64> = (lo..hi).collect();
        let blocks = self.run_blocks(&ids).iter().map(|b| self.wire(b)).collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(BLOCKS_SCHEMA.into())),
            ("kind".into(), Json::Str(J::KIND.into())),
            ("lo".into(), u64_wire(lo)),
            ("hi".into(), u64_wire(hi)),
            ("blocks".into(), Json::Arr(blocks)),
        ])
    }

    fn merge_partials(&self, partials: &[Json]) -> Result<(String, String), String> {
        let mut blocks = Vec::new();
        for doc in partials {
            let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
            if schema != BLOCKS_SCHEMA {
                return Err(format!(
                    "partial has schema '{schema}', expected '{BLOCKS_SCHEMA}'"
                ));
            }
            let got = doc.get("kind").and_then(Json::as_str).unwrap_or("");
            if got != J::KIND {
                return Err(format!("partial has kind '{got}', expected '{}'", J::KIND));
            }
            let wired = doc
                .get("blocks")
                .and_then(Json::as_array)
                .ok_or("partial is missing its 'blocks' array")?;
            for obj in wired {
                blocks.push(self.unwire(obj)?);
            }
        }
        let blocks = dedup_covered(blocks, J::block_id, BlockJob::total_blocks(self))?;
        Ok(self.merge(blocks))
    }
}

/// Sorts blocks by id, drops duplicate ids (first copy wins — duplicates
/// are bit-identical by the partial contract), and verifies the
/// surviving ids are exactly `0..total`.
fn dedup_covered<T>(
    mut blocks: Vec<T>,
    index: impl Fn(&T) -> u64,
    total: u64,
) -> Result<Vec<T>, String> {
    blocks.sort_by_key(&index);
    blocks.dedup_by_key(|b| index(b));
    for expect in 0..total {
        match blocks.get(expect as usize) {
            Some(b) if index(b) == expect => {}
            _ => return Err(format!("merge is missing block {expect} of {total}")),
        }
    }
    if blocks.len() as u64 > total {
        return Err(format!("merge holds a block past the job's {total} blocks"));
    }
    Ok(blocks)
}

/// A validated job request: the classic cloning-policy campaign
/// (`POST /v1/campaigns`), the cross-scheme compare matrix
/// (`POST /v1/compare`), the crash-consistency sweep
/// (`POST /v1/crashck`), or a block-range shard of any of them
/// (`POST /v1/blocks`, submitted by a fleet coordinator). One enum so
/// the service worker and the CLI share a single runner.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A [`STANDARD_POLICIES`] campaign (`soteria-campaign/v1`).
    Campaign(CampaignConfig),
    /// A full-roster scheme shootout (`soteria-compare/v1`).
    Compare(crate::compare::CompareConfig),
    /// A crash-consistency matrix sweep (`soteria-crashck/v1`).
    Crashck(crate::crashck::CrashckConfig),
    /// Blocks `lo..hi` of an inner job, producing a partial-sums
    /// document (`soteria-blocks/v1`) instead of final artifacts.
    Blocks {
        /// The job being sharded (never itself `Blocks`).
        spec: Box<JobSpec>,
        /// First block index (inclusive).
        lo: u64,
        /// Last block index (exclusive).
        hi: u64,
    },
}

impl JobSpec {
    /// Parses a job body with the strict parser of job kind `kind`
    /// (`campaign`, `compare` or `crashck`) — the one kind→parser map
    /// behind the CLI, the service and the fleet coordinator.
    ///
    /// # Errors
    ///
    /// Returns the parser's one-line, field-naming message, or names
    /// the accepted kinds.
    pub fn from_kind(kind: &str, body: &Json) -> Result<JobSpec, String> {
        Ok(match kind {
            "campaign" => JobSpec::Campaign(config_from_json(body)?),
            "compare" => JobSpec::Compare(crate::compare::compare_config_from_json(body)?),
            "crashck" => JobSpec::Crashck(crate::crashck::crashck_config_from_json(body)?),
            other => {
                return Err(format!(
                    "unknown kind '{other}' (campaign, compare, crashck)"
                ))
            }
        })
    }

    /// The job this spec runs; a `Blocks` spec's inner job.
    pub fn job(&self) -> &dyn AnyJob {
        match self {
            JobSpec::Campaign(config) => config,
            JobSpec::Compare(config) => config,
            JobSpec::Crashck(config) => config,
            JobSpec::Blocks { spec, .. } => spec.job(),
        }
    }

    /// Worker threads the job will use.
    pub fn threads(&self) -> usize {
        self.job().threads()
    }

    /// The artifact schema this job emits.
    pub fn schema(&self) -> &'static str {
        match self {
            JobSpec::Blocks { .. } => BLOCKS_SCHEMA,
            _ => self.job().schema(),
        }
    }
}

/// Runs any [`JobSpec`] and returns `(result_json, ndjson)` — the two
/// artifact byte-streams every job kind produces. Thread-invariant for
/// all kinds. A `Blocks` job returns its partial-sums document as the
/// result and an empty trace (partials carry their events inline).
pub fn run_spec(spec: &JobSpec) -> (String, String) {
    match spec {
        JobSpec::Blocks { spec, lo, hi } => (
            spec.job().run_block_range(*lo, *hi).to_pretty_string(),
            String::new(),
        ),
        _ => spec.job().run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CampaignConfig, String> {
        config_from_json(&Json::parse(s).expect("test body must be valid JSON"))
    }

    #[test]
    fn defaults_match_table4_with_trace_on() {
        let c = parse("{}").unwrap();
        let t4 = CampaignConfig::table4(80.0);
        assert_eq!(c.fit_per_chip, t4.fit_per_chip);
        assert_eq!(c.iterations, t4.iterations);
        assert_eq!(c.seed, t4.seed);
        assert_eq!(c.capacity_bytes, t4.capacity_bytes);
        assert!(c.trace, "service jobs always keep their trace");
    }

    #[test]
    fn fields_apply() {
        let c = parse(
            r#"{"fit": 1500, "iterations": 250, "ecc": "double", "tree": "bmt",
                "scrub_hours": 24, "seed": "0xdead", "threads": 3,
                "capacity_bytes": 67108864}"#,
        )
        .unwrap();
        assert_eq!(c.fit_per_chip, 1500.0);
        assert_eq!(c.iterations, 250);
        assert_eq!(c.correctable_chips, 2);
        assert_eq!(c.tree, TreeKind::Bmt);
        assert_eq!(c.scrub_interval_hours, Some(24.0));
        assert_eq!(c.seed, 0xdead);
        assert_eq!(c.threads, 3);
        assert_eq!(c.capacity_bytes, 64 << 20);
    }

    #[test]
    fn numeric_seed_accepted() {
        assert_eq!(parse(r#"{"seed": 42}"#).unwrap().seed, 42);
    }

    #[test]
    fn seeds_above_2_pow_53_are_exact_as_strings() {
        assert_eq!(
            parse(r#"{"seed": "0x20000000000001"}"#).unwrap().seed,
            0x20_0000_0000_0001
        );
        assert_eq!(
            parse(r#"{"seed": "9007199254740993"}"#).unwrap().seed,
            9_007_199_254_740_993
        );
        // As a JSON number it would already be rounded: rejected.
        let err = parse(r#"{"seed": 9007199254740993}"#).unwrap_err();
        assert!(err.contains("'seed'") && err.contains("string"), "{err}");
        assert_eq!(
            parse(r#"{"seed": 9007199254740991}"#).unwrap().seed,
            (1 << 53) - 1
        );
    }

    #[test]
    fn bad_fields_name_the_field() {
        for (body, needle) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"fit": -1}"#, "'fit'"),
            (r#"{"fit": "hot"}"#, "'fit'"),
            (r#"{"iterations": 0}"#, "'iterations'"),
            (r#"{"iterations": 2.5}"#, "'iterations'"),
            (r#"{"iterations": 99000000}"#, "'iterations'"),
            (r#"{"ecc": "raid"}"#, "unknown ecc 'raid'"),
            (r#"{"tree": "oak"}"#, "unknown tree 'oak'"),
            (r#"{"scrub_hours": 0}"#, "'scrub_hours'"),
            (r#"{"seed": "0xzz"}"#, "'seed'"),
            (r#"{"capacity_bytes": 64}"#, "'capacity_bytes'"),
            (r#"{"iters": 5}"#, "unknown field 'iters'"),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn job_output_is_deterministic_and_reports_all_policies() {
        let mut config = CampaignConfig::table4(1500.0);
        config.capacity_bytes = 1 << 26;
        config.iterations = 128;
        config.trace = true;
        config.threads = 2;
        let a = run_job(&config);
        let mut config_b = config.clone();
        config_b.threads = 5;
        let b = run_job(&config_b);
        assert_eq!(a.result_json, b.result_json, "result bytes thread-invariant");
        assert_eq!(a.trace_ndjson, b.trace_ndjson, "trace bytes thread-invariant");
        assert_eq!(a.results.len(), STANDARD_POLICIES.len());
        let doc = Json::parse(&a.result_json).unwrap();
        let policies: Vec<&str> = doc
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.get("policy").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(policies, vec!["Baseline", "SRC", "SAC"]);
        soteria_rt::obs::parse_ndjson(&a.trace_ndjson).expect("trace must validate");
    }
}

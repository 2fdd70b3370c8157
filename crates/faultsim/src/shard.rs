//! The fleet's wire layer for block-sharded jobs.
//!
//! Every job kind is a [`crate::job::BlockJob`]: fixed blocks folded in
//! block order, so its artifacts are byte-identical at any thread count.
//! This module carries that contract across *machines*: a coordinator
//! splits a job's block range over workers, each worker computes its
//! blocks with [`run_block_range`], and [`merge_partials`] folds the
//! partials back through the **same** `merge` the single-node runner
//! uses — so the merged artifact is byte-identical to
//! `soteria campaign --json` (or `compare`, or `crashck`) at the same
//! seed, regardless of shard count or worker failures. The three entry
//! points here delegate to the generic driver, [`crate::job::AnyJob`].
//!
//! Two wire rules keep the contract exact:
//!
//! * **`f64` travels as bits.** Partial sums are serialized as the hex
//!   of [`f64::to_bits`], never as decimal text, so no parse/print
//!   round-trip can perturb the non-associative block fold.
//! * **Trace vocabulary is interned.** [`soteria_rt::obs::TraceEvent`]
//!   holds `&'static str` names; events parsed off the wire re-intern
//!   every string against the fixed campaign vocabulary, rejecting
//!   anything a current worker could not have emitted.

use soteria_rt::json::Json;
use soteria_rt::obs::{Field, TraceEvent};

use crate::job::JobSpec;

/// The partial-artifact schema version.
pub const BLOCKS_SCHEMA: &str = "soteria-blocks/v1";

/// How many distribution blocks `spec` comprises (the coordinator
/// shards the range `0..total_blocks` over its workers).
///
/// Campaign and compare jobs shard on
/// [`crate::campaign::ITERATION_BLOCK`]-sized accumulation blocks;
/// crashck jobs shard on matrix units. A `Blocks` spec delegates to its
/// inner job.
pub fn total_blocks(spec: &JobSpec) -> u64 {
    spec.job().total_blocks()
}

/// Computes the partial sums of blocks `lo..hi` of `spec` and
/// serializes them as a `soteria-blocks/v1` document. The partial bytes
/// depend only on `(spec, lo, hi)` — never on which worker ran them.
///
/// An out-of-range or empty range yields a document with an empty
/// `blocks` array (the merge will then report the missing coverage).
pub fn run_block_range(spec: &JobSpec, lo: u64, hi: u64) -> Json {
    spec.job().run_block_range(lo, hi)
}

/// Folds partial documents back into the final `(result_json, ndjson)`
/// artifact pair — byte-identical to [`crate::job::run_spec`] on the
/// same spec.
///
/// Blocks may arrive in any order and may be duplicated (a reassigned
/// block computed by two workers): duplicates are interchangeable by
/// construction, so the first copy wins. The range `0..total_blocks`
/// must be fully covered.
///
/// # Errors
///
/// Returns a one-line message on a malformed partial, a kind mismatch,
/// or incomplete block coverage.
pub fn merge_partials(spec: &JobSpec, partials: &[Json]) -> Result<(String, String), String> {
    spec.job().merge_partials(partials)
}

// ---------------------------------------------------------------------
// Scalar wire forms: u64 as hex text, f64 as the hex of its bits.
// ---------------------------------------------------------------------

pub(crate) fn u64_wire(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

pub(crate) fn u64_unwire(v: Option<&Json>, what: &str) -> Result<u64, String> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("partial field '{what}' must be a hex string"))?;
    let hex = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(hex, 16).map_err(|_| format!("partial field '{what}' has bad hex '{s}'"))
}

/// `f64` partial sums cross the wire as the hex of their bit pattern:
/// the block fold is a fixed-order sum of exactly these values, so a
/// decimal round-trip (even a "shortest round-trip" printer) must never
/// sit between a worker and the merge.
pub(crate) fn f64_wire(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

pub(crate) fn f64_unwire(v: Option<&Json>, what: &str) -> Result<f64, String> {
    Ok(f64::from_bits(u64_unwire(v, what)?))
}

pub(crate) fn usize_unwire(v: Option<&Json>, what: &str) -> Result<usize, String> {
    Ok(u64_unwire(v, what)? as usize)
}

pub(crate) fn str_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a str, String> {
    v.and_then(Json::as_str)
        .ok_or_else(|| format!("partial field '{what}' must be a string"))
}

pub(crate) fn arr_unwire<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [Json], String> {
    v.and_then(Json::as_array)
        .ok_or_else(|| format!("partial field '{what}' must be an array"))
}

// ---------------------------------------------------------------------
// Trace-event wire form and the fixed campaign vocabulary.
// ---------------------------------------------------------------------

/// Every `&'static str` a campaign block's trace events may carry:
/// domains, event names, field keys, and policy labels. Parsing
/// re-interns wire strings against this table — an unknown word is a
/// protocol error, not a leaked allocation.
const VOCABULARY: [&str; 13] = [
    "campaign",
    "iteration",
    "policy_udr",
    "iter",
    "seed",
    "faults",
    "ue",
    "policy",
    "udr",
    "baseline",
    "src",
    "sac",
    "custom",
];

fn intern(s: &str) -> Result<&'static str, String> {
    VOCABULARY
        .iter()
        .find(|v| **v == s)
        .copied()
        .ok_or_else(|| format!("unknown trace vocabulary word '{s}'"))
}

/// One typed field value as a single-entry object, tagged by type:
/// `{"u": "0x…"}`, `{"i": "-3"}`, `{"f": "<bits>"}`, `{"h": "0x…"}`,
/// `{"s": "baseline"}`, `{"b": true}`.
fn field_wire(field: &Field) -> Json {
    let (tag, value) = match field {
        Field::U64(v) => ("u", u64_wire(*v)),
        Field::I64(v) => ("i", Json::Str(v.to_string())),
        Field::F64(v) => ("f", f64_wire(*v)),
        Field::Hex(v) => ("h", u64_wire(*v)),
        Field::Str(v) => ("s", Json::Str((*v).to_string())),
        Field::Bool(v) => ("b", Json::Bool(*v)),
    };
    Json::Obj(vec![(tag.to_string(), value)])
}

fn field_unwire(obj: &Json) -> Result<Field, String> {
    let entries = obj
        .entries()
        .ok_or("trace field value must be a tagged object")?;
    let [(tag, value)] = entries else {
        return Err("trace field value must hold exactly one tag".into());
    };
    match tag.as_str() {
        "u" => Ok(Field::U64(u64_unwire(Some(value), "u")?)),
        "i" => {
            let s = str_unwire(Some(value), "i")?;
            s.parse::<i64>()
                .map(Field::I64)
                .map_err(|_| format!("trace field 'i' has bad integer '{s}'"))
        }
        "f" => Ok(Field::F64(f64_unwire(Some(value), "f")?)),
        "h" => Ok(Field::Hex(u64_unwire(Some(value), "h")?)),
        "s" => Ok(Field::Str(intern(str_unwire(Some(value), "s")?)?)),
        "b" => match value {
            Json::Bool(b) => Ok(Field::Bool(*b)),
            _ => Err("trace field 'b' must be a boolean".into()),
        },
        other => Err(format!("unknown trace field tag '{other}'")),
    }
}

pub(crate) fn event_wire(event: &TraceEvent) -> Json {
    Json::Obj(vec![
        ("d".into(), Json::Str(event.domain.into())),
        ("n".into(), Json::Str(event.name.into())),
        (
            "f".into(),
            Json::Arr(
                event
                    .fields
                    .iter()
                    .map(|(k, v)| {
                        Json::Arr(vec![Json::Str((*k).to_string()), field_wire(v)])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn event_unwire(obj: &Json) -> Result<TraceEvent, String> {
    let domain = intern(str_unwire(obj.get("d"), "d")?)?;
    let name = intern(str_unwire(obj.get("n"), "n")?)?;
    let mut fields = Vec::new();
    for pair in arr_unwire(obj.get("f"), "f")? {
        let items = pair
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or("trace field must be a [key, value] pair")?;
        let key = intern(
            items[0]
                .as_str()
                .ok_or("trace field key must be a string")?,
        )?;
        fields.push((key, field_unwire(&items[1])?));
    }
    Ok(TraceEvent::new(domain, name, fields))
}

/// Parses a `POST /v1/blocks` request body into a [`JobSpec::Blocks`]:
/// `{"kind": "campaign"|"compare"|"crashck", "lo": N, "hi": M,
/// "config": {…}}`, where `config` takes the same fields as the kind's
/// own submission endpoint. A nested `"blocks"` kind is rejected.
///
/// # Errors
///
/// Returns a one-line, field-naming message on any invalid input.
pub fn blocks_spec_from_json(body: &Json) -> Result<JobSpec, String> {
    let kind = body
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("field 'kind' must be one of campaign, compare, crashck")?;
    let range_int = |field: &str| -> Result<u64, String> {
        let v = body
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("field '{field}' must be a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("field '{field}' must be a non-negative integer"));
        }
        Ok(v as u64)
    };
    let lo = range_int("lo")?;
    let hi = range_int("hi")?;
    if lo >= hi {
        return Err("field 'hi' must be greater than 'lo'".into());
    }
    let default = Json::Obj(Vec::new());
    let inner = JobSpec::from_kind(kind, body.get("config").unwrap_or(&default))?;
    if hi > total_blocks(&inner) {
        return Err(format!(
            "field 'hi' exceeds the job's {} blocks",
            total_blocks(&inner)
        ));
    }
    Ok(JobSpec::Blocks {
        spec: Box::new(inner),
        lo,
        hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::compare::CompareConfig;
    use crate::crashck::CrashckConfig;
    use crate::job::run_spec;

    fn campaign_spec() -> JobSpec {
        let mut config = CampaignConfig::table4(1500.0);
        config.capacity_bytes = 1 << 26;
        config.iterations = 192;
        config.trace = true;
        JobSpec::Campaign(config)
    }

    fn compare_spec() -> JobSpec {
        JobSpec::Compare(CompareConfig {
            iterations: 192,
            trace_ops: 256,
            ..CompareConfig::default()
        })
    }

    fn crashck_spec() -> JobSpec {
        JobSpec::Crashck(CrashckConfig {
            seed: 0x50f3,
            scripts_per_cell: 1,
            max_txns: 2,
            max_writes: 2,
            threads: 1,
        })
    }

    /// Round-trips partials through their serialized wire bytes — the
    /// exact path fleet partials take between worker and coordinator.
    fn through_wire(spec: &JobSpec, ranges: &[(u64, u64)]) -> (String, String) {
        let partials: Vec<Json> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let doc = run_block_range(spec, lo, hi).to_pretty_string();
                Json::parse(&doc).expect("partial must serialize to valid JSON")
            })
            .collect();
        merge_partials(spec, &partials).expect("merge must succeed")
    }

    #[test]
    fn campaign_merge_is_byte_identical_across_splits() {
        let spec = campaign_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 3);
        // Uneven split, reversed order, and an overlapping (reassigned)
        // block must all merge to the single-node bytes.
        for ranges in [
            vec![(0, total)],
            vec![(0, 1), (1, total)],
            vec![(2, 3), (0, 2)],
            vec![(0, 2), (1, total), (2, 3)],
        ] {
            assert_eq!(through_wire(&spec, &ranges), single, "{ranges:?}");
        }
    }

    #[test]
    fn compare_merge_is_byte_identical_across_splits() {
        let spec = compare_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 3);
        for ranges in [vec![(0, total)], vec![(1, total), (0, 1), (1, 2)]] {
            assert_eq!(through_wire(&spec, &ranges), single, "{ranges:?}");
        }
    }

    #[test]
    fn crashck_merge_is_byte_identical_across_splits() {
        let spec = crashck_spec();
        let single = run_spec(&spec);
        let total = total_blocks(&spec);
        assert_eq!(total, 18);
        let halves = vec![(9, total), (0, 9)];
        assert_eq!(through_wire(&spec, &halves), single);
    }

    #[test]
    fn merge_rejects_missing_blocks_and_bad_vocabulary() {
        let spec = campaign_spec();
        let partial = Json::parse(&run_block_range(&spec, 0, 2).to_pretty_string()).unwrap();
        let err = merge_partials(&spec, &[partial]).unwrap_err();
        assert!(err.contains("missing block 2"), "{err}");

        assert!(intern("campaign").is_ok());
        let err = intern("stdout").unwrap_err();
        assert!(err.contains("stdout"), "{err}");
    }

    #[test]
    fn blocks_spec_parser_validates() {
        let parse = |s: &str| blocks_spec_from_json(&Json::parse(s).unwrap());
        let spec = parse(r#"{"kind": "campaign", "lo": 0, "hi": 2, "config": {"iterations": 192}}"#)
            .unwrap();
        let JobSpec::Blocks { spec, lo, hi } = spec else {
            panic!("expected a Blocks spec");
        };
        assert!(matches!(*spec, JobSpec::Campaign(_)));
        assert_eq!((lo, hi), (0, 2));
        for (body, needle) in [
            (r#"{"lo": 0, "hi": 1}"#, "'kind'"),
            (r#"{"kind": "blocks", "lo": 0, "hi": 1}"#, "unknown kind"),
            (r#"{"kind": "campaign", "lo": 3, "hi": 3}"#, "'hi'"),
            (
                r#"{"kind": "campaign", "lo": 0, "hi": 99, "config": {"iterations": 64}}"#,
                "exceeds",
            ),
            (
                r#"{"kind": "campaign", "lo": 0, "hi": 1, "config": {"bogus": 1}}"#,
                "unknown field",
            ),
        ] {
            let err = parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn f64_wire_is_bit_exact() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -7.25] {
            let wire = f64_wire(v);
            let back = f64_unwire(Some(&wire), "t").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}

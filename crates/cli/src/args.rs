//! A tiny `--key value` argument parser (no external dependencies — the
//! workspace's dependency policy allows only the offline simulation
//! crates).

use soteria_rt::json::Json;

/// Parsed command line: a subcommand plus `--key value` options, in
/// command-line order.
#[derive(Clone, Debug, Default)]
pub struct Args {
    command: Option<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

/// Errors from argument parsing or lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An unexpected positional argument.
    UnexpectedPositional(String),
    /// An option given without its value.
    MissingValue(String),
    /// An option or bare flag the command does not read.
    Unknown {
        /// The option name.
        key: String,
        /// The command's own flags, as `--a, --b`.
        known: String,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            ArgsError::UnexpectedPositional(p) => write!(
                f,
                "unexpected argument '{p}' (one command, then --key value options; see `soteria help`)"
            ),
            ArgsError::MissingValue(key) => write!(f, "option --{key} needs a value"),
            ArgsError::Unknown { key, known } => {
                write!(f, "unknown option --{key} (this command takes: {known})")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl From<ArgsError> for String {
    fn from(e: ArgsError) -> String {
        e.to_string()
    }
}

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] for malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                // A flag if the next token is another option or absent;
                // otherwise an option with a value.
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.push((key.to_string(), value));
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A string option (the last one given, if repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a bare `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Rejects every bare flag not in `switches` and — unless the
    /// command takes a job body, where the rest become JSON fields —
    /// every option not in `options` (both whitespace-separated lists).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Unknown`] naming the first stray flag.
    pub fn check(&self, options: &str, switches: &str, takes_job: bool) -> Result<(), ArgsError> {
        let has = |list: &str, key: &str| list.split_whitespace().any(|k| k == key);
        let stray_option = self
            .options
            .iter()
            .map(|(k, _)| k)
            .find(|k| !takes_job && !has(options, k));
        let stray_flag = self.flags.iter().find(|f| !has(switches, f));
        if let Some(key) = stray_flag.filter(|f| has(options, f)) {
            return Err(ArgsError::MissingValue(key.clone()));
        }
        match stray_option.or(stray_flag) {
            None => Ok(()),
            Some(key) => Err(ArgsError::Unknown {
                key: key.clone(),
                known: options
                    .split_whitespace()
                    .chain(switches.split_whitespace())
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            }),
        }
    }

    /// The job request body: every `--key value` whose key is not in
    /// the whitespace-separated `own` becomes JSON field `key`, in
    /// command-line order. A value is
    /// a number when it reads as one; an integer of 2^53 or more stays
    /// text, so no `f64` rounds it on the way to the parser (which reads
    /// a seed from a decimal or `0x`-hex string exactly).
    pub fn job_body(&self, own: &str) -> Json {
        let value = |v: &str| {
            if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) {
                return match v.parse::<u64>() {
                    Ok(n) if n < 1 << 53 => Json::Num(n as f64),
                    _ => Json::Str(v.into()),
                };
            }
            match v.parse::<f64>() {
                Ok(n) if n.is_finite() => Json::Num(n),
                _ => Json::Str(v.into()),
            }
        };
        Json::Obj(
            self.options
                .iter()
                .filter(|(k, _)| !own.split_whitespace().any(|o| o == k))
                .map(|(k, v)| (k.clone(), value(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn command_and_options() {
        let a = parse("perf --workload pmemkv --ops 1000");
        assert_eq!(a.command(), Some("perf"));
        assert_eq!(a.get("workload"), Some("pmemkv"));
        assert_eq!(a.get_num("ops", 0u64).unwrap(), 1000);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("perf");
        assert_eq!(a.get_or("workload", "sps"), "sps");
        assert_eq!(a.get_num("ops", 42u64).unwrap(), 42);
    }

    #[test]
    fn flags_without_values() {
        let a = parse("campaign --verbose --fit 80");
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get("fit"), Some("80"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse("campaign --fit 80 --verbose");
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn bad_number_reported() {
        let a = parse("perf --ops banana");
        assert!(matches!(
            a.get_num("ops", 0u64),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn stray_options_and_flags_are_named() {
        let a = parse("perf --workload sps --opps 10");
        let err = a.check("workload ops", "metrics", false).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown option --opps (this command takes: --workload, --ops, --metrics)"
        );
        assert!(parse("perf --ops 1 --metrics")
            .check("ops", "metrics", false)
            .is_ok());
        let bare = parse("crash-demo --faultt");
        assert!(matches!(
            bare.check("", "fault", false),
            Err(ArgsError::Unknown { .. })
        ));
        // A job command sends unknown options to the job parser instead.
        assert!(parse("campaign --iters 5").check("json", "", true).is_ok());
        assert!(parse("campaign --verbose").check("json", "", true).is_err());
        let err = parse("campaign --fit 1 --json")
            .check("json", "", true)
            .unwrap_err();
        assert_eq!(err.to_string(), "option --json needs a value");
    }

    #[test]
    fn job_body_keeps_order_and_exact_integers() {
        let a = parse(
            "campaign --fit 1.5 --json out.json --tree bmt --seed 9007199254740993 --iterations 64",
        );
        let body = a.job_body("json");
        let keys: Vec<&str> = body
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["fit", "tree", "seed", "iterations"]);
        assert_eq!(body.get("fit").and_then(Json::as_f64), Some(1.5));
        assert_eq!(body.get("tree").and_then(Json::as_str), Some("bmt"));
        assert_eq!(
            body.get("seed").and_then(Json::as_str),
            Some("9007199254740993")
        );
        assert_eq!(body.get("iterations").and_then(Json::as_f64), Some(64.0));
        let hex = parse("campaign --seed 0x20000000000001").job_body("");
        assert_eq!(
            hex.get("seed").and_then(Json::as_str),
            Some("0x20000000000001")
        );
    }

    #[test]
    fn unexpected_positional_rejected() {
        let e = Args::parse(["perf".into(), "extra".into()]).unwrap_err();
        assert!(matches!(e, ArgsError::UnexpectedPositional(_)));
    }

    /// Every parse failure prints an actionable one-liner; the exact
    /// strings are part of the CLI's contract.
    #[test]
    fn error_display_strings_are_pinned() {
        let bad = ArgsError::BadValue {
            key: "ops".into(),
            value: "banana".into(),
            expected: "u64",
        };
        assert_eq!(
            bad.to_string(),
            "option --ops: 'banana' is not a valid u64"
        );
        let positional = ArgsError::UnexpectedPositional("extra".into());
        assert_eq!(
            positional.to_string(),
            "unexpected argument 'extra' (one command, then --key value options; see `soteria help`)"
        );
    }
}

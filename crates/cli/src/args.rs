//! A small `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Error produced while parsing or reading arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgsError(pub String);

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgsError {}

/// Flags every command accepts: the telemetry flags.
pub const GLOBAL_FLAGS: &[&str] = &[
    "metrics-out",
    "trace-out",
    "progress",
    "no-progress",
    "quiet",
];

/// Flags that were removed. Every command still accepts them, with a
/// warning, and ignores them, so old command lines keep running.
pub const REMOVED_FLAGS: &[&str] = &[
    "estimator-seed",
    "integer",
    "no-batched-probes",
    "pool",
    "retries",
];

/// Parsed command line: one subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    subcommand: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    /// The flags the subcommand declared ([`Args::accept`]),
    /// space-separated; reading any other is a bug, caught in debug
    /// builds.
    accepted: Option<&'static str>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// Grammar: `[subcommand] (--key value | --switch)*`. A `--key` that is
    /// followed by another `--…` token (or nothing) is a boolean switch.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on a stray positional argument after options
    /// began, or a duplicated key.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgsError> {
        let mut args = Args::default();
        let mut it = raw.into_iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                args.subcommand = it.next();
            }
        }
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgsError(format!("unexpected positional argument `{tok}`")));
            };
            if key.is_empty() {
                return Err(ArgsError("empty option name `--`".into()));
            }
            let takes_value = it.peek().is_some_and(|next| !next.starts_with("--"));
            if takes_value {
                let value = it.next().expect("peeked");
                if args.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgsError(format!("option `--{key}` given twice")));
                }
            } else {
                if args.flags.contains(&key.to_string()) {
                    return Err(ArgsError(format!("switch `--{key}` given twice")));
                }
                args.flags.push(key.to_string());
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Checks the given flags against the ones the subcommand reads
    /// (`accepted`, space-separated, plus [`GLOBAL_FLAGS`]). A removed flag
    /// ([`REMOVED_FLAGS`]) is dropped, and a warning for it returned.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] naming the first flag that is neither
    /// accepted nor removed.
    pub fn accept(&mut self, accepted: &'static str) -> Result<Vec<String>, ArgsError> {
        let given: Vec<String> = self.options.keys().chain(&self.flags).cloned().collect();
        let mut warnings = Vec::new();
        for key in given {
            if REMOVED_FLAGS.contains(&key.as_str()) {
                self.options.remove(&key);
                self.flags.retain(|f| *f != key);
                warnings.push(format!("--{key} was removed and is ignored"));
            } else if !declared_in(accepted, &key) {
                let command = self.subcommand.as_deref().unwrap_or("clado");
                return Err(ArgsError(format!("unknown flag `--{key}` for `{command}`")));
            }
        }
        self.accepted = Some(accepted);
        Ok(warnings)
    }

    /// Whether `key` may be read: always before [`Args::accept`], and
    /// afterwards only when declared.
    fn declared(&self, key: &str) -> bool {
        self.accepted.is_none_or(|a| declared_in(a, key))
    }

    /// Raw string value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.declared(key), "`--{key}` is read but not declared");
        self.options.get(key).map(String::as_str)
    }

    /// `true` if the boolean switch `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        debug_assert!(self.declared(key), "`--{key}` is read but not declared");
        self.flags.iter().any(|f| f == key)
    }

    /// Typed value with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] if the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgsError(format!("invalid value `{v}` for --{key}"))),
        }
    }

    /// Required typed value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] if the key is missing or does not parse.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgsError> {
        let v = self
            .get(key)
            .ok_or_else(|| ArgsError(format!("missing required --{key}")))?;
        v.parse()
            .map_err(|_| ArgsError(format!("invalid value `{v}` for --{key}")))
    }

    /// Duration value of `--key` (e.g. `--solver-timeout 10s`), accepting
    /// the suffixes `ms`, `s`, `m`, and `h` (a bare number means seconds).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] if the value does not parse as a duration.
    pub fn duration(&self, key: &str) -> Result<Option<std::time::Duration>, ArgsError> {
        self.get(key)
            .map(|v| {
                parse_duration(v).ok_or_else(|| {
                    ArgsError(format!(
                        "invalid duration `{v}` for --{key} (use e.g. 500ms, 10s, 2m, 1h)"
                    ))
                })
            })
            .transpose()
    }

    /// Comma-separated typed list (e.g. `--bits 2,4,8`).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on parse failure.
    pub fn list_or<T: std::str::FromStr + Clone>(
        &self,
        key: &str,
        default: &[T],
    ) -> Result<Vec<T>, ArgsError> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<T>()
                        .map_err(|_| ArgsError(format!("invalid entry `{p}` in --{key}")))
                })
                .collect(),
        }
    }
}

/// Whether `key` is a global flag or one of the space-separated
/// `accepted` flags.
fn declared_in(accepted: &str, key: &str) -> bool {
    GLOBAL_FLAGS.contains(&key) || accepted.split_whitespace().any(|f| f == key)
}

/// Parses a human-readable duration: `500ms`, `10s`, `2m`, `1h`, or a bare
/// number of seconds. Fractions are accepted (`1.5s`). Returns `None` on
/// anything else (including negatives and non-finite values).
pub fn parse_duration(s: &str) -> Option<std::time::Duration> {
    let s = s.trim();
    let (number, scale_ms) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000.0)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60_000.0)
    } else if let Some(n) = s.strip_suffix('h') {
        (n, 3_600_000.0)
    } else {
        (s, 1_000.0)
    };
    let value: f64 = number.trim().parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    Some(std::time::Duration::from_secs_f64(
        value * scale_ms / 1_000.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(parts: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse(&["assign", "--model", "resnet34", "--avg-bits", "3.0"]).unwrap();
        assert_eq!(a.subcommand(), Some("assign"));
        assert_eq!(a.get("model"), Some("resnet34"));
        assert_eq!(a.get_or::<f64>("avg-bits", 0.0).unwrap(), 3.0);
    }

    #[test]
    fn switches_and_defaults() {
        let a = parse(&["sweep", "--verbose", "--step", "0.5"]).unwrap();
        assert!(a.switch("verbose"));
        assert!(!a.switch("quiet"));
        assert_eq!(a.get_or::<f64>("step", 0.25).unwrap(), 0.5);
        assert_eq!(a.get_or::<f64>("from", 2.5).unwrap(), 2.5);
    }

    #[test]
    fn bit_lists() {
        let a = parse(&["x", "--bits", "2,4,8"]).unwrap();
        assert_eq!(a.list_or("bits", &[8u8]).unwrap(), vec![2, 4, 8]);
        assert_eq!(a.list_or("other", &[8u8]).unwrap(), vec![8]);
        let bad = parse(&["x", "--bits", "2,nope"]).unwrap();
        assert!(bad.list_or("bits", &[8u8]).is_err());
    }

    #[test]
    fn error_paths() {
        assert!(parse(&["x", "stray"]).is_err());
        assert!(parse(&["x", "--k", "1", "--k", "2"]).is_err());
        assert!(parse(&["x", "--"]).is_err());
        let a = parse(&["x"]).unwrap();
        assert!(a.require::<u64>("seed").is_err());
        let b = parse(&["x", "--seed", "abc"]).unwrap();
        assert!(b.require::<u64>("seed").is_err());
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("500ms"), Some(Duration::from_millis(500)));
        assert_eq!(parse_duration("10s"), Some(Duration::from_secs(10)));
        assert_eq!(parse_duration("2m"), Some(Duration::from_secs(120)));
        assert_eq!(parse_duration("1h"), Some(Duration::from_secs(3600)));
        assert_eq!(parse_duration("3"), Some(Duration::from_secs(3)));
        assert_eq!(parse_duration("1.5s"), Some(Duration::from_millis(1500)));
        assert_eq!(parse_duration("-1s"), None);
        assert_eq!(parse_duration("fast"), None);
        let a = parse(&["x", "--solver-timeout", "10s"]).unwrap();
        assert_eq!(
            a.duration("solver-timeout").unwrap(),
            Some(Duration::from_secs(10))
        );
        assert_eq!(a.duration("other").unwrap(), None);
        let bad = parse(&["x", "--solver-timeout", "soon"]).unwrap();
        assert!(bad.duration("solver-timeout").is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is read but not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let mut a = parse(&["assign"]).unwrap();
        a.accept("model").unwrap();
        let _ = a.get("algorithm");
    }

    #[test]
    fn no_subcommand() {
        let a = parse(&["--help"]).unwrap();
        assert_eq!(a.subcommand(), None);
        assert!(a.switch("help"));
    }
}

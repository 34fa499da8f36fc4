//! Request/flag parameter parsing shared by the CLI and the server.
//!
//! One [`Args`] type backs both surfaces: the CLI feeds it
//! `--flag value` tokens from `std::env::args`, the server feeds it
//! `flag=value` pairs from the query string and the request body (the
//! pairs are rewritten into the same flag form, so `scale=0.02` on the
//! wire and `--scale 0.02` on the command line parse identically).
//!
//! Parsing **never exits the process** — every accessor returns
//! `Result<_, String>` so the CLI can turn an error into a clean
//! `ExitCode` (running destructors on the way out) and the server can
//! turn the same error into a `400`.

/// Parsed flags and positionals.
///
/// Lookup is first-match: when a flag is repeated, the earliest
/// occurrence wins ([`Args::value`]); [`Args::get_all`] exposes every
/// occurrence. The server relies on first-match to give query-string
/// parameters precedence over request-body parameters. A value-taking
/// flag given without its value is an error, never its default.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Non-flag tokens, in order (the CLI's subcommand and operands).
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses a CLI-style token stream. A token after `--name` becomes
    /// that flag's value unless it is itself a flag; a leading-dash
    /// value that is not a flag (e.g. `--budget -5`) is kept as a
    /// value.
    pub fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = raw
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .inspect(|_| {
                        raw.next();
                    });
                flags.push((name.to_owned(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    /// Parses a `key=value&key2=value2` query or form-body string.
    /// Keys and values are percent-decoded (`+` is a space); a key
    /// without `=` becomes a valueless flag, mirroring `--flag` with no
    /// value.
    pub fn from_query(query: &str) -> Self {
        let mut args = Args::default();
        args.extend_from_query(query);
        args
    }

    /// Parses the query string and body of one request. Query pairs are
    /// appended first, so they take precedence under first-match
    /// lookup.
    pub fn from_request(query: &str, body: &str) -> Self {
        let mut args = Args::default();
        args.extend_from_query(query);
        args.extend_from_query(body);
        args
    }

    fn extend_from_query(&mut self, query: &str) {
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            match pair.split_once('=') {
                Some((k, v)) => self
                    .flags
                    .push((percent_decode(k), Some(percent_decode(v)))),
                None => self.flags.push((percent_decode(pair), None)),
            }
        }
    }

    /// The value of the value-taking flag `name`: `None` when absent,
    /// else its first occurrence's value. Any occurrence without a value
    /// is an error: `--scale` with its value forgotten must not build
    /// the default design. Boolean flags use [`Args::has`].
    pub fn value(&self, name: &str) -> Result<Option<&str>, String> {
        let mut first = None;
        for (_, v) in self.flags.iter().filter(|(n, _)| n == name) {
            match v {
                Some(v) => {
                    first.get_or_insert(v.as_str());
                }
                None => return Err(format!("{name} expects a value")),
            }
        }
        Ok(first)
    }

    /// Every value of `name`, in order (valueless occurrences are
    /// skipped).
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// Whether `name` appears at all (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Flag names that are not in `known` — the server rejects these
    /// with a `400` so typos fail loudly instead of silently defaulting.
    pub fn unknown_flags(&self, known: &[&str]) -> Vec<&str> {
        self.flags
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !known.contains(n))
            .collect()
    }

    /// `--scale` in `[MIN_SCALE, 1]` (the generator's floor, see
    /// [`scap::soc::MIN_SCALE`]), defaulting to 0.01.
    pub fn scale(&self) -> Result<f64, String> {
        let Some(raw) = self.value("scale")? else {
            return Ok(0.01);
        };
        match raw.parse::<f64>() {
            Ok(s) if (scap::soc::MIN_SCALE..=1.0).contains(&s) => Ok(s),
            Ok(s) => Err(format!(
                "scale must be in [{}, 1], got {s}",
                scap::soc::MIN_SCALE
            )),
            Err(_) => Err(format!("scale expects a number, got '{raw}'")),
        }
    }

    /// `--seed`, defaulting to the Turbo-Eagle preset seed.
    pub fn seed(&self) -> Result<u64, String> {
        let Some(raw) = self.value("seed")? else {
            return Ok(scap::CaseStudy::default_seed());
        };
        raw.parse::<u64>()
            .map_err(|_| format!("seed expects an unsigned integer, got '{raw}'"))
    }

    /// `--threads`, a positive worker count, if present.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        let Some(raw) = self.value("threads")? else {
            return Ok(None);
        };
        match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("threads expects a positive integer, got '{raw}'")),
        }
    }

    /// A positive-integer flag with a default.
    pub fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        let Some(raw) = self.value(name)? else {
            return Ok(default);
        };
        match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{name} expects a positive integer, got '{raw}'")),
        }
    }

    /// A finite-float flag, if present.
    pub fn f64_flag(&self, name: &str) -> Result<Option<f64>, String> {
        let Some(raw) = self.value(name)? else {
            return Ok(None);
        };
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Some(v)),
            _ => Err(format!("{name} expects a finite number, got '{raw}'")),
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space. Malformed escapes pass
/// through literally (a request parameter is never a reason to panic).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h * 16 + l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let args = cli(&["atpg", "--scale", "0.02", "--compact", "--stil", "out.stil"]);
        assert_eq!(args.positional, vec!["atpg"]);
        assert_eq!(args.scale().unwrap(), 0.02);
        assert!(args.has("compact"));
        assert_eq!(args.value("stil"), Ok(Some("out.stil")));
        assert_eq!(args.value("missing"), Ok(None));
    }

    #[test]
    fn flag_without_value_before_another_flag() {
        let args = cli(&["profile", "--compact", "--scale", "0.5"]);
        assert!(args.has("compact"));
        assert!(args.value("compact").is_err());
        assert_eq!(args.scale().unwrap(), 0.5);
    }

    #[test]
    fn negative_number_is_a_value_not_a_flag() {
        let args = cli(&["schedule", "--budget", "-5.5"]);
        assert_eq!(args.value("budget"), Ok(Some("-5.5")));
        // …and it parses (the range check is the caller's policy).
        assert_eq!(args.f64_flag("budget").unwrap(), Some(-5.5));
        assert!(args.positional == vec!["schedule"]);
    }

    #[test]
    fn repeated_flags_first_wins_and_all_are_kept() {
        let args = cli(&["x", "--scale", "0.5", "--scale", "0.25"]);
        assert_eq!(args.value("scale"), Ok(Some("0.5")));
        assert_eq!(args.scale().unwrap(), 0.5);
        assert_eq!(args.get_all("scale"), vec!["0.5", "0.25"]);
    }

    #[test]
    fn trailing_positional_after_flags() {
        let args = cli(&["--threads", "2", "evaluate", "extra"]);
        assert_eq!(args.positional, vec!["evaluate", "extra"]);
        assert_eq!(args.threads().unwrap(), Some(2));
    }

    #[test]
    fn default_scale_and_seed_when_absent() {
        let args = cli(&["generate"]);
        assert_eq!(args.scale().unwrap(), 0.01);
        assert_eq!(args.seed().unwrap(), scap::CaseStudy::default_seed());
    }

    #[test]
    fn malformed_values_error_without_exiting() {
        assert!(cli(&["--scale", "zero"]).scale().is_err());
        assert!(cli(&["--scale", "2.0"]).scale().is_err());
        assert!(cli(&["--scale", "-0.1"]).scale().is_err());
        // Below the generator's floor: a usage error, not a panic later.
        assert!(cli(&["--scale", "0.0001"]).scale().is_err());
        assert_eq!(
            cli(&["--scale", "0.0004"]).scale().unwrap(),
            scap::soc::MIN_SCALE
        );
        assert!(cli(&["--threads", "0"]).threads().is_err());
        assert!(cli(&["--seed", "-1"]).seed().is_err());
        assert!(cli(&["--budget", "nan"]).f64_flag("budget").is_err());
    }

    /// A value flag given without its value errors instead of falling
    /// back to the default, whether it stands alone, shadows a later
    /// valued occurrence or follows one.
    #[test]
    fn valueless_value_flags_are_errors() {
        assert!(cli(&["generate", "--scale"]).scale().is_err());
        assert!(cli(&["atpg", "--scale", "0.01", "--stil"])
            .value("stil")
            .is_err());
        assert!(cli(&["x", "--seed", "--scale", "0.5"]).seed().is_err());
        assert!(cli(&["x", "--threads"]).threads().is_err());
        assert!(cli(&["x", "--paths"]).usize_flag("paths", 3).is_err());
        assert!(cli(&["x", "--budget"]).f64_flag("budget").is_err());
        assert!(Args::from_query("scale&scale=0.5").scale().is_err());
        assert!(Args::from_query("scale=0.5&scale").scale().is_err());
        assert!(Args::from_request("scale=0.5", "scale").scale().is_err());
        // Absent flags still take their defaults.
        assert_eq!(Args::from_query("seed=3").scale(), Ok(0.01));
    }

    #[test]
    fn query_pairs_parse_like_flags() {
        let args = Args::from_query("scale=0.02&flow=conventional&compact");
        assert_eq!(args.scale().unwrap(), 0.02);
        assert_eq!(args.value("flow"), Ok(Some("conventional")));
        assert!(args.has("compact"));
        assert!(args.value("compact").is_err());
    }

    #[test]
    fn query_takes_precedence_over_body() {
        let args = Args::from_request("scale=0.5", "scale=0.25&fill=fill-0");
        assert_eq!(args.scale().unwrap(), 0.5);
        assert_eq!(args.value("fill"), Ok(Some("fill-0")));
    }

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        let args = Args::from_query("name=B%35");
        assert_eq!(args.value("name"), Ok(Some("B5")));
    }

    #[test]
    fn unknown_flags_are_reported() {
        let args = Args::from_query("scale=0.01&sacle=0.02");
        assert_eq!(args.unknown_flags(&["scale", "seed"]), vec!["sacle"]);
        assert!(Args::from_query("scale=1")
            .unknown_flags(&["scale"])
            .is_empty());
    }
}

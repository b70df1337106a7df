//! Tiny `--key value` option parsing for the CLI (no external crates).

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Opts {
    values: HashMap<String, String>,
}

impl Opts {
    /// Parses `--key value` pairs; bare flags get the value `"true"`.
    pub fn parse<I: Iterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut pending: Option<String> = None;
        for arg in args {
            if let Some(key) = arg.strip_prefix("--") {
                if let Some(prev) = pending.take() {
                    values.insert(prev, "true".to_string());
                }
                pending = Some(key.to_string());
            } else if let Some(key) = pending.take() {
                values.insert(key, arg);
            }
        }
        if let Some(prev) = pending {
            values.insert(prev, "true".to_string());
        }
        Opts { values }
    }

    /// Refuses every `--key` outside the space-separated `known` list,
    /// naming the first unknown one in sorted order.
    pub fn reject_unknown(&self, known: &str) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .filter(|key| !known.split_whitespace().any(|k| k == *key))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(key) => Err(format!("unknown option --{key}")),
        }
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<String> {
        self.values.get(key).cloned()
    }

    /// A mandatory string option.
    pub fn require(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A usize option with a default.
    pub fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// A u64 option with a default.
    pub fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    /// A bare boolean flag (`--quasi` style): present ⇒ true.
    pub fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// A finite f64 option with a default; `nan` and `inf` are refused.
    pub fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .ok_or_else(|| format!("--{key} expects a finite number, got {v:?}")),
        }
    }

    /// A finite f64 option with a default that must be > 0.
    pub fn positive_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.f64(key, default)?;
        if v > 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be > 0, got {v}"))
        }
    }

    /// A finite f64 option with a default that must be ≥ 0.
    pub fn non_negative_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.f64(key, default)?;
        if v >= 0.0 {
            Ok(v)
        } else {
            Err(format!("--{key} must be ≥ 0, got {v}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs() {
        let o = opts(&["--nodes", "40", "--out", "x.cf"]);
        assert_eq!(o.usize("nodes", 0).unwrap(), 40);
        assert_eq!(o.require("out").unwrap(), "x.cf");
        assert_eq!(o.f64("degree", 9.5).unwrap(), 9.5);
    }

    #[test]
    fn flags_and_errors() {
        let o = opts(&["--fast", "--tau", "oops"]);
        assert_eq!(o.get("fast").as_deref(), Some("true"));
        assert!(o.usize("tau", 3).is_err());
        assert!(o.require("in").is_err());
        let o = opts(&["--rc", "inf", "--degree", "0"]);
        assert!(o.f64("rc", 1.0).is_err());
        assert!(o.positive_f64("degree", 9.5).is_err());
        assert_eq!(o.positive_f64("speed", 0.5).unwrap(), 0.5);
        let o = opts(&["--speed", "-1", "--drift-bound", "0"]);
        assert!(o.non_negative_f64("speed", 0.05).is_err());
        assert_eq!(o.non_negative_f64("drift-bound", 0.5).unwrap(), 0.0);
    }

    #[test]
    fn trailing_flag() {
        let o = opts(&["--nodes", "7", "--verbose"]);
        assert_eq!(o.get("verbose").as_deref(), Some("true"));
        assert_eq!(o.u64("nodes", 0).unwrap(), 7);
    }

    #[test]
    fn unknown_keys_are_named() {
        let o = opts(&["--tau", "4", "--thread", "3", "--regions", "4"]);
        assert_eq!(
            o.reject_unknown("tau threads"),
            Err("unknown option --regions".to_string())
        );
        assert_eq!(o.reject_unknown("tau thread regions"), Ok(()));
    }

    #[test]
    fn engine_flags() {
        let o = opts(&["--quasi", "--threads", "4"]);
        assert!(o.flag("quasi"));
        assert!(!o.flag("lower"));
        assert_eq!(o.usize("threads", 0).unwrap(), 4);
    }
}

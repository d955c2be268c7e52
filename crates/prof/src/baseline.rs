//! Perf-regression baselines: snapshot an experiment's numeric results to
//! a `BENCH_<ID>.json` file and diff later runs against it under tolerance
//! bands.
//!
//! The store is deliberately independent of any serde machinery: files are
//! written with the same byte-stable encoding as the `dl-obs` exporters
//! (sorted keys, shortest round-trip floats) and read back with a small
//! recursive-descent parser, so a seeded run writes the identical file
//! every time and CI diffs are real drift, never formatting noise.

use dl_obs::field::write_json_string;
use dl_obs::{FieldValue, Fields};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A snapshot of one experiment's numeric record set.
///
/// Metrics are flattened from the experiment's records as `r<i>.<key>`
/// (record index, then field name), keeping only values with a numeric
/// reading: integers and floats directly, booleans as 0/1. Strings and
/// non-finite floats are dropped — they cannot be band-compared.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a baseline is pure data; save or diff it"]
pub struct Baseline {
    /// Experiment id (`e5`).
    pub id: String,
    /// Experiment title at snapshot time.
    pub title: String,
    /// Verdict line at snapshot time.
    pub verdict: String,
    /// Flattened numeric metrics, sorted by key.
    pub metrics: BTreeMap<String, f64>,
}

/// Tolerance bands for [`Baseline::diff`]: a metric drifts when
/// `|current - baseline| > abs + rel * |baseline|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative band (fraction of the baseline magnitude).
    pub rel: f64,
    /// Absolute band, the floor for near-zero baselines.
    pub abs: f64,
}

impl Default for Tolerance {
    /// 2% relative with a tiny absolute floor — tight enough to catch a
    /// real perf change, loose enough to ignore float formatting jitter.
    fn default() -> Self {
        Tolerance {
            rel: 0.02,
            abs: 1e-9,
        }
    }
}

impl Tolerance {
    /// Whether `current` is outside the band around `baseline`.
    #[must_use]
    fn exceeded(&self, baseline: f64, current: f64) -> bool {
        (current - baseline).abs() > self.abs + self.rel * baseline.abs()
    }
}

/// One metric that moved outside its tolerance band, or appeared/vanished.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a drift is a detected regression; report it"]
pub struct Drift {
    /// Flattened metric key (`r0.accuracy`).
    pub key: String,
    /// Baseline value (`None` when the metric is new).
    pub baseline: Option<f64>,
    /// Current value (`None` when the metric vanished).
    pub current: Option<f64>,
}

impl Drift {
    /// Relative change against the baseline, when both sides exist.
    #[must_use]
    pub fn relative(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b.abs()),
            _ => None,
        }
    }

    /// Human-oriented one-line description.
    #[must_use]
    pub fn describe(&self) -> String {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => {
                let pct = self
                    .relative()
                    .map(|r| format!(" ({:+.2}%)", r * 100.0))
                    .unwrap_or_default();
                format!("{}: {b} -> {c}{pct}", self.key)
            }
            (None, Some(c)) => format!("{}: new metric (= {c})", self.key),
            (Some(b), None) => format!("{}: vanished (was {b})", self.key),
            (None, None) => format!("{}: empty drift", self.key),
        }
    }
}

impl Baseline {
    /// Builds a baseline from an experiment's records, flattening each
    /// record `i`'s field `k` to metric `r<i>.<k>`.
    pub fn from_records(id: &str, title: &str, verdict: &str, records: &[Fields]) -> Self {
        let mut metrics = BTreeMap::new();
        for (i, record) in records.iter().enumerate() {
            for (key, value) in record {
                let numeric = match value {
                    FieldValue::Bool(b) => Some(f64::from(u8::from(*b))),
                    FieldValue::Str(_) => None,
                    other => other.as_f64(),
                };
                if let Some(v) = numeric.filter(|v| v.is_finite()) {
                    metrics.insert(format!("r{i}.{key}"), v);
                }
            }
        }
        Baseline {
            id: id.to_string(),
            title: title.to_string(),
            verdict: verdict.to_string(),
            metrics,
        }
    }

    /// The canonical file name for an experiment id: `e5` ->
    /// `BENCH_E05.json`, `a1` -> `BENCH_A01.json`.
    #[must_use]
    pub fn file_name(id: &str) -> String {
        let (letters, digits): (String, String) = id.chars().partition(|c| !c.is_ascii_digit());
        let number: u64 = digits.parse().unwrap_or(0);
        format!("BENCH_{}{number:02}.json", letters.to_ascii_uppercase())
    }

    /// The baseline path for `id` inside `dir`.
    #[must_use]
    fn path_for(dir: &Path, id: &str) -> PathBuf {
        dir.join(Self::file_name(id))
    }

    /// Byte-stable JSON encoding: fixed key order, sorted metrics,
    /// shortest round-trip float formatting.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        write_json_string(&mut out, &self.id);
        out.push_str(",\n  \"metrics\": {");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_string(&mut out, key);
            let _ = write!(out, ": {}", json_number(*value));
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"title\": ");
        write_json_string(&mut out, &self.title);
        out.push_str(",\n  \"verdict\": ");
        write_json_string(&mut out, &self.verdict);
        out.push_str("\n}\n");
        out
    }

    /// Parses a baseline from its JSON encoding (accepts any standard JSON
    /// with the expected shape, not just [`Baseline::to_json`] output).
    ///
    /// # Errors
    /// Returns a description of the first syntax or shape problem.
    fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("baseline root must be an object")?;
        let str_field = |key: &str| -> Result<String, String> {
            obj.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let mut metrics = BTreeMap::new();
        let metric_obj = obj
            .iter()
            .find(|(k, _)| k == "metrics")
            .and_then(|(_, v)| v.as_object())
            .ok_or("missing object field \"metrics\"")?;
        for (key, value) in metric_obj {
            let number = value
                .as_f64()
                .ok_or_else(|| format!("metric {key:?} is not a number"))?;
            metrics.insert(key.clone(), number);
        }
        Ok(Baseline {
            id: str_field("id")?,
            title: str_field("title")?,
            verdict: str_field("verdict")?,
            metrics,
        })
    }

    /// Writes the baseline to its canonical file inside `dir`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = Self::path_for(dir, &self.id);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads the baseline for `id` from `dir`.
    ///
    /// # Errors
    /// Fails when the file is missing or malformed.
    pub fn load(dir: &Path, id: &str) -> io::Result<Self> {
        let path = Self::path_for(dir, id);
        let text = std::fs::read_to_string(&path)?;
        Self::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Diffs `current` against this baseline: every metric outside
    /// `tolerance`, plus metrics that appeared or vanished. Empty result
    /// means no regression.
    pub fn diff(&self, current: &Baseline, tolerance: Tolerance) -> Vec<Drift> {
        let mut drifts = Vec::new();
        for (key, &base) in &self.metrics {
            match current.metrics.get(key) {
                Some(&cur) if !tolerance.exceeded(base, cur) => {}
                Some(&cur) => drifts.push(Drift {
                    key: key.clone(),
                    baseline: Some(base),
                    current: Some(cur),
                }),
                None => drifts.push(Drift {
                    key: key.clone(),
                    baseline: Some(base),
                    current: None,
                }),
            }
        }
        for (key, &cur) in &current.metrics {
            if !self.metrics.contains_key(key) {
                drifts.push(Drift {
                    key: key.clone(),
                    baseline: None,
                    current: Some(cur),
                });
            }
        }
        drifts
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string() // non-finite values are filtered before save; belt and braces
    }
}

/// Minimal recursive-descent JSON reader — objects, strings, numbers,
/// bools, null, arrays — enough to load baseline files without serde.
mod json {
    /// Parsed JSON value (arrays are read but unused by baselines).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Number(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, preserving insertion order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The value as an object's entry list, when it is one.
        pub(super) fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(entries) => Some(entries),
                _ => None,
            }
        }

        /// The value as a string slice, when it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a float (numbers only; bools/strings do not coerce).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses `text` as a single JSON value.
    ///
    /// # Errors
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&byte) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        literal: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(literal.as_bytes()) {
            *pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut entries = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            entries.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let text =
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::fields;

    fn sample() -> Baseline {
        Baseline::from_records(
            "e5",
            "Local SGD sync/comm tradeoff",
            "PASS: comm drops superlinearly",
            &[
                fields! { "sync_period" => 1usize, "accuracy" => 0.8751, "bytes" => 128000usize, "note" => "dense" },
                fields! { "sync_period" => 8usize, "accuracy" => 0.8642, "bytes" => 16000usize, "converged" => true },
            ],
        )
    }

    #[test]
    fn flattening_keeps_numerics_and_drops_strings() {
        let b = sample();
        assert_eq!(b.metrics["r0.accuracy"], 0.8751);
        assert_eq!(b.metrics["r1.bytes"], 16000.0);
        assert_eq!(b.metrics["r1.converged"], 1.0);
        assert!(!b.metrics.contains_key("r0.note"));
        assert_eq!(b.metrics.len(), 7);
    }

    #[test]
    fn file_names_are_zero_padded_and_uppercase() {
        assert_eq!(Baseline::file_name("e5"), "BENCH_E05.json");
        assert_eq!(Baseline::file_name("e22"), "BENCH_E22.json");
        assert_eq!(Baseline::file_name("a1"), "BENCH_A01.json");
    }

    #[test]
    fn json_round_trip_is_lossless_and_byte_stable() {
        let b = sample();
        let text = b.to_json();
        let back = Baseline::from_json(&text).expect("parses");
        assert_eq!(back, b);
        assert_eq!(back.to_json(), text, "encode(decode(x)) == x byte for byte");
    }

    #[test]
    fn save_load_round_trip_through_a_directory() {
        let dir = std::env::temp_dir().join("dl_prof_baseline_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let b = sample();
        let path = b.save(&dir).expect("save");
        assert!(path.ends_with("BENCH_E05.json"));
        let back = Baseline::load(&dir, "e5").expect("load");
        assert_eq!(back, b);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn identical_runs_produce_no_drift() {
        let b = sample();
        assert!(b.diff(&sample(), Tolerance::default()).is_empty());
    }

    #[test]
    fn perturbation_outside_the_band_is_detected() {
        let b = sample();
        let mut cur = sample();
        cur.metrics.insert("r0.accuracy".to_string(), 0.8751 * 1.05);
        let drifts = b.diff(&cur, Tolerance::default());
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].key, "r0.accuracy");
        assert!(drifts[0].describe().contains("r0.accuracy"));
        assert!(drifts[0].relative().unwrap() > 0.04);
    }

    #[test]
    fn small_drift_inside_the_band_is_tolerated() {
        let b = sample();
        let mut cur = sample();
        cur.metrics.insert("r0.accuracy".to_string(), 0.8751 * 1.01);
        assert!(b.diff(&cur, Tolerance::default()).is_empty());
    }

    #[test]
    fn appearing_and_vanishing_metrics_are_drifts() {
        let b = sample();
        let mut cur = sample();
        cur.metrics.remove("r0.bytes");
        cur.metrics.insert("r0.new_metric".to_string(), 1.0);
        let drifts = b.diff(&cur, Tolerance::default());
        assert_eq!(drifts.len(), 2);
        assert!(drifts.iter().any(|d| d.current.is_none()));
        assert!(drifts.iter().any(|d| d.baseline.is_none()));
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let b = Baseline::from_json(
            "{\"id\":\"e1\",\"metrics\":{\"r0.a\\n\":1e-3},\"title\":\"t \\\"q\\\"\",\"verdict\":\"ok\"}",
        )
        .expect("parses");
        assert_eq!(b.metrics["r0.a\n"], 1e-3);
        assert_eq!(b.title, "t \"q\"");
        assert!(Baseline::from_json("{\"id\":}").is_err());
        assert!(Baseline::from_json("[]").is_err());
        assert!(Baseline::from_json("{\"id\":\"x\"} trailing").is_err());
    }
}

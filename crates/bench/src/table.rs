//! Result tables rendered from records, plus JSON persistence.
//!
//! An experiment states each number once, as a field of one of its
//! `records`. A printed table is a list of [`Column`]s — a header, the
//! record key it reads and a formatter — and [`render_table`] builds its
//! rows from the records that carry the first column's key, so every
//! printed cell is a record field that `exp check` gates (or a string
//! field, such as a wall-clock figure, that the baseline drops).
//!
//! Persistence is hand-rolled on top of `dl-obs`'s byte-stable field
//! encoding (sorted keys, shortest round-trip floats) rather than any
//! serde machinery, so a seeded experiment writes the identical JSON file
//! on every run and `exp check` can hold its baseline to exact bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use dl_obs::field::write_json_string;
use dl_obs::{find_field, FieldValue, Fields};

/// Formats one record field as a table cell.
pub type Fmt = fn(&FieldValue) -> String;

/// One printed column: its header, the record key it reads, and how the
/// value is formatted.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Column header.
    pub header: &'static str,
    /// Record key the cells are read from.
    pub key: &'static str,
    /// Cell formatter.
    pub fmt: Fmt,
}

/// A column reading `key` under `header`, formatted by `fmt`.
pub const fn col(header: &'static str, key: &'static str, fmt: Fmt) -> Column {
    Column { header, key, fmt }
}

/// Renders the records that carry `columns[0].key`, in record order, as
/// one aligned table; a record without a column's key shows `-` there.
///
/// # Panics
/// Panics when no row carries some column's key, so a mistyped key in a
/// column list fails the first render instead of printing a column of
/// dashes.
pub fn render_table(columns: &[Column], records: &[Fields]) -> String {
    let rows: Vec<&Fields> = records
        .iter()
        .filter(|r| find_field(r, columns[0].key).is_some())
        .collect();
    for c in columns {
        assert!(
            rows.iter().any(|r| find_field(r, c.key).is_some()),
            "no row carries column key {:?}",
            c.key
        );
    }
    let headers: Vec<String> = columns.iter().map(|c| c.header.to_string()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            columns
                .iter()
                .map(|c| find_field(r, c.key).map_or_else(|| "-".to_string(), c.fmt))
                .collect()
        })
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], out: &mut String| {
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{c:<w$}");
        }
        out.push('\n');
    };
    line(&headers, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &cells {
        line(row, &mut out);
    }
    out
}

/// A complete experiment result: identity, headline, the structured
/// records E21 and the perf baselines consume, and the column lists that
/// print them.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (`e1`..`e31`, `a1`..`a4`).
    pub id: String,
    /// One-line title (the tutorial claim being regenerated).
    pub title: String,
    /// One column list per printed table.
    pub tables: Vec<&'static [Column]>,
    /// One-sentence verdict comparing measurement to the claim.
    pub verdict: String,
    /// Machine-readable measurements under the shared event-field schema
    /// (one flat record per measurement point).
    pub records: Vec<Fields>,
}

impl ExperimentResult {
    /// Renders the full report block: every table, blank-line separated,
    /// built from the records.
    ///
    /// # Panics
    /// Panics on a column key that none of its table's rows carry.
    pub fn render(&self) -> String {
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|columns| render_table(columns, &self.records))
            .collect();
        format!(
            "== {} — {}\n\n{}\nverdict: {}\n",
            self.id.to_uppercase(),
            self.title,
            tables.join("\n"),
            self.verdict
        )
    }

    /// Directory where experiment JSON records are written.
    fn output_dir() -> PathBuf {
        let dir = std::env::var("DL_EXPERIMENT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/experiments"));
        std::fs::create_dir_all(&dir).ok();
        dir
    }

    /// The full result as byte-stable JSON: fixed top-level key order,
    /// records encoded with sorted keys via `dl_obs::export`.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        write_json_string(&mut out, &self.id);
        out.push_str(",\n  \"records\": [");
        for (i, record) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&dl_obs::export::fields_to_json(record));
        }
        if !self.records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"title\": ");
        write_json_string(&mut out, &self.title);
        out.push_str(",\n  \"verdict\": ");
        write_json_string(&mut out, &self.verdict);
        out.push_str("\n}\n");
        out
    }

    /// Writes the JSON record to `target/experiments/<id>.json`.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = Self::output_dir().join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The baseline snapshot `exp --baseline` writes and `exp check`
    /// compares byte for byte: id, title, verdict and every numeric
    /// record field flattened to `r<i>.<key>` (record index, then field
    /// name), sorted by key, one metric per line. Booleans count as 0/1;
    /// strings and non-finite floats are dropped, so wall-clock figures
    /// reported as strings never reach the file.
    pub fn baseline_json(&self) -> String {
        let mut metrics = BTreeMap::new();
        for (i, record) in self.records.iter().enumerate() {
            for (key, value) in record {
                if let Some(v) = numeric(value).filter(|v| v.is_finite()) {
                    metrics.insert(format!("r{i}.{key}"), v);
                }
            }
        }
        let mut out = String::from("{\n  \"id\": ");
        write_json_string(&mut out, &self.id);
        out.push_str(",\n  \"metrics\": {");
        for (i, (key, value)) in metrics.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_json_string(&mut out, key);
            let _ = write!(out, ": {value}");
        }
        if !metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"title\": ");
        write_json_string(&mut out, &self.title);
        out.push_str(",\n  \"verdict\": ");
        write_json_string(&mut out, &self.verdict);
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
impl ExperimentResult {
    /// Renders the report, which checks every column list, and returns
    /// the number of rows each table printed.
    pub(crate) fn row_counts(&self) -> Vec<usize> {
        assert!(self.render().contains(&self.verdict));
        self.tables
            .iter()
            .map(|columns| render_table(columns, &self.records).lines().count() - 2)
            .collect()
    }
}

/// The baseline file name for an experiment id: `e5` ->
/// `BENCH_E05.json`, `a1` -> `BENCH_A01.json`.
pub fn baseline_file_name(id: &str) -> String {
    let (letters, digits): (String, String) = id.chars().partition(|c| !c.is_ascii_digit());
    let number: u64 = digits.parse().unwrap_or(0);
    format!("BENCH_{}{number:02}.json", letters.to_ascii_uppercase())
}

/// A field's numeric reading: integers widen, bools count as 0/1,
/// strings have none.
fn numeric(value: &FieldValue) -> Option<f64> {
    match value {
        FieldValue::Bool(b) => Some(f64::from(u8::from(*b))),
        other => other.as_f64(),
    }
}

/// Looks up a numeric field in a record (integers widen, bools count as
/// 0/1) — the replacement for indexing into a dynamic JSON value.
pub fn field_f64(fields: &Fields, key: &str) -> Option<f64> {
    find_field(fields, key).and_then(numeric)
}

/// A numeric cell's value.
///
/// # Panics
/// Panics on a string field: the column list pairs a key with the wrong
/// formatter.
fn num(v: &FieldValue) -> f64 {
    numeric(v).unwrap_or_else(|| panic!("numeric formatter on {v:?}"))
}

/// The field as recorded: integers in decimal, floats in shortest
/// round-trip form, booleans as `true`/`false`, strings verbatim.
pub fn text(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::I64(n) => n.to_string(),
        FieldValue::F64(x) => x.to_string(),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => s.to_string(),
    }
}

/// A number with `D` decimals.
pub fn fixed<const D: usize>(v: &FieldValue) -> String {
    format!("{:.*}", D, num(v))
}

/// A signed number with `D` decimals (`+0.008`).
pub fn signed<const D: usize>(v: &FieldValue) -> String {
    format!("{:+.*}", D, num(v))
}

/// A number in scientific notation with `D` mantissa decimals (`1.2e-3`).
pub fn sci<const D: usize>(v: &FieldValue) -> String {
    format!("{:.*e}", D, num(v))
}

/// A fraction as a percentage with `D` decimals (`0.163` -> `16.3%`).
pub fn pct<const D: usize>(v: &FieldValue) -> String {
    format!("{:.*}%", D, num(v) * 100.0)
}

/// Seconds as microseconds with `D` decimals.
pub fn us<const D: usize>(v: &FieldValue) -> String {
    format!("{:.*}", D, num(v) * 1e6)
}

/// A ratio with `D` decimals and an `x` suffix (`3.9x`).
pub fn times<const D: usize>(v: &FieldValue) -> String {
    format!("{:.*}x", D, num(v))
}

/// A boolean as `yes` / `no`.
pub fn yes_no(v: &FieldValue) -> String {
    (if num(v) != 0.0 { "yes" } else { "no" }).to_string()
}

/// A byte count, human-readably.
pub fn bytes(v: &FieldValue) -> String {
    match num(v) as u64 {
        v if v >= 1 << 30 => format!("{:.2} GiB", v as f64 / (1u64 << 30) as f64),
        v if v >= 1 << 20 => format!("{:.2} MiB", v as f64 / (1u64 << 20) as f64),
        v if v >= 1 << 10 => format!("{:.2} KiB", v as f64 / 1024.0),
        v => format!("{v} B"),
    }
}

/// A FLOP count, human-readably.
pub fn flops(v: &FieldValue) -> String {
    match num(v) as u64 {
        v if v >= 1_000_000_000_000 => format!("{:.2} TFLOP", v as f64 / 1e12),
        v if v >= 1_000_000_000 => format!("{:.2} GFLOP", v as f64 / 1e9),
        v if v >= 1_000_000 => format!("{:.2} MFLOP", v as f64 / 1e6),
        v => format!("{v} FLOP"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::fields;

    const COLUMNS: &[Column] = &[col("name", "name", text), col("value", "value", fixed::<1>)];

    #[test]
    fn table_renders_aligned() {
        let records = vec![
            fields! { "name" => "a", "value" => 1.0 },
            fields! { "unrelated" => 3usize },
            fields! { "name" => "longer" },
        ];
        let expected = "name    value\n-------------\na       1.0  \nlonger  -    \n";
        assert_eq!(render_table(COLUMNS, &records), expected);
    }

    #[test]
    #[should_panic(expected = "no row carries column key \"value\"")]
    fn render_checks_every_column_key() {
        render_table(COLUMNS, &[fields! { "name" => "a", "valeu" => 1.0 }]);
    }

    #[test]
    fn formatters() {
        let f = |x: f64| FieldValue::F64(x);
        let n = |x: u64| FieldValue::U64(x);
        assert_eq!(fixed::<3>(&f(0.12345)), "0.123");
        assert_eq!(fixed::<2>(&n(7)), "7.00");
        assert_eq!(signed::<3>(&f(0.0083)), "+0.008");
        assert_eq!(pct::<1>(&f(0.1634)), "16.3%");
        assert_eq!(sci::<1>(&f(0.00123)), "1.2e-3");
        assert_eq!(us::<1>(&f(44.06e-6)), "44.1");
        assert_eq!(times::<1>(&f(3.94)), "3.9x");
        assert_eq!(text(&f(0.5)), "0.5");
        assert_eq!(text(&n(12)), "12");
        assert_eq!(text(&FieldValue::Bool(true)), "true");
        assert_eq!(yes_no(&FieldValue::Bool(false)), "no");
        assert_eq!(bytes(&n(512)), "512 B");
        assert_eq!(bytes(&n(2048)), "2.00 KiB");
        assert_eq!(bytes(&n(3 << 20)), "3.00 MiB");
        assert_eq!(flops(&n(500)), "500 FLOP");
        assert_eq!(flops(&n(2_500_000)), "2.50 MFLOP");
        assert_eq!(flops(&n(3_000_000_000_000)), "3.00 TFLOP");
    }

    #[test]
    fn result_saves_json() {
        let r = ExperimentResult {
            id: "etest".into(),
            title: "test \"quoted\"".into(),
            tables: vec![COLUMNS],
            verdict: "ok".into(),
            records: vec![fields! { "accuracy" => 0.875, "bits" => 8usize }],
        };
        let path = r.save().unwrap();
        assert!(path.exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r.to_json(), "save writes exactly to_json()");
        assert!(text.contains("\"id\": \"etest\""));
        assert!(text.contains(r#"{"accuracy":0.875,"bits":8}"#));
        assert!(text.contains(r#"test \"quoted\""#));
        assert!(!text.contains("table"), "records are the only copy");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn to_json_is_byte_stable_and_field_lookup_widens() {
        let record = fields! { "n" => 3usize, "ok" => true, "name" => "x" };
        let r = ExperimentResult {
            id: "e0".into(),
            title: "t".into(),
            tables: vec![COLUMNS],
            verdict: "v".into(),
            records: vec![record.clone()],
        };
        assert_eq!(r.to_json(), r.clone().to_json());
        assert_eq!(field_f64(&record, "n"), Some(3.0));
        assert_eq!(field_f64(&record, "ok"), Some(1.0));
        assert_eq!(field_f64(&record, "name"), None);
        assert_eq!(field_f64(&record, "missing"), None);
    }

    #[test]
    fn flattening_keeps_numerics_and_drops_strings() {
        let r = ExperimentResult {
            id: "e5".into(),
            title: "Local SGD \"sync\"".into(),
            tables: Vec::new(),
            verdict: "PASS".into(),
            records: vec![
                fields! { "sync_period" => 1usize, "accuracy" => 0.8751, "note" => "dense" },
                fields! { "sync_period" => 8usize, "converged" => true, "loss" => f64::NAN },
            ],
        };
        let expected = r#"{
  "id": "e5",
  "metrics": {
    "r0.accuracy": 0.8751,
    "r0.sync_period": 1,
    "r1.converged": 1,
    "r1.sync_period": 8
  },
  "title": "Local SGD \"sync\"",
  "verdict": "PASS"
}
"#;
        assert_eq!(r.baseline_json(), expected);
    }

    #[test]
    fn file_names_are_zero_padded_and_uppercase() {
        assert_eq!(baseline_file_name("e5"), "BENCH_E05.json");
        assert_eq!(baseline_file_name("e22"), "BENCH_E22.json");
        assert_eq!(baseline_file_name("a1"), "BENCH_A01.json");
    }
}

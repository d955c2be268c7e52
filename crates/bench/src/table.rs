//! Result tables: pretty terminal rendering + JSON persistence.
//!
//! Persistence is hand-rolled on top of `dl-obs`'s byte-stable field
//! encoding (sorted keys, shortest round-trip floats) rather than any
//! serde machinery, so a seeded experiment writes the identical JSON file
//! on every run and `exp check` can hold its baseline to exact bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use dl_obs::field::write_json_string;
use dl_obs::FieldValue;

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}");
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }
}

/// A complete experiment result: identity, headline, table, and the
/// structured records E21 and the perf baselines consume.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (`e1`..`e31`, `a1`..`a4`).
    pub id: String,
    /// One-line title (the tutorial claim being regenerated).
    pub title: String,
    /// The result table.
    pub table: Table,
    /// One-sentence verdict comparing measurement to the claim.
    pub verdict: String,
    /// Machine-readable measurements under the shared event-field schema
    /// (one flat record per measurement point).
    pub records: Vec<dl_obs::Fields>,
}

impl ExperimentResult {
    /// Renders the full report block.
    pub fn render(&self) -> String {
        format!(
            "== {} — {}\n\n{}\nverdict: {}\n",
            self.id.to_uppercase(),
            self.title,
            self.table.render(),
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
        out.push_str("],\n");
        out.push_str("  \"table\": {\"headers\": ");
        write_str_array(&mut out, &self.table.headers);
        out.push_str(", \"rows\": [");
        for (i, row) in self.table.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str_array(&mut out, row);
        }
        out.push_str("]},\n  \"title\": ");
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

/// The baseline file name for an experiment id: `e5` ->
/// `BENCH_E05.json`, `a1` -> `BENCH_A01.json`.
pub fn baseline_file_name(id: &str) -> String {
    let (letters, digits): (String, String) = id.chars().partition(|c| !c.is_ascii_digit());
    let number: u64 = digits.parse().unwrap_or(0);
    format!("BENCH_{}{number:02}.json", letters.to_ascii_uppercase())
}

fn write_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(out, item);
    }
    out.push(']');
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
pub fn field_f64(fields: &dl_obs::Fields, key: &str) -> Option<f64> {
    dl_obs::find_field(fields, key).and_then(numeric)
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a byte count human-readably.
pub fn bytes(v: u64) -> String {
    match v {
        v if v >= 1 << 30 => format!("{:.2} GiB", v as f64 / (1u64 << 30) as f64),
        v if v >= 1 << 20 => format!("{:.2} MiB", v as f64 / (1u64 << 20) as f64),
        v if v >= 1 << 10 => format!("{:.2} KiB", v as f64 / 1024.0),
        v => format!("{v} B"),
    }
}

/// Formats a FLOP count human-readably.
pub fn flops(v: u64) -> String {
    match v {
        v if v >= 1_000_000_000_000 => format!("{:.2} TFLOP", v as f64 / 1e12),
        v if v >= 1_000_000_000 => format!("{:.2} GFLOP", v as f64 / 1e9),
        v if v >= 1_000_000 => format!("{:.2} MFLOP", v as f64 / 1e6),
        v => format!("{v} FLOP"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_width_checked() {
        Table::new(&["a", "b"]).row(&["only".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2048), "2.00 KiB");
        assert_eq!(bytes(3 << 20), "3.00 MiB");
        assert_eq!(flops(500), "500 FLOP");
        assert_eq!(flops(2_500_000), "2.50 MFLOP");
        assert_eq!(flops(3_000_000_000_000), "3.00 TFLOP");
    }

    #[test]
    fn result_saves_json() {
        use dl_obs::fields;
        let mut table = Table::new(&["x"]);
        table.row(&["quoted \"cell\"".into()]);
        let r = ExperimentResult {
            id: "etest".into(),
            title: "test".into(),
            table,
            verdict: "ok".into(),
            records: vec![fields! { "accuracy" => 0.875, "bits" => 8usize }],
        };
        let path = r.save().unwrap();
        assert!(path.exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r.to_json(), "save writes exactly to_json()");
        assert!(text.contains("\"id\": \"etest\""));
        assert!(text.contains(r#"{"accuracy":0.875,"bits":8}"#));
        assert!(text.contains(r#"quoted \"cell\""#));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn to_json_is_byte_stable_and_field_lookup_widens() {
        use dl_obs::fields;
        let record = fields! { "n" => 3usize, "ok" => true, "name" => "x" };
        let r = ExperimentResult {
            id: "e0".into(),
            title: "t".into(),
            table: Table::new(&["a"]),
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
        use dl_obs::fields;
        let r = ExperimentResult {
            id: "e5".into(),
            title: "Local SGD \"sync\"".into(),
            table: Table::new(&["a"]),
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

//! Typed key-value fields attached to events, and the [`ToFields`]
//! conversion shared by every report/record type in the workspace.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One typed field value.
///
/// The variants cover everything the workspace's reports carry; values
/// render to JSON with a stable, locale-free textual form so exported
/// traces are byte-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned counter-like quantity (bytes, FLOPs, sample counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement (seconds, loss, accuracy).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form label (worker names, verdicts, technique ids). Literal
    /// labels are borrowed, so emitting one does not allocate.
    Str(Cow<'static, str>),
}

impl FieldValue {
    /// The value as a `u64`: unsigned integers directly, signed ones when
    /// non-negative.
    #[must_use]
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            FieldValue::U64(n) => Some(n),
            FieldValue::I64(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: floats directly, integers losslessly
    /// widened (the usual "read a metric off an event" accessor).
    #[must_use]
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            FieldValue::F64(x) => Some(x),
            FieldValue::U64(n) => Some(n as f64),
            FieldValue::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    #[must_use]
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// An ordered field list. Exporters sort by key, so emission order is a
/// call-site convenience, not part of the format. Keys are borrowed
/// literals except where a call site builds one at run time.
pub type Fields = Vec<(Cow<'static, str>, FieldValue)>;

/// The value of the first field named `key`, or `None` when there is none.
/// Read it with the `FieldValue::as_*` accessors. Inlined so that callers
/// passing a literal `key` compare against a constant: the serve-schema
/// decode runs this for every field of every tapped event.
#[must_use]
#[inline(always)]
pub fn find_field<'a>(
    fields: &'a [(Cow<'static, str>, FieldValue)],
    key: &str,
) -> Option<&'a FieldValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Conversion of a report/record type into the shared event field schema.
///
/// This is the single serialization path for report structs like the
/// distributed and serving reports: the same
/// `to_fields()` output feeds span annotations, JSON-lines export, and
/// the bench harness's machine-readable records, replacing the
/// field-by-field formatting each experiment used to hand-roll.
pub trait ToFields {
    /// The struct as key-value fields, one entry per public metric.
    fn to_fields(&self) -> Fields;
}

/// Builds a [`Fields`] list: `fields! { "epoch" => 3usize, "loss" => 0.5 }`.
///
/// Keys may be `&'static str` (borrowed, no allocation) or `String`;
/// values may be any type with a `From` conversion into [`FieldValue`].
#[macro_export]
macro_rules! fields {
    () => { Vec::new() };
    ($($key:expr => $value:expr),+ $(,)?) => {
        vec![$((::std::borrow::Cow::from($key), $crate::FieldValue::from($value))),+]
    };
}

/// Appends `v` to `out` as JSON (`NaN`/infinite floats become `null`,
/// which the trace viewers tolerate and strict parsers accept).
pub(crate) fn write_json_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => write_json_string(out, s),
    }
}

/// Appends `s` to `out` as a JSON string literal with full escaping.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_cover_workspace_types() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(2.5f32), FieldValue::F64(2.5));
        assert_eq!(FieldValue::from(-1i64), FieldValue::I64(-1));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
    }

    #[test]
    fn fields_macro_builds_ordered_pairs() {
        let f: Fields = fields! { "a" => 1u64, "b" => 0.5, "c" => "v", format!("d{}", 1) => 2u64 };
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].0, "a");
        assert_eq!(f[2].1, FieldValue::Str("v".into()));
        // Literal keys and labels are borrowed; only run-time keys own.
        assert!(f[..3].iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert!(matches!(&f[2].1, FieldValue::Str(Cow::Borrowed("v"))));
        assert!(matches!(&f[3].0, Cow::Owned(k) if k == "d1"));
    }

    #[test]
    fn find_field_and_accessors_pin_each_kind() {
        let f: Fields = fields! {
            "u" => 7u64,
            "i" => 5i64,
            "neg" => -2i64,
            "x" => 1.5,
            "b" => true,
            "s" => "v",
        };
        let get = |k: &str| find_field(&f, k);
        assert_eq!(get("missing"), None);
        assert_eq!(get("u").and_then(FieldValue::as_u64), Some(7));
        assert_eq!(get("i").and_then(FieldValue::as_u64), Some(5));
        assert_eq!(get("neg").and_then(FieldValue::as_u64), None);
        assert_eq!(get("x").and_then(FieldValue::as_u64), None);
        assert_eq!(get("b").and_then(FieldValue::as_u64), None);
        assert_eq!(get("u").and_then(FieldValue::as_f64), Some(7.0));
        assert_eq!(get("i").and_then(FieldValue::as_f64), Some(5.0));
        assert_eq!(get("neg").and_then(FieldValue::as_f64), Some(-2.0));
        assert_eq!(get("x").and_then(FieldValue::as_f64), Some(1.5));
        assert_eq!(get("b").and_then(FieldValue::as_f64), None);
        assert_eq!(get("s").and_then(FieldValue::as_str), Some("v"));
        assert_eq!(get("u").and_then(FieldValue::as_str), None);
        // The first field under a repeated key wins.
        let dup: Fields = fields! { "k" => 1u64, "k" => 2u64 };
        assert_eq!(find_field(&dup, "k"), Some(&FieldValue::U64(1)));
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        write_json_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
    }
}

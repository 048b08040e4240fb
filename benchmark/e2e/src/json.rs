//! Untyped JSON over the serde shim's [`Value`] tree.
//!
//! The benchmark reads the programs' artifacts and wire lines as plain
//! JSON, never through the `dtr-*` types, so it keeps working when the
//! crates behind the binaries are refactored: only the documented field
//! names matter.

use serde::{DeError, Deserialize, Serialize, Value};

/// A [`Value`] that (de)serializes as itself — the shim has no such impl.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn read_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compact one-line rendering (the wire format).
pub fn line(v: &Value) -> String {
    serde_json::to_string(&Json(v.clone())).expect("values always serialize")
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Json(v.clone())).expect("values always serialize")
}

static NULL: Value = Value::Null;

/// Field `key` of an object; `null` when absent or `v` is no object.
pub fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map().map_or(&NULL, |m| serde::field(m, key))
}

/// Nested lookup: `at(v, &["dtr", "phi_h"])`.
pub fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| get(v, key))
}

pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

pub fn uint(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(u) => Some(u),
        _ => None,
    }
}

pub fn boolean(v: &Value) -> Option<bool> {
    match *v {
        Value::Bool(b) => Some(b),
        _ => None,
    }
}

/// The single `(tag, body)` entry of an externally tagged enum value.
pub fn tagged(v: &Value) -> Option<(&str, &Value)> {
    match v.as_map() {
        Some([(tag, body)]) => Some((tag.as_str(), body)),
        _ => None,
    }
}

pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

pub fn f(x: f64) -> Value {
    Value::Float(x)
}

pub fn u(x: u64) -> Value {
    Value::UInt(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_floats_survive_a_parse_and_reprint() {
        let text = r#"{"DemandUpdate":{"demands":{"high":{"n":3,"data":[0.0,0.1,2.5e-7]}}}}"#;
        assert_eq!(line(&parse(text).unwrap()), text);
    }

    #[test]
    fn lookups_read_missing_as_null() {
        let v = parse(r#"{"Event":{"seq":4,"cost_after":{"phi_h":1.5}}}"#).unwrap();
        let (tag, body) = tagged(&v).unwrap();
        assert_eq!(tag, "Event");
        assert_eq!(uint(get(body, "seq")), Some(4));
        assert_eq!(num(at(body, &["cost_after", "phi_h"])), Some(1.5));
        assert_eq!(num(at(body, &["cost_after", "phi_l"])), None);
        assert!(tagged(get(body, "cost_after")).is_some());
        assert!(tagged(&parse("\"Status\"").unwrap()).is_none());
    }
}

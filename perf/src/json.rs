//! Untyped JSON over the vendored serde shim: the shim's [`Value`] has no
//! `Serialize`/`Deserialize` impls of its own, so a newtype carries it through
//! `serde_json::{from_str, to_string}`. Plus the few accessors and the pretty
//! printer the report files need.

use serde::{Deserialize, Error, Num, Serialize, Value};

struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl<'de> Deserialize<'de> for Raw {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Raw(value.clone()))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Raw>(text)
        .map(|raw| raw.0)
        .map_err(|e| e.to_string())
}

pub fn read_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One-line JSON.
pub fn compact(value: &Value) -> String {
    serde_json::to_string(&Raw(value.clone())).expect("the shim's to_string is infallible")
}

/// Indented JSON for files people diff. Arrays of scalars stay on one line.
pub fn pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_pretty(out: &mut String, value: &Value, depth: usize) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    match value {
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in pairs.iter().enumerate() {
                pad(out, depth + 1);
                out.push_str(&compact(&Value::Str(key.clone())));
                out.push_str(": ");
                write_pretty(out, item, depth + 1);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        Value::Arr(items)
            if items
                .iter()
                .any(|v| matches!(v, Value::Obj(_) | Value::Arr(_))) =>
        {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                write_pretty(out, item, depth + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        scalar_or_flat => out.push_str(&compact(scalar_or_flat)),
    }
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn num(v: f64) -> Value {
    Value::Num(Num::F(v))
}

pub fn uint(v: u64) -> Value {
    Value::Num(Num::U(v))
}

pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_arr(value: &Value) -> &[Value] {
    match value {
        Value::Arr(items) => items,
        _ => &[],
    }
}

//! A small JSON value type for the result line and the result file.
//!
//! Numbers keep every digit Rust's shortest round-trip formatting
//! gives them; the repository's `tlr_sim::json` writer rounds floats to
//! three places, which would make a host time repeat exactly.

use tlr_sim::json::escape;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            // Non-finite floats have no JSON spelling.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => out.push_str(&format!("{x:?}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_json_with_full_digits() {
        let v = Json::obj([
            ("a", Json::Num(1.2345678901234)),
            (
                "b",
                Json::Arr(vec![Json::Int(3), Json::Bool(false), Json::str("x\"y")]),
            ),
            ("c", Json::Num(f64::NAN)),
        ]);
        let s = v.render();
        assert_eq!(s, r#"{"a":1.2345678901234,"b":[3,false,"x\"y"],"c":null}"#);
        tlr_sim::json::validate(&s).expect("rendered JSON parses");
    }
}

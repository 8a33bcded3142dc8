//! A JSON writer just big enough for result files, trace files and the
//! one-line result the driver reads (the workspace carries no serde).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` round-trips; non-finite becomes `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order, so output is byte-stable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn renders_the_driver_result_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(3)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "op_s",
                    Json::obj([("value", Json::Num(1.2034)), ("unit", Json::str("s"))]),
                )]),
            ),
        ])
        .render();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_s": {"value": 1.2034, "unit": "s"}}}"#
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn escapes_strings_and_keeps_float_digits() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::nums(&[1.5, 2.0]).render(), "[1.5, 2]");
    }
}

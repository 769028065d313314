//! A minimal JSON value, rendered for the result line and run documents.

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number, rendered with every digit it has; `null` if not finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Integral values print without a fraction; others print the
            // shortest form that reads back to the same f64.
            Json::Num(x) if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 => {
                out.push_str(&format!("{}", *x as i64));
            }
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(v) => {
                out.push('[');
                for (k, x) in v.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (k, (key, x)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    x.write(out);
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
    fn renders_every_digit_and_escapes_strings() {
        let v = Json::obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Num(0.1 + 0.2)),
            ("c", Json::str("q\"uote")),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 1, "b": 0.30000000000000004, "c": "q\"uote", "d": [true, null]}"#
        );
    }
}

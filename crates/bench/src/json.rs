//! The one JSON value writer behind every `BENCH_*.json` report.
//!
//! Reports are built as [`Json`] trees (usually with [`obj!`](crate::obj))
//! and rendered once; nothing formats JSON text by hand. Floats carry
//! their decimal count, so every wall-clock field keeps a stable,
//! documented precision.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (every count the reports carry).
    UInt(u64),
    /// A float rendered with a fixed number of decimals; non-finite
    /// values render as `null`.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Json)>),
}

/// Builds a [`Json::Object`] from `key => value` pairs, converting each
/// value with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Object(vec![
            $((::std::string::String::from($key), $crate::json::Json::from($value))),*
        ])
    };
}

impl Json {
    /// `value` rendered with `decimals` digits after the point.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Fixed(value, decimals)
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// An object of `fields`, in iteration order.
    pub fn object<K: Into<String>, V: Into<Json>>(
        fields: impl IntoIterator<Item = (K, V)>,
    ) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Object(fields) => fields.push((key.into(), value.into())),
            other => panic!("push on a non-object JSON value: {other:?}"),
        }
    }

    /// The value as a document: two-space indentation, containers that
    /// hold only scalars kept on one line, and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Array(_) | Json::Object(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Fixed(v, _) if !v.is_finite() => out.push_str("null"),
            Json::Fixed(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => escape(s, out),
            Json::Array(items) => {
                let nested = items.iter().any(Json::is_container);
                write_seq(out, indent, '[', ']', nested, items, |item, out, inner| {
                    item.write(out, inner)
                });
            }
            Json::Object(fields) => {
                let nested = fields.iter().any(|(_, v)| v.is_container());
                write_seq(
                    out,
                    indent,
                    '{',
                    '}',
                    nested,
                    fields,
                    |(k, v), out, inner| {
                        escape(k, out);
                        out.push_str(": ");
                        v.write(out, inner);
                    },
                );
            }
        }
    }
}

/// Writes a bracketed sequence: one element per line when any element
/// is itself a container, otherwise inline.
fn write_seq<T>(
    out: &mut String,
    indent: usize,
    open: char,
    close: char,
    nested: bool,
    items: &[T],
    mut item: impl FnMut(&T, &mut String, usize),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
            if !nested {
                out.push(' ');
            }
        }
        if nested {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
        }
        item(x, out, indent + 2);
    }
    if nested {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let name = Json::from("we\"b\\farm\n\t\r\u{1}\u{1f}é");
        assert_eq!(
            name.render(),
            "\"we\\\"b\\\\farm\\n\\t\\r\\u0001\\u001fé\"\n"
        );
        // Keys go through the same escaper.
        assert_eq!(obj! { "a\"b" => true }.render(), "{\"a\\\"b\": true}\n");
    }

    #[test]
    fn fixed_decimals_round_and_non_finite_is_null() {
        let values = Json::array([
            Json::fixed(1.0 / 3.0, 6),
            Json::fixed(2.0, 2),
            Json::fixed(123_456.789, 1),
            Json::fixed(0.02, 2),
            Json::fixed(f64::NAN, 3),
            Json::fixed(f64::INFINITY, 1),
        ]);
        assert_eq!(
            values.render(),
            "[0.333333, 2.00, 123456.8, 0.02, null, null]\n"
        );
    }

    #[test]
    fn nesting_breaks_lines_only_around_containers() {
        let mut report = obj! {
            "bench" => "fleet",
            "seed" => 3_404_729_694u64,
            "tenants" => Json::array([
                obj! { "name" => "web", "ops" => 7usize, "hist" => obj! { "p50" => 1u32 } },
                obj! { "name" => "batch", "ops" => 0u64 },
            ]),
            "empty" => Json::array(Vec::<Json>::new()),
        };
        report.push("pass", true);
        report.push("note", Json::Null);
        assert_eq!(
            report.render(),
            "{\n  \"bench\": \"fleet\",\n  \"seed\": 3404729694,\n  \"tenants\": [\n    {\n      \
             \"name\": \"web\",\n      \"ops\": 7,\n      \"hist\": {\"p50\": 1}\n    },\n    \
             {\"name\": \"batch\", \"ops\": 0}\n  ],\n  \"empty\": [],\n  \"pass\": true,\n  \
             \"note\": null\n}\n"
        );
    }

    #[test]
    fn object_and_array_builders_keep_order() {
        let gates = Json::object([("b", true), ("a", false)]);
        assert_eq!(gates.render(), "{\"b\": true, \"a\": false}\n");
        assert_eq!(Json::array([3u64, 1, 2]).render(), "[3, 1, 2]\n");
    }
}

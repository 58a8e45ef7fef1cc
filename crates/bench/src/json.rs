//! The figure documents' JSON writer.
//!
//! Every document is a tree of plain structs whose fields are numbers,
//! strings, options, sequences and small tuples, written once and never read
//! back, so this module is all the JSON the crate needs: a [`Json`] value, a
//! [`ToJson`] trait for the field types the documents use, the crate-private
//! `json_struct!` macro that declares a document struct together with its
//! impl, and the 2-space [`pretty`] printer.
//!
//! Numbers travel as `f64`: integers are exact up to 2⁵³, so a 64-bit digest
//! or seed is written as a hex string instead.  Non-finite numbers print as
//! `null`, and integral values below 9·10¹⁵ print without a fraction.

/// A JSON value; objects keep their fields in declaration order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// The value `self` is written as.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! number_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
    )*};
}

number_to_json!(u32, u64, usize, f64);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Declares a named-field struct and its [`ToJson`] impl, which writes the
/// fields as one object in declaration order.  Attributes and doc comments
/// on the struct and its fields pass through.
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty),*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
    };
}
pub(crate) use json_struct;

/// `value` as 2-space-indented JSON.
pub fn pretty<T: ToJson>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_json(), 0);
    out
}

fn write_value(out: &mut String, value: &Json, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) if !n.is_finite() => out.push_str("null"),
        Json::Number(n) if *n == n.trunc() && n.abs() < 9.0e15 => {
            out.push_str(&(*n as i64).to_string());
        }
        Json::Number(n) => out.push_str(&n.to_string()),
        Json::String(s) => write_string(out, s),
        Json::Array(items) => write_seq(out, ('[', ']'), items.iter().map(|v| (None, v)), depth),
        Json::Object(fields) => {
            let fields = fields.iter().map(|(key, v)| (Some(*key), v));
            write_seq(out, ('{', '}'), fields, depth);
        }
    }
}

/// Writes `items` (each with its key, inside an object) between the two
/// `brackets`, one per line at `depth + 1`; an empty sequence stays on one
/// line.
fn write_seq<'a>(
    out: &mut String,
    brackets: (char, char),
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
) {
    out.push(brackets.0);
    let mut empty = true;
    for (key, value) in items {
        out.push_str(if empty { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_value(out, value, depth + 1);
        empty = false;
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(brackets.1);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    json_struct! {
        struct Empty {}
    }

    json_struct! {
        /// Doc comments pass through the macro.
        struct Doc {
            /// As do field doc comments.
            text: &'static str,
            flag: bool,
            big: u64,
            numbers: Vec<f64>,
            missing: Option<usize>,
            present: Option<u32>,
            nested: (Vec<u32>, Empty),
        }
    }

    #[test]
    fn pretty_prints_the_documented_format() {
        let doc = Doc {
            text: "q\" b\\ n\n r\r t\t u\u{1} é",
            flag: true,
            // Past 2⁵³ an integer keeps only f64's shortest round-trip digits.
            big: (1 << 60) + 1,
            numbers: vec![3.0, -0.0, 0.25, 1e-7, f64::NAN, f64::INFINITY],
            missing: None,
            present: Some(9),
            nested: (Vec::new(), Empty {}),
        };
        let expected = r#"{
  "text": "q\" b\\ n\n r\r t\t u\u0001 é",
  "flag": true,
  "big": 1152921504606847000,
  "numbers": [
    3,
    0,
    0.25,
    0.0000001,
    null,
    null
  ],
  "missing": null,
  "present": 9,
  "nested": [
    [],
    {}
  ]
}"#;
        assert_eq!(pretty(&doc), expected);
    }
}

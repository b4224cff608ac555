//! A minimal self-contained JSON value type, writer, parser, and codec.
//!
//! The Resource Use Module exports machine-readable reports; the build
//! environment cannot vendor `serde_json`, so this module provides the
//! small slice of JSON the DMA integration needs: construction, pretty
//! printing, strict parsing, and typed accessors. Numbers are `f64`
//! round-tripped via Rust's shortest-representation formatting, which is
//! lossless for every finite double.
//!
//! Every export (the Resource Use Report, the obs snapshot, and the fleet
//! crate's A/B, back-test and schedule reports) goes through one
//! [`JsonCodec`] trait. Flat records implement it with
//! [`json_record!`](crate::json_record), which names each field once for
//! both directions:
//!
//! ```
//! use doppler_dma::json::{Json, JsonCodec};
//!
//! #[derive(Debug, PartialEq)]
//! struct Row {
//!     sku: String,
//!     cost: f64,
//!     confidence: Option<f64>,
//! }
//! doppler_dma::json_record!(Row { sku, cost, confidence });
//!
//! let row = Row { sku: "DB_GP_2".into(), cost: 370.25, confidence: None };
//! let text = row.to_json().render_pretty();
//! assert!(text.contains("\"confidence\": null"));
//! assert_eq!(Row::from_json(&Json::parse(&text).unwrap()), Some(row));
//! ```

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object (reports are small; no map needed).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(xs) if xs.is_empty() => out.push_str("[]"),
            Json::Arr(xs) => {
                out.push_str("[\n");
                for (i, x) in xs.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    x.write(out, indent + 1);
                    out.push_str(if i + 1 < xs.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

/// A type with one JSON form. `T::from_json(&x.to_json())` gives back `x`
/// for every value whose floats are finite (the writer spills non-finite
/// numbers as `null`). Decoding is strict: `None` whenever any part of the
/// tree has the wrong shape or type, including a mistyped optional field.
pub trait JsonCodec: Sized {
    fn to_json(&self) -> Json;
    fn from_json(json: &Json) -> Option<Self>;
}

/// Implement [`JsonCodec`] for a struct as one JSON object key per listed
/// field, written and read in the listed order. Every field must be listed
/// (decoding builds the struct literal) and implement [`JsonCodec`].
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::JsonCodec for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::JsonCodec::to_json(&self.$field),
                )),+])
            }

            fn from_json(json: &$crate::json::Json) -> Option<Self> {
                Some(Self {
                    $($field: $crate::json::JsonCodec::from_json(json.get(stringify!($field))?)?),+
                })
            }
        }
    };
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn from_json(json: &Json) -> Option<f64> {
        json.as_f64()
    }
}

macro_rules! integer_codec {
    ($($int:ty),+) => {$(
        impl JsonCodec for $int {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }

            /// Only a number the integer converts back to exactly, so a
            /// fraction or a negative unsigned value fails.
            fn from_json(json: &Json) -> Option<$int> {
                let x = json.as_f64()?;
                let n = x as $int;
                (n as f64 == x).then_some(n)
            }
        }
    )+};
}

integer_codec!(usize, u64, i64);

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_json(json: &Json) -> Option<bool> {
        match json {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(json: &Json) -> Option<String> {
        json.as_str().map(str::to_string)
    }
}

/// `None` is `null`; `Some(x)` is `x`'s own form.
impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn from_json(json: &Json) -> Option<Option<T>> {
        match json {
            Json::Null => Some(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn from_json(json: &Json) -> Option<Vec<T>> {
        json.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// A pair is a two-element array.
impl<A: JsonCodec, B: JsonCodec> JsonCodec for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }

    fn from_json(json: &Json) -> Option<(A, B)> {
        match json.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
}

/// A triple is a three-element array.
impl<A: JsonCodec, B: JsonCodec, C: JsonCodec> JsonCodec for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }

    fn from_json(json: &Json) -> Option<(A, B, C)> {
        match json.as_arr()? {
            [a, b, c] => Some((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => None,
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        // Shortest round-trip representation; force a decimal point or
        // exponent so integers stay unambiguous doubles on re-parse.
        let s = format!("{x}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no non-finite literals; null is the conventional spill.
        out.push_str("null");
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Nesting cap: well past any report this crate emits, and low enough that
/// hostile deeply-nested input returns `Err` instead of blowing the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let scalar = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: a \uDC00-\uDFFF low surrogate
                            // must follow; combine into one scalar.
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("lone high surrogate in \\u escape".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate in \\u escape".into());
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(scalar).ok_or("invalid \\u escape")?);
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

/// Strict JSON number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
/// Rust's lenient `f64::from_str` would also accept `+1`, `.5`, `01`,
/// `inf`, etc., so the shape is validated here first; values that overflow
/// to infinity are rejected (they could not round-trip — the writer spills
/// non-finite numbers as `null`).
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| -> bool {
        let first = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > first
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1, // a leading zero must stand alone
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(format!("invalid number at byte {start}")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(format!("missing digits after '.' at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(format!("missing exponent digits at byte {}", *pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let value: f64 =
        text.parse().map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
    if !value.is_finite() {
        return Err(format!("number '{text}' overflows f64 at byte {start}"));
    }
    Ok(Json::Num(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "3.5", "\"hi\\nthere\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
        }
    }

    #[test]
    fn structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("inst \"1\"".into())),
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(-2.25e-9)])),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Null),
        ]);
        let text = v.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_losslessly() {
        for x in [0.0, 1.0, -1.5, 1e300, 5e-324, 1.0 / 3.0, 774_000.0] {
            let text = Json::Num(x).render_pretty();
            assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), x, "{text}");
        }
    }

    #[test]
    fn accessors_navigate() {
        let v = Json::parse(r#"{"a": [1.5, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_error() {
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn number_grammar_is_strict() {
        for ok in ["0", "-0", "0.25", "-12.5e+3", "1e-999", "1E4"] {
            assert!(Json::parse(ok).is_ok(), "{ok}");
        }
        for bad in ["+1", ".5", "01", "1.", "1e", "1e+", "-", "1e999", "NaN", "inf"] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // 128 levels is fine.
        let ok = format!("{}1.0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(Json::parse("1.0 x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Record {
        name: String,
        count: usize,
        pair: (f64, bool),
        rows: Vec<(String, i64, u64)>,
        note: Option<String>,
    }

    crate::json_record!(Record { name, count, pair, rows, note });

    fn record() -> Record {
        Record {
            name: "a \"b\"\n".into(),
            count: 3,
            pair: (-0.5, true),
            rows: vec![("x".into(), -7, 1 << 40)],
            note: None,
        }
    }

    #[test]
    fn records_write_fields_in_order_and_round_trip() {
        let json = record().to_json();
        let keys: Vec<&str> = match &json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("a record is an object"),
        };
        assert_eq!(keys, ["name", "count", "pair", "rows", "note"]);
        let text = json.render_pretty();
        assert_eq!(Record::from_json(&Json::parse(&text).unwrap()), Some(record()));
    }

    #[test]
    fn decoding_is_strict() {
        let with = |key: &str, value: Json| match record().to_json() {
            Json::Obj(mut fields) => {
                fields.iter_mut().filter(|(k, _)| k == key).for_each(|(_, v)| *v = value.clone());
                Json::Obj(fields)
            }
            _ => unreachable!(),
        };
        assert!(Record::from_json(&with("note", Json::Str("ok".into()))).is_some());
        // A mistyped optional field fails the whole record.
        assert_eq!(Record::from_json(&with("note", Json::Num(1.0))), None);
        assert_eq!(Record::from_json(&with("count", Json::Num(2.5))), None);
        assert_eq!(Record::from_json(&with("count", Json::Num(-1.0))), None);
        assert_eq!(Record::from_json(&with("pair", Json::Arr(vec![Json::Num(1.0)]))), None);
        assert_eq!(
            Record::from_json(&with("pair", Json::Arr(vec![Json::Num(1.0), Json::Num(1.0)]))),
            None
        );
        assert_eq!(Record::from_json(&Json::Obj(vec![])), None);
        assert_eq!(i64::from_json(&Json::Num(-7.0)), Some(-7));
        assert_eq!(u64::from_json(&Json::Num(-7.0)), None);
        assert_eq!(bool::from_json(&Json::Num(1.0)), None);
    }
}

//! Minimal JSON emission for machine-readable experiment results.
//!
//! Deliberately hand-rolled (the workspace's dependency policy keeps the
//! simulator's ecosystem footprint to the approved crates): a small writer
//! covering exactly the value shapes the harness exports — objects, arrays,
//! strings, numbers, booleans. Output is deterministic (insertion order).

use std::fmt::Write as _;

use crate::table::Table;

/// Deepest array/object nesting [`Json::parse`] accepts. The writer's
/// deepest document (a persisted result-cache entry) nests about six
/// levels; the bound keeps the recursive parser's stack use small on
/// untrusted input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Finite number (emitted via shortest-roundtrip formatting).
    Num(f64),
    /// String (escaped on emission).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Serialises to compact JSON via `Display`/`to_string`.
///
/// # Panics
/// Panics on non-finite numbers (JSON cannot represent them).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a u64 (exact for values below 2^53).
    pub fn u64(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this writer emits: no `\u` escapes
    /// beyond what [`Json::Str`] emission produces, no exponents outside
    /// `f64::from_str`'s grammar). Returns `None` on malformed input,
    /// trailing garbage or nesting deeper than [`MAX_DEPTH`] — callers
    /// treat that as "no previous file".
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = Self::parse_value(bytes, &mut pos, 0)?;
        Self::skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn eat(bytes: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
        Self::skip_ws(bytes, pos);
        let first = *bytes.get(*pos)?;
        if matches!(first, b'[' | b'{') && depth >= MAX_DEPTH {
            return None;
        }
        match first {
            b'n' => Self::eat(bytes, pos, "null").map(|_| Json::Null),
            b't' => Self::eat(bytes, pos, "true").map(|_| Json::Bool(true)),
            b'f' => Self::eat(bytes, pos, "false").map(|_| Json::Bool(false)),
            b'"' => Self::parse_string(bytes, pos).map(Json::Str),
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                Self::skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(Self::parse_value(bytes, pos, depth + 1)?);
                    Self::skip_ws(bytes, pos);
                    match bytes.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(Json::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            b'{' => {
                *pos += 1;
                let mut pairs = Vec::new();
                Self::skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(Json::Obj(pairs));
                }
                loop {
                    Self::skip_ws(bytes, pos);
                    let key = Self::parse_string(bytes, pos)?;
                    Self::skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return None;
                    }
                    *pos += 1;
                    pairs.push((key, Self::parse_value(bytes, pos, depth + 1)?));
                    Self::skip_ws(bytes, pos);
                    match bytes.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(Json::Obj(pairs));
                        }
                        _ => return None,
                    }
                }
            }
            _ => {
                let start = *pos;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&bytes[start..*pos])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite())
                    .map(Json::Num)
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
        if bytes.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match *bytes.get(*pos)? {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    match *bytes.get(*pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(bytes.get(*pos + 1..*pos + 5)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                c if c < 0x80 => {
                    out.push(c as char);
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let s = std::str::from_utf8(&bytes[*pos..]).ok()?;
                    let ch = s.chars().next()?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON cannot represent {n}");
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
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
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Converts a rendered table (headers + rows) to a JSON array of objects.
pub fn table_to_json(table: &Table) -> Json {
    let csv = table.to_csv();
    let mut lines = csv.lines();
    let headers: Vec<&str> = lines.next().map(|h| h.split(',').collect()).unwrap_or_default();
    let rows = lines
        .map(|line| {
            Json::Obj(
                headers
                    .iter()
                    .zip(line.split(','))
                    .map(|(h, cell)| {
                        let v = cell
                            .trim_end_matches('%')
                            .parse::<f64>()
                            .map(Json::Num)
                            .unwrap_or_else(|_| Json::str(cell));
                        (h.to_string(), v)
                    })
                    .collect(),
            )
        })
        .collect();
    Json::Arr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::u64(42).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            Json::str("a\"b\\c\nd").to_string(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nesting() {
        let j = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::u64(1), Json::u64(2)])),
            ("name", Json::str("t")),
        ]);
        assert_eq!(j.to_string(), r#"{"xs":[1,2],"name":"t"}"#);
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn rejects_nan() {
        Json::Num(f64::NAN).to_string();
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let j = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::u64(1), Json::Num(2.5), Json::Null])),
            ("name", Json::str("a\"b\\c\nd\u{1}é")),
            ("ok", Json::Bool(false)),
            ("nested", Json::obj(vec![("k", Json::Arr(vec![]))])),
        ]);
        assert_eq!(Json::parse(&j.to_string()), Some(j));
    }

    #[test]
    fn parse_bounds_the_nesting_depth() {
        // A million-deep document fails cleanly instead of overflowing the
        // stack, open or closed, arrays or objects.
        let n = 1_000_000;
        assert_eq!(Json::parse(&"[".repeat(n)), None);
        assert_eq!(Json::parse(&format!("{}{}", "[".repeat(n), "]".repeat(n))), None);
        assert_eq!(Json::parse(&"{\"a\":".repeat(n)), None);
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some(), "the bound itself parses");
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), None);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2 ] } \n"),
            Some(Json::obj(vec![("a", Json::Arr(vec![Json::u64(1), Json::u64(2)]))]))
        );
        assert_eq!(Json::parse("{\"a\":1} trailing"), None);
        assert_eq!(Json::parse("{\"a\":}"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn get_and_as_f64() {
        let j = Json::obj(vec![("n", Json::u64(7))]);
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn table_to_json_parses_numbers() {
        let mut t = Table::new("x", &["bench", "improvement"]);
        t.row(vec!["swim".into(), "11.1%".into()]);
        let j = table_to_json(&t).to_string();
        assert_eq!(j, r#"[{"bench":"swim","improvement":11.1}]"#);
    }
}

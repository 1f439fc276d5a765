//! Minimal JSON writing and parsing — just enough for the exporters and
//! for tests that validate emitted artifacts. No external crates: the
//! build must work with no network access.

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A scalar field value in an event or metric record.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (written with enough precision to round-trip).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl Scalar {
    /// Writes the value as a JSON token.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Scalar::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Scalar::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Scalar::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Scalar::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Scalar::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

impl From<&str> for Scalar {
    fn from(s: &str) -> Self {
        Scalar::Str(s.to_string())
    }
}

impl From<String> for Scalar {
    fn from(s: String) -> Self {
        Scalar::Str(s)
    }
}

impl From<u64> for Scalar {
    fn from(v: u64) -> Self {
        Scalar::U64(v)
    }
}

impl From<u32> for Scalar {
    fn from(v: u32) -> Self {
        Scalar::U64(u64::from(v))
    }
}

impl From<usize> for Scalar {
    fn from(v: usize) -> Self {
        Scalar::U64(v as u64)
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::I64(v)
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::F64(v)
    }
}

impl From<bool> for Scalar {
    fn from(v: bool) -> Self {
        Scalar::Bool(v)
    }
}

/// Writes `{"k":v,...}` from field pairs.
pub(crate) fn write_object(out: &mut String, fields: &[(&str, Scalar)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape(k));
        out.push_str("\":");
        v.write_json(out);
    }
    out.push('}');
}

/// A parsed JSON value (reader side; used to validate emitted traces).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (always parsed as f64 — traces stay well inside 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's ordered `(key, value)` fields, if it is
    /// one.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Re-serializes the value as compact JSON, preserving object field
    /// order. Whole numbers render without a fractional part, so a parse →
    /// render round-trip of integer-valued traces is stable.
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// The deepest nesting [`parse`] accepts, counting the outermost object
/// or array as level 1. The parser recurses once per level, so without a
/// bound one 20 KB request line nested 10 000 deep overflowed a
/// connection thread's stack and aborted the daemon. The deepest
/// documents read in this repository have 5 levels: a bench record
/// (`results/BENCH_compile_phases.json`) and a `--metrics-out` file; the
/// wire protocol needs 2.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which may open at most `room` more levels.
fn parse_value(b: &[u8], pos: &mut usize, room: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if room == 0 => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, room - 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, room - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not needed for our own output.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the maximal run of unescaped bytes in one step.
                // (`"` and `\` are ASCII, so the boundary can never split
                // a multi-byte UTF-8 character; validating per character
                // would re-scan the whole tail and turn quadratic.)
                let start = *pos;
                while let Some(&c) = b.get(*pos) {
                    if c == b'"' || c == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let s = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_objects() {
        let mut s = String::new();
        write_object(
            &mut s,
            &[
                ("type", "boost_assigned".into()),
                ("k", 3u32.into()),
                ("slack", Scalar::I64(-2)),
                ("note", "a \"quoted\"\nline".into()),
                ("frac", 0.5f64.into()),
                ("on", true.into()),
            ],
        );
        let v = parse(&s).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("boost_assigned"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("slack").unwrap().as_f64(), Some(-2.0));
        assert_eq!(v.get("note").unwrap().as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("on"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parses_nested_arrays() {
        let v = parse(r#"{"a":[1,2,{"b":null}], "c": []}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 0);
    }

    /// Nesting is refused one level past [`MAX_DEPTH`], in arrays and
    /// objects alike, and a line deep enough to overflow a stack ends
    /// in the same error.
    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for nest in [arrays, objects] {
            assert!(parse(&nest(MAX_DEPTH)).is_ok());
            let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(
                err.starts_with("nesting deeper than 64 levels at byte"),
                "{err}"
            );
        }
        let deep = format!("{{\"op\":\"ping\",\"x\":{}}}", arrays(100_000));
        assert!(parse(&deep).unwrap_err().starts_with("nesting deeper"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
    }
}

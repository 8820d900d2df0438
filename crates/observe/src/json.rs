//! Hand-rolled JSON values and serialization — no external crates.
//!
//! The flow must emit machine-readable metrics in offline environments
//! where `serde` cannot even be resolved, so escaping and formatting are
//! done in-crate. The emitter produces strictly valid JSON: non-finite
//! floats become `null`, strings are escaped per RFC 8259.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A float (non-finite values serialize as `null`).
    Float(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn object() -> Self {
        Self::Object(Vec::new())
    }

    /// Inserts a key into an object (panics on non-objects: builder misuse
    /// is a programming error, not a data error).
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            Self::Object(entries) => entries.push((key.to_string(), value.into())),
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Self::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content, when this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Self::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as a float, when this is a number (integers
    /// are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Float(f) => Some(*f),
            Self::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed serialization with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::Float(f) => write_f64(out, *f),
            Self::Str(s) => write_escaped(out, s),
            Self::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Self::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (key, value) = &entries[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Writes a float as a valid JSON number (`null` for NaN/∞).
fn write_f64(out: &mut String, f: f64) {
    if f == 0.0 && f.is_sign_negative() {
        // `{}` prints "-0", which parses back as the integer 0; the
        // fraction keeps the sign through a round trip.
        out.push_str("-0.0");
    } else if f.is_finite() {
        // `{}` on f64 never produces exponents for ordinary magnitudes and
        // round-trips the value; "1" is a valid JSON number.
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Writes a string with RFC 8259 escaping.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        Self::Int(i)
    }
}

impl From<i32> for JsonValue {
    fn from(i: i32) -> Self {
        Self::Int(i64::from(i))
    }
}

impl From<u16> for JsonValue {
    fn from(i: u16) -> Self {
        Self::Int(i64::from(i))
    }
}

impl From<u32> for JsonValue {
    fn from(i: u32) -> Self {
        Self::Int(i64::from(i))
    }
}

impl From<u64> for JsonValue {
    fn from(i: u64) -> Self {
        i64::try_from(i).map_or(Self::Float(i as f64), Self::Int)
    }
}

impl From<usize> for JsonValue {
    fn from(i: usize) -> Self {
        Self::from(i as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        Self::Float(f)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(o: Option<T>) -> Self {
        o.map_or(Self::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        Self::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A minimal JSON validator/parser used by the test-suite to check that
/// emitted metrics are well-formed (it builds the value tree; numbers are
/// parsed as `f64`).
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting the parser accepts. Every value this
/// workspace emits is a handful of levels deep; the cap exists so a
/// corrupt or adversarial input (`[[[[…`) yields a typed parse error
/// instead of exhausting the thread stack — callers like `--resume`
/// and the daemon's cache loader treat that error as "torn file".
pub const MAX_PARSE_DEPTH: usize = 512;

fn parse_value(
    text: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(text, bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    other => return Err(format!("expected , or ] at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected : at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(entries));
                    }
                    other => return Err(format!("expected , or }} at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(_) => {
            // Number.
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let slice = &text[start..*pos];
            if let Ok(i) = slice.parse::<i64>() {
                Ok(JsonValue::Int(i))
            } else {
                slice
                    .parse::<f64>()
                    .map(JsonValue::Float)
                    .map_err(|e| format!("bad number {slice:?} at byte {start}: {e}"))
            }
        }
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0C}'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Consume one full UTF-8 character.
                let c = text[*pos..].chars().next().expect("in-bounds char");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        // Anything at or under the cap still parses.
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        parse(&ok).unwrap();
    }

    #[test]
    fn escaping_edge_cases_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab\rand\u{08}bs\u{0C}ff",
            "control \u{01}\u{1f} chars",
            "unicode: caffè ☕ 図",
            "",
        ] {
            let emitted = JsonValue::from(s).to_compact_string();
            let parsed = parse(&emitted).expect("valid JSON");
            assert_eq!(parsed.as_str(), Some(s), "round-trip of {s:?}");
        }
    }

    #[test]
    fn negative_zero_survives_emit_parse_emit() {
        let emitted = JsonValue::Float(-0.0).to_compact_string();
        assert_eq!(emitted, "-0.0");
        let parsed = parse(&emitted).expect("valid JSON");
        assert!(matches!(parsed, JsonValue::Float(f) if f == 0.0 && f.is_sign_negative()));
        assert_eq!(parsed.to_compact_string(), emitted);
        // Positive zero and an integer "-0" keep their forms.
        assert_eq!(JsonValue::Float(0.0).to_compact_string(), "0");
        assert_eq!(parse("-0").unwrap(), JsonValue::Int(0));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_compact_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_compact_string(), "null");
        assert_eq!(JsonValue::from(1.5f64).to_compact_string(), "1.5");
    }

    #[test]
    fn object_and_array_shape() {
        let v = JsonValue::object()
            .with("a", 1u32)
            .with("b", vec![1i64, 2, 3])
            .with("c", JsonValue::Null)
            .with("d", Some("x"));
        let compact = v.to_compact_string();
        assert_eq!(compact, r#"{"a":1,"b":[1,2,3],"c":null,"d":"x"}"#);
        let parsed = parse(&compact).unwrap();
        assert_eq!(parsed.get("a").and_then(JsonValue::as_int), Some(1));
        assert_eq!(parsed.get("d").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = JsonValue::object()
            .with("nested", JsonValue::object().with("k", "v"))
            .with("empty", JsonValue::Array(vec![]));
        let pretty = v.to_pretty_string();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn huge_u64_degrades_to_float() {
        let v = JsonValue::from(u64::MAX);
        assert!(matches!(v, JsonValue::Float(_)));
        assert_eq!(JsonValue::from(42u64), JsonValue::Int(42));
    }
}

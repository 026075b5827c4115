//! The workspace's one JSON codec: a string-literal writer, a value
//! model, and a recursive-descent parser.
//!
//! Every artifact in the workspace is rendered by hand (fixed key
//! order, `{:?}`-formatted floats) with [`escape`] / [`push_quoted`]
//! as the only string-literal writer, and read back through [`parse`].
//! The parser covers exactly the JSON grammar — objects, arrays,
//! strings with escapes, numbers, bools, null — with no extensions,
//! and reports errors by byte offset.
//!
//! Numbers keep the kind of their literal: bare digits are
//! [`JsonValue::UInt`], a leading `-` makes [`JsonValue::Int`], and any
//! `.`, `e` or `E` makes [`JsonValue::Float`]. Integers therefore
//! round-trip exactly through `u64::MAX` and `i64::MIN`; only integer
//! literals outside both ranges fall back to `f64`.

use std::fmt::Write as _;

/// `s` escaped for embedding between the quotes of a JSON string
/// literal: `"`, `\` and control characters are escaped, everything
/// else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` as a complete, quoted JSON string literal.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn escape_into(out: &mut String, s: &str) {
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
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal without a sign.
    UInt(u64),
    /// An integer literal with a leading `-`.
    Int(i64),
    /// A literal with a fraction or exponent, or an integer outside
    /// the `u64`/`i64` ranges.
    Float(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            JsonValue::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    fn field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} is not {what}"))
    }

    /// Required member `key` as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds another kind of value.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key, "a non-negative integer", JsonValue::as_u64)
    }

    /// Required member `key` as a string.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds another kind of value.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", JsonValue::as_str)
    }

    /// Required member `key` as a boolean.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds another kind of value.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a bool", JsonValue::as_bool)
    }

    /// Required member `key` as an array.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or holds another kind of value.
    pub fn arr_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.field(key, "an array", JsonValue::as_arr)
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first violation.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", byte as char))
    }
}

/// Arrays and objects nest at most this deep, so hostile input cannot
/// exhaust the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("expected a value at byte {pos}")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates (used only for astral-plane text,
                        // which the workspace never emits) decode to
                        // the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let start = *pos;
                let len = utf8_len(c);
                let chunk = bytes
                    .get(start..start + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
            _ => break,
        }
        *pos += 1;
    }
    // The scanned bytes are ASCII, so this never fails.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number".to_string())?;
    let bad = || format!("bad number '{text}' at byte {start}");
    if is_float {
        return text.parse().map(JsonValue::Float).map_err(|_| bad());
    }
    if let Ok(u) = text.parse() {
        Ok(JsonValue::UInt(u))
    } else if let Ok(i) = text.parse() {
        Ok(JsonValue::Int(i))
    } else {
        text.parse().map(JsonValue::Float).map_err(|_| bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -3.5 ").unwrap(), JsonValue::Float(-3.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2,{"b":"x","c":null}],"d":4.5e1}"#).unwrap();
        assert_eq!(v.get("d").and_then(JsonValue::as_f64), Some(45.0));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.0").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_keep_their_literal_kind() {
        assert_eq!(parse("2").unwrap(), JsonValue::UInt(2));
        assert_eq!(parse("2.0").unwrap(), JsonValue::Float(2.0));
        assert_eq!(parse("2e0").unwrap(), JsonValue::Float(2.0));
        assert_eq!(parse("-2").unwrap(), JsonValue::Int(-2));
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap(), JsonValue::UInt(u64::MAX));
        let min = i64::MIN.to_string();
        assert_eq!(parse(&min).unwrap(), JsonValue::Int(i64::MIN));
        let past = (1u64 << 53) + 1;
        assert_eq!(parse(&past.to_string()).unwrap().as_u64(), Some(past));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            JsonValue::Float(18446744073709551616.0)
        );
        assert_eq!(parse("-1").unwrap().as_f64(), Some(-1.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"\\x\"", "1-2", "-", "1e",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        assert_eq!(
            parse("\"\\u0041µ\"").unwrap(),
            JsonValue::Str("Aµ".to_string())
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a.b"), "a.b");
        assert_eq!(escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape("\u{1}µ"), "\\u0001µ");
        let mut out = String::from("x:");
        push_quoted(&mut out, "q\"");
        assert_eq!(out, "x:\"q\\\"\"");
    }

    #[test]
    fn escaped_strings_round_trip() {
        let text = "tab\t nl\n cr\r bell\u{7} quote\" back\\ µ ⊥";
        let mut lit = String::new();
        push_quoted(&mut lit, text);
        assert_eq!(parse(&lit).unwrap(), JsonValue::Str(text.to_string()));
    }

    #[test]
    fn required_field_accessors() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[1],"neg":-1}"#).unwrap();
        assert_eq!(v.u64_field("n"), Ok(3));
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.bool_field("b"), Ok(false));
        assert_eq!(v.arr_field("a").map(<[_]>::len), Ok(1));
        assert_eq!(
            v.u64_field("gone"),
            Err("missing field \"gone\"".to_string())
        );
        assert_eq!(
            v.u64_field("neg"),
            Err("field \"neg\" is not a non-negative integer".to_string())
        );
        assert!(v.str_field("n").is_err());
        assert!(v.bool_field("s").is_err());
        assert!(v.arr_field("b").is_err());
        assert!(JsonValue::Null.u64_field("n").is_err());
    }
}

//! The JSONL codec for trace events: a fixed-key-order writer and a
//! typed schema over the workspace's shared JSON codec
//! ([`bcc_metrics::json`]), so traces round-trip — the property the
//! determinism proptests and the CI trace validator check.

use crate::event::{Event, EventKind, FieldValue};
use bcc_metrics::json::{self, push_quoted, JsonValue};
use std::fmt::Write as _;

impl FieldValue {
    /// This value as a JSON literal. Unsigned and signed integers get
    /// distinct literals (`u:` has no sign, negative `Int`s do), but
    /// a non-negative `Int` and a `UInt` serialize identically — the
    /// parser resolves that ambiguity in favour of `UInt`, which is
    /// why [`parse_event`] documents value-level (not variant-level)
    /// round-tripping.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Int(v) => v.to_string(),
            FieldValue::UInt(v) => v.to_string(),
            FieldValue::Float(v) => format!("{v:?}"),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => {
                let mut out = String::with_capacity(v.len() + 2);
                push_quoted(&mut out, v);
                out
            }
        }
    }
}

/// Renders one event as a single-line JSON object with a fixed key
/// order (`unit`, `seq`, `path`, `kind`, `name`, `fields`).
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"unit\":");
    push_quoted(&mut out, &e.unit);
    let _ = write!(out, ",\"seq\":{}", e.seq);
    out.push_str(",\"path\":");
    push_quoted(&mut out, &e.path);
    out.push_str(",\"kind\":");
    push_quoted(&mut out, e.kind.tag());
    out.push_str(",\"name\":");
    push_quoted(&mut out, &e.name);
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in e.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_quoted(&mut out, k);
        out.push(':');
        out.push_str(&v.to_json());
    }
    out.push_str("}}");
    out
}

/// A JSONL parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description; syntax errors name the byte offset.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace JSONL parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError { message }
    }
}

/// Parses one line produced by [`event_to_json`].
///
/// Round-trip guarantee: `parse_event(event_to_json(e))` equals `e`
/// up to the `Int`/`UInt` representation of non-negative integers
/// (both serialize as bare digits; the parser yields `UInt`).
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed JSON, a missing or unknown
/// key, or a value of the wrong kind (`null`, arrays and objects are
/// never field values).
pub fn parse_event(line: &str) -> Result<Event, ParseError> {
    let JsonValue::Obj(members) = json::parse(line)? else {
        return Err(ParseError::from("event is not an object".to_string()));
    };
    let (mut unit, mut seq, mut path, mut kind, mut name, mut fields) =
        (None, None, None, None, None, None);
    for (key, value) in members {
        match (key.as_str(), value) {
            ("unit", JsonValue::Str(s)) => unit = Some(s),
            ("seq", JsonValue::UInt(n)) => seq = Some(n),
            ("path", JsonValue::Str(s)) => path = Some(s),
            ("kind", JsonValue::Str(tag)) => {
                kind =
                    Some(EventKind::from_tag(&tag).ok_or(format!("unknown event kind {tag:?}"))?);
            }
            ("name", JsonValue::Str(s)) => name = Some(s),
            ("fields", JsonValue::Obj(members)) => {
                fields = Some(
                    members
                        .into_iter()
                        .map(|(k, v)| Ok((k, field_value(v)?)))
                        .collect::<Result<_, String>>()?,
                );
            }
            ("unit" | "seq" | "path" | "kind" | "name" | "fields", other) => {
                return Err(format!("key {key:?} has the wrong type: {other:?}").into())
            }
            _ => return Err(format!("unexpected key {key:?}").into()),
        }
    }
    let missing = |what: &str| ParseError::from(format!("missing key {what:?}"));
    Ok(Event {
        unit: unit.ok_or_else(|| missing("unit"))?,
        seq: seq.ok_or_else(|| missing("seq"))?,
        path: path.ok_or_else(|| missing("path"))?,
        kind: kind.ok_or_else(|| missing("kind"))?,
        name: name.ok_or_else(|| missing("name"))?,
        fields: fields.ok_or_else(|| missing("fields"))?,
    })
}

fn field_value(v: JsonValue) -> Result<FieldValue, String> {
    Ok(match v {
        JsonValue::UInt(u) => FieldValue::UInt(u),
        JsonValue::Int(i) => FieldValue::Int(i),
        JsonValue::Float(x) => FieldValue::Float(x),
        JsonValue::Bool(b) => FieldValue::Bool(b),
        JsonValue::Str(s) => FieldValue::Str(s),
        other => return Err(format!("field values are scalars, got {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    fn sample() -> Event {
        Event {
            unit: "e1/n=27 t=0 \"quoted\"".into(),
            seq: 12,
            path: "round=3/node=7".into(),
            kind: EventKind::Point,
            name: "broadcast".into(),
            fields: vec![
                field("bit", true),
                field("n", 27usize),
                field("delta", -4i64),
                field("err", 0.25),
                field("label", "a\nb"),
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let e = sample();
        let parsed = parse_event(&event_to_json(&e)).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn integral_floats_keep_their_point() {
        let mut e = sample();
        e.fields = vec![field("x", 2.0f64)];
        let json = event_to_json(&e);
        assert!(json.contains("\"x\":2.0"), "json: {json}");
        assert_eq!(
            parse_event(&json).unwrap().fields[0].1,
            FieldValue::Float(2.0)
        );
    }

    #[test]
    fn empty_fields_parse() {
        let mut e = sample();
        e.fields.clear();
        assert_eq!(parse_event(&event_to_json(&e)).unwrap(), e);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_event("not json").is_err());
        assert!(parse_event("{\"unit\":\"u\"}").is_err(), "missing keys");
        assert!(parse_event(&(event_to_json(&sample()) + "x")).is_err());
        assert!(parse_event("[]").is_err(), "not an object");
        let line = event_to_json(&sample());
        for (from, to) in [
            ("\"seq\":12", "\"seq\":null"),
            ("\"seq\":12", "\"seq\":-12"),
            ("\"bit\":true", "\"bit\":null"),
            ("\"bit\":true", "\"bit\":[true]"),
            ("\"bit\":true", "\"bit\":{}"),
            ("\"unit\":", "\"extra\":1,\"unit\":"),
            ("\"kind\":\"point\"", "\"kind\":\"warp\""),
        ] {
            let bad = line.replacen(from, to, 1);
            assert_ne!(bad, line, "pattern {from} not in {line}");
            assert!(parse_event(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn negative_and_large_integers() {
        let mut e = sample();
        e.fields = vec![field("a", i64::MIN), field("b", u64::MAX)];
        let parsed = parse_event(&event_to_json(&e)).unwrap();
        assert_eq!(parsed.fields[0].1, FieldValue::Int(i64::MIN));
        assert_eq!(parsed.fields[1].1, FieldValue::UInt(u64::MAX));
    }
}

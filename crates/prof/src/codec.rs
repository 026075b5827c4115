//! The profile JSONL codec: a fixed-key-order writer and a parser
//! for the exact dialect the writer emits, so profiles round-trip —
//! the property the codec proptests pin and the CI `prof-smoke`
//! byte-compare relies on.
//!
//! Layout (one JSON object per line):
//!
//! ```text
//! {"bcc_prof":1,"spans":S,"frames":F,"totals":T}     header
//! {"kind":"span","path":p,"count":c}                 ×S, by path
//! {"kind":"frame","path":p,"counter":n,
//!  "inclusive":i,"exclusive":e}                      ×F, by (path, counter)
//! {"kind":"total","counter":n,"total":t,
//!  "attributed":a,"unattributed":u,"source":s}       ×T, by counter
//! ```
//!
//! The `bcc-experiments --wall` sidecar deliberately uses a different
//! schema key (`bcc_wall`) so neither artifact can be mistaken for the
//! other.
//!
//! Quantities are exact `u64`s: the shared codec
//! ([`bcc_metrics::json`]) parses integer literals as integers, so
//! every count round-trips through `u64::MAX`.

use crate::profile::{CounterTotal, Frame, Profile, SpanStat, TotalSource};
use bcc_metrics::json::{self, JsonValue};
use std::fmt::Write as _;

/// Schema version emitted in the header line.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// Renders a profile into its canonical JSONL bytes.
pub fn profile_to_jsonl(profile: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"bcc_prof\":{PROFILE_SCHEMA_VERSION},\"spans\":{},\"frames\":{},\"totals\":{}}}",
        profile.spans.len(),
        profile.frames.len(),
        profile.totals.len()
    );
    for s in &profile.spans {
        out.push_str("{\"kind\":\"span\",\"path\":");
        json::push_quoted(&mut out, &s.path);
        let _ = writeln!(out, ",\"count\":{}}}", s.count);
    }
    for f in &profile.frames {
        out.push_str("{\"kind\":\"frame\",\"path\":");
        json::push_quoted(&mut out, &f.path);
        out.push_str(",\"counter\":");
        json::push_quoted(&mut out, &f.counter);
        let _ = writeln!(
            out,
            ",\"inclusive\":{},\"exclusive\":{}}}",
            f.inclusive, f.exclusive
        );
    }
    for t in &profile.totals {
        out.push_str("{\"kind\":\"total\",\"counter\":");
        json::push_quoted(&mut out, &t.counter);
        let _ = writeln!(
            out,
            ",\"total\":{},\"attributed\":{},\"unattributed\":{},\"source\":\"{}\"}}",
            t.total,
            t.attributed,
            t.unattributed,
            t.source.tag()
        );
    }
    out
}

/// Writes the canonical JSONL bytes to `w`.
///
/// # Errors
///
/// Propagates I/O failures from `w`.
pub fn write_profile_jsonl(profile: &Profile, w: &mut dyn std::io::Write) -> std::io::Result<()> {
    w.write_all(profile_to_jsonl(profile).as_bytes())
}

/// Parses bytes produced by [`profile_to_jsonl`].
///
/// # Errors
///
/// Returns a description of the first malformed line, a header
/// mismatch, or an out-of-order record.
pub fn parse_profile_jsonl(text: &str) -> Result<Profile, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty profile input")?;
    let header = json::parse(header_line).map_err(|e| format!("profile header: {e}"))?;
    let version = header
        .get("bcc_prof")
        .and_then(JsonValue::as_u64)
        .ok_or("not a bcc_prof artifact (missing \"bcc_prof\" header key)")?;
    if version != PROFILE_SCHEMA_VERSION {
        return Err(format!(
            "unsupported profile schema version {version} (expected {PROFILE_SCHEMA_VERSION})"
        ));
    }
    let count = |key| {
        header
            .u64_field(key)
            .map_err(|e| format!("profile header: {e}"))
    };
    let (want_spans, want_frames, want_totals) =
        (count("spans")?, count("frames")?, count("totals")?);

    let mut profile = Profile::default();
    for (i, line) in lines.enumerate() {
        parse_line(&mut profile, line).map_err(|e| format!("profile line {}: {e}", i + 2))?;
    }
    if (
        profile.spans.len() as u64,
        profile.frames.len() as u64,
        profile.totals.len() as u64,
    ) != (want_spans, want_frames, want_totals)
    {
        return Err(format!(
            "profile header promised {want_spans} spans / {want_frames} frames / {want_totals} totals, found {} / {} / {}",
            profile.spans.len(),
            profile.frames.len(),
            profile.totals.len()
        ));
    }
    Ok(profile)
}

/// Appends one body line's record to `profile`.
fn parse_line(profile: &mut Profile, line: &str) -> Result<(), String> {
    let obj = json::parse(line)?;
    match obj.str_field("kind")? {
        "span" => profile.spans.push(SpanStat {
            path: obj.str_field("path")?.to_string(),
            count: obj.u64_field("count")?,
        }),
        "frame" => profile.frames.push(Frame {
            path: obj.str_field("path")?.to_string(),
            counter: obj.str_field("counter")?.to_string(),
            inclusive: obj.u64_field("inclusive")?,
            exclusive: obj.u64_field("exclusive")?,
        }),
        "total" => {
            let source_tag = obj.str_field("source")?;
            profile.totals.push(CounterTotal {
                counter: obj.str_field("counter")?.to_string(),
                total: obj.u64_field("total")?,
                attributed: obj.u64_field("attributed")?,
                unattributed: obj.u64_field("unattributed")?,
                source: TotalSource::from_tag(source_tag)
                    .ok_or_else(|| format!("unknown source {source_tag:?}"))?,
            });
        }
        other => return Err(format!("unknown kind {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            spans: vec![
                SpanStat {
                    path: "e2".into(),
                    count: 2,
                },
                SpanStat {
                    path: "e2/job".into(),
                    count: 2,
                },
            ],
            frames: vec![Frame {
                path: "e2/job".into(),
                counter: "sim.bits_broadcast".into(),
                inclusive: 28,
                exclusive: 0,
            }],
            totals: vec![CounterTotal {
                counter: "sim.bits_broadcast".into(),
                total: 30,
                attributed: 28,
                unattributed: 2,
                source: TotalSource::Dump,
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let p = sample();
        let text = profile_to_jsonl(&p);
        assert_eq!(parse_profile_jsonl(&text).unwrap(), p);
        // And the re-encoding is byte-identical.
        assert_eq!(profile_to_jsonl(&parse_profile_jsonl(&text).unwrap()), text);
    }

    #[test]
    fn u64_max_quantities_round_trip() {
        let mut p = sample();
        p.spans[0].count = u64::MAX;
        p.frames[0].inclusive = u64::MAX;
        p.frames[0].exclusive = u64::MAX - 1;
        p.totals[0].total = u64::MAX;
        p.totals[0].attributed = (1 << 53) + 1;
        let text = profile_to_jsonl(&p);
        assert_eq!(parse_profile_jsonl(&text).unwrap(), p);
        assert_eq!(profile_to_jsonl(&parse_profile_jsonl(&text).unwrap()), text);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = Profile::default();
        assert_eq!(parse_profile_jsonl(&profile_to_jsonl(&p)).unwrap(), p);
    }

    #[test]
    fn escaping_survives() {
        let mut p = sample();
        p.spans[0].path = "we\"ird\\unit\npath".into();
        assert_eq!(
            parse_profile_jsonl(&profile_to_jsonl(&p)).unwrap().spans[0].path,
            p.spans[0].path
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_profile_jsonl("").is_err());
        assert!(parse_profile_jsonl("{\"not\":\"a header\"}").is_err());
        assert!(
            parse_profile_jsonl("{\"bcc_prof\":99,\"spans\":0,\"frames\":0,\"totals\":0}").is_err()
        );
        // Header/body count mismatch.
        assert!(
            parse_profile_jsonl("{\"bcc_prof\":1,\"spans\":1,\"frames\":0,\"totals\":0}").is_err()
        );
        // Unknown kind.
        let text = "{\"bcc_prof\":1,\"spans\":0,\"frames\":0,\"totals\":0}\n{\"kind\":\"x\"}";
        assert!(parse_profile_jsonl(text).is_err());
    }
}

//! Property tests for the profile JSONL codec: arbitrary profiles
//! round-trip exactly, and re-encoding parser output reproduces the
//! original bytes — the property the CI `prof-smoke` byte-compare
//! rests on.

use bcc_prof::{
    codec::{parse_profile_jsonl, profile_to_jsonl},
    CounterTotal, Frame, Profile, SpanStat, TotalSource,
};
use proptest::prelude::*;

/// Maps a generator word to a printable string, exercising escapes
/// and the path/counter separators the profiler cares about.
fn word(bits: u64, len: usize) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'e', '2', '.', '_', ' ', '=', '/', '"', '\\', '\n', '\t', 'é', '⊥', '{', '}',
    ];
    (0..len)
        .map(|i| ALPHABET[((bits >> (i * 4)) & 0xf) as usize])
        .collect()
}

fn profile_from(
    spans_raw: Vec<(u64, u64)>,
    frames_raw: Vec<(u64, u64, u64, u64)>,
    totals_raw: Vec<(u64, u64, u64, u64, bool)>,
) -> Profile {
    Profile {
        spans: spans_raw
            .into_iter()
            .enumerate()
            // Index-suffixed keys stay unique even when the generator
            // repeats a word; the codec itself never dedups.
            .map(|(i, (path_bits, count))| SpanStat {
                path: format!("{}#{i}", word(path_bits, 6)),
                count,
            })
            .collect(),
        frames: frames_raw
            .into_iter()
            .enumerate()
            .map(
                |(i, (path_bits, counter_bits, inclusive, exclusive))| Frame {
                    path: format!("{}#{i}", word(path_bits, 6)),
                    counter: word(counter_bits, 5),
                    inclusive,
                    exclusive,
                },
            )
            .collect(),
        totals: totals_raw
            .into_iter()
            .enumerate()
            .map(
                |(i, (counter_bits, total, attributed, unattributed, dump))| CounterTotal {
                    counter: format!("{}#{i}", word(counter_bits, 5)),
                    total,
                    attributed,
                    unattributed,
                    source: if dump {
                        TotalSource::Dump
                    } else {
                        TotalSource::Trace
                    },
                },
            )
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn profiles_round_trip_through_jsonl(
        spans_raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            0..8,
        ),
        frames_raw in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
            ),
            0..8,
        ),
        totals_raw in proptest::collection::vec(
            (
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<bool>(),
            ),
            0..8,
        ),
    ) {
        let profile = profile_from(spans_raw, frames_raw, totals_raw);
        let text = profile_to_jsonl(&profile);
        let parsed = parse_profile_jsonl(&text).expect("writer output must parse");
        prop_assert_eq!(&parsed, &profile);
        // Encoding is a pure function: a second pass is byte-identical.
        prop_assert_eq!(profile_to_jsonl(&parsed), text);
    }

    #[test]
    fn truncated_profiles_never_parse(
        spans_raw in proptest::collection::vec(
            (proptest::strategy::any::<u64>(), proptest::strategy::any::<u64>()),
            1..5,
        ),
    ) {
        let profile = profile_from(spans_raw, Vec::new(), Vec::new());
        let text = profile_to_jsonl(&profile);
        // Dropping the final line breaks the header's promised counts.
        let lines: Vec<&str> = text.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        prop_assert!(parse_profile_jsonl(&truncated).is_err());
    }
}

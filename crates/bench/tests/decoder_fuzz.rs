//! Seed-driven decoder fuzzing: valid lines of every JSONL artifact
//! the workspace reads back — trace events, metrics dumps, profiles,
//! postmortems, wire commands/replies, `bcc-serve` request lines, and
//! the `BENCH.json` ratio file —
//! are mutated with byte flips, truncations and splices, and every
//! decoder must answer with `Ok` or a typed `Err`, never a panic. All
//! decoders sit on the one shared codec (`bcc_metrics::json`), so this
//! also fuzzes its parser. A reply that still parses as a `view` is
//! also cut into labelled entries by `split_view`, against the plan
//! the seed line answers.
//!
//! The same mutations hit artifact-cache disk entries: a fresh store
//! reading a mutated entry must return the value a recomputation
//! gives, never a plausible wrong one and never a panic.

use bcc_bench::ratios::{self, Kind, Pair};
use bcc_engine::{artifacts, ArtifactKey, ArtifactStore};
use bcc_metrics::{MetricsDump, MetricsHub, MetricsLevel};
use bcc_model::postmortem::{self, Postmortem, WireEvent, WorkerHealth};
use bcc_model::transport::{RoundView, Routes};
use bcc_model::Message;
use bcc_prof::{parse_profile_jsonl, profile_to_jsonl, CounterTotal, Frame, Profile, SpanStat};
use bcc_trace::json::{event_to_json, parse_event};
use bcc_trace::{field, Event, EventKind};
use bcc_transport::wire::{
    decode_message, parse_command, parse_reply, render_command, render_reply, split_view, Command,
    Reply,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

type Decoder = fn(&str) -> Result<(), String>;

fn trace_event(text: &str) -> Result<(), String> {
    parse_event(text).map(drop).map_err(|e| e.to_string())
}

fn metrics_dump(text: &str) -> Result<(), String> {
    MetricsDump::parse_jsonl(text).map(drop)
}

fn profile(text: &str) -> Result<(), String> {
    parse_profile_jsonl(text).map(drop)
}

fn postmortems(text: &str) -> Result<(), String> {
    postmortem::parse_jsonl(text).map(drop)
}

fn bench_file(text: &str) -> Result<(), String> {
    ratios::parse(text).map(drop).map_err(|e| e.to_string())
}

fn wire_command(text: &str) -> Result<(), String> {
    parse_command(text).map(drop)
}

fn serve_request(text: &str) -> Result<(), String> {
    bcc_serve::Request::parse(text)
        .map(drop)
        .map_err(|e| format!("{}: {}", e.code, e.message))
}

fn wire_reply(text: &str) -> Result<(), String> {
    match parse_reply(text)? {
        Reply::View { inboxes, .. } => {
            let (routes, outbox) = view_plan();
            let mut view = RoundView::default();
            let slots = view.reset(routes.num_nodes());
            split_view(&routes, 0..routes.num_nodes(), &outbox, &inboxes, slots)
        }
        _ => Ok(()),
    }
}

fn msg(s: &str) -> Message {
    decode_message(s).unwrap()
}

/// The routes and outbox the corpus `view` line answers: node 0
/// hears a 3-symbol and a 2-symbol message, node 1 a 1-symbol and an
/// empty one.
fn view_plan() -> (Routes, Vec<Message>) {
    let routes = Routes::from_ports(vec![vec![(1, 2), ((1 << 53) + 1, 3)], vec![(4, 0), (5, 1)]]);
    let outbox = vec![msg("1"), msg(""), msg("01_"), msg("_1")];
    (routes, outbox)
}

/// One valid rendering per artifact shape, paired with its decoder.
fn corpus() -> Vec<(String, Decoder)> {
    let event = Event {
        unit: "e5/n=12 \"q\"".into(),
        seq: 41,
        path: "round=3/node=7".into(),
        kind: EventKind::Point,
        name: "broadcast".into(),
        fields: vec![
            field("bit", true),
            field("n", u64::MAX),
            field("delta", i64::MIN),
            field("err", 0.25),
            field("label", "a\nb\u{1}⊥"),
        ],
    };

    let hub = MetricsHub::new(MetricsLevel::Full);
    let mut buf = hub.buf("job");
    buf.counter("sim.bits", (1 << 53) + 1);
    buf.gauge("engine.occupancy", 7);
    buf.observe("comm.message_bits", 12);
    buf.observe("comm.message_bits", 900);
    hub.absorb(buf);

    let prof = Profile {
        spans: vec![SpanStat {
            path: "e2/job".into(),
            count: 2,
        }],
        frames: vec![Frame {
            path: "e2/job".into(),
            counter: "sim.bits_broadcast".into(),
            inclusive: u64::MAX,
            exclusive: 3,
        }],
        totals: vec![CounterTotal {
            counter: "sim.bits_broadcast".into(),
            total: u64::MAX,
            attributed: u64::MAX,
            unattributed: 0,
            source: bcc_prof::TotalSource::Dump,
        }],
    };

    let incident = Postmortem {
        backend: "sockets:2".into(),
        error: "worker 0 died:\n\"reset\"".into(),
        workers: vec![WorkerHealth {
            rank: 0,
            alive: false,
            respawns: 1,
            sessions: 2,
            ring: vec![WireEvent {
                dir: "send".into(),
                kind: "round".into(),
                session: 3,
                round: 1,
                bytes: 118,
            }],
        }],
    };

    let bench_pair = Pair {
        name: "telemetry \"q\"".into(),
        kind: Kind::Overhead,
        base: "off".into(),
        variant: "on\n⊥".into(),
        reps: 21,
        runs: 5,
        base_ns: u64::MAX,
        variant_ns: 1,
        quartiles: [-18.71, 0.5, 1e-7],
    };

    let commands = [
        Command::Open {
            session: 9,
            n: 4,
            lo: 0,
            hi: 2,
            routes: vec![vec![(1, 2), ((1 << 53) + 1, 3)], vec![]],
        },
        Command::Round {
            session: 9,
            round: 2,
            outbox: vec![msg("01_"), msg("")],
        },
        Command::Close { session: 9 },
        Command::Shutdown,
    ];
    let replies = [
        Reply::Hello { rank: 1 },
        Reply::View {
            session: 9,
            round: 2,
            inboxes: vec!["01__1".into(), "1".into()],
        },
        Reply::Error {
            detail: "bad \"stuff\"\n".into(),
        },
    ];

    let mut corpus: Vec<(String, Decoder)> = vec![
        (event_to_json(&event), trace_event),
        (
            {
                let mut bytes = Vec::new();
                hub.finish()
                    .write_jsonl(&mut bytes)
                    .expect("in-memory write");
                String::from_utf8(bytes).expect("dumps are UTF-8")
            },
            metrics_dump,
        ),
        (profile_to_jsonl(&prof), profile),
        (postmortem::postmortems_to_jsonl(&[incident]), postmortems),
        (ratios::write(&[bench_pair]), bench_file),
    ];
    corpus.extend(
        commands
            .iter()
            .map(|c| (render_command(c), wire_command as Decoder)),
    );
    corpus.extend(
        replies
            .iter()
            .map(|r| (render_reply(r), wire_reply as Decoder)),
    );
    corpus.extend(
        [
            r#"{"type":"hello","client":"smo\"ke ⊥"}"#,
            r#"{"type":"submit","experiment":"e2","quick":false,"seed":18446744073709551615,"priority":3,"timeout_secs":null}"#,
            r#"{"type":"batch","n":4}"#,
            r#"{"type":"await","req":9007199254740993}"#,
            r#"{"type":"cancel","req":0}"#,
            r#"{"type":"stats"}"#,
            r#"{"type":"observe","every":2,"count":5}"#,
            r#"{"type":"ping","nonce":7}"#,
            r#"{"type":"shutdown"}"#,
        ]
        .map(|line| (line.to_string(), serve_request as Decoder)),
    );
    corpus
}

/// One cached artifact: its front (reading through the given store)
/// and the disk path of its entry under `dir`.
struct Entry {
    front: fn(&ArtifactStore) -> Vec<u128>,
    key: ArtifactKey,
}

impl Entry {
    fn path(&self, dir: &std::path::Path) -> PathBuf {
        dir.join(format!("{:016x}.jsonl", self.key.digest()))
    }
}

fn cache_entries() -> [Entry; 2] {
    [
        Entry {
            front: |store| vec![artifacts::join_matrix_rank(store, 4) as u128],
            key: ArtifactKey::new("join-matrix-rank", "n=4", 1),
        },
        Entry {
            front: |store| artifacts::bell_table(store, 9),
            key: ArtifactKey::new("bell-table", "n=9", 1),
        },
    ]
}

/// A fresh, empty scratch directory for one fuzz case.
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bcc-store-fuzz-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes that steer mutations toward the grammar's decision points.
const INTERESTING: &[u8] = b"\"\\{}[],:-.eE+0189 \nntf\x00\x7f\xc3\xff";

/// Applies one mutation to `bytes`; `donor` supplies splice tails.
fn mutate(bytes: &mut Vec<u8>, op: u8, a: u64, b: u64, donor: &[u8]) {
    let len = bytes.len();
    match op % 3 {
        0 if len > 0 => {
            let at = (a % len as u64) as usize;
            bytes[at] = if b.is_multiple_of(2) {
                INTERESTING[(b >> 1) as usize % INTERESTING.len()]
            } else {
                bytes[at] ^ ((b >> 1) as u8 | 1)
            };
        }
        1 => bytes.truncate((a % (len as u64 + 1)) as usize),
        _ => {
            let cut = (a % (len as u64 + 1)) as usize;
            let from = (b % (donor.len() as u64 + 1)) as usize;
            bytes.truncate(cut);
            bytes.extend_from_slice(&donor[from..]);
        }
    }
}

/// Runs `decode` and checks that a rejection carries a message.
fn check(decode: Decoder, bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    match decode(&text) {
        Err(e) if e.is_empty() => Err(format!("empty error for {text:?}")),
        _ => Ok(()),
    }
}

#[test]
fn corpus_is_valid() {
    for (text, decode) in corpus() {
        assert_eq!(decode(&text), Ok(()), "seed line rejected: {text}");
    }
}

#[test]
fn every_truncation_is_handled() {
    for (text, decode) in corpus() {
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            check(decode, &bytes[..cut]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..Default::default() })]

    #[test]
    fn mutated_artifacts_never_panic(
        ops in proptest::collection::vec(
            (
                proptest::strategy::any::<u8>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<usize>(),
            ),
            1..5,
        ),
    ) {
        let corpus = corpus();
        for (text, decode) in &corpus {
            let mut bytes = text.clone().into_bytes();
            for &(op, a, b, donor) in &ops {
                let donor = corpus[donor % corpus.len()].0.as_bytes();
                mutate(&mut bytes, op, a, b, donor);
            }
            let verdict = check(*decode, &bytes);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    #[test]
    fn mutated_cache_entries_recompute(
        ops in proptest::collection::vec(
            (
                proptest::strategy::any::<u8>(),
                proptest::strategy::any::<u64>(),
                proptest::strategy::any::<u64>(),
            ),
            1..4,
        ),
    ) {
        let dir = case_dir();
        let entries = cache_entries();
        let expected: Vec<Vec<u128>> = entries
            .iter()
            .map(|e| (e.front)(&ArtifactStore::in_memory()))
            .collect();
        let writer = ArtifactStore::at_dir(&dir);
        for e in &entries {
            (e.front)(&writer);
        }
        let files: Vec<Vec<u8>> = entries
            .iter()
            .map(|e| std::fs::read(e.path(&dir)).expect("entry written"))
            .collect();
        for (i, e) in entries.iter().enumerate() {
            let mut bytes = files[i].clone();
            for &(op, a, b) in &ops {
                mutate(&mut bytes, op, a, b, &files[1 - i]);
            }
            std::fs::write(e.path(&dir), &bytes).expect("scratch write");
            let reader = ArtifactStore::at_dir(&dir);
            prop_assert_eq!(
                (e.front)(&reader),
                expected[i].clone(),
                "{} read a wrong value from {:?}",
                e.key.kind(),
                String::from_utf8_lossy(&bytes)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! A deterministic two-party protocol driver with exact bit
//! accounting.

use bcc_trace::{field, Observer, TraceBuf};

/// Which party acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Turn {
    /// Alice (sends on even turns).
    Alice,
    /// Bob (sends on odd turns).
    Bob,
}

impl Turn {
    /// Machine-readable speaker tag (`"alice"` / `"bob"`).
    pub fn tag(&self) -> &'static str {
        match self {
            Turn::Alice => "alice",
            Turn::Bob => "bob",
        }
    }
}

/// One side of a two-party protocol, parameterized by the output type.
///
/// The driver alternates: Alice sends a (possibly empty) bit string,
/// Bob receives it, then Bob sends, and so on, until both parties have
/// produced an output or the message limit is reached.
pub trait Party<Out> {
    /// Produces the next message. Called only on this party's turn.
    fn send(&mut self) -> Vec<bool>;

    /// Receives the other party's message.
    fn receive(&mut self, bits: &[bool]);

    /// The party's output, once determined.
    fn output(&self) -> Option<Out>;
}

/// The record of a completed (or truncated) protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolRun<Out> {
    /// Alice's output (`None` if she never decided).
    pub alice_output: Option<Out>,
    /// Bob's output.
    pub bob_output: Option<Out>,
    /// Total bits exchanged (both directions).
    pub bits_exchanged: usize,
    /// The full transcript: `(sender, message)` in order. This is the
    /// `Π(P_A, P_B)` of the information-theoretic argument
    /// (Theorem 4.5).
    pub transcript: Vec<(Turn, Vec<bool>)>,
}

impl<Out> ProtocolRun<Out> {
    /// The transcript flattened to a bit string with 1-bit sender
    /// framing removed (messages are length-delimited by the protocol
    /// itself); used as a hashable transcript key.
    pub fn transcript_bits(&self) -> Vec<bool> {
        self.transcript
            .iter()
            .flat_map(|(_, m)| m.iter().copied())
            .collect()
    }
}

/// Options for one protocol run — the single configuration surface
/// of [`run_protocol`]: message limit, optional bit budget, and an
/// observer for tracing and metrics.
#[derive(Debug, Clone)]
pub struct DriverOpts {
    max_messages: usize,
    budget: Option<usize>,
    observer: Observer,
}

impl DriverOpts {
    /// Unbounded-bits options with the given message limit, tracing
    /// and metrics off.
    pub fn new(max_messages: usize) -> Self {
        DriverOpts {
            max_messages,
            budget: None,
            observer: Observer::off(),
        }
    }

    /// Caps the run at `budget` exchanged bits: once the budget is
    /// reached, messages are truncated to fit and the run stops;
    /// parties must then answer from whatever they have (their
    /// `output` may be `None`, which callers score as an error).
    /// Models the ε-error bounded-communication protocols of
    /// Theorem 4.5.
    #[must_use]
    pub fn bit_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a trace and metrics destination. Each run records a
    /// `protocol` span wrapping one `message` event per message with
    /// the speaker, its index, bit length, and the bit offset where it
    /// starts in the transcript (truncated messages carry
    /// `truncated = true`). It adds to the `comm.protocol_runs`,
    /// `comm.bits_exchanged`, and `comm.messages` counters at core
    /// metrics level; at full level it also records a
    /// `comm.message_bits` histogram sample per message. Everything
    /// recorded is logical — message indices and bit positions, never
    /// timing — so equal inputs yield byte-identical traces and dumps,
    /// and the returned run is identical whether the observer records
    /// or not.
    #[must_use]
    pub fn observe(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// The message limit.
    pub fn max_messages(&self) -> usize {
        self.max_messages
    }

    /// The bit budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The attached observer (off by default).
    pub fn observer(&self) -> &Observer {
        &self.observer
    }
}

/// Runs a protocol to completion (both parties output) or until the
/// limits in `opts` — message count, optional bit budget — are
/// reached.
pub fn run_protocol<Out: Clone>(
    alice: &mut dyn Party<Out>,
    bob: &mut dyn Party<Out>,
    opts: &DriverOpts,
) -> ProtocolRun<Out> {
    opts.observer.with(|trace, metrics| {
        let run = run_core(alice, bob, opts.budget, opts.max_messages, trace);
        metrics.counter("comm.protocol_runs", 1);
        metrics.counter("comm.bits_exchanged", run.bits_exchanged as u64);
        metrics.counter("comm.messages", run.transcript.len() as u64);
        if metrics.full_enabled() {
            for (_, msg) in &run.transcript {
                metrics.observe("comm.message_bits", msg.len() as u64);
            }
        }
        run
    })
}

/// The alternating-message loop behind [`run_protocol`]
/// (`budget: None` = unbounded).
fn run_core<Out: Clone>(
    alice: &mut dyn Party<Out>,
    bob: &mut dyn Party<Out>,
    budget: Option<usize>,
    max_messages: usize,
    trace: &mut TraceBuf,
) -> ProtocolRun<Out> {
    if trace.spans_enabled() {
        let mut fields = vec![field("max_messages", max_messages)];
        if let Some(b) = budget {
            fields.push(field("budget_bits", b));
        }
        trace.span_start("protocol", fields);
    }
    let mut transcript = Vec::new();
    let mut bits = 0;
    let mut turn = Turn::Alice;
    for _ in 0..max_messages {
        if alice.output().is_some() && bob.output().is_some() {
            break;
        }
        if budget.is_some_and(|b| bits >= b) {
            break;
        }
        let mut msg = match turn {
            Turn::Alice => alice.send(),
            Turn::Bob => bob.send(),
        };
        let truncated = budget.is_some_and(|b| bits.saturating_add(msg.len()) > b);
        if truncated {
            // `budget >= bits` here, or the loop would have broken.
            msg.truncate(budget.unwrap_or(0).saturating_sub(bits));
        }
        if trace.events_enabled() {
            let mut fields = vec![
                field("msg_index", transcript.len()),
                field("speaker", turn.tag()),
                field("bits", msg.len()),
                field("bit_offset", bits),
            ];
            if truncated {
                fields.push(field("truncated", true));
            }
            trace.event("message", fields);
        }
        // Canonical dotted name matches the `comm.bits_exchanged`
        // workload counter so the profiler can join by name.
        if trace.costs_enabled() {
            trace.counter("comm.bits_exchanged", msg.len() as u64);
        }
        bits = bits.saturating_add(msg.len());
        match turn {
            Turn::Alice => bob.receive(&msg),
            Turn::Bob => alice.receive(&msg),
        }
        transcript.push((turn, msg));
        turn = match turn {
            Turn::Alice => Turn::Bob,
            Turn::Bob => Turn::Alice,
        };
    }
    let run = ProtocolRun {
        alice_output: alice.output(),
        bob_output: bob.output(),
        bits_exchanged: bits,
        transcript,
    };
    if trace.spans_enabled() {
        trace.span_end(
            "protocol",
            vec![
                field("messages", run.transcript.len()),
                field("bits_exchanged", run.bits_exchanged),
                field("alice_decided", run.alice_output.is_some()),
                field("bob_decided", run.bob_output.is_some()),
            ],
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metrics::MetricsBuf;

    /// Alice sends her number bit by bit; Bob outputs the sum.
    struct SumAlice {
        bits: Vec<bool>,
        sent: usize,
        result: Option<u32>,
    }
    struct SumBob {
        own: u32,
        received: Vec<bool>,
        expected: usize,
    }

    impl Party<u32> for SumAlice {
        fn send(&mut self) -> Vec<bool> {
            let out = self.bits.clone();
            self.sent = out.len();
            out
        }
        fn receive(&mut self, bits: &[bool]) {
            // Bob sends back the 8-bit sum.
            let v = bits
                .iter()
                .enumerate()
                .fold(0u32, |a, (i, &b)| a | (u32::from(b)) << i);
            self.result = Some(v);
        }
        fn output(&self) -> Option<u32> {
            self.result
        }
    }

    impl Party<u32> for SumBob {
        fn send(&mut self) -> Vec<bool> {
            let a = self
                .received
                .iter()
                .enumerate()
                .fold(0u32, |acc, (i, &b)| acc | (u32::from(b)) << i);
            let sum = a + self.own;
            (0..8).map(|i| sum >> i & 1 == 1).collect()
        }
        fn receive(&mut self, bits: &[bool]) {
            self.received = bits.to_vec();
        }
        fn output(&self) -> Option<u32> {
            (self.received.len() >= self.expected).then(|| {
                let a = self
                    .received
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (i, &b)| acc | (u32::from(b)) << i);
                a + self.own
            })
        }
    }

    #[test]
    fn two_message_sum_protocol() {
        let mut alice = SumAlice {
            bits: vec![true, false, true], // 5
            sent: 0,
            result: None,
        };
        let mut bob = SumBob {
            own: 10,
            received: Vec::new(),
            expected: 3,
        };
        let run = run_protocol(&mut alice, &mut bob, &DriverOpts::new(10));
        assert_eq!(run.alice_output, Some(15));
        assert_eq!(run.bob_output, Some(15));
        assert_eq!(run.bits_exchanged, 3 + 8);
        assert_eq!(run.transcript.len(), 2);
        assert_eq!(run.transcript[0].0, Turn::Alice);
        assert_eq!(run.transcript[1].0, Turn::Bob);
    }

    #[test]
    fn budget_truncates() {
        let mut alice = SumAlice {
            bits: vec![true; 10],
            sent: 0,
            result: None,
        };
        let mut bob = SumBob {
            own: 0,
            received: Vec::new(),
            expected: 10,
        };
        let run = run_protocol(&mut alice, &mut bob, &DriverOpts::new(10).bit_budget(4));
        assert_eq!(run.bits_exchanged, 4);
        assert_eq!(run.bob_output, None, "Bob cannot decode a truncated input");
    }

    #[test]
    fn traced_run_records_messages_and_matches_untraced() {
        use bcc_trace::{EventKind, FieldValue, TraceLevel};
        let build = || {
            (
                SumAlice {
                    bits: vec![true, false, true],
                    sent: 0,
                    result: None,
                },
                SumBob {
                    own: 10,
                    received: Vec::new(),
                    expected: 3,
                },
            )
        };
        let (mut alice, mut bob) = build();
        let plain = run_protocol(&mut alice, &mut bob, &DriverOpts::new(10));
        let (mut alice, mut bob) = build();
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "u"),
            MetricsBuf::disabled(),
        );
        let traced = run_protocol(
            &mut alice,
            &mut bob,
            &DriverOpts::new(10).observe(scope.clone()),
        );
        assert_eq!(plain, traced);
        let events = scope.take().0.into_events();
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].name, "protocol");
        let msgs: Vec<_> = events.iter().filter(|e| e.name == "message").collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(
            msgs[0].field("speaker"),
            Some(&FieldValue::Str("alice".into()))
        );
        assert_eq!(msgs[0].field("bits"), Some(&FieldValue::UInt(3)));
        assert_eq!(msgs[0].field("bit_offset"), Some(&FieldValue::UInt(0)));
        assert_eq!(
            msgs[1].field("speaker"),
            Some(&FieldValue::Str("bob".into()))
        );
        assert_eq!(msgs[1].field("bit_offset"), Some(&FieldValue::UInt(3)));
        assert_eq!(msgs[1].path, "protocol");
        let end = events.last().unwrap();
        assert_eq!(end.kind, EventKind::SpanEnd);
        assert_eq!(end.field("bits_exchanged"), Some(&FieldValue::UInt(11)));
    }

    #[test]
    fn metered_run_matches_unmetered_and_counts_bits() {
        use bcc_metrics::MetricsLevel;
        let build = || {
            (
                SumAlice {
                    bits: vec![true, false, true],
                    sent: 0,
                    result: None,
                },
                SumBob {
                    own: 10,
                    received: Vec::new(),
                    expected: 3,
                },
            )
        };
        let (mut alice, mut bob) = build();
        let plain = run_protocol(&mut alice, &mut bob, &DriverOpts::new(10));
        let (mut alice, mut bob) = build();
        let scope = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Full, "u"),
        );
        let metered = run_protocol(
            &mut alice,
            &mut bob,
            &DriverOpts::new(10).observe(scope.clone()),
        );
        assert_eq!(plain, metered);
        let (counters, _, hists) = scope.take().1.into_parts();
        assert_eq!(counters.get("comm.protocol_runs"), Some(&1));
        assert_eq!(
            counters.get("comm.bits_exchanged"),
            Some(&(plain.bits_exchanged as u64))
        );
        assert_eq!(
            counters.get("comm.messages"),
            Some(&(plain.transcript.len() as u64))
        );
        let mb = hists.get("comm.message_bits").expect("message_bits hist");
        assert_eq!(mb.count, plain.transcript.len() as u64);
        assert_eq!(mb.sum, plain.bits_exchanged as u64);
        // Core level keeps counters, drops the histogram.
        let (mut alice, mut bob) = build();
        let core = Observer::new(
            TraceBuf::disabled(),
            MetricsBuf::new(MetricsLevel::Core, "u"),
        );
        run_protocol(
            &mut alice,
            &mut bob,
            &DriverOpts::new(10).observe(core.clone()),
        );
        let (c, _, h) = core.take().1.into_parts();
        assert_eq!(c.get("comm.protocol_runs"), Some(&1));
        assert!(h.is_empty());
    }

    #[test]
    fn budget_truncation_is_traced() {
        use bcc_trace::{FieldValue, TraceLevel};
        let mut alice = SumAlice {
            bits: vec![true; 10],
            sent: 0,
            result: None,
        };
        let mut bob = SumBob {
            own: 0,
            received: Vec::new(),
            expected: 10,
        };
        let scope = Observer::new(
            TraceBuf::new(TraceLevel::Events, "u"),
            MetricsBuf::disabled(),
        );
        let opts = DriverOpts::new(10).bit_budget(4).observe(scope.clone());
        let run = run_protocol(&mut alice, &mut bob, &opts);
        assert_eq!(run.bits_exchanged, 4);
        let events = scope.take().0.into_events();
        let msg = events.iter().find(|e| e.name == "message").unwrap();
        assert_eq!(msg.field("truncated"), Some(&FieldValue::Bool(true)));
        assert_eq!(msg.field("bits"), Some(&FieldValue::UInt(4)));
    }

    #[test]
    fn transcript_bits_flatten() {
        let run = ProtocolRun::<u32> {
            alice_output: None,
            bob_output: None,
            bits_exchanged: 3,
            transcript: vec![(Turn::Alice, vec![true]), (Turn::Bob, vec![false, true])],
        };
        assert_eq!(run.transcript_bits(), vec![true, false, true]);
    }
}

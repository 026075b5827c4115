//! Both drivers reject a delivered board of the wrong length the same
//! way: the scalar simulator and the batched kernel check it once,
//! degrade their outcomes on the same typed `Protocol` error, and
//! leave a balanced trace with one `transport.error` event.

use bcc_engine::BatchRun;
use bcc_graphs::generators;
use bcc_metrics::MetricsBuf;
use bcc_model::testing::EchoBit;
use bcc_model::transport::{
    LocalTransport, RoundView, Routes, Transport, TransportError, TransportFactory,
};
use bcc_model::{Instance, Message, RunOutcome, SimConfig};
use bcc_trace::{EventKind, Observer, TraceBuf, TraceLevel};
use std::sync::Arc;

/// How a [`Cutting`] transport damages the board it delivers.
#[derive(Clone, Copy)]
enum Cut {
    /// The last row's message is missing.
    Short,
    /// One stray message follows the last row's.
    Long,
}

/// Delivers like [`LocalTransport`], then cuts the board.
struct Cutting {
    inner: LocalTransport,
    cut: Cut,
}

impl Transport for Cutting {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        self.inner.open(routes)
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let mut board = self.inner.exchange(round, outbox)?.board().to_vec();
        match self.cut {
            Cut::Short => {
                board.pop();
            }
            Cut::Long => board.push(Message::silent(1)),
        }
        Ok(RoundView::new(board))
    }
}

struct ShortFactory(Cut);

impl TransportFactory for ShortFactory {
    fn create(&self) -> Box<dyn Transport> {
        Box::new(Cutting {
            inner: LocalTransport::new(),
            cut: self.0,
        })
    }

    fn label(&self) -> String {
        "cutting".to_string()
    }
}

/// The error detail every outcome degraded on, with the trace checked
/// for balanced spans and exactly one `transport.error` event.
fn protocol_detail(outcomes: &[RunOutcome], observer: &Observer) -> String {
    let details: Vec<&str> = outcomes
        .iter()
        .map(|out| match out.transport_failure() {
            Some(TransportError::Protocol { detail, .. }) => detail.as_str(),
            other => panic!("expected a protocol error, got {other:?}"),
        })
        .collect();
    assert!(details.windows(2).all(|w| w[0] == w[1]), "{details:?}");
    let events = observer.take().0.into_events();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(EventKind::SpanStart), count(EventKind::SpanEnd));
    let errors = events
        .iter()
        .filter(|e| e.name == "transport.error")
        .count();
    assert_eq!(errors, 1, "one transport.error event");
    details[0].to_string()
}

fn observed(cut: Cut) -> (SimConfig, Observer) {
    let observer = Observer::new(
        TraceBuf::new(TraceLevel::Events, "shape"),
        MetricsBuf::disabled(),
    );
    let cfg = SimConfig::bcc1(3)
        .transport(Arc::new(ShortFactory(cut)))
        .observe(observer.clone());
    (cfg, observer)
}

#[test]
fn both_drivers_word_a_cut_board_the_same() {
    let instance = Instance::new_kt0(generators::cycle(5), 4).expect("valid");
    for (cut, want, want_two) in [
        (
            Cut::Short,
            "round view covers 4 of 5 nodes",
            "round view covers 9 of 10 nodes",
        ),
        (
            Cut::Long,
            "round view covers 6 of 5 nodes",
            "round view covers 11 of 10 nodes",
        ),
    ] {
        let (cfg, observer) = observed(cut);
        let scalar = [cfg.run(&instance, &EchoBit, 0)];
        assert_eq!(protocol_detail(&scalar, &observer), want);

        // A one-lane batch has the scalar run's board, and words its
        // cut the same; a two-lane batch counts both lanes' rows.
        let (cfg, observer) = observed(cut);
        let batched = BatchRun::new(cfg).run(&[(&instance, 0)], &EchoBit);
        assert_eq!(protocol_detail(&batched, &observer), want);

        let (cfg, observer) = observed(cut);
        let lanes = [(&instance, 0), (&instance, 1)];
        let batched = BatchRun::new(cfg).run(&lanes, &EchoBit);
        assert_eq!(protocol_detail(&batched, &observer), want_two);
    }
}

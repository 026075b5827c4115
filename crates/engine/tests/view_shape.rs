//! Both drivers reject a delivered view of the wrong shape the same
//! way: the scalar simulator and the batched kernel degrade their
//! outcomes on the same typed `Protocol` error, and leave a balanced
//! trace with one `transport.error` event.

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

/// How a [`Short`] transport damages the view it delivers.
#[derive(Clone, Copy)]
enum Cut {
    /// The last vertex's inbox is missing.
    Inbox,
    /// Vertex 0's inbox lacks its last entry.
    Entry,
}

/// Delivers like [`LocalTransport`], then cuts the view short.
struct Short {
    inner: LocalTransport,
    cut: Cut,
}

impl Transport for Short {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        self.inner.open(routes)
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let view = self.inner.exchange(round, outbox)?;
        let mut inboxes: Vec<_> = (0..view.num_nodes())
            .map(|v| view.inbox(v).to_vec())
            .collect();
        match self.cut {
            Cut::Inbox => {
                inboxes.pop();
            }
            Cut::Entry => {
                inboxes[0].pop();
            }
        }
        Ok(RoundView::new(inboxes))
    }
}

struct ShortFactory(Cut);

impl TransportFactory for ShortFactory {
    fn create(&self) -> Box<dyn Transport> {
        Box::new(Short {
            inner: LocalTransport::new(),
            cut: self.0,
        })
    }

    fn label(&self) -> String {
        "short".to_string()
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
fn both_drivers_word_a_short_view_the_same() {
    let instance = Instance::new_kt0(generators::cycle(5), 4).expect("valid");
    for (cut, want) in [
        (Cut::Inbox, "round view covers 4 of 5 nodes"),
        (Cut::Entry, "node 0 received 3 messages, expected 4"),
    ] {
        let (cfg, observer) = observed(cut);
        let scalar = [cfg.run(&instance, &EchoBit, 0)];
        let scalar = protocol_detail(&scalar, &observer);

        let (cfg, observer) = observed(cut);
        let lanes = [(&instance, 0), (&instance, 1)];
        let batched = BatchRun::new(cfg).run(&lanes, &EchoBit);
        let batched = protocol_detail(&batched, &observer);

        assert_eq!(scalar, want);
        assert_eq!(batched, want);
    }
}

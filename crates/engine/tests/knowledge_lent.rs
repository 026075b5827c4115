//! A vertex's initial knowledge is lent, not shared: the drivers hand
//! `spawn` and `reset` a borrow of the instance's start table, so no
//! run touches a reference count of its label lists. An algorithm
//! that reads `Arc::strong_count` inside `spawn` and `reset` must see
//! exactly the counts the instance's table holds outside any run, on
//! the scalar driver and on a pooled sweep of the batched kernel.

use bcc_core::hard::WeightedInstance;
use bcc_engine::BatchRun;
use bcc_graphs::generators;
use bcc_model::{
    Algorithm, Decision, Inbox, InitialKnowledge, Instance, Message, NodeProgram, SimConfig,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// One knowledge as a program saw it: the addresses of its port-label
/// and input-port-label slices (which vertex of which instance it
/// is), and their strong counts.
type Seen = (usize, usize, usize, usize);

fn seen(init: &InitialKnowledge<'_>) -> Seen {
    (
        Arc::as_ptr(init.port_labels).cast::<u64>() as usize,
        Arc::as_ptr(init.input_port_labels).cast::<u64>() as usize,
        Arc::strong_count(init.port_labels),
        Arc::strong_count(init.input_port_labels),
    )
}

/// Logs what every `spawn` and every `reset` saw, and keeps nothing.
#[derive(Default)]
struct CountRecorder {
    spawned: Rc<RefCell<Vec<Seen>>>,
    reset: Rc<RefCell<Vec<Seen>>>,
}

impl Algorithm for CountRecorder {
    fn name(&self) -> &str {
        "count-recorder"
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        self.spawned.borrow_mut().push(seen(&init));
        Box::new(Recorder {
            reset: Rc::clone(&self.reset),
        })
    }
}

struct Recorder {
    reset: Rc<RefCell<Vec<Seen>>>,
}

impl NodeProgram for Recorder {
    fn broadcast(&mut self, _round: usize) -> Message {
        Message::silent(0)
    }

    fn receive(&mut self, _round: usize, _inbox: &Inbox) {}

    fn decide(&self) -> Decision {
        Decision::Yes
    }

    fn is_done(&self) -> bool {
        false
    }

    fn reset(&mut self, init: &InitialKnowledge) -> bool {
        self.reset.borrow_mut().push(seen(init));
        true
    }
}

/// What every vertex of `instances` holds outside any run.
fn at_rest(instances: &[&Instance]) -> BTreeSet<Seen> {
    instances
        .iter()
        .flat_map(|i| (0..i.num_vertices()).map(|v| seen(&i.initial_knowledge(v, 1, 0))))
        .collect()
}

/// Every logged knowledge is one of `expect`, and there is at least
/// one.
fn assert_lent(log: &RefCell<Vec<Seen>>, expect: &BTreeSet<Seen>, what: &str) {
    let log = log.borrow();
    assert!(!log.is_empty(), "no {what} was logged");
    for s in log.iter() {
        assert!(expect.contains(s), "{what} saw {s:?}, not a count at rest");
    }
}

#[test]
fn scalar_spawn_sees_the_counts_at_rest() {
    let kt0 = Instance::new_kt0(generators::two_cycles(3, 4), 9).expect("valid");
    let kt1 = Instance::new_kt1(generators::cycle(6)).expect("valid");
    let expect = at_rest(&[&kt0, &kt1]);
    // KT-0 vertices share one port-label slice, the table's n handles.
    assert!(expect.iter().any(|s| s.2 == 7));
    let recorder = CountRecorder::default();
    let cfg = SimConfig::bcc1(2).transcripts(false);
    for instance in [&kt0, &kt1] {
        cfg.run(instance, &recorder, 5);
    }
    assert_eq!(recorder.spawned.borrow().len(), 13);
    assert_lent(&recorder.spawned, &expect, "scalar spawn");
    assert!(recorder.reset.borrow().is_empty());
    assert_eq!(at_rest(&[&kt0, &kt1]), expect, "a run left a handle behind");
}

#[test]
fn pooled_sweep_spawn_and_reset_see_the_counts_at_rest() {
    // Two-lane chunks: the vertex count alternates every two lanes,
    // so every chunk after the first respawns the pool, resetting its
    // programs and spawning where a lane has more vertices.
    let dist: Vec<WeightedInstance> = [7, 7, 5, 5, 7, 7]
        .into_iter()
        .enumerate()
        .map(|(seed, n)| WeightedInstance {
            instance: Instance::new_kt0(generators::cycle(n), seed as u64).expect("valid"),
            is_one_cycle: true,
            weight: 1.0 / 6.0,
        })
        .collect();
    let instances: Vec<&Instance> = dist.iter().map(|w| &w.instance).collect();
    let expect = at_rest(&instances);
    let recorder = CountRecorder::default();
    BatchRun::new(SimConfig::bcc1(2).transcripts(false)).distributional_error(&dist, &recorder, 5);
    // The first chunk spawns 14 programs, the second resets 10 (the
    // pool keeps two 5-vertex runs) and the third resets those 10 and
    // spawns the 4 vertices they lack.
    assert_eq!(recorder.spawned.borrow().len(), 18);
    assert_eq!(recorder.reset.borrow().len(), 20);
    assert_lent(&recorder.spawned, &expect, "pooled spawn");
    assert_lent(&recorder.reset, &expect, "pooled reset");
    assert_eq!(at_rest(&instances), expect, "a run left a handle behind");
}

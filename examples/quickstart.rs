//! Quickstart: build `BCC(1)` instances, run algorithms, inspect
//! transcripts and costs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bcclique::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A YES instance of TwoCycle: a single 16-cycle. ---
    let yes = Instance::new_kt1(generators::cycle(16))?;
    // --- and a NO instance: two disjoint 8-cycles. ---
    let no = Instance::new_kt1(generators::two_cycles(8, 8))?;

    // The O(log n) algorithm that makes the paper's lower bound tight
    // on sparse graphs: broadcast degrees, then neighbor IDs.
    let algo = NeighborIdBroadcast::new(Problem::TwoCycle);
    let sim = SimConfig::bcc1(10_000);

    let out_yes = sim.run(&yes, &algo, 0);
    let out_no = sim.run(&no, &algo, 0);
    println!(
        "one 16-cycle   -> {:?} in {} rounds",
        out_yes.system_decision(),
        out_yes.stats().rounds
    );
    println!(
        "two 8-cycles   -> {:?} in {} rounds",
        out_no.system_decision(),
        out_no.stats().rounds
    );
    assert_eq!(out_yes.system_decision(), Decision::Yes);
    assert_eq!(out_no.system_decision(), Decision::No);

    // --- 2. The same on a KT-0 network (anonymous ports): prepend the
    //        ID-exchange prologue. ---
    let kt0 = Instance::new_kt0(generators::cycle(16), /* wiring seed */ 42)?;
    let upgraded = Kt0Upgrade::new(NeighborIdBroadcast::new(Problem::TwoCycle));
    let out_kt0 = sim.run(&kt0, &upgraded, 0);
    println!(
        "KT-0 16-cycle  -> {:?} in {} rounds ({} extra for the ID exchange)",
        out_kt0.system_decision(),
        out_kt0.stats().rounds,
        out_kt0.stats().rounds - out_yes.stats().rounds,
    );

    // --- 3. Inspect a vertex's transcript: everything it sent. ---
    let t0 = out_yes.transcript(0);
    println!(
        "vertex 0 broadcast {} rounds: \"{}\" ({} bits total across all vertices)",
        t0.rounds(),
        t0.sent.iter().map(ToString::to_string).collect::<String>(),
        out_yes.stats().bits_broadcast,
    );

    // --- 4. ConnectedComponents: every vertex outputs its component's
    //        minimum ID. ---
    let cc = sim.run(
        &Instance::new_kt1(generators::multi_cycle(&[4, 5, 6]))?,
        &NeighborIdBroadcast::new(Problem::ConnectedComponents),
        0,
    );
    let labels: Vec<u64> = cc.component_labels().iter().map(|l| l.unwrap()).collect();
    println!("component labels of C4+C5+C6: {labels:?}");

    // --- 5. The lower-bound view: a 1-round algorithm cannot tell the
    //        instances apart better than coin flips on the hard
    //        distribution. ---
    let dist = bcclique::core::hard::star_distribution(27);
    let truncated = Truncated::new(upgraded, 1);
    let err = bcclique::core::hard::distributional_error(&dist, &truncated, 1, 0);
    println!("1-round truncation errs with probability {err:.3} on the Theorem 3.5 star (floor 1/2 here)");

    Ok(())
}

//! Property-based tests for the BCC(b) model invariants.

use bcc_graphs::{generators, Graph};
use bcc_model::testing::{ConstantDecision, EchoBit, IdBroadcast};
use bcc_model::{runs_indistinguishable, Decision, Instance, Message, SimConfig, Symbol};
use proptest::prelude::*;

fn arb_cycle_graph() -> impl Strategy<Value = Graph> {
    (3usize..12).prop_map(generators::cycle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wiring of any seeded KT-0 network is a consistent double
    /// permutation: peer_of ∘ port_of = identity, no self-loops, every
    /// peer appears exactly once.
    #[test]
    fn kt0_wiring_consistency(n in 2usize..20, seed in any::<u64>()) {
        // Networks are built through `Instance`; an edgeless input
        // graph keeps the wiring the only thing under test.
        let inst = Instance::new_kt0(Graph::new(n), seed).unwrap();
        let net = inst.network();
        for v in 0..n {
            let mut seen = std::collections::HashSet::new();
            for p in 0..n - 1 {
                let w = net.peer_of(v, p);
                prop_assert_ne!(w, v);
                prop_assert!(seen.insert(w));
                prop_assert_eq!(net.port_of(v, w), p);
            }
        }
    }

    /// KT-1 labels are exactly the peer IDs for arbitrary ID sets.
    #[test]
    fn kt1_labels_are_ids(ids in proptest::collection::hash_set(any::<u64>(), 2..12)) {
        let ids: Vec<u64> = ids.into_iter().collect();
        let n = ids.len();
        let inst = Instance::new_kt1_with_ids(Graph::new(n), ids.clone()).unwrap();
        let net = inst.network();
        for v in 0..n {
            for p in 0..n - 1 {
                prop_assert_eq!(net.port_label(v, p), ids[net.peer_of(v, p)]);
            }
        }
    }

    /// Simulation is deterministic: same instance, same algorithm,
    /// same coin → indistinguishable runs.
    #[test]
    fn simulation_deterministic(g in arb_cycle_graph(), seed in any::<u64>(), coin in any::<u64>()) {
        let inst = Instance::new_kt0(g, seed).unwrap();
        let a = SimConfig::bcc1(5).run(&inst, &EchoBit, coin);
        let b = SimConfig::bcc1(5).run(&inst, &EchoBit, coin);
        prop_assert!(runs_indistinguishable(&a, &b));
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Every vertex's initial knowledge reports exactly its input
    /// degree, and labels are within range.
    #[test]
    fn initial_knowledge_consistent(g in arb_cycle_graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let inst = Instance::new_kt0(g.clone(), seed).unwrap();
        for v in 0..n {
            let ik = inst.initial_knowledge(v, 1, 0);
            prop_assert_eq!(ik.input_degree(), g.degree(v));
            for &l in ik.input_port_labels.iter() {
                prop_assert!((1..n as u64).contains(&l));
            }
            prop_assert_eq!(ik.port_labels.len(), n - 1);
        }
    }

    /// Message stats: EchoBit broadcasts exactly one bit per vertex per
    /// round; messages delivered = rounds·n·(n−1).
    #[test]
    fn stats_accounting(g in arb_cycle_graph(), t in 1usize..6) {
        let n = g.num_vertices();
        let inst = Instance::new_kt1(g).unwrap();
        let out = SimConfig::bcc1(t).run(&inst, &EchoBit, 0);
        prop_assert_eq!(out.stats().rounds, t);
        prop_assert_eq!(out.stats().bits_broadcast, t * n);
        prop_assert_eq!(out.stats().messages_delivered, t * n * (n - 1));
    }

    /// System decision rule: YES iff all vertices vote YES.
    #[test]
    fn system_decision_rule(g in arb_cycle_graph()) {
        let inst = Instance::new_kt1(g).unwrap();
        let yes = SimConfig::bcc1(1).run(&inst, &ConstantDecision::yes(), 0);
        prop_assert_eq!(yes.system_decision(), bcc_model::Decision::Yes);
        let no = SimConfig::bcc1(1).run(&inst, &ConstantDecision::new(Decision::No), 0);
        prop_assert_eq!(no.system_decision(), bcc_model::Decision::No);
    }

    /// IdBroadcast terminates in exactly ⌈log₂ n⌉ rounds regardless of
    /// wiring, and completes.
    #[test]
    fn id_broadcast_rounds(n in 3usize..20, seed in any::<u64>()) {
        let inst = Instance::new_kt0(generators::cycle(n), seed).unwrap();
        let out = SimConfig::bcc1(100).run(&inst, &IdBroadcast::new(), 0);
        prop_assert!(out.completed());
        prop_assert_eq!(out.stats().rounds, bcc_model::codec::bits_needed(n));
    }

    /// Codec roundtrip for arbitrary values and widths.
    #[test]
    fn codec_roundtrip(value in any::<u64>(), width in 1usize..64) {
        let v = value & ((1u64 << width) - 1);
        let bits = bcc_model::codec::u64_to_bits(v, width);
        prop_assert_eq!(bcc_model::codec::bits_to_u64(&bits), v);
    }

    /// Message bit packing roundtrips, up to the full 64-bit word.
    #[test]
    fn message_roundtrip(value in any::<u64>(), width in 1usize..=64) {
        let v = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        let m = Message::from_bits(v, width);
        prop_assert_eq!(m.to_bits(), Some(v));
        prop_assert_eq!(m.len(), width);
        prop_assert!(m.symbols().all(|s| s != Symbol::Silent));
    }
}

/// Symbol strings of 0..=130 symbols, crossing the 64-symbol inline
/// limit, with extra weight right at it. A third of them are mixed,
/// a third bits only and a third silence only, so `to_bits`,
/// `from_bits` and `silent` get matching inputs too.
fn arb_symbols() -> impl Strategy<Value = Vec<Symbol>> {
    const ALPHABET: [Symbol; 3] = [Symbol::Zero, Symbol::One, Symbol::Silent];
    (prop_oneof![0usize..=130, 62usize..=66], 0usize..3).prop_flat_map(|(len, palette)| {
        let range: std::ops::Range<usize> = [0..3, 0..2, 2..3][palette].clone();
        proptest::collection::vec(range.prop_map(|i: usize| ALPHABET[i]), len)
    })
}

mod reference {
    /// The symbol-vector `Message` as it was, whose derived `Debug`
    /// output the packed form must keep printing.
    #[derive(Debug)]
    #[allow(dead_code)] // The field is read only by the derived `Debug`.
    pub struct Message(pub Vec<bcc_model::Symbol>);
}

/// What `Message::to_bits` means on a plain symbol vector.
fn model_to_bits(symbols: &[Symbol]) -> Option<u64> {
    let mut value = 0u64;
    for (k, s) in symbols.iter().enumerate() {
        match s {
            Symbol::Silent => return None,
            Symbol::One if k >= 64 => return None,
            Symbol::One => value |= 1 << k,
            Symbol::Zero => {}
        }
    }
    Some(value)
}

fn hash_of(m: &Message) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `Message` method agrees with the same question asked of
    /// the symbol vector it was built from, on both sides of the
    /// 64-symbol inline limit.
    #[test]
    fn message_matches_symbol_vector_model(symbols in arb_symbols(), pad in 0usize..70) {
        let m = Message::from_symbols(symbols.clone());
        prop_assert_eq!(m.len(), symbols.len());
        prop_assert_eq!(m.is_empty(), symbols.is_empty());
        prop_assert_eq!(m.symbols().len(), symbols.len());
        prop_assert_eq!(m.symbols().collect::<Vec<_>>(), symbols.clone());
        for (k, &s) in symbols.iter().enumerate() {
            prop_assert_eq!(m.symbol_at(k), s);
        }
        prop_assert_eq!(
            m.bits_used(),
            symbols.iter().filter(|&&s| s != Symbol::Silent).count()
        );
        prop_assert_eq!(m.to_bits(), model_to_bits(&symbols));
        let glyphs: String = symbols.iter().map(|s| s.glyph()).collect();
        prop_assert_eq!(m.to_string(), glyphs);
        let derived = reference::Message(symbols.clone());
        prop_assert_eq!(format!("{m:?}"), format!("{derived:?}"));
        prop_assert_eq!(format!("{m:#?}"), format!("{derived:#?}"));

        // Normalizing pads with silence, also across the inline limit.
        let b = symbols.len() + pad;
        let mut padded = symbols.clone();
        padded.resize(b, Symbol::Silent);
        let normalized = m.clone().normalized(b);
        prop_assert_eq!(normalized.symbols().collect::<Vec<_>>(), padded.clone());
        prop_assert_eq!(&normalized, &Message::from_symbols(padded));

        // The wire alphabet round-trips every length.
        let mut line = String::new();
        bcc_transport::wire::push_message(&mut line, &m);
        prop_assert_eq!(line.len(), symbols.len());
        prop_assert_eq!(bcc_transport::wire::decode_message(&line), Ok(m.clone()));
    }

    /// Ordering is the symbol vector's lexicographic order, including
    /// pairs that share a long prefix and pairs straddling 64 symbols.
    #[test]
    fn message_order_matches_symbol_vector_order(
        a in arb_symbols(),
        tail in arb_symbols(),
        cut in 0usize..=130,
    ) {
        let mut b = a[..cut.min(a.len())].to_vec();
        b.extend(tail);
        let (ma, mb) = (Message::from_symbols(a.clone()), Message::from_symbols(b.clone()));
        prop_assert_eq!(ma.cmp(&mb), a.cmp(&b));
        prop_assert_eq!(mb.cmp(&ma), b.cmp(&a));
        prop_assert_eq!(ma.partial_cmp(&mb), a.partial_cmp(&b));
        prop_assert_eq!(ma == mb, a == b);
    }

    /// Every constructor that can express a symbol string, collecting
    /// included, yields the same value, hash included: the
    /// representation is canonical.
    #[test]
    fn message_constructors_agree(symbols in arb_symbols(), junk in any::<u64>()) {
        let m = Message::from_symbols(symbols.clone());
        let mut same = vec![m.clone(), symbols.iter().copied().collect()];
        let len = symbols.len();
        if len <= 64 {
            let (mut ones, mut silent) = (0u64, 0u64);
            for (k, s) in symbols.iter().enumerate() {
                match s {
                    Symbol::One => ones |= 1 << k,
                    Symbol::Silent => silent |= 1 << k,
                    Symbol::Zero => {}
                }
            }
            same.push(Message::from_words(ones, silent, len));
            // Bits at and above `len`, and `ones` bits under silent
            // positions, are not part of the message.
            let above = if len == 64 { 0 } else { junk << len };
            same.push(Message::from_words(ones | above | (junk & silent), silent | above, len));
            if let Some(value) = model_to_bits(&symbols) {
                same.push(Message::from_bits(value, len));
            }
        }
        if symbols.iter().all(|&s| s == Symbol::Silent) {
            same.push(Message::silent(len));
        }
        if len == 1 {
            same.push(Message::single(symbols[0]));
        }
        for other in &same {
            prop_assert_eq!(other, &m);
            prop_assert_eq!(hash_of(other), hash_of(&m));
            prop_assert_eq!(other.symbols().collect::<Vec<_>>(), symbols.clone());
        }
    }
}

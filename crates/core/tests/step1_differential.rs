//! Step 1 against the concrete interpreter.
//!
//! Under `LoopMode::Unroll` every concrete packet follows exactly one
//! segment, and that segment predicts what `ir::execute` does with it.
//! Covered: every preset element without data structures whose bounded
//! unrolling completes, a hand-built program with a loop nested in a loop,
//! and one with a `Select` whose arms differ in cost and can each crash.
//! For each packet, exactly one segment's constraint holds under
//! `Assignment::from_packet`, and its outcome is the interpreter's. Its
//! instruction count equals the interpreter's unless the segment is marked
//! `approximate` (a `Select` whose arms cost differently charges the
//! costlier), in which case it is at least the interpreter's.
//!
//! Under `EngineConfig::decomposed()`, the verifier's default, a segment
//! stands for many runs, and its constraint mentions havocked values no
//! packet fixes. There every preset element and a drop inside a loop body
//! are held to the bound alone: some segment with the run's outcome is not
//! refuted by the packet, and the costliest such segment counts at least
//! the run's instructions.

mod common;

use dataplane_ir::{execute, CrashReason, ElementState, ExecLimits, ExecResult, Outcome, Program};
use dataplane_net::ipv4::Ipv4Header;
use dataplane_symbex::term::{eval, Term};
use dataplane_symbex::{
    explore, Assignment, CrashKind, EngineConfig, Exploration, Segment, SegmentOutcome, TermRef,
};
use std::collections::BTreeSet;

/// Packets per program.
const PACKETS: usize = 1_000;

/// SplitMix64: a fixed, dependency-free stream for the packet generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random bytes of random length (0–80). Most packets carry an IPv4 header
/// — at offset 14 behind an IPv4 ethertype, or at offset 0 as elements
/// after the Ethernet decapsulator see it — with a legal IHL, a matching
/// total length and (usually) a correct checksum.
fn packet(rng: &mut Rng) -> Vec<u8> {
    let len = rng.below(81) as usize;
    let mut bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    let base = match rng.below(3) {
        0 => return bytes,
        1 => 0,
        _ => 14,
    };
    if base == 14 && len >= 14 {
        bytes[12..14].copy_from_slice(&[0x08, 0x00]);
    }
    if len >= base + 4 {
        let ihl = if rng.below(2) == 0 {
            5
        } else {
            5 + rng.below(11)
        };
        bytes[base] = 0x40 | ihl as u8;
        bytes[base + 2..base + 4].copy_from_slice(&((len - base) as u16).to_be_bytes());
    }
    if len >= base + 20 && rng.below(4) != 0 {
        Ipv4Header::rewrite_checksum(&mut bytes[base..]);
    }
    bytes
}

/// Whether a symbolic outcome names the same ending as a concrete one.
fn same_outcome(symbolic: &SegmentOutcome, concrete: &Outcome) -> bool {
    match (symbolic, concrete) {
        (SegmentOutcome::Emitted(a), Outcome::Emitted(b)) => a == b,
        (SegmentOutcome::Dropped, Outcome::Dropped) => true,
        (SegmentOutcome::Crashed(kind), Outcome::Crashed(reason)) => match (kind, reason) {
            (CrashKind::AssertionFailed(a), CrashReason::AssertionFailed { message: b })
            | (CrashKind::Aborted(a), CrashReason::Aborted { message: b })
            | (CrashKind::DsKeyOutOfRange(a), CrashReason::DsKeyOutOfRange { ds: b, .. }) => a == b,
            (CrashKind::PacketOutOfBounds, CrashReason::PacketOutOfBounds { .. })
            | (CrashKind::DivisionByZero, CrashReason::DivisionByZero)
            | (CrashKind::LoopBoundExceeded, CrashReason::LoopBoundExceeded { .. })
            | (CrashKind::StripUnderflow, CrashReason::StripUnderflow { .. }) => true,
            _ => false,
        },
        _ => false,
    }
}

/// Hold each packet's concrete run against the one segment whose
/// constraint it satisfies; returns the segments hit.
fn check_against_interpreter(
    name: &str,
    program: &Program,
    exploration: &Exploration,
    packets: impl IntoIterator<Item = Vec<u8>>,
) -> BTreeSet<usize> {
    let mut hit = BTreeSet::new();
    for bytes in packets {
        let assignment = Assignment::from_packet(&bytes);
        let taken: Vec<usize> = exploration
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.constraint
                    .iter()
                    .all(|c| eval(c, &assignment).is_some_and(|v| v.is_true()))
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            taken.len(),
            1,
            "{name}: packet {bytes:02x?} satisfies segments {taken:?}"
        );
        let segment = &exploration.segments[taken[0]];
        let run = run(program, &mut ElementState::for_program(program), &bytes);
        assert!(
            same_outcome(&segment.outcome, &run.outcome),
            "{name}: packet {bytes:02x?} follows a segment ending in {:?}, runs to {:?}",
            segment.outcome,
            run.outcome
        );
        if segment.approximate {
            assert!(
                segment.instructions >= run.instructions,
                "{name}: packet {bytes:02x?} runs {} instructions on an approximate segment counting {}",
                run.instructions,
                segment.instructions
            );
        } else {
            assert_eq!(
                segment.instructions, run.instructions,
                "{name}: packet {bytes:02x?} counts differently on an exact segment"
            );
        }
        hit.insert(taken[0]);
    }
    hit
}

/// Run `bytes` through the interpreter against `state`.
fn run(program: &Program, state: &mut ElementState, bytes: &[u8]) -> ExecResult {
    execute(program, &mut bytes.to_vec(), state, &ExecLimits::default())
        .expect("the interpreter runs every covered program to an outcome")
}

/// `PACKETS` packets from the generator, seeded.
fn seeded(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    (0..PACKETS).map(|_| packet(&mut rng)).collect()
}

/// Each segment's conjuncts that the packet alone decides: those that
/// read no havocked variable and no data structure.
fn packet_conjuncts(exploration: &Exploration) -> Vec<Vec<TermRef>> {
    let fixed = |c: &&TermRef| {
        let mut leaves = Vec::new();
        c.collect_leaves(&mut leaves);
        !leaves
            .iter()
            .any(|l| matches!(l.as_ref(), Term::Var { .. } | Term::DsRead { .. }))
    };
    exploration
        .segments
        .iter()
        .map(|s| s.constraint.iter().filter(fixed).cloned().collect())
        .collect()
}

/// The segments with the run's outcome that no conjunct the packet decides
/// refutes: those that may stand for the run.
fn admitting<'e>(
    exploration: &'e Exploration,
    conjuncts: &[Vec<TermRef>],
    bytes: &[u8],
    outcome: &Outcome,
) -> Vec<(usize, &'e Segment)> {
    let assignment = Assignment::from_packet(bytes);
    exploration
        .segments
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            same_outcome(&s.outcome, outcome)
                && conjuncts[*i]
                    .iter()
                    .all(|c| eval(c, &assignment).is_some_and(|v| v.is_true()))
        })
        .collect()
}

#[test]
fn unrolled_preset_segments_predict_the_interpreter() {
    let mut seen = BTreeSet::new();
    let mut covered = BTreeSet::new();
    for (name, program, _) in common::preset_elements() {
        if !program.data_structures.is_empty() || !seen.insert(format!("{program:?}")) {
            continue;
        }
        let Ok(exploration) = explore(&program, &EngineConfig::monolithic(5_000, 200_000)) else {
            continue;
        };
        check_against_interpreter(&name, &program, &exploration, seeded(seen.len() as u64));
        covered.insert(program.name.clone());
    }
    // The loop-free elements and the checksum loop of the header checker;
    // the options walker's unrolling does not complete.
    let expected: BTreeSet<String> = [
        "BuggyDecTTL",
        "CheckIPHeader",
        "Classifier",
        "DecTTL",
        "EthDecap",
        "EthEncap",
        "Sink",
    ]
    .map(String::from)
    .into();
    assert_eq!(covered, expected);
}

#[test]
fn unrolled_nested_loops_are_exact_and_predict_the_interpreter() {
    let program = common::nested_loop_program();
    let exploration = explore(&program, &EngineConfig::monolithic(5_000, 200_000))
        .expect("the nested loops unroll within the budget");
    assert!(
        exploration.segments.iter().all(|s| !s.approximate),
        "no segment of a full unrolling is approximate"
    );
    check_against_interpreter("nested", &program, &exploration, seeded(7));
}

#[test]
fn a_select_counts_each_crashing_arm_exactly_and_bounds_its_survivor() {
    let program = common::select_crash_program();
    let exploration = explore(&program, &EngineConfig::monolithic(5_000, 200_000))
        .expect("the select program explores within the budget");
    // Every length up to the last byte either arm reads, under either arm.
    let packets = (0..=4usize).flat_map(|len| {
        [0u8, 1].map(|first| {
            let mut bytes = vec![9u8; len];
            if let Some(b) = bytes.first_mut() {
                *b = first;
            }
            bytes
        })
    });
    let hit = check_against_interpreter("select", &program, &exploration, packets);
    for (i, segment) in exploration.segments.iter().enumerate() {
        if segment.outcome.is_crash() {
            assert!(
                hit.contains(&i) && !segment.approximate,
                "crash segment {i} is hit and exact: {segment:?}"
            );
        } else {
            assert!(
                segment.approximate,
                "the surviving segment charges the costlier arm: {segment:?}"
            );
        }
    }
    // The `pkt[0]` load, the then arm's load, and both loads of the else arm.
    assert_eq!(exploration.crash_segments().len(), 4);
}

#[test]
fn a_drop_inside_a_decomposed_loop_bounds_every_iteration() {
    let program = common::loop_body_drop_program();
    let exploration = explore(&program, &EngineConfig::decomposed()).expect("explores");
    let drops: Vec<&Segment> = exploration
        .segments
        .iter()
        .filter(|s| s.outcome == SegmentOutcome::Dropped)
        .collect();
    assert_eq!(drops.len(), 1, "one drop, inside the loop body");
    for k in 1..=10u8 {
        let run = run(
            &program,
            &mut ElementState::for_program(&program),
            &[k, 0, 0, 0],
        );
        assert_eq!(
            run.outcome,
            Outcome::Dropped,
            "byte {k} drops in iteration {k}"
        );
        assert!(
            drops[0].instructions >= run.instructions,
            "a drop in iteration {k} runs {} instructions; its segment counts {}",
            run.instructions,
            drops[0].instructions
        );
    }
}

#[test]
fn decomposed_preset_segments_bound_the_interpreter() {
    let mut seen = BTreeSet::new();
    let mut covered = BTreeSet::new();
    let (mut packets, mut hit, mut unsurfaced) = (0usize, 0usize, 0usize);
    for (name, program, mut state) in common::preset_elements() {
        if !seen.insert(format!("{program:?} {state:?}")) {
            continue;
        }
        let exploration = explore(&program, &EngineConfig::decomposed())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let conjuncts = packet_conjuncts(&exploration);
        let mut hit_here = BTreeSet::new();
        // The state carries over from packet to packet, as in a runtime:
        // a data-structure read is unconstrained symbolically.
        for bytes in seeded(seen.len() as u64) {
            let run = run(&program, &mut state, &bytes);
            packets += 1;
            // A decomposed loop surfaces no loop-bound crash (ROADMAP,
            // Trust): count those runs rather than hold them to a bound.
            if matches!(
                run.outcome,
                Outcome::Crashed(CrashReason::LoopBoundExceeded { .. })
            ) {
                unsurfaced += 1;
                continue;
            }
            let admitting = admitting(&exploration, &conjuncts, &bytes, &run.outcome);
            let bound = admitting.iter().map(|(_, s)| s.instructions).max();
            assert!(
                bound.is_some_and(|b| b >= run.instructions),
                "{name}: packet {bytes:02x?} runs to {:?} in {} instructions; \
                 the segments with that outcome it does not refute bound it by {bound:?}",
                run.outcome,
                run.instructions
            );
            hit_here.extend(admitting.iter().map(|(i, _)| *i));
        }
        hit += hit_here.len();
        covered.insert(program.name.clone());
    }
    println!(
        "decomposed Step 1 against the interpreter: {packets} packets, {} elements, \
         {hit} segments hit, {unsurfaced} loop-bound crashes no segment surfaces",
        seen.len()
    );
    for name in [
        "IPOptions",
        "UncheckedOptions",
        "NetFlow",
        "Nat",
        "IPLookup",
    ] {
        assert!(covered.contains(name), "{name} is covered: {covered:?}");
    }
}

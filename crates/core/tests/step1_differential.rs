//! Step 1 against the concrete interpreter: under `LoopMode::Unroll` every
//! concrete packet follows exactly one segment, and that segment predicts
//! what `ir::execute` does with the packet.
//!
//! Covered: every preset element without data structures whose bounded
//! unrolling completes, and a hand-built program with a loop nested in a
//! loop. For each seeded packet, exactly one segment's constraint holds
//! under `Assignment::from_packet`; its outcome is the interpreter's, and
//! its instruction count is at least the interpreter's. Only "at least":
//! a `Select` charges both arms symbolically but only the taken one
//! concretely, so a segment not marked approximate can still count more.

mod common;

use dataplane_ir::{execute, CrashReason, ElementState, ExecLimits, Outcome, Program};
use dataplane_net::ipv4::Ipv4Header;
use dataplane_symbex::term::eval;
use dataplane_symbex::{explore, Assignment, CrashKind, EngineConfig, Exploration, SegmentOutcome};
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

/// Hold every seeded packet's concrete run against the one segment whose
/// constraint it satisfies.
fn check_against_interpreter(name: &str, program: &Program, exploration: &Exploration, seed: u64) {
    let mut rng = Rng(seed);
    for _ in 0..PACKETS {
        let bytes = packet(&mut rng);
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
        let mut concrete = bytes.clone();
        let run = execute(
            program,
            &mut concrete,
            &mut ElementState::for_program(program),
            &ExecLimits::default(),
        )
        .expect("the interpreter runs every covered program to an outcome");
        assert!(
            same_outcome(&segment.outcome, &run.outcome),
            "{name}: packet {bytes:02x?} follows a segment ending in {:?}, runs to {:?}",
            segment.outcome,
            run.outcome
        );
        assert!(
            segment.instructions >= run.instructions,
            "{name}: packet {bytes:02x?} runs {} instructions on a segment counting {}",
            run.instructions,
            segment.instructions
        );
    }
}

#[test]
fn unrolled_preset_segments_predict_the_interpreter() {
    let mut seen = BTreeSet::new();
    let mut covered = BTreeSet::new();
    for (name, program) in common::preset_elements() {
        if !program.data_structures.is_empty() || !seen.insert(format!("{program:?}")) {
            continue;
        }
        let Ok(exploration) = explore(&program, &EngineConfig::monolithic(5_000, 200_000)) else {
            continue;
        };
        check_against_interpreter(&name, &program, &exploration, seen.len() as u64);
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
    check_against_interpreter("nested", &program, &exploration, 7);
}

//! Pinned `(outcome, instructions)` pairs for a crash at every crash site
//! of the concrete interpreter, and the instruction-limit boundary.
//!
//! The instruction count is the paper's bounded-execution metric: each
//! executed statement and each evaluated expression node counts as one,
//! charged in pre-order as the node is entered. A crash therefore reports
//! every node entered up to and including the crashing one — its
//! ancestors too, even though they never finish. The numbers below were
//! read off the tree-walking interpreter and hold for any interpreter that
//! keeps that rule.

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::interp::{execute, ElementState, ExecError, ExecLimits, ExecResult};
use dataplane_ir::program::{CrashReason, Outcome, Program};

/// One crash site: a program, the packet that drives it into the crash,
/// and the pinned result.
struct Case {
    name: &'static str,
    program: Program,
    packet: Vec<u8>,
    outcome: Outcome,
    instructions: u64,
}

fn crashed(reason: CrashReason) -> Outcome {
    Outcome::Crashed(reason)
}

fn run(program: &Program, packet: &[u8], max_instructions: u64) -> Result<ExecResult, ExecError> {
    let mut packet = packet.to_vec();
    let mut state = ElementState::for_program(program);
    execute(
        program,
        &mut packet,
        &mut state,
        &ExecLimits { max_instructions },
    )
}

/// A crash two statements deep (inside an `If` inside a `Loop`) behind a
/// few plain statements, so the count covers finished statements, the
/// enclosing compound statements and the crashing statement's ancestors.
fn nested(name: &str, crash: impl FnOnce(&mut ProgramBuilder, &mut Block)) -> Program {
    let mut pb = ProgramBuilder::new(name, 1);
    let i = pb.local("i", 8);
    let mut inner = Block::new();
    crash(&mut pb, &mut inner);
    let mut b = Block::new();
    b.nop();
    b.assign(i, c(8, 0));
    b.loop_bounded(
        4,
        ult(l(i), c(8, 3)),
        Block::with(|body| {
            body.if_then(eq(l(i), c(8, 1)), inner);
            body.assign(i, add(l(i), c(8, 1)));
        }),
    );
    b.emit(0);
    pb.finish(b).unwrap()
}

fn cases() -> Vec<Case> {
    let oob = |offset, width_bytes, packet_len| {
        crashed(CrashReason::PacketOutOfBounds {
            offset,
            width_bytes,
            packet_len,
        })
    };
    vec![
        Case {
            name: "load in assign",
            program: nested("LoadAssign", |pb, b| {
                let x = pb.local("x", 8);
                b.assign(x, add(c(8, 1), xor(pkt(6, 1), c(8, 3))));
            }),
            packet: vec![0; 4],
            outcome: oob(6, 1, 4),
            instructions: 28,
        },
        Case {
            name: "load in if condition",
            program: nested("LoadIf", |_, b| {
                b.if_else(
                    eq(add(pkt(2, 2), c(16, 1)), c(16, 0)),
                    Block::with(|t| {
                        t.drop_packet();
                    }),
                    Block::with(|e| {
                        e.nop();
                    }),
                );
            }),
            packet: vec![0; 3],
            outcome: oob(2, 2, 3),
            instructions: 27,
        },
        Case {
            name: "load in select condition",
            program: nested("LoadSelectCond", |pb, b| {
                let x = pb.local("x", 8);
                b.assign(
                    x,
                    add(c(8, 1), select(ult(pkt(5, 1), c(8, 9)), c(8, 1), c(8, 2))),
                );
            }),
            packet: vec![0; 5],
            outcome: oob(5, 1, 5),
            instructions: 29,
        },
        Case {
            name: "load in select arm",
            program: nested("LoadSelectArm", |pb, b| {
                let x = pb.local("x", 8);
                b.assign(
                    x,
                    add(
                        c(8, 1),
                        select(eq(pkt(0, 1), c(8, 0)), not(pkt(7, 1)), c(8, 2)),
                    ),
                );
            }),
            packet: vec![0; 5],
            outcome: oob(7, 1, 5),
            instructions: 33,
        },
        Case {
            name: "load in packet store",
            program: nested("LoadStore", |_, b| {
                b.pkt_store(0, 1, pkt(9, 1));
            }),
            packet: vec![0; 2],
            outcome: oob(9, 1, 2),
            instructions: 26,
        },
        Case {
            name: "packet store out of bounds",
            program: nested("Store", |_, b| {
                b.pkt_store(3, 2, add(pkt(0, 2), c(16, 7)));
            }),
            packet: vec![0; 4],
            outcome: oob(3, 2, 4),
            instructions: 28,
        },
        Case {
            name: "ds read key out of range",
            program: nested("DsRead", |pb, b| {
                let t = pb.static_array("table", 4, 8, 16, 0);
                let x = pb.local("x", 16);
                b.assign(x, add(ds_read(t, add(pkt(0, 1), c(8, 4))), c(16, 1)));
            }),
            packet: vec![1; 2],
            outcome: crashed(CrashReason::DsKeyOutOfRange {
                ds: "table".into(),
                key: 5,
                size: 4,
            }),
            instructions: 29,
        },
        Case {
            name: "ds write key out of range",
            program: nested("DsWrite", |pb, b| {
                let t = pb.private_array("counts", 3, 8, 32, 0);
                b.ds_write(t, pkt(0, 1), c(32, 1));
            }),
            packet: vec![7; 2],
            outcome: crashed(CrashReason::DsKeyOutOfRange {
                ds: "counts".into(),
                key: 7,
                size: 3,
            }),
            instructions: 26,
        },
        Case {
            name: "udiv by zero",
            program: nested("UDiv", |pb, b| {
                let x = pb.local("x", 8);
                b.assign(x, add(udiv(c(8, 10), pkt(0, 1)), c(8, 1)));
            }),
            packet: vec![0; 2],
            outcome: crashed(CrashReason::DivisionByZero),
            instructions: 28,
        },
        Case {
            name: "urem by zero",
            program: nested("URem", |pb, b| {
                let x = pb.local("x", 8);
                b.if_then(
                    eq(urem(pkt(1, 1), pkt(0, 1)), c(8, 0)),
                    Block::with(|t| {
                        t.assign(x, c(8, 1));
                    }),
                );
            }),
            packet: vec![0; 2],
            outcome: crashed(CrashReason::DivisionByZero),
            instructions: 29,
        },
        Case {
            name: "loop bound exceeded",
            program: {
                let mut pb = ProgramBuilder::new("Loop", 1);
                let i = pb.local("i", 8);
                let mut b = Block::new();
                b.nop();
                b.loop_bounded(
                    3,
                    ult(l(i), pkt(0, 1)),
                    Block::with(|body| {
                        body.assign(i, add(l(i), c(8, 1)));
                    }),
                );
                b.emit(0);
                pb.finish(b).unwrap()
            },
            packet: vec![10, 0],
            outcome: crashed(CrashReason::LoopBoundExceeded { max_iters: 3 }),
            instructions: 30,
        },
        Case {
            name: "strip underflow",
            program: nested("Strip", |_, b| {
                b.strip_front(9);
            }),
            packet: vec![0; 8],
            outcome: crashed(CrashReason::StripUnderflow {
                strip: 9,
                packet_len: 8,
            }),
            instructions: 23,
        },
        Case {
            name: "failed assert",
            program: nested("Assert", |_, b| {
                b.assert(ne(pkt(0, 1), c(8, 0)), "first byte set");
            }),
            packet: vec![0; 2],
            outcome: crashed(CrashReason::AssertionFailed {
                message: "first byte set".into(),
            }),
            instructions: 27,
        },
        Case {
            name: "abort",
            program: nested("Abort", |_, b| {
                b.abort("unreachable");
            }),
            packet: vec![0; 2],
            outcome: crashed(CrashReason::Aborted {
                message: "unreachable".into(),
            }),
            instructions: 23,
        },
    ]
}

#[test]
fn every_crash_site_reports_the_pre_order_count() {
    let mut wrong = Vec::new();
    for case in cases() {
        let got = run(&case.program, &case.packet, u64::MAX).expect("no limit");
        if (&got.outcome, got.instructions) != (&case.outcome, case.instructions) {
            wrong.push(format!(
                "{}: got ({:?}, {}), pinned ({:?}, {})",
                case.name, got.outcome, got.instructions, case.outcome, case.instructions
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn a_limit_one_below_a_crash_count_is_an_error_and_the_count_itself_is_not() {
    for case in cases() {
        let n = case.instructions;
        let below = run(&case.program, &case.packet, n - 1);
        assert_eq!(
            below,
            Err(ExecError::InstructionLimitExceeded { limit: n - 1 }),
            "{}",
            case.name
        );
        let at = run(&case.program, &case.packet, n).expect(case.name);
        assert_eq!(
            (at.outcome, at.instructions),
            (case.outcome, n),
            "{}",
            case.name
        );
    }
}

#[test]
fn normal_endings_count_every_node_and_meet_the_limit_boundary() {
    // One program, three endings: emit from a loop, drop, and falling off
    // the end (an implicit drop that charges nothing).
    let mut pb = ProgramBuilder::new("Endings", 1);
    let i = pb.local("i", 8);
    let sum = pb.local("sum", 16);
    let mut b = Block::new();
    b.loop_bounded(
        8,
        ult(l(i), pkt(0, 1)),
        Block::with(|body| {
            body.assign(sum, add(l(sum), zext(l(i), 16)));
            body.assign(i, add(l(i), c(8, 1)));
        }),
    );
    b.if_else(
        eq(pkt(1, 1), c(8, 0)),
        Block::with(|t| {
            t.pkt_store(2, 2, l(sum));
            t.emit(0);
        }),
        Block::with(|e| {
            e.if_then(
                eq(pkt(1, 1), c(8, 1)),
                Block::with(|d| {
                    d.drop_packet();
                }),
            );
        }),
    );
    let program = pb.finish(b).unwrap();
    let pinned = [
        (vec![3, 0, 0, 0], Outcome::Emitted(0), 53),
        (vec![5, 1, 0, 0], Outcome::Dropped, 81),
        (vec![0, 2, 0, 0], Outcome::Dropped, 15),
    ];
    for (packet, outcome, n) in pinned {
        let got = run(&program, &packet, u64::MAX).unwrap();
        assert_eq!(
            (&got.outcome, got.instructions),
            (&outcome, n),
            "{packet:?}"
        );
        assert!(run(&program, &packet, n - 1).is_err(), "{packet:?}");
        assert_eq!(run(&program, &packet, n).unwrap().instructions, n);
    }
}

//! Soundness of the interval-only feasibility pre-filter, and agreement of
//! the solver's entry points on one decision procedure.
//!
//! `interval_infeasible` runs only the cheap analytic prefix of the full
//! decision procedure, so its `true` verdicts must never contradict the
//! full solver: whenever the pre-filter declares a conjunction infeasible,
//! `Solver::check` must return `Unsat` on the same conjunction. The
//! property tests below drive both through randomly built constraint
//! conjunctions over packet bytes, and hold `Solver::refutes` (the refuting
//! half on its own) and `Solver::decide` (which names the deciding stage)
//! to the same answers.

use dataplane_ir::value::BitVec;
use dataplane_ir::BinOp;
use dataplane_symbex::term::{self, Term};
use dataplane_symbex::{interval_infeasible, CancelToken, Solver, SolverStage, TermRef};
use proptest::prelude::*;
use std::sync::Arc;

/// Build one comparison conjunct from 64 random bits: a packet-byte leaf
/// (possibly wrapped in an add or a mask) compared against a constant.
fn conjunct(p: u64) -> TermRef {
    let cmp = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::ULt,
        BinOp::ULe,
        BinOp::UGt,
        BinOp::UGe,
        BinOp::SLt,
        BinOp::SLe,
    ][(p % 8) as usize];
    let leaf: TermRef = Arc::new(Term::PacketByte(((p >> 3) % 3) as i64));
    let mixer = term::constant(BitVec::new(8, (p >> 8) & 0xff));
    let lhs = match (p >> 5) % 3 {
        0 => leaf,
        1 => term::binary(BinOp::Add, leaf, mixer),
        _ => term::binary(BinOp::And, leaf, mixer),
    };
    let rhs = term::constant(BitVec::new(8, (p >> 16) & 0xff));
    term::binary(cmp, lhs, rhs)
}

/// Build one conjunct biased towards the arithmetic pre-filter's domain:
/// mask/xor/shift/add-sub combinations compared against constants, and
/// offset comparisons between two leaves (`x + a <= y + b`) that feed the
/// difference-bound pass.
fn arith_conjunct(p: u64) -> TermRef {
    let cmp = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::ULt,
        BinOp::ULe,
        BinOp::UGt,
        BinOp::UGe,
    ][(p % 6) as usize];
    let x: TermRef = Arc::new(Term::PacketByte(((p >> 3) % 3) as i64));
    let y: TermRef = Arc::new(Term::PacketByte(((p >> 5) % 3) as i64));
    let c1 = term::constant(BitVec::new(8, (p >> 8) & 0xff));
    let c2 = term::constant(BitVec::new(8, (p >> 16) & 0xff));
    let shift = term::constant(BitVec::new(8, (p >> 24) & 0x7));
    let lhs = match (p >> 27) % 7 {
        0 => term::binary(BinOp::And, x, c1),
        1 => term::binary(BinOp::Or, x, c1),
        2 => term::binary(BinOp::Xor, x, c1),
        3 => term::binary(BinOp::Add, x, c1),
        4 => term::binary(BinOp::Sub, x, c1),
        5 => term::binary(BinOp::Shl, x, shift),
        _ => term::binary(BinOp::LShr, x, shift),
    };
    let rhs = match (p >> 30) % 3 {
        0 => c2,
        1 => y,
        _ => term::binary(BinOp::Add, y, c2),
    };
    term::binary(cmp, lhs, rhs)
}

/// The three entry points are one procedure: `refutes` reports a refutation
/// exactly when `check` answers `Unsat`, and names the analytic prefix
/// exactly when the pre-filter holds.
fn assert_one_procedure(constraints: &[TermRef]) {
    let solver = Solver::new();
    let refuted = solver.refutes(constraints);
    assert_eq!(
        refuted.is_some(),
        solver.check(constraints).is_unsat(),
        "refutes and check disagree on {constraints:?}"
    );
    assert_eq!(
        interval_infeasible(constraints),
        refuted == Some(SolverStage::Prefix),
        "the pre-filter is not the first half of refutes on {constraints:?}"
    );
}

/// `decide` on a hand-written conjunction: the verdict `check` gives, reached
/// at `stage`.
fn assert_decided_at(constraints: &[TermRef], stage: SolverStage) {
    let decision = Solver::new().decide(constraints, &[], &CancelToken::new());
    assert_eq!(decision.stage, stage);
    assert_eq!(decision.result, Solver::new().check(constraints));
}

proptest! {
    /// The pre-filter's `true` verdict always agrees with the full solver.
    #[test]
    fn prefilter_never_contradicts_full_solver(
        picks in proptest::collection::vec(any::<u64>(), 1..6)
    ) {
        let constraints: Vec<TermRef> = picks.iter().map(|&p| conjunct(p)).collect();
        if interval_infeasible(&constraints) {
            prop_assert!(
                Solver::new().check(&constraints).is_unsat(),
                "pre-filter declared a solver-satisfiable conjunction infeasible: {constraints:?}"
            );
        }
        assert_one_procedure(&constraints);
    }

    /// Same soundness property over the arithmetic fragment the
    /// known-bits/difference-bound passes were built for.
    #[test]
    fn arithmetic_prefilter_never_contradicts_full_solver(
        picks in proptest::collection::vec(any::<u64>(), 1..6)
    ) {
        let constraints: Vec<TermRef> = picks.iter().map(|&p| arith_conjunct(p)).collect();
        if interval_infeasible(&constraints) {
            prop_assert!(
                Solver::new().check(&constraints).is_unsat(),
                "pre-filter declared a solver-satisfiable conjunction infeasible: {constraints:?}"
            );
        }
        assert_one_procedure(&constraints);
    }
}

#[test]
fn prefilter_catches_disjoint_intervals() {
    let byte: TermRef = Arc::new(Term::PacketByte(0));
    let constraints = vec![
        term::binary(BinOp::ULt, byte.clone(), term::constant(BitVec::new(8, 3))),
        term::binary(BinOp::UGt, byte, term::constant(BitVec::new(8, 5))),
    ];
    assert!(interval_infeasible(&constraints));
    assert!(Solver::new().check(&constraints).is_unsat());
    assert_decided_at(&constraints, SolverStage::Prefix);
}

#[test]
fn prefilter_catches_bitmask_congruence_conflict() {
    // (x & 1) == 0 forces bit 0 of x to 0; (x | 0xfe) == 0xff forces it to
    // 1. Neither intervals nor contradiction pairs see this — the
    // known-bits pass must.
    let x: TermRef = Arc::new(Term::PacketByte(0));
    let constraints = vec![
        term::binary(
            BinOp::Eq,
            term::binary(BinOp::And, x.clone(), term::constant(BitVec::new(8, 1))),
            term::constant(BitVec::new(8, 0)),
        ),
        term::binary(
            BinOp::Eq,
            term::binary(BinOp::Or, x, term::constant(BitVec::new(8, 0xfe))),
            term::constant(BitVec::new(8, 0xff)),
        ),
    ];
    assert!(interval_infeasible(&constraints));
    assert!(Solver::new().check(&constraints).is_unsat());
    assert_decided_at(&constraints, SolverStage::Prefix);
}

#[test]
fn prefilter_catches_difference_bound_cycle() {
    // x + 1 <= y and y + 1 <= x cannot both hold; both terms stay
    // full-range individually, so only the difference-bound pass sees it.
    let x: TermRef = Arc::new(Term::PacketByte(0));
    let y: TermRef = Arc::new(Term::PacketByte(1));
    let lo =
        |t: &TermRef| term::binary(BinOp::ULe, t.clone(), term::constant(BitVec::new(8, 0x7f)));
    let constraints = vec![
        // Keep both bytes below 0x80 so the +1 offsets provably never wrap.
        lo(&x),
        lo(&y),
        term::binary(
            BinOp::ULe,
            term::binary(BinOp::Add, x.clone(), term::constant(BitVec::new(8, 1))),
            y.clone(),
        ),
        term::binary(
            BinOp::ULe,
            term::binary(BinOp::Add, y, term::constant(BitVec::new(8, 1))),
            x,
        ),
    ];
    assert!(interval_infeasible(&constraints));
    assert!(Solver::new().check(&constraints).is_unsat());
    assert_decided_at(&constraints, SolverStage::Prefix);
}

#[test]
fn prefilter_passes_satisfiable_conjunctions() {
    let byte: TermRef = Arc::new(Term::PacketByte(0));
    let constraints = vec![
        term::binary(BinOp::UGe, byte.clone(), term::constant(BitVec::new(8, 3))),
        term::binary(BinOp::ULe, byte, term::constant(BitVec::new(8, 5))),
    ];
    assert!(!interval_infeasible(&constraints));
    assert!(Solver::new().check(&constraints).is_sat());
    assert_decided_at(&constraints, SolverStage::Search);
}

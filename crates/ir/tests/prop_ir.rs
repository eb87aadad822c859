//! Property-based tests for the IR value semantics and the concrete
//! interpreter.

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::interp::{eval_binop, eval_unop, execute_default, ElementState};
use dataplane_ir::program::{CrashReason, Outcome};
use dataplane_ir::value::BitVec;
use dataplane_ir::{BinOp, CastKind, Expr, UnOp};
use proptest::prelude::*;

/// Run `r := op(operands read from the packet)` and return what the
/// program stored (the result zero-extended into packet bytes 16..24), or
/// the outcome when it did not emit. Operand `i` is bytes `8i..8i+8`
/// resized to its width, so the operator sees exactly the raw values the
/// test passes in.
fn one_operator(result_width: u8, expr: Expr, a: u64, b: u64) -> Result<u64, Outcome> {
    let mut pb = ProgramBuilder::new("OneOp", 1);
    let r = pb.local("r", result_width);
    let mut body = Block::new();
    body.assign(r, expr);
    body.pkt_store(16, 8, resize(l(r), 64));
    body.emit(0);
    let program = pb.finish(body).unwrap();
    let mut packet = [a.to_be_bytes(), b.to_be_bytes(), [0; 8]].concat();
    let mut state = ElementState::for_program(&program);
    let result = execute_default(&program, &mut packet, &mut state).unwrap();
    match result.outcome {
        Outcome::Emitted(0) => Ok(u64::from_be_bytes(packet[16..24].try_into().unwrap())),
        other => Err(other),
    }
}

/// Operand `i` of a one-operator program, at `width` bits.
fn operand(i: u32, width: u8) -> Expr {
    resize(pkt(8 * i, 8), width)
}

/// A raw operand value biased toward the edges that arithmetic gets
/// wrong: zero divisors, shift amounts around the width, all-ones.
fn edge(kind: u8, v: u64) -> u64 {
    match kind {
        0 => v,
        1 => v % 70,
        2 => 0,
        _ => u64::MAX,
    }
}

proptest! {
    /// Addition over bit-vectors agrees with wrapping machine arithmetic at
    /// every width.
    #[test]
    fn add_matches_wrapping(width in 1u8..=64, a in any::<u64>(), b in any::<u64>()) {
        let x = BitVec::new(width, a);
        let y = BitVec::new(width, b);
        let expected = x.as_u64().wrapping_add(y.as_u64()) & BitVec::max_unsigned(width);
        prop_assert_eq!(x.add(y).as_u64(), expected);
    }

    /// Subtraction then addition round-trips.
    #[test]
    fn sub_add_roundtrip(width in 1u8..=64, a in any::<u64>(), b in any::<u64>()) {
        let x = BitVec::new(width, a);
        let y = BitVec::new(width, b);
        prop_assert_eq!(x.sub(y).add(y), x);
    }

    /// Unsigned comparison is a total order consistent with the raw values.
    #[test]
    fn comparison_consistent(width in 1u8..=64, a in any::<u64>(), b in any::<u64>()) {
        let x = BitVec::new(width, a);
        let y = BitVec::new(width, b);
        prop_assert_eq!(x.ult(y).is_true(), x.as_u64() < y.as_u64());
        prop_assert_eq!(x.ule(y).is_true(), x.as_u64() <= y.as_u64());
        prop_assert_eq!(x.eq_bv(y).is_true(), x.as_u64() == y.as_u64());
        prop_assert_eq!(x.slt(y).is_true(), x.as_i64() < y.as_i64());
    }

    /// Zero/sign extension preserves the numeric value (unsigned/signed
    /// respectively) and truncation keeps the low bits.
    #[test]
    fn extension_preserves_value(width in 1u8..=32, extra in 0u8..=32, v in any::<u64>()) {
        let x = BitVec::new(width, v);
        let wide = width + extra;
        prop_assert_eq!(x.zext(wide).as_u64(), x.as_u64());
        prop_assert_eq!(x.sext(wide).as_i64(), x.as_i64());
        prop_assert_eq!(x.zext(wide).trunc(width), x);
    }

    /// De Morgan's law holds for bitwise operations.
    #[test]
    fn de_morgan(width in 1u8..=64, a in any::<u64>(), b in any::<u64>()) {
        let x = BitVec::new(width, a);
        let y = BitVec::new(width, b);
        prop_assert_eq!(x.and(y).not(), x.not().or(y.not()));
        prop_assert_eq!(x.or(y).not(), x.not().and(y.not()));
    }

    /// `eval_binop` never panics on arbitrary operands of equal width and
    /// returns a value of the correct width.
    #[test]
    fn eval_binop_total(width in 1u8..=64, a in any::<u64>(), b in any::<u64>(), op_idx in 0usize..21) {
        use BinOp::*;
        let ops = [Add, Sub, Mul, UDiv, URem, And, Or, Xor, Shl, LShr, AShr,
                   Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, BoolAnd, BoolOr];
        let op = ops[op_idx];
        let (x, y) = if op.is_boolean() {
            (BitVec::new(1, a), BitVec::new(1, b))
        } else {
            (BitVec::new(width, a), BitVec::new(width, b))
        };
        if let Some(r) = eval_binop(op, x, y) {
            let expected_width = if op.is_comparison() || op.is_boolean() { 1 } else { x.width() };
            prop_assert_eq!(r.width(), expected_width);
        } else {
            prop_assert!(matches!(op, UDiv | URem));
            prop_assert!(y.is_zero());
        }
    }

    /// The interpreter is deterministic: running the same program on the same
    /// packet twice gives identical outcomes, instruction counts, and packet
    /// contents.
    #[test]
    fn interpreter_deterministic(bytes in proptest::collection::vec(any::<u8>(), 4..64)) {
        let mut pb = ProgramBuilder::new("Det", 2);
        let x = pb.local("x", 16);
        let mut b = Block::new();
        b.assign(x, pkt(0, 2));
        b.if_else(
            ult(l(x), c(16, 0x8000)),
            Block::with(|bb| { bb.pkt_store(2, 2, add(l(x), c(16, 1))); bb.emit(0); }),
            Block::with(|bb| { bb.emit(1); }),
        );
        let prog = pb.finish(b).unwrap();

        let mut p1 = bytes.clone();
        let mut p2 = bytes.clone();
        let mut s1 = ElementState::for_program(&prog);
        let mut s2 = ElementState::for_program(&prog);
        let r1 = execute_default(&prog, &mut p1, &mut s1).unwrap();
        let r2 = execute_default(&prog, &mut p2, &mut s2).unwrap();
        prop_assert_eq!(r1.outcome.clone(), r2.outcome);
        prop_assert_eq!(r1.instructions, r2.instructions);
        prop_assert_eq!(p1, p2);
    }

    /// A program with no assertion, loop, division, or out-of-bounds access
    /// never crashes, whatever the packet contents.
    #[test]
    fn straightline_program_never_crashes(bytes in proptest::collection::vec(any::<u8>(), 8..64)) {
        let mut pb = ProgramBuilder::new("Safe", 1);
        let x = pb.local("x", 32);
        let mut b = Block::new();
        b.assign(x, pkt(0, 4));
        b.if_else(
            eq(and(l(x), c(32, 1)), c(32, 1)),
            Block::with(|bb| { bb.pkt_store(4, 4, xor(l(x), c(32, 0xffff_ffff))); bb.emit(0); }),
            Block::with(|bb| { bb.drop_packet(); }),
        );
        let prog = pb.finish(b).unwrap();
        let mut p = bytes.clone();
        let mut s = ElementState::for_program(&prog);
        let r = execute_default(&prog, &mut p, &mut s).unwrap();
        prop_assert!(!r.outcome.is_crash());
        prop_assert!(matches!(r.outcome, Outcome::Emitted(0) | Outcome::Dropped));
    }
}

proptest! {
    // Enough cases to meet every operator at most widths.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A one-operator program computes what `eval_binop`, `eval_unop` and
    /// the `BitVec` casts compute, at every width: the interpreter's own
    /// arithmetic has these as its oracle.
    #[test]
    fn one_operator_programs_match_the_value_semantics(
        width in 1u8..=64,
        target in 1u8..=64,
        a_kind in 0u8..4,
        a in any::<u64>(),
        b_kind in 0u8..4,
        b in any::<u64>(),
        op_idx in 0usize..21,
        un_idx in 0usize..3,
        cast_idx in 0usize..4,
    ) {
        use BinOp::*;
        let (a, b) = (edge(a_kind, a), edge(b_kind, b));
        let ops = [Add, Sub, Mul, UDiv, URem, And, Or, Xor, Shl, LShr, AShr,
                   Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe, BoolAnd, BoolOr];
        let op = ops[op_idx];
        let w = if op.is_boolean() { 1 } else { width };
        let (x, y) = (BitVec::new(w, a), BitVec::new(w, b));
        let expr = Expr::Binary {
            op,
            lhs: Box::new(operand(0, w)),
            rhs: Box::new(operand(1, w)),
        };
        let expected = eval_binop(op, x, y);
        let result_width = expected.map_or(w, |v| v.width());
        let got = one_operator(result_width, expr, a, b);
        match expected {
            Some(v) => prop_assert_eq!(got, Ok(v.as_u64()), "{:?} at width {}", op, w),
            None => prop_assert_eq!(got, Err(Outcome::Crashed(CrashReason::DivisionByZero))),
        }

        let un = [UnOp::Not, UnOp::Neg, UnOp::LogicalNot][un_idx];
        let w = if un == UnOp::LogicalNot { 1 } else { width };
        let expr = Expr::Unary { op: un, arg: Box::new(operand(0, w)) };
        let expected = eval_unop(un, BitVec::new(w, a));
        prop_assert_eq!(one_operator(w, expr, a, b), Ok(expected.as_u64()), "{:?} at width {}", un, w);

        let kind = [CastKind::ZExt, CastKind::SExt, CastKind::Trunc, CastKind::Resize][cast_idx];
        let (from, to) = match kind {
            CastKind::ZExt | CastKind::SExt => (width.min(target), width.max(target)),
            CastKind::Trunc => (width.max(target), width.min(target)),
            CastKind::Resize => (width, target),
        };
        let x = BitVec::new(from, a);
        let expected = match kind {
            CastKind::ZExt => x.zext(to),
            CastKind::SExt => x.sext(to),
            CastKind::Trunc => x.trunc(to),
            CastKind::Resize => x.resize(to),
        };
        let expr = Expr::Cast { kind, width: to, arg: Box::new(operand(0, from)) };
        prop_assert_eq!(one_operator(to, expr, a, b), Ok(expected.as_u64()), "{:?} {} -> {}", kind, from, to);
    }
}

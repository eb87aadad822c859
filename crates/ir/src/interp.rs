//! Concrete execution of element programs.
//!
//! [`execute`] runs a program against a real packet and the element's
//! concrete state, producing an [`Outcome`] and an instruction count. The
//! instruction count is the metric behind the paper's "bounded number of
//! instructions" property: each executed statement and each evaluated
//! expression node counts as one instruction. The program runs as
//! [`crate::lower::Lowered`] code; callers that run many packets lower once
//! and call [`crate::lower::Lowered::run`] themselves.

use crate::expr::{BinOp, DsId, UnOp};
use crate::lower::{Lowered, Scratch};
use crate::program::{CrashReason, DsClass, DsDecl, DsKind, Outcome, Program};
use crate::value::BitVec;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Concrete contents of one data structure.
#[derive(Clone, Debug, PartialEq, Eq)]
enum StoreData {
    /// Dense pre-allocated array.
    Array(Vec<u64>),
    /// Sparse map; absent keys read as the declared default.
    Map(HashMap<u64, u64, BuildHasherDefault<KeyHasher>>),
}

/// The map stores' hasher: a fixed multiply-mix of the `u64` key, in place
/// of SipHash, which cost a large share of a map access. Nothing reads a map
/// in hash order ([`ConcreteStore::iter_populated`] sorts). The keys are
/// packet fields, and the packets a model runs come from seeded generators
/// or one replayed witness per fresh state, so no peer can choose a stream
/// of colliding keys.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mixed = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Fold the high half down: the table indexes by the low bits.
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A concrete key/value store backing one declared data structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteStore {
    decl: DsDecl,
    data: StoreData,
}

impl ConcreteStore {
    /// Create an empty store for a declaration: arrays are filled with the
    /// default value, maps start empty.
    pub fn new(decl: DsDecl) -> Self {
        let data = match decl.kind {
            DsKind::Array { size } => StoreData::Array(vec![decl.default; size as usize]),
            DsKind::Map => StoreData::Map(HashMap::default()),
        };
        ConcreteStore { decl, data }
    }

    /// The crash of an access to `key` outside an array's bounds.
    pub(crate) fn out_of_range(&self, key: u64) -> CrashReason {
        let size = match self.decl.kind {
            DsKind::Array { size } => size,
            DsKind::Map => u64::MAX,
        };
        CrashReason::DsKeyOutOfRange {
            ds: self.decl.name.clone(),
            key,
            size,
        }
    }

    /// The declaration this store implements.
    pub fn decl(&self) -> &DsDecl {
        &self.decl
    }

    /// Read the value under `key`. Returns `None` when the key is outside an
    /// array's bounds (which the interpreter converts into a crash).
    pub fn read(&self, key: u64) -> Option<BitVec> {
        self.get(key)
            .map(|raw| BitVec::new(self.decl.value_width, raw))
    }

    /// The raw value under `key`; `None` outside an array's bounds.
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        match &self.data {
            StoreData::Array(v) => v.get(key as usize).copied(),
            StoreData::Map(m) => Some(m.get(&key).copied().unwrap_or(self.decl.default)),
        }
    }

    /// Write `value` under `key`. Returns `false` when the key is outside an
    /// array's bounds.
    pub fn write(&mut self, key: u64, value: BitVec) -> bool {
        self.set(key, value.resize(self.decl.value_width).as_u64())
    }

    /// Store `raw`, a value of the declared value width, under `key`.
    /// Returns `false` when the key is outside an array's bounds.
    pub(crate) fn set(&mut self, key: u64, raw: u64) -> bool {
        match &mut self.data {
            StoreData::Array(v) => match v.get_mut(key as usize) {
                Some(slot) => {
                    *slot = raw;
                    true
                }
                None => false,
            },
            StoreData::Map(m) => {
                m.insert(key, raw);
                true
            }
        }
    }

    /// Number of keys that currently hold a non-default value (arrays) or
    /// have ever been written (maps). Used by tests and by element statistics.
    pub fn populated_entries(&self) -> usize {
        match &self.data {
            StoreData::Array(v) => v.iter().filter(|&&x| x != self.decl.default).count(),
            StoreData::Map(m) => m.len(),
        }
    }

    /// Reset the store to its initial (all-default / empty) contents.
    pub fn clear(&mut self) {
        match &mut self.data {
            StoreData::Array(v) => v.iter_mut().for_each(|x| *x = self.decl.default),
            StoreData::Map(m) => m.clear(),
        }
    }

    /// Iterate over every populated `(key, value)` pair.
    pub fn iter_populated(&self) -> Vec<(u64, u64)> {
        match &self.data {
            StoreData::Array(v) => v
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != self.decl.default)
                .map(|(k, &x)| (k as u64, x))
                .collect(),
            StoreData::Map(m) => {
                let mut out: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

/// The concrete state of one element instance: one store per declared data
/// structure, in declaration order.
#[derive(Clone, Debug, Default)]
pub struct ElementState {
    pub(crate) stores: Vec<ConcreteStore>,
}

impl ElementState {
    /// Build the initial state for a program (arrays filled with defaults,
    /// maps empty).
    pub fn for_program(program: &Program) -> Self {
        ElementState {
            stores: program
                .data_structures
                .iter()
                .cloned()
                .map(ConcreteStore::new)
                .collect(),
        }
    }

    /// Access a store immutably.
    pub fn store(&self, ds: DsId) -> Option<&ConcreteStore> {
        self.stores.get(ds.0 as usize)
    }

    /// Access a store mutably (e.g. to install a forwarding table into static
    /// state before running the pipeline).
    pub fn store_mut(&mut self, ds: DsId) -> Option<&mut ConcreteStore> {
        self.stores.get_mut(ds.0 as usize)
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True if the element declares no data structures.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Reset all private state; static state is left untouched (it is
    /// configuration, not per-run state).
    pub fn reset_private(&mut self) {
        for s in &mut self.stores {
            if s.decl.class == DsClass::Private {
                s.clear();
            }
        }
    }
}

/// Execution limits, a safety net against genuinely unbounded programs (which
/// validation cannot fully exclude since loop bodies may be expensive).
#[derive(Clone, Copy, Debug)]
pub struct ExecLimits {
    /// Maximum number of instructions (statements + expression nodes) a single
    /// packet may consume before execution is aborted.
    pub max_instructions: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_instructions: 1_000_000,
        }
    }
}

/// The result of concretely executing one packet through one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// How processing ended.
    pub outcome: Outcome,
    /// Number of instructions executed (statements plus expression nodes).
    pub instructions: u64,
}

/// An error that prevents execution from producing an outcome at all.
#[allow(missing_docs)] // variant fields are self-describing
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The per-packet instruction limit was exceeded.
    InstructionLimitExceeded { limit: u64 },
    /// The program uses a local or data structure it does not declare
    /// (validation rejects such a program), or the state does not hold
    /// the data structures the program declares.
    MalformedProgram { detail: String },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InstructionLimitExceeded { limit } => {
                write!(f, "instruction limit of {limit} exceeded")
            }
            ExecError::MalformedProgram { detail } => write!(f, "malformed program: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute `program` on `packet` (which it may mutate) with the element state
/// `state` (which it may also mutate), under the given limits: lower the
/// program (see [`Lowered::new`] for what it must satisfy), then run it
/// once.
pub fn execute(
    program: &Program,
    packet: &mut Vec<u8>,
    state: &mut ElementState,
    limits: &ExecLimits,
) -> Result<ExecResult, ExecError> {
    Lowered::new(program)?.run(packet, state, limits, &mut Scratch::default())
}

/// Execute with default limits.
pub fn execute_default(
    program: &Program,
    packet: &mut Vec<u8>,
    state: &mut ElementState,
) -> Result<ExecResult, ExecError> {
    execute(program, packet, state, &ExecLimits::default())
}

/// Evaluate a binary operator on concrete values. Returns `None` for division
/// by zero. Exposed so the symbolic engine can constant-fold with identical
/// semantics.
pub fn eval_binop(op: BinOp, a: BitVec, b: BitVec) -> Option<BitVec> {
    Some(match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul(b),
        BinOp::UDiv => return a.udiv(b),
        BinOp::URem => return a.urem(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Shl => a.shl(b),
        BinOp::LShr => a.lshr(b),
        BinOp::AShr => a.ashr(b),
        BinOp::Eq => a.eq_bv(b),
        BinOp::Ne => a.ne_bv(b),
        BinOp::ULt => a.ult(b),
        BinOp::ULe => a.ule(b),
        BinOp::UGt => b.ult(a),
        BinOp::UGe => b.ule(a),
        BinOp::SLt => a.slt(b),
        BinOp::SLe => a.sle(b),
        BinOp::BoolAnd => BitVec::bool(a.is_true() && b.is_true()),
        BinOp::BoolOr => BitVec::bool(a.is_true() || b.is_true()),
    })
}

/// Evaluate a unary operator on a concrete value. Exposed for the symbolic
/// engine's constant folding.
pub fn eval_unop(op: UnOp, a: BitVec) -> BitVec {
    match op {
        UnOp::Not => a.not(),
        UnOp::Neg => a.neg(),
        UnOp::LogicalNot => BitVec::bool(a.is_zero()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Block, ProgramBuilder};
    use crate::expr::dsl::*;

    /// The toy program of Figure 1 in the paper:
    /// ```text
    /// out Program(in):
    ///   assert in >= 0        (signed)
    ///   if in < 10 then out <- 10 else out <- in
    ///   return out
    /// ```
    /// The 32-bit input is read from packet bytes 0..4; the output is written
    /// back to the same bytes and the packet emitted on port 0.
    pub fn figure1_program() -> Program {
        let mut pb = ProgramBuilder::new("Figure1", 1);
        let input = pb.local("in", 32);
        let out = pb.local("out", 32);
        let mut b = Block::new();
        b.assign(input, pkt(0, 4));
        b.assert(sle(c(32, 0), l(input)), "in >= 0");
        b.if_else(
            slt(l(input), c(32, 10)),
            Block::with(|bb| {
                bb.assign(out, c(32, 10));
            }),
            Block::with(|bb| {
                bb.assign(out, l(input));
            }),
        );
        b.pkt_store(0, 4, l(out));
        b.emit(0);
        pb.finish(b).unwrap()
    }

    fn run(prog: &Program, packet: &mut Vec<u8>) -> ExecResult {
        let mut state = ElementState::for_program(prog);
        execute_default(prog, packet, &mut state).unwrap()
    }

    #[test]
    fn figure1_small_input_returns_ten() {
        let prog = figure1_program();
        let mut pkt = vec![0, 0, 0, 3];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(&pkt[0..4], &[0, 0, 0, 10]);
    }

    #[test]
    fn figure1_large_input_returns_input() {
        let prog = figure1_program();
        let mut pkt = vec![0, 0, 0, 200];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(&pkt[0..4], &[0, 0, 0, 200]);
    }

    #[test]
    fn figure1_negative_input_crashes() {
        let prog = figure1_program();
        let mut pkt = vec![0xff, 0, 0, 0]; // sign bit set -> negative
        let r = run(&prog, &mut pkt);
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::AssertionFailed { .. })
        ));
    }

    #[test]
    fn instruction_count_is_positive_and_bounded() {
        let prog = figure1_program();
        let mut pkt = vec![0, 0, 0, 3];
        let r = run(&prog, &mut pkt);
        assert!(r.instructions > 0);
        assert!(r.instructions < 100);
    }

    #[test]
    fn packet_out_of_bounds_read_crashes() {
        let prog = figure1_program();
        let mut pkt = vec![0, 0]; // too short for a 4-byte read
        let r = run(&prog, &mut pkt);
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::PacketOutOfBounds { .. })
        ));
    }

    #[test]
    fn packet_store_out_of_bounds_crashes() {
        let mut pb = ProgramBuilder::new("T", 1);
        let _ = pb.local("x", 8);
        let mut b = Block::new();
        b.pkt_store(100, 1, c(8, 1));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 10];
        let r = run(&prog, &mut pkt);
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::PacketOutOfBounds { .. })
        ));
    }

    #[test]
    fn division_by_zero_crashes() {
        let mut pb = ProgramBuilder::new("T", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, udiv(c(8, 10), pkt(0, 1)));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Crashed(CrashReason::DivisionByZero));
        let mut pkt = vec![2u8, 0, 0, 0];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Emitted(0));
    }

    #[test]
    fn loop_bound_exceeded_crashes() {
        let mut pb = ProgramBuilder::new("T", 1);
        let i = pb.local("i", 8);
        let mut b = Block::new();
        // Condition is always true; bound is 3.
        b.loop_bounded(
            3,
            cbool(true),
            Block::with(|bb| {
                bb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let r = run(&prog, &mut pkt);
        assert_eq!(
            r.outcome,
            Outcome::Crashed(CrashReason::LoopBoundExceeded { max_iters: 3 })
        );
    }

    #[test]
    fn bounded_loop_terminates_normally() {
        let mut pb = ProgramBuilder::new("T", 1);
        let i = pb.local("i", 8);
        let sum = pb.local("sum", 8);
        let mut b = Block::new();
        b.loop_bounded(
            10,
            ult(l(i), c(8, 5)),
            Block::with(|bb| {
                bb.assign(sum, add(l(sum), l(i)));
                bb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.pkt_store(0, 1, l(sum));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(pkt[0], 1 + 2 + 3 + 4);
    }

    #[test]
    fn falling_off_the_end_drops() {
        let mut pb = ProgramBuilder::new("T", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, c(8, 1));
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Dropped);
    }

    #[test]
    fn ds_array_read_write_and_bounds() {
        let mut pb = ProgramBuilder::new("T", 1);
        let t = pb.private_array("t", 4, 16, 32, 7);
        let x = pb.local("x", 32);
        let mut b = Block::new();
        b.ds_write(t, c(16, 2), c(32, 99));
        b.assign(x, ds_read(t, c(16, 2)));
        b.pkt_store(0, 4, l(x));
        b.assign(x, ds_read(t, c(16, 3))); // default
        b.pkt_store(4, 4, l(x));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 8];
        let mut state = ElementState::for_program(&prog);
        let r = execute_default(&prog, &mut pkt, &mut state).unwrap();
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(&pkt[0..4], &[0, 0, 0, 99]);
        assert_eq!(&pkt[4..8], &[0, 0, 0, 7]);
        assert_eq!(state.store(t).unwrap().populated_entries(), 1);
        assert_eq!(state.store(t).unwrap().iter_populated(), vec![(2, 99)]);

        // Out-of-range read crashes.
        let mut pb = ProgramBuilder::new("T", 1);
        let t = pb.private_array("t", 4, 16, 32, 0);
        let x = pb.local("x", 32);
        let mut b = Block::new();
        b.assign(x, ds_read(t, c(16, 100)));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 8];
        let mut state = ElementState::for_program(&prog);
        let r = execute_default(&prog, &mut pkt, &mut state).unwrap();
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::DsKeyOutOfRange { .. })
        ));

        // Out-of-range write crashes.
        let mut pb = ProgramBuilder::new("T", 1);
        let t = pb.private_array("t", 4, 16, 32, 0);
        let mut b = Block::new();
        b.ds_write(t, c(16, 100), c(32, 1));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 8];
        let mut state = ElementState::for_program(&prog);
        let r = execute_default(&prog, &mut pkt, &mut state).unwrap();
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::DsKeyOutOfRange { .. })
        ));
    }

    #[test]
    fn ds_map_reads_default_until_written() {
        let mut pb = ProgramBuilder::new("T", 1);
        let m = pb.private_map("m", 32, 16, 0xbeef);
        let x = pb.local("x", 16);
        let mut b = Block::new();
        b.assign(x, ds_read(m, c(32, 12345)));
        b.pkt_store(0, 2, l(x));
        b.ds_write(m, c(32, 12345), c(16, 0x1122));
        b.assign(x, ds_read(m, c(32, 12345)));
        b.pkt_store(2, 2, l(x));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let mut state = ElementState::for_program(&prog);
        execute_default(&prog, &mut pkt, &mut state).unwrap();
        assert_eq!(&pkt[0..2], &[0xbe, 0xef]);
        assert_eq!(&pkt[2..4], &[0x11, 0x22]);
    }

    #[test]
    fn state_reset_clears_private_only() {
        use crate::program::{DsClass, DsDecl, DsKind};
        let priv_decl = DsDecl {
            name: "p".into(),
            kind: DsKind::Map,
            class: DsClass::Private,
            key_width: 8,
            value_width: 8,
            default: 0,
        };
        let static_decl = DsDecl {
            name: "s".into(),
            kind: DsKind::Array { size: 4 },
            class: DsClass::Static,
            key_width: 8,
            value_width: 8,
            default: 0,
        };
        let mut prog = Program::new("T", 1);
        prog.data_structures = vec![priv_decl, static_decl];
        let mut state = ElementState::for_program(&prog);
        state.store_mut(DsId(0)).unwrap().write(1, BitVec::u8(9));
        state.store_mut(DsId(1)).unwrap().write(1, BitVec::u8(9));
        state.reset_private();
        assert_eq!(state.store(DsId(0)).unwrap().populated_entries(), 0);
        assert_eq!(state.store(DsId(1)).unwrap().populated_entries(), 1);
        assert_eq!(state.len(), 2);
        assert!(!state.is_empty());
    }

    #[test]
    fn instruction_limit_enforced() {
        let mut pb = ProgramBuilder::new("T", 1);
        let i = pb.local("i", 32);
        let mut b = Block::new();
        b.loop_bounded(
            1_000_000,
            ult(l(i), c(32, 1_000_000)),
            Block::with(|bb| {
                bb.assign(i, add(l(i), c(32, 1)));
            }),
        );
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let mut state = ElementState::for_program(&prog);
        let err = execute(
            &prog,
            &mut pkt,
            &mut state,
            &ExecLimits {
                max_instructions: 1000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::InstructionLimitExceeded { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn undeclared_locals_and_stores_are_malformed() {
        use crate::expr::LocalId;
        let mut b = Block::new();
        b.pkt_store(0, 1, l(LocalId(5)));
        let prog = ProgramBuilder::new("T", 1).finish_unchecked(b);
        let err = execute_default(&prog, &mut vec![0u8; 4], &mut ElementState::default());
        assert!(
            matches!(&err, Err(ExecError::MalformedProgram { detail }) if detail.contains("l5")),
            "{err:?}"
        );

        // A state built for another program lacks this one's store.
        let mut pb = ProgramBuilder::new("T", 1);
        let t = pb.private_array("t", 4, 16, 32, 0);
        let mut b = Block::new();
        b.ds_write(t, c(16, 1), c(32, 1));
        let prog = pb.finish(b).unwrap();
        let err = execute_default(&prog, &mut vec![0u8; 4], &mut ElementState::default());
        assert!(
            matches!(err, Err(ExecError::MalformedProgram { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn select_is_lazy() {
        // select(cond, 1/0, 5): the division is only evaluated when cond is
        // true, so cond=false must not crash.
        let mut pb = ProgramBuilder::new("T", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(
            x,
            select(eq(pkt(0, 1), c(8, 1)), udiv(c(8, 1), c(8, 0)), c(8, 5)),
        );
        b.pkt_store(1, 1, l(x));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8, 0];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(pkt[1], 5);
        let mut pkt = vec![1u8, 0];
        let r = run(&prog, &mut pkt);
        assert_eq!(r.outcome, Outcome::Crashed(CrashReason::DivisionByZero));
    }

    #[test]
    fn unop_and_binop_helpers_cover_all_ops() {
        use BinOp::*;
        let a = BitVec::u8(12);
        let b = BitVec::u8(5);
        for op in [
            Add, Sub, Mul, And, Or, Xor, Shl, LShr, AShr, Eq, Ne, ULt, ULe, UGt, UGe, SLt, SLe,
        ] {
            assert!(eval_binop(op, a, b).is_some());
        }
        assert!(eval_binop(UDiv, a, BitVec::u8(0)).is_none());
        assert!(eval_binop(URem, a, BitVec::u8(0)).is_none());
        assert_eq!(
            eval_binop(BoolAnd, BitVec::bool(true), BitVec::bool(false)).unwrap(),
            BitVec::bool(false)
        );
        assert_eq!(
            eval_binop(BoolOr, BitVec::bool(true), BitVec::bool(false)).unwrap(),
            BitVec::bool(true)
        );
        assert_eq!(eval_binop(UGt, a, b).unwrap(), BitVec::bool(true));
        assert_eq!(eval_binop(UGe, b, a).unwrap(), BitVec::bool(false));
        assert_eq!(eval_unop(UnOp::Not, a), a.not());
        assert_eq!(eval_unop(UnOp::Neg, a), a.neg());
        assert_eq!(
            eval_unop(UnOp::LogicalNot, BitVec::bool(false)),
            BitVec::bool(true)
        );
    }

    #[test]
    fn strip_and_push_front() {
        // Strip two bytes, read the (previously third) byte, push a new
        // 2-byte header and fill its first byte.
        let mut pb = ProgramBuilder::new("T", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.strip_front(2);
        b.assign(x, pkt(0, 1));
        b.push_front(2);
        b.pkt_store(0, 1, l(x));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut pkt_bytes = vec![0xaa, 0xbb, 0xcc, 0xdd];
        let r = run(&prog, &mut pkt_bytes);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(pkt_bytes, vec![0xcc, 0x00, 0xcc, 0xdd]);

        // Stripping more than the packet length crashes.
        let pb = {
            let mut pb = ProgramBuilder::new("T", 1);
            let _ = pb.local("x", 8);
            pb
        };
        let mut b = Block::new();
        b.strip_front(100);
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut short = vec![1, 2, 3];
        let r = run(&prog, &mut short);
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::StripUnderflow { .. })
        ));
    }

    #[test]
    fn packet_len_tracks_reframing() {
        let mut pb = ProgramBuilder::new("T", 1);
        let n = pb.local("n", 32);
        let mut b = Block::new();
        b.strip_front(4);
        b.assign(n, pkt_len());
        b.push_front(8);
        b.pkt_store(0, 4, l(n));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let mut bytes = vec![0u8; 10];
        let r = run(&prog, &mut bytes);
        assert_eq!(r.outcome, Outcome::Emitted(0));
        assert_eq!(bytes.len(), 14);
        assert_eq!(&bytes[0..4], &[0, 0, 0, 6]); // length after strip was 6
    }

    #[test]
    fn nop_and_abort() {
        let pb = ProgramBuilder::new("T", 1);
        let mut b = Block::new();
        b.nop();
        b.abort("unreachable configuration");
        let prog = pb.finish(b).unwrap();
        let mut pkt = vec![0u8; 4];
        let r = run(&prog, &mut pkt);
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashReason::Aborted { .. })
        ));
    }
}

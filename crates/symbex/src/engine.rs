//! Exhaustive symbolic exploration of element programs.
//!
//! The engine executes an element's IR program with a fully symbolic packet
//! (every byte and the length unconstrained — "a symbolic bit vector" in the
//! paper's words) and enumerates **segments**: complete paths through the
//! element, each carrying its path constraint, the symbolic transformation it
//! applies to the packet, its data-structure interactions, its instruction
//! count, and how it ends (emit / drop / crash).
//!
//! Two loop-handling modes realise the paper's discussion:
//!
//! * [`LoopMode::Unroll`] explores every feasible unrolling up to the loop
//!   bound. This is what a general-purpose symbolic executor does and is what
//!   makes the monolithic baseline explode (the paper's "millions of
//!   segments … months").
//! * [`LoopMode::Decompose`] treats one loop iteration as a "mini-element":
//!   the body is explored once with the loop-carried state havocked (made
//!   unconstrained), every violating body path is surfaced as a segment of
//!   the element, and execution continues after the loop with the carried
//!   state havocked again. This over-approximates the loop (it can only add
//!   false suspects, never hide real ones) while keeping the number of
//!   segments per element small — the paper's loop decomposition.
//!
//! One executor runs every statement: `exec_stmt`, in continuation-passing
//! style (`Cont` is what runs after the statement). A loop body runs through
//! the same executor under a `Cont::Collect` continuation, which hands each
//! state that falls off the body's end back to the loop instead of finishing
//! it as a segment; paths that end inside the body (emit, drop, crash)
//! finish as segments on the way. Unrolling continues each handed-back
//! state into the next iteration, decomposition joins them into the
//! post-loop state. A loop nested in a loop body follows the mode like any
//! other loop: `Unroll` unrolls it, `Decompose` decomposes it.

use crate::state::SymPacket;
use crate::term::{self, Term, TermRef, VarId};
use dataplane_ir::cost::{self, LoopBound};
use dataplane_ir::expr::{DsId, Expr, LocalId};
use dataplane_ir::program::{DsKind, Program, Stmt};
use dataplane_ir::{BinOp, BitVec, CastKind};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// How loops are handled during exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopMode {
    /// Unroll loops branch by branch up to their declared bound.
    Unroll,
    /// Summarise each loop by exploring its body once over havocked state
    /// (the paper's mini-element decomposition).
    Decompose,
}

/// Engine limits and options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Abort exploration once this many segments have been produced.
    pub max_segments: usize,
    /// Abort exploration once this many branch points have been expanded
    /// (guards against exponential unrollings that never finish a segment).
    pub max_branches: u64,
    /// Loop handling mode.
    pub loop_mode: LoopMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_segments: 200_000,
            max_branches: 2_000_000,
            loop_mode: LoopMode::Decompose,
        }
    }
}

impl EngineConfig {
    /// The configuration the compositional verifier uses per element.
    pub fn decomposed() -> Self {
        EngineConfig {
            loop_mode: LoopMode::Decompose,
            ..EngineConfig::default()
        }
    }

    /// The configuration of the monolithic baseline (full unrolling) with an
    /// explicit budget.
    pub fn monolithic(max_segments: usize, max_branches: u64) -> Self {
        EngineConfig {
            max_segments,
            max_branches,
            loop_mode: LoopMode::Unroll,
        }
    }
}

/// Why exploration stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// The segment budget was exhausted — the paper's "does not complete
    /// within 12 hours" situation, surfaced as a hard number.
    SegmentBudgetExceeded {
        /// Number of segments produced before giving up.
        produced: usize,
    },
    /// The branch budget was exhausted.
    BranchBudgetExceeded {
        /// Number of branch expansions performed before giving up.
        expanded: u64,
    },
    /// The caller's [`crate::CancelToken`] was cancelled mid-exploration
    /// (e.g. a speculative job whose prefix turned out infeasible).
    Cancelled,
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::SegmentBudgetExceeded { produced } => {
                write!(f, "segment budget exceeded after {produced} segments")
            }
            ExploreError::BranchBudgetExceeded { expanded } => {
                write!(
                    f,
                    "branch budget exceeded after {expanded} branch expansions"
                )
            }
            ExploreError::Cancelled => write!(f, "exploration cancelled"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// How a segment ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// The packet is pushed to this output port.
    Emitted(u8),
    /// The packet is dropped.
    Dropped,
    /// The element crashes.
    Crashed(CrashKind),
}

impl SegmentOutcome {
    /// True if the segment crashes.
    pub fn is_crash(&self) -> bool {
        matches!(self, SegmentOutcome::Crashed(_))
    }

    /// The emitted port, if any.
    pub fn port(&self) -> Option<u8> {
        match self {
            SegmentOutcome::Emitted(p) => Some(*p),
            _ => None,
        }
    }
}

/// The class of crash a crashing segment exhibits (mirrors
/// `dataplane_ir::CrashReason` without the concrete payloads, which are not
/// known symbolically).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// A failed assertion, with its message.
    AssertionFailed(String),
    /// An explicit abort, with its message.
    Aborted(String),
    /// A packet access outside the packet bounds.
    PacketOutOfBounds,
    /// An array data-structure access with an out-of-range key.
    DsKeyOutOfRange(String),
    /// Division or remainder by zero.
    DivisionByZero,
    /// A loop exceeded its iteration bound.
    LoopBoundExceeded,
    /// A strip of more bytes than the packet holds.
    StripUnderflow,
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashKind::AssertionFailed(m) => write!(f, "assertion failed: {m}"),
            CrashKind::Aborted(m) => write!(f, "aborted: {m}"),
            CrashKind::PacketOutOfBounds => write!(f, "packet access out of bounds"),
            CrashKind::DsKeyOutOfRange(ds) => write!(f, "out-of-range key in '{ds}'"),
            CrashKind::DivisionByZero => write!(f, "division by zero"),
            CrashKind::LoopBoundExceeded => write!(f, "loop bound exceeded"),
            CrashKind::StripUnderflow => write!(f, "strip past end of packet"),
        }
    }
}

/// A recorded data-structure read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DsReadRecord {
    /// Which data structure.
    pub ds: DsId,
    /// The key term.
    pub key: TermRef,
    /// Sequence number of this read within the segment.
    pub seq: u32,
    /// The term standing for the returned value.
    pub value: TermRef,
}

/// A recorded data-structure write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DsWriteRecord {
    /// Which data structure.
    pub ds: DsId,
    /// The key term.
    pub key: TermRef,
    /// The written value term.
    pub value: TermRef,
}

/// One complete path through an element under symbolic input.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Conjunction of branch conditions that select this path.
    pub constraint: Vec<TermRef>,
    /// How the path ends.
    pub outcome: SegmentOutcome,
    /// The symbolic packet transformation along this path (valid for emitted
    /// and dropped segments; crash segments stop mid-way).
    pub packet: SymPacket,
    /// Data-structure reads performed along the path.
    pub ds_reads: Vec<DsReadRecord>,
    /// Data-structure writes performed along the path.
    pub ds_writes: Vec<DsWriteRecord>,
    /// IR instructions executed along this path, by `dataplane_ir::cost`'s
    /// rule: exact, or an upper bound when `approximate`.
    pub instructions: u64,
    /// True if a decomposed loop, or a `Select` whose arms cost differently,
    /// lies on this path: it stands for runs that may count fewer.
    pub approximate: bool,
}

/// The result of exploring one program.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Every discovered segment.
    pub segments: Vec<Segment>,
    /// Number of branch expansions performed (a measure of exploration work,
    /// reported by the scaling experiments).
    pub branches_expanded: u64,
}

impl Exploration {
    /// Segments that end in a crash.
    pub fn crash_segments(&self) -> Vec<&Segment> {
        self.segments
            .iter()
            .filter(|s| s.outcome.is_crash())
            .collect()
    }

    /// The largest per-path instruction count over all segments.
    pub fn max_instructions(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.instructions)
            .max()
            .unwrap_or(0)
    }
}

/// Symbolically explore a program under a fully symbolic packet.
pub fn explore(program: &Program, config: &EngineConfig) -> Result<Exploration, ExploreError> {
    explore_with_cancel(program, config, &crate::CancelToken::new())
}

/// [`explore`] under a [`crate::CancelToken`]: the engine loop polls the
/// token at every branch expansion and aborts with
/// [`ExploreError::Cancelled`] once it fires, so speculatively scheduled
/// explorations stop promptly when their work becomes moot.
pub fn explore_with_cancel(
    program: &Program,
    config: &EngineConfig,
    cancel: &crate::CancelToken,
) -> Result<Exploration, ExploreError> {
    let mut engine = Engine {
        program,
        config,
        cancel,
        segments: Vec::new(),
        branches: 0,
        next_var: 0,
        next_ds_seq: 0,
        eval_guards: Vec::new(),
        store_spans: Vec::new(),
    };
    let state = PathState {
        constraint: Vec::new(),
        locals: program
            .locals
            .iter()
            .map(|d| term::constant(BitVec::zero(d.width)))
            .collect(),
        packet: SymPacket::new(),
        ds_reads: Vec::new(),
        ds_writes: Vec::new(),
        instructions: 0,
        approximate: false,
    };
    engine.exec_block(state, &program.body, &Cont::Done)?;
    Ok(Exploration {
        segments: engine.segments,
        branches_expanded: engine.branches,
    })
}

/// What remains to be executed after the current block finishes.
enum Cont<'a> {
    /// Nothing; falling through drops the packet.
    Done,
    /// Execute these statements, then the next continuation.
    Then(&'a [Stmt], &'a Cont<'a>),
    /// The end of a loop body: hand the state back to the loop.
    Collect(&'a RefCell<Vec<PathState>>),
}

/// The mutable exploration state of one path.
#[derive(Clone, Debug)]
struct PathState {
    constraint: Vec<TermRef>,
    locals: Vec<TermRef>,
    packet: SymPacket,
    ds_reads: Vec<DsReadRecord>,
    ds_writes: Vec<DsWriteRecord>,
    instructions: u64,
    approximate: bool,
}

impl PathState {
    fn assume(&mut self, cond: TermRef) {
        if !cond.is_true() {
            self.constraint.push(cond);
        }
    }
}

/// The union of packet-byte ranges the stores executed under one decomposed
/// loop body may touch (program-relative, half-open).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StoreSpan {
    /// No store executed.
    None,
    /// Every store provably lands inside `[lo, hi)`.
    Bounded(i64, i64),
    /// At least one store's offset could not be bounded.
    Unbounded,
}

impl StoreSpan {
    fn merge(&mut self, other: StoreSpan) {
        *self = match (*self, other) {
            (StoreSpan::Unbounded, _) | (_, StoreSpan::Unbounded) => StoreSpan::Unbounded,
            (StoreSpan::None, s) | (s, StoreSpan::None) => s,
            (StoreSpan::Bounded(a, b), StoreSpan::Bounded(c, d)) => {
                StoreSpan::Bounded(a.min(c), b.max(d))
            }
        };
    }
}

struct Engine<'a> {
    program: &'a Program,
    config: &'a EngineConfig,
    cancel: &'a crate::CancelToken,
    segments: Vec<Segment>,
    branches: u64,
    next_var: u32,
    next_ds_seq: u32,
    /// Conditions guarding the expression currently being evaluated (pushed
    /// while evaluating the arms of a `Select`). Crash forks are conjoined
    /// with these guards so that a crash inside an *untaken* select arm is
    /// not reported — the concrete interpreter evaluates select lazily.
    eval_guards: Vec<TermRef>,
    /// One frame per decomposed loop currently being explored; every packet
    /// store merges the range it may touch into the innermost frame, so the
    /// post-loop state can clobber exactly that range instead of the whole
    /// packet.
    store_spans: Vec<StoreSpan>,
}

impl<'a> Engine<'a> {
    fn fresh_var(&mut self, width: u8) -> TermRef {
        let id = VarId(self.next_var);
        self.next_var += 1;
        Arc::new(Term::Var { id, width })
    }

    /// Execute a packet store: bound the offset under the path constraint
    /// when it is symbolic (so the clobber stays local to the range the
    /// store can actually reach), log the touched range into the innermost
    /// decomposed-loop frame, and apply the store to the state's packet.
    fn packet_store(
        &mut self,
        state: &mut PathState,
        off: &TermRef,
        width_bytes: u8,
        value: &TermRef,
    ) {
        let bounds = if off.as_const().is_some() {
            None
        } else {
            // A bound close to the index-space maximum carries no
            // information; treat it as unbounded so the behaviour matches
            // the old whole-packet clobbering.
            const MAX_USEFUL_OFFSET: u64 = 1 << 16;
            let iv = crate::solver::term_bounds(&state.constraint, off);
            (iv.hi < MAX_USEFUL_OFFSET).then_some((iv.lo as i64, iv.hi as i64))
        };
        if let Some(frame) = self.store_spans.last_mut() {
            let span = match (off.as_const(), bounds) {
                (Some(c), _) => {
                    let at = c.as_u64() as i64;
                    StoreSpan::Bounded(at, at + width_bytes as i64)
                }
                (None, Some((lo, hi))) => StoreSpan::Bounded(lo, hi + width_bytes as i64),
                (None, None) => StoreSpan::Unbounded,
            };
            frame.merge(span);
        }
        let mut next_var = self.next_var;
        state
            .packet
            .store_bounded(off, width_bytes, value, bounds, &mut || {
                let v = Arc::new(Term::Var {
                    id: VarId(next_var),
                    width: 8,
                });
                next_var += 1;
                v
            });
        self.next_var = next_var;
    }

    fn finish(&mut self, state: PathState, outcome: SegmentOutcome) -> Result<(), ExploreError> {
        if self.segments.len() >= self.config.max_segments {
            return Err(ExploreError::SegmentBudgetExceeded {
                produced: self.segments.len(),
            });
        }
        self.segments.push(Segment {
            constraint: state.constraint,
            outcome,
            packet: state.packet,
            ds_reads: state.ds_reads,
            ds_writes: state.ds_writes,
            instructions: state.instructions,
            approximate: state.approximate,
        });
        Ok(())
    }

    fn charge_branch(&mut self) -> Result<(), ExploreError> {
        if self.cancel.is_cancelled() {
            return Err(ExploreError::Cancelled);
        }
        self.branches += 1;
        if self.branches > self.config.max_branches {
            return Err(ExploreError::BranchBudgetExceeded {
                expanded: self.branches,
            });
        }
        Ok(())
    }

    fn exec_cont(&mut self, state: PathState, cont: &Cont<'_>) -> Result<(), ExploreError> {
        match cont {
            Cont::Done => self.finish(state, SegmentOutcome::Dropped),
            Cont::Then(stmts, rest) => self.exec_block(state, stmts, rest),
            Cont::Collect(out) => {
                out.borrow_mut().push(state);
                Ok(())
            }
        }
    }

    fn exec_block(
        &mut self,
        state: PathState,
        stmts: &[Stmt],
        cont: &Cont<'_>,
    ) -> Result<(), ExploreError> {
        match stmts.split_first() {
            None => self.exec_cont(state, cont),
            Some((first, rest)) => {
                let next = Cont::Then(rest, cont);
                self.exec_stmt(state, first, &next)
            }
        }
    }

    fn exec_stmt(
        &mut self,
        mut state: PathState,
        stmt: &Stmt,
        cont: &Cont<'_>,
    ) -> Result<(), ExploreError> {
        cost::charge(&mut state.instructions);
        match stmt {
            Stmt::Nop => self.exec_cont(state, cont),
            Stmt::Assign { local, value } => {
                let value = self.eval(&mut state, value)?;
                let width = self.program.locals[local.0 as usize].width;
                state.locals[local.0 as usize] = term::cast(CastKind::Resize, width, value);
                self.exec_cont(state, cont)
            }
            Stmt::PacketStore {
                offset,
                width_bytes,
                value,
            } => {
                let off = self.eval(&mut state, offset)?;
                let val = self.eval(&mut state, value)?;
                // Fork on the bounds check.
                let oob = state.packet.store_oob_condition(&off, *width_bytes);
                self.fork_crash(&mut state, oob, CrashKind::PacketOutOfBounds)?;
                self.packet_store(&mut state, &off, *width_bytes, &val);
                self.exec_cont(state, cont)
            }
            Stmt::DsWrite { ds, key, value } => {
                let key = self.eval(&mut state, key)?;
                let value = self.eval(&mut state, value)?;
                let decl = &self.program.data_structures[ds.0 as usize];
                if let DsKind::Array { size } = decl.kind {
                    let oob = term::binary(
                        BinOp::UGe,
                        key.clone(),
                        term::constant(BitVec::new(decl.key_width, size)),
                    );
                    self.fork_crash(
                        &mut state,
                        oob,
                        CrashKind::DsKeyOutOfRange(decl.name.clone()),
                    )?;
                }
                state.ds_writes.push(DsWriteRecord {
                    ds: *ds,
                    key,
                    value,
                });
                self.exec_cont(state, cont)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(&mut state, cond)?;
                if c.is_true() {
                    return self.exec_block(state, then_body, cont);
                }
                if c.is_false() {
                    return self.exec_block(state, else_body, cont);
                }
                self.charge_branch()?;
                let mut then_state = state.clone();
                then_state.assume(c.clone());
                self.exec_block(then_state, then_body, cont)?;
                let mut else_state = state;
                else_state.assume(term::negate(c));
                self.exec_block(else_state, else_body, cont)
            }
            Stmt::Loop {
                max_iters,
                cond,
                body,
            } => match self.config.loop_mode {
                LoopMode::Unroll => self.exec_loop_unrolled(state, *max_iters, cond, body, 0, cont),
                LoopMode::Decompose => {
                    self.decompose_loop(&mut state, *max_iters, cond, body)?;
                    self.exec_cont(state, cont)
                }
            },
            Stmt::StripFront { n } => {
                let underflow = state.packet.strip_underflow_condition(*n);
                self.fork_crash(&mut state, underflow, CrashKind::StripUnderflow)?;
                state.packet.strip_front(*n);
                self.exec_cont(state, cont)
            }
            Stmt::PushFront { n } => {
                state.packet.push_front(*n);
                self.exec_cont(state, cont)
            }
            Stmt::Assert { cond, message } => {
                let c = self.eval(&mut state, cond)?;
                if c.is_true() {
                    return self.exec_cont(state, cont);
                }
                if c.is_false() {
                    return self.finish(
                        state,
                        SegmentOutcome::Crashed(CrashKind::AssertionFailed(message.clone())),
                    );
                }
                self.charge_branch()?;
                let mut crash_state = state.clone();
                crash_state.assume(term::negate(c.clone()));
                self.finish(
                    crash_state,
                    SegmentOutcome::Crashed(CrashKind::AssertionFailed(message.clone())),
                )?;
                state.assume(c);
                self.exec_cont(state, cont)
            }
            Stmt::Abort { message } => self.finish(
                state,
                SegmentOutcome::Crashed(CrashKind::Aborted(message.clone())),
            ),
            Stmt::Emit { port } => self.finish(state, SegmentOutcome::Emitted(*port)),
            Stmt::Drop => self.finish(state, SegmentOutcome::Dropped),
        }
    }

    /// Fork off a crash segment under `crash_cond`, and constrain the
    /// surviving state with its negation. The condition is conjoined with any
    /// active select-arm guards.
    fn fork_crash(
        &mut self,
        state: &mut PathState,
        crash_cond: TermRef,
        kind: CrashKind,
    ) -> Result<(), ExploreError> {
        let crash_cond = self.eval_guards.iter().fold(crash_cond, |acc, g| {
            term::binary(BinOp::BoolAnd, g.clone(), acc)
        });
        if crash_cond.is_false() {
            return Ok(());
        }
        self.charge_branch()?;
        let mut crash_state = state.clone();
        crash_state.assume(crash_cond.clone());
        self.finish(crash_state, SegmentOutcome::Crashed(kind))?;
        if crash_cond.is_true() {
            // The surviving branch is infeasible; mark it so by pushing an
            // explicit `false` constraint (callers will not extend it into
            // further segments because every extension carries the `false`).
            state.assume(term::ff());
        } else {
            state.assume(term::negate(crash_cond));
        }
        Ok(())
    }

    fn exec_loop_unrolled(
        &mut self,
        mut state: PathState,
        max_iters: u32,
        cond: &Expr,
        body: &[Stmt],
        done: u32,
        cont: &Cont<'_>,
    ) -> Result<(), ExploreError> {
        let c = self.eval(&mut state, cond)?;
        if c.is_false() {
            return self.exec_cont(state, cont);
        }
        // Branch: exit now (condition false) unless the condition is
        // literally true.
        if !c.is_true() {
            self.charge_branch()?;
            let mut exit_state = state.clone();
            exit_state.assume(term::negate(c.clone()));
            self.exec_cont(exit_state, cont)?;
            state.assume(c);
        }
        if done >= max_iters {
            return self.finish(state, SegmentOutcome::Crashed(CrashKind::LoopBoundExceeded));
        }
        for s in self.exec_body(state, body)? {
            self.exec_loop_unrolled(s, max_iters, cond, body, done + 1, cont)?;
        }
        Ok(())
    }

    /// Run a loop body and hand back the states that fall off its end;
    /// paths that end inside the body (emit, drop, crash) finish as
    /// segments on the way.
    fn exec_body(
        &mut self,
        state: PathState,
        body: &[Stmt],
    ) -> Result<Vec<PathState>, ExploreError> {
        let out = RefCell::new(Vec::new());
        self.exec_block(state, body, &Cont::Collect(&out))?;
        Ok(out.into_inner())
    }

    /// Infer inductive lower-bound invariants for the loop-carried locals of
    /// a decomposed loop body: a local whose entry value has lower bound
    /// `lo > 0` keeps `lo <= local` across iterations if every fall-through
    /// body path provably re-establishes the bound (assuming it — plus the
    /// loop condition — at iteration entry). This is what preserves
    /// `20 <= i` for option-walking cursors, which in turn bounds the
    /// symbolic record-route stores away from the fixed IP header.
    ///
    /// The validation explorations emit no segments and consume no budget
    /// (segments *and* the branch counter are rolled back after every
    /// round); only the surviving hypotheses escape. A validation round
    /// that runs out of budget abandons inference — throwaway work must
    /// never fail the real exploration. Dropping a failed hypothesis can
    /// invalidate others (their validation assumed it), so validation
    /// repeats until the surviving set is stable.
    fn infer_loop_invariants(
        &mut self,
        state: &PathState,
        carried: &BTreeSet<LocalId>,
        cond: &Expr,
        body: &[Stmt],
    ) -> Result<Vec<(LocalId, u64)>, ExploreError> {
        let mut hypotheses: Vec<(LocalId, u64)> = Vec::new();
        for local in carried {
            let entry = &state.locals[local.0 as usize];
            let lo = crate::solver::term_bounds(&state.constraint, entry).lo;
            if lo > 0 {
                hypotheses.push((*local, lo));
            }
        }
        let branches_mark = self.branches;
        while !hypotheses.is_empty() {
            let mut trial = state.clone();
            trial.approximate = true;
            for local in carried {
                let width = self.program.locals[local.0 as usize].width;
                trial.locals[local.0 as usize] = self.fresh_var(width);
            }
            // The trial models an arbitrary iteration, whose packet may
            // already hold bytes written by earlier iterations (inference
            // only runs for packet-writing bodies); havoc the packet so
            // constant-offset reads cannot smuggle in pre-loop values.
            let clobber = self.fresh_var(8);
            trial.packet.clobber(clobber);
            for (local, lo) in &hypotheses {
                let width = self.program.locals[local.0 as usize].width;
                trial.assume(term::binary(
                    BinOp::ULe,
                    term::constant(BitVec::new(width, *lo)),
                    trial.locals[local.0 as usize].clone(),
                ));
            }
            let segments_mark = self.segments.len();
            // A sacrificial span frame absorbs the trial's packet stores:
            // spans computed from havocked validation state must not widen
            // the enclosing real loop's frame.
            let spans_mark = self.store_spans.len();
            self.store_spans.push(StoreSpan::None);
            let run = match self.eval(&mut trial, cond) {
                Ok(c) if c.is_false() => Ok(Vec::new()),
                Ok(c) => {
                    trial.assume(c);
                    self.exec_body(trial, body)
                }
                Err(e) => Err(e),
            };
            // Validation only: nothing it produced is a real segment, a real
            // branch expansion, or a real store span.
            self.segments.truncate(segments_mark);
            self.branches = branches_mark;
            self.store_spans.truncate(spans_mark);
            let Ok(fallthrough) = run else {
                // Validation ran out of budget: abandon inference rather
                // than fail the real exploration over throwaway work.
                return Ok(Vec::new());
            };
            let surviving: Vec<(LocalId, u64)> = hypotheses
                .iter()
                .filter(|(local, lo)| {
                    fallthrough.iter().all(|s| {
                        let end = &s.locals[local.0 as usize];
                        crate::solver::term_bounds(&s.constraint, end).lo >= *lo
                    })
                })
                .copied()
                .collect();
            if surviving.len() == hypotheses.len() {
                break;
            }
            hypotheses = surviving;
        }
        Ok(hypotheses)
    }

    /// Summarise a loop: surface every violating/terminal body path once
    /// (over havocked loop state), then mutate `state` into the post-loop
    /// over-approximation.
    fn decompose_loop(
        &mut self,
        state: &mut PathState,
        max_iters: u32,
        cond: &Expr,
        body: &[Stmt],
    ) -> Result<(), ExploreError> {
        self.charge_branch()?;
        // Locals assigned anywhere in the body are loop-carried: havoc them.
        let mut carried = BTreeSet::new();
        collect_assigned_locals(body, &mut carried);

        // Invariant inference pays off exactly when the body writes the
        // packet (the invariants bound the store offsets); skip it otherwise.
        // A resizing body is excluded: the validation trial havocs packet
        // bytes but not the length/base shift, so a length-dependent bound
        // could validate against the entry-time length and be unsound — and
        // resizing bodies whole-packet-clobber anyway, so a span bound would
        // buy nothing.
        let writes_packet = body_writes_packet(body);
        let invariants = if writes_packet && !body_resizes_packet(body) {
            self.infer_loop_invariants(state, &carried, cond, body)?
        } else {
            Vec::new()
        };
        let assume_invariants = |engine: &Engine<'_>, s: &mut PathState| {
            for (local, lo) in &invariants {
                let width = engine.program.locals[local.0 as usize].width;
                s.assume(term::binary(
                    BinOp::ULe,
                    term::constant(BitVec::new(width, *lo)),
                    s.locals[local.0 as usize].clone(),
                ));
            }
        };

        // --- one symbolic iteration over havocked state -------------------
        let mut iteration = state.clone();
        iteration.approximate = true;
        for local in &carried {
            let width = self.program.locals[local.0 as usize].width;
            iteration.locals[local.0 as usize] = self.fresh_var(width);
        }
        // This iteration stands for *every* iteration, including ones whose
        // packet already holds bytes written by earlier iterations. Havoc
        // the packet for packet-writing bodies so a constant-offset read
        // cannot observe a stale pre-loop byte and (via `term_bounds`)
        // under-approximate the store span below. Symbolic-offset loads
        // already read as fresh variables, so the presets lose nothing.
        if writes_packet {
            let clobber = self.fresh_var(8);
            iteration.packet.clobber(clobber);
        }
        assume_invariants(self, &mut iteration);
        // Every segment from here on ends inside the generic iteration.
        let before = self.segments.len();
        let entry = state.instructions;
        let c_entry = self.eval(&mut iteration, cond)?;
        if c_entry.is_false() {
            // The loop can never be entered: one check is all it runs, and
            // nothing carried changes.
            state.instructions = iteration.instructions;
            return Ok(());
        }
        iteration.assume(c_entry);
        // Every store the body executes merges the range it may touch into
        // this frame; the generic havocked iteration covers all iterations,
        // so the merged span bounds what the whole loop can rewrite. The
        // frame is popped before any error propagates — a caller that
        // recovers from the error (invariant validation does) must find the
        // stack balanced.
        self.store_spans.push(StoreSpan::None);
        let body_result = self.exec_body(iteration, body);
        let body_span = self.store_spans.pop().unwrap_or(StoreSpan::Unbounded);
        let fallthrough_states = body_result?;
        // A nested decomposed loop must also surface its stores to the
        // enclosing frame.
        if let Some(outer) = self.store_spans.last_mut() {
            outer.merge(body_span);
        }
        // Terminal iteration paths (emit/drop/crash) have been surfaced as
        // segments on the way, counted as though they ended in the first
        // iteration; raise each to bound the same end in any iteration.
        let bound = LoopBound::new(
            entry,
            max_iters,
            fallthrough_states
                .iter()
                .map(|s| s.instructions)
                .chain(self.segments[before..].iter().map(|s| s.instructions)),
        );
        for seg in &mut self.segments[before..] {
            seg.approximate = true;
            seg.instructions = bound.inside(seg.instructions);
        }

        // --- post-loop state ----------------------------------------------
        state.approximate = true;
        state.instructions = bound.exit();
        for local in &carried {
            let width = self.program.locals[local.0 as usize].width;
            state.locals[local.0 as usize] = self.fresh_var(width);
        }
        assume_invariants(self, state);
        // If the body can write the packet, the touched range is unknown
        // here — but only that range. A body that resizes the packet shifts
        // every offset, so no range is trustworthy in that case.
        if body_resizes_packet(body) {
            let clobber = self.fresh_var(8);
            state.packet.clobber(clobber);
        } else {
            match body_span {
                // The generic iteration executed no store, so no concrete
                // iteration stores either (the havocked exploration covers
                // every iteration's paths).
                StoreSpan::None => {}
                StoreSpan::Bounded(lo, hi) => state.packet.clobber_program_range(lo, hi),
                StoreSpan::Unbounded => {
                    let clobber = self.fresh_var(8);
                    state.packet.clobber(clobber);
                }
            }
        }
        // Data-structure writes performed by the body are recorded
        // conservatively (key and value havocked) so the stateful-element
        // analysis knows the tables may have changed.
        let mut ds_written = BTreeSet::new();
        collect_ds_writes(body, &mut ds_written);
        for ds in ds_written {
            let decl = &self.program.data_structures[ds.0 as usize];
            let key = self.fresh_var(decl.key_width);
            let value = self.fresh_var(decl.value_width);
            state.ds_writes.push(DsWriteRecord { ds, key, value });
        }
        // On exit the condition is false for the (havocked) exit state.
        let c_exit = self.eval(state, cond)?;
        if !c_exit.is_true() {
            state.assume(term::negate(c_exit));
        }
        Ok(())
    }

    /// Evaluate an expression symbolically. Crash possibilities inside the
    /// expression (out-of-bounds loads, division by zero, array key range)
    /// fork crash segments and constrain the surviving path.
    fn eval(&mut self, state: &mut PathState, expr: &Expr) -> Result<TermRef, ExploreError> {
        cost::charge(&mut state.instructions);
        Ok(match expr {
            Expr::Const(v) => term::constant(*v),
            Expr::Local(LocalId(i)) => state.locals[*i as usize].clone(),
            Expr::PacketLen => state.packet.len_term(),
            Expr::PacketLoad {
                offset,
                width_bytes,
            } => {
                let off = self.eval(state, offset)?;
                let oob = state.packet.load_oob_condition(&off, *width_bytes);
                self.fork_crash(state, oob, CrashKind::PacketOutOfBounds)?;
                let mut fresh = || {
                    let id = VarId(self.next_var);
                    self.next_var += 1;
                    Arc::new(Term::Var { id, width: 8 })
                };
                state.packet.load(&off, *width_bytes, &mut fresh)
            }
            Expr::DsRead { ds, key } => {
                let key = self.eval(state, key)?;
                let decl = &self.program.data_structures[ds.0 as usize];
                if let DsKind::Array { size } = decl.kind {
                    let oob = term::binary(
                        BinOp::UGe,
                        key.clone(),
                        term::constant(BitVec::new(decl.key_width, size)),
                    );
                    self.fork_crash(state, oob, CrashKind::DsKeyOutOfRange(decl.name.clone()))?;
                }
                let seq = self.next_ds_seq;
                self.next_ds_seq += 1;
                let value = Arc::new(Term::DsRead {
                    ds: *ds,
                    key: key.clone(),
                    seq,
                    width: decl.value_width,
                });
                state.ds_reads.push(DsReadRecord {
                    ds: *ds,
                    key,
                    seq,
                    value: value.clone(),
                });
                value
            }
            Expr::Unary { op, arg } => term::unary(*op, self.eval(state, arg)?),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(state, lhs)?;
                let b = self.eval(state, rhs)?;
                if matches!(op, BinOp::UDiv | BinOp::URem) {
                    let zero = term::constant(BitVec::zero(b.width()));
                    let div_by_zero = term::binary(BinOp::Eq, b.clone(), zero);
                    self.fork_crash(state, div_by_zero, CrashKind::DivisionByZero)?;
                }
                term::binary(*op, a, b)
            }
            Expr::Select {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.eval(state, cond)?;
                // Crash possibilities inside an arm only matter when that arm
                // is the one the concrete semantics would take, so each arm is
                // evaluated under the corresponding guard, and from the count
                // the select had reached: a crash in either arm counts
                // exactly, and the surviving path charges the costlier arm.
                let start = state.instructions;
                self.eval_guards.push(c.clone());
                let t = self.eval(state, then_e);
                self.eval_guards.pop();
                let t = t?;
                let then_count = std::mem::replace(&mut state.instructions, start);
                self.eval_guards.push(term::negate(c.clone()));
                let e = self.eval(state, else_e);
                self.eval_guards.pop();
                let e = e?;
                let (count, exact) = cost::select(then_count, state.instructions);
                state.instructions = count;
                state.approximate |= !exact;
                term::select(c, t, e)
            }
            Expr::Cast { kind, width, arg } => term::cast(*kind, *width, self.eval(state, arg)?),
        })
    }
}

fn collect_assigned_locals(stmts: &[Stmt], out: &mut BTreeSet<LocalId>) {
    for s in stmts {
        match s {
            Stmt::Assign { local, .. } => {
                out.insert(*local);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned_locals(then_body, out);
                collect_assigned_locals(else_body, out);
            }
            Stmt::Loop { body, .. } => collect_assigned_locals(body, out),
            _ => {}
        }
    }
}

fn collect_ds_writes(stmts: &[Stmt], out: &mut BTreeSet<DsId>) {
    for s in stmts {
        match s {
            Stmt::DsWrite { ds, .. } => {
                out.insert(*ds);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_ds_writes(then_body, out);
                collect_ds_writes(else_body, out);
            }
            Stmt::Loop { body, .. } => collect_ds_writes(body, out),
            _ => {}
        }
    }
}

fn body_writes_packet(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::PacketStore { .. } | Stmt::StripFront { .. } | Stmt::PushFront { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => body_writes_packet(then_body) || body_writes_packet(else_body),
        Stmt::Loop { body, .. } => body_writes_packet(body),
        _ => false,
    })
}

/// True if the statements can change the packet's length or base offset, in
/// which case per-iteration byte ranges are meaningless after decomposition.
fn body_resizes_packet(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::StripFront { .. } | Stmt::PushFront { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => body_resizes_packet(then_body) || body_resizes_packet(else_body),
        Stmt::Loop { body, .. } => body_resizes_packet(body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use dataplane_ir::builder::{Block, ProgramBuilder};
    use dataplane_ir::expr::dsl::*;

    /// The toy program of Figure 1: three feasible paths, one of which
    /// crashes.
    fn figure1_program() -> Program {
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

    #[test]
    fn figure1_has_three_interesting_segments() {
        let result = explore(&figure1_program(), &EngineConfig::default()).unwrap();
        // Segments: the 4-byte load can be out of bounds (crash), the assert
        // can fail (crash), and the two if arms emit.
        let crashes = result.crash_segments();
        let emits: Vec<_> = result
            .segments
            .iter()
            .filter(|s| s.outcome == SegmentOutcome::Emitted(0))
            .collect();
        assert_eq!(emits.len(), 2, "two emitting paths");
        assert!(
            crashes.iter().any(|s| matches!(
                s.outcome,
                SegmentOutcome::Crashed(CrashKind::AssertionFailed(_))
            )),
            "assertion-failure segment present"
        );
        assert!(
            crashes.iter().any(|s| matches!(
                s.outcome,
                SegmentOutcome::Crashed(CrashKind::PacketOutOfBounds)
            )),
            "out-of-bounds segment present"
        );
        assert!(result.max_instructions() > 0);
        assert!(result.branches_expanded >= 2);
    }

    #[test]
    fn figure1_crash_segment_yields_negative_witness() {
        // The assertion-failure segment must be satisfiable, and every model
        // of it is a packet whose first 32-bit word is negative.
        let result = explore(&figure1_program(), &EngineConfig::default()).unwrap();
        let solver = Solver::new();
        let crash = result
            .segments
            .iter()
            .find(|s| {
                matches!(
                    s.outcome,
                    SegmentOutcome::Crashed(CrashKind::AssertionFailed(_))
                )
            })
            .unwrap();
        match solver.check(&crash.constraint) {
            crate::solver::SolverResult::Sat(model) => {
                assert!(model.packet.len() >= 4);
                assert!(model.packet[0] & 0x80 != 0, "sign bit must be set");
            }
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn emit_segments_of_figure1_are_feasible_and_bounded() {
        let result = explore(&figure1_program(), &EngineConfig::default()).unwrap();
        let solver = Solver::new();
        for seg in result.segments.iter().filter(|s| !s.outcome.is_crash()) {
            assert!(
                solver.check(&seg.constraint).is_sat(),
                "emitting segment must be feasible"
            );
            assert!(seg.instructions < 50);
            assert!(!seg.approximate);
        }
    }

    #[test]
    fn packet_writes_are_visible_in_segments() {
        let mut pb = ProgramBuilder::new("W", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, pkt(0, 1));
        b.pkt_store(1, 1, add(l(x), c(8, 1)));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        let emit = result
            .segments
            .iter()
            .find(|s| s.outcome == SegmentOutcome::Emitted(0))
            .unwrap();
        let out_byte = emit.packet.out_byte(1);
        // The output byte 1 is pkt[0] + 1.
        let s = out_byte.to_string();
        assert!(s.contains("pkt[0]"), "got {s}");
        assert!(s.contains('+'), "got {s}");
    }

    #[test]
    fn strip_and_push_shift_output_bytes() {
        let pb = ProgramBuilder::new("S", 1);
        let mut b = Block::new();
        b.strip_front(2);
        b.push_front(1);
        b.pkt_store(0, 1, c(8, 0xaa));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        let emit = result
            .segments
            .iter()
            .find(|s| s.outcome == SegmentOutcome::Emitted(0))
            .unwrap();
        // Output byte 0 is the constant header byte; byte 1 is original byte 2.
        assert_eq!(
            emit.packet.out_byte(0).as_const().unwrap(),
            BitVec::u8(0xaa)
        );
        assert_eq!(emit.packet.out_byte(1).to_string(), "pkt[2]");
        // And a strip-underflow crash segment exists.
        assert!(result.segments.iter().any(|s| matches!(
            s.outcome,
            SegmentOutcome::Crashed(CrashKind::StripUnderflow)
        )));
    }

    #[test]
    fn division_by_zero_creates_crash_segment() {
        let mut pb = ProgramBuilder::new("D", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, udiv(c(8, 255), pkt(0, 1)));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        let crash = result
            .segments
            .iter()
            .find(|s| {
                matches!(
                    s.outcome,
                    SegmentOutcome::Crashed(CrashKind::DivisionByZero)
                )
            })
            .expect("division crash segment");
        // Its witness has packet byte 0 equal to zero.
        let solver = Solver::new();
        match solver.check(&crash.constraint) {
            crate::solver::SolverResult::Sat(m) => {
                assert_eq!(m.packet.first().copied().unwrap_or(0), 0)
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn ds_array_access_creates_bounds_segment_and_read_record() {
        let mut pb = ProgramBuilder::new("A", 1);
        let t = pb.private_array("table", 16, 16, 32, 0);
        let x = pb.local("x", 32);
        let mut b = Block::new();
        b.assign(x, ds_read(t, pkt(0, 2)));
        b.ds_write(t, c(16, 3), l(x));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        assert!(result
            .segments
            .iter()
            .any(|s| matches!(&s.outcome, SegmentOutcome::Crashed(CrashKind::DsKeyOutOfRange(n)) if n == "table")));
        let emit = result
            .segments
            .iter()
            .find(|s| s.outcome == SegmentOutcome::Emitted(0))
            .unwrap();
        assert_eq!(emit.ds_reads.len(), 1);
        assert_eq!(emit.ds_writes.len(), 1);
        assert_eq!(emit.ds_reads[0].ds, t);
    }

    #[test]
    fn cancelled_exploration_aborts_with_cancelled() {
        // A branchy program: exploration expands branches, which is where
        // the token is polled.
        let mut pb = ProgramBuilder::new("C", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        for i in 0..4 {
            b.if_else(
                eq(pkt(i, 1), c(8, 0)),
                Block::with(|t| {
                    t.assign(x, c(8, 1));
                }),
                Block::with(|e| {
                    e.assign(x, c(8, 2));
                }),
            );
        }
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let token = crate::CancelToken::new();
        token.cancel();
        match explore_with_cancel(&prog, &EngineConfig::default(), &token) {
            Err(ExploreError::Cancelled) => {}
            other => panic!(
                "expected Cancelled, got {:?}",
                other.map(|e| e.segments.len())
            ),
        }
        // An un-cancelled token changes nothing.
        let live = crate::CancelToken::new();
        let a = explore(&prog, &EngineConfig::default()).unwrap();
        let b = explore_with_cancel(&prog, &EngineConfig::default(), &live).unwrap();
        assert_eq!(a.segments.len(), b.segments.len());
    }

    #[test]
    fn bounded_loop_unrolls_to_expected_paths() {
        // A loop over a 2-bit counter derived from the packet: it can iterate
        // 0..=3 times.
        let mut pb = ProgramBuilder::new("L", 1);
        let n = pb.local("n", 8);
        let i = pb.local("i", 8);
        let mut b = Block::new();
        b.assign(n, and(pkt(0, 1), c(8, 0x03)));
        b.loop_bounded(
            4,
            ult(l(i), l(n)),
            Block::with(|lb| {
                lb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let unrolled = explore(
            &prog,
            &EngineConfig {
                loop_mode: LoopMode::Unroll,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // The engine enumerates paths without pruning; keep only the
        // feasible emitting ones (the verifier does the same with the
        // solver).
        let solver = Solver::new();
        let feasible_emits: Vec<&Segment> = unrolled
            .segments
            .iter()
            .filter(|s| s.outcome == SegmentOutcome::Emitted(0))
            .filter(|s| !solver.check(&s.constraint).is_unsat())
            .collect();
        // One feasible emitting path per iteration count 0..=3.
        assert_eq!(feasible_emits.len(), 4);
        // Instruction counts grow with the iteration count.
        let mut counts: Vec<u64> = feasible_emits.iter().map(|s| s.instructions).collect();
        counts.sort_unstable();
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn decomposed_loop_keeps_segment_count_small() {
        // The same loop summarised: a single emitting segment, marked
        // approximate, with an instruction upper bound at least as large as
        // the exact maximum.
        let mut pb = ProgramBuilder::new("L", 1);
        let n = pb.local("n", 8);
        let i = pb.local("i", 8);
        let mut b = Block::new();
        b.assign(n, and(pkt(0, 1), c(8, 0x03)));
        b.loop_bounded(
            4,
            ult(l(i), l(n)),
            Block::with(|lb| {
                lb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let unrolled = explore(
            &prog,
            &EngineConfig {
                loop_mode: LoopMode::Unroll,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let decomposed = explore(&prog, &EngineConfig::decomposed()).unwrap();
        assert!(decomposed.segments.len() < unrolled.segments.len());
        let emit = decomposed
            .segments
            .iter()
            .find(|s| s.outcome == SegmentOutcome::Emitted(0))
            .unwrap();
        assert!(emit.approximate);
        assert!(decomposed.max_instructions() >= unrolled.max_instructions());
    }

    #[test]
    fn crash_inside_loop_is_surfaced_in_both_modes() {
        // The loop body divides by a packet byte; byte == 0 crashes.
        let mut pb = ProgramBuilder::new("LC", 1);
        let i = pb.local("i", 8);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.loop_bounded(
            3,
            ult(l(i), c(8, 3)),
            Block::with(|lb| {
                lb.assign(x, udiv(c(8, 9), pkt_at(zext(l(i), 32), 1)));
                lb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        for mode in [LoopMode::Unroll, LoopMode::Decompose] {
            let result = explore(
                &prog,
                &EngineConfig {
                    loop_mode: mode,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            assert!(
                result.segments.iter().any(|s| matches!(
                    s.outcome,
                    SegmentOutcome::Crashed(CrashKind::DivisionByZero)
                )),
                "mode {mode:?} must surface the division crash"
            );
        }
    }

    #[test]
    fn decomposed_span_covers_offsets_read_from_loop_written_bytes() {
        // Iteration 1 rewrites the cursor byte 10 (pre-loop value 3) to 100;
        // iteration 2 then stores at the offset *read from byte 10*, i.e. at
        // byte 100. The decomposed summary must not bound the loop's stores
        // using the stale pre-loop cursor value: byte 100 really can change,
        // so the post-loop assert on it must keep a feasible crash path.
        let mut pb = ProgramBuilder::new("SelfRead", 1);
        let i = pb.local("i", 8);
        let off = pb.local("off", 32);
        let mut b = Block::new();
        b.pkt_store(10, 1, c(8, 3));
        b.pkt_store(100, 1, c(8, 7));
        b.loop_bounded(
            2,
            ult(l(i), c(8, 2)),
            Block::with(|lb| {
                lb.assign(off, zext(pkt(10, 1), 32));
                lb.pkt_store_at(l(off), 1, c(8, 55));
                lb.pkt_store(10, 1, c(8, 100));
                lb.assign(i, add(l(i), c(8, 1)));
            }),
        );
        b.assert(eq(pkt(100, 1), c(8, 7)), "byte 100 kept its pre-loop value");
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let decomposed = explore(&prog, &EngineConfig::decomposed()).unwrap();
        let solver = Solver::new();
        let assert_can_fail = decomposed.segments.iter().any(|s| {
            matches!(
                &s.outcome,
                SegmentOutcome::Crashed(CrashKind::AssertionFailed(m)) if m.contains("byte 100")
            ) && !solver.check(&s.constraint).is_unsat()
        });
        assert!(
            assert_can_fail,
            "the loop can write byte 100; its assert must keep a feasible crash path"
        );
    }

    #[test]
    fn budgets_are_enforced() {
        // A program with many sequential branches exceeds a tiny budget.
        let mut pb = ProgramBuilder::new("B", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        for i in 0..20 {
            b.if_then(
                eq(pkt(i, 1), c(8, 1)),
                Block::with(|bb| {
                    bb.assign(x, c(8, 1));
                }),
            );
        }
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let err = explore(
            &prog,
            &EngineConfig {
                max_segments: 10,
                max_branches: 1_000_000,
                loop_mode: LoopMode::Unroll,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::SegmentBudgetExceeded { .. }));
        let err = explore(
            &prog,
            &EngineConfig {
                max_segments: 1_000_000,
                max_branches: 5,
                loop_mode: LoopMode::Unroll,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::BranchBudgetExceeded { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn abort_and_unconditional_crash() {
        let pb = ProgramBuilder::new("X", 1);
        let mut b = Block::new();
        b.abort("unreachable");
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        assert_eq!(result.segments.len(), 1);
        assert!(matches!(
            result.segments[0].outcome,
            SegmentOutcome::Crashed(CrashKind::Aborted(_))
        ));
        assert_eq!(result.segments[0].constraint.len(), 0);
    }

    #[test]
    fn fallthrough_program_drops() {
        let mut pb = ProgramBuilder::new("F", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, c(8, 1));
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        assert_eq!(result.segments.len(), 1);
        assert_eq!(result.segments[0].outcome, SegmentOutcome::Dropped);
    }

    #[test]
    fn crash_in_untaken_select_arm_is_guarded() {
        // x := (pkt.len >= 2) ? pkt[1] : 0
        // The load of pkt[1] can only be out of bounds when the guard is
        // false, i.e. never on the path the concrete semantics takes, so the
        // crash segment must be infeasible.
        let mut pb = ProgramBuilder::new("G", 1);
        let x = pb.local("x", 8);
        let mut b = Block::new();
        b.assign(x, select(uge(pkt_len(), c(32, 2)), pkt(1, 1), c(8, 0)));
        b.emit(0);
        let prog = pb.finish(b).unwrap();
        let result = explore(&prog, &EngineConfig::default()).unwrap();
        let solver = Solver::new();
        for seg in result.crash_segments() {
            assert!(
                solver.check(&seg.constraint).is_unsat(),
                "guarded select crash must be infeasible: {:?}",
                seg.constraint
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn crash_kind_display() {
        for k in [
            CrashKind::AssertionFailed("m".into()),
            CrashKind::Aborted("m".into()),
            CrashKind::PacketOutOfBounds,
            CrashKind::DsKeyOutOfRange("t".into()),
            CrashKind::DivisionByZero,
            CrashKind::LoopBoundExceeded,
            CrashKind::StripUnderflow,
        ] {
            assert!(!k.to_string().is_empty());
        }
    }
}

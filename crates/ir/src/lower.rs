//! Lowered element code: the form in which the concrete interpreter runs a
//! program.
//!
//! [`Lowered::new`] lowers a validated [`Program`] once, flattening it into
//! postfix code over raw `u64` values: every width, mask, local slot,
//! data-structure index and crash message is resolved here, `If`, `Loop`
//! and `Select` become jumps, and each loop's iteration counter gets a slot
//! next to the locals. [`Lowered::run`] then executes that code on one
//! packet with a reusable [`Scratch`] (value stack and slots), so running a
//! packet allocates nothing but a crash's reason (and room for the bytes a
//! `PushFront` adds).
//!
//! # Counting
//!
//! The count follows [`crate::cost`]'s rule exactly, and is its reference.
//! Each op charges the node it stands for; `If` and `Select` are charged by
//! their branch and `Loop` by the op that zeroes its counter, so the count
//! is exact at every statement start. In postfix the ancestors of a
//! crashing node have not run yet, so each crashing op carries the static
//! number of its ancestors still uncharged (`pending`) and adds it.
//!
//! The limit is checked at loop back-edges and where execution ends. Counts
//! only grow and loop-free code is finite, so this gives the same `Err` or
//! `Ok` as checking at every node.

use crate::expr::{BinOp, CastKind, DsId, Expr, LocalId, UnOp};
use crate::interp::{ElementState, ExecError, ExecLimits, ExecResult};
use crate::program::{CrashReason, Outcome, Program, Stmt};
use crate::value::mask;

/// One op of lowered code. Expression ops pop their operands and push
/// their result; every op charges one instruction unless it says otherwise.
#[derive(Clone, Copy, Debug)]
enum Op {
    Const(u64),
    Local(u32),
    PacketLen,
    /// Pop a byte offset, push `bytes` big-endian packet bytes.
    Load {
        bytes: u8,
        pending: u32,
    },
    /// Pop a key, push the entry of store `ds`.
    DsRead {
        ds: u32,
        pending: u32,
    },
    Not(u64),
    Neg(u64),
    LogicalNot,
    Add(u64),
    Sub(u64),
    Mul(u64),
    UDiv {
        pending: u32,
    },
    URem {
        pending: u32,
    },
    And,
    Or,
    Xor,
    Shl {
        width: u8,
        mask: u64,
    },
    LShr {
        width: u8,
    },
    /// Arithmetic shift of a value `64 - shift` bits wide.
    AShr {
        shift: u8,
        mask: u64,
    },
    Eq,
    Ne,
    ULt,
    ULe,
    UGt,
    UGe,
    /// Signed comparisons of values `64 - shift` bits wide.
    SLt {
        shift: u8,
    },
    SLe {
        shift: u8,
    },
    /// A widening cast that keeps the raw value (zero extension).
    Widen,
    /// Sign-extend from `64 - shift` bits, then mask to the target width.
    SExt {
        shift: u8,
        mask: u64,
    },
    Trunc(u64),
    /// Pop a condition; jump when it is false. Charges the `If` statement
    /// or the `Select` node it branches for.
    JumpIfFalse(u32),
    /// Charges nothing.
    Jump(u32),
    /// Zero a loop's counter; charges the `Loop` statement.
    LoopInit(u32),
    /// Pop the loop condition: leave the loop when it is false, crash when
    /// the counter has reached the bound, else count the iteration.
    /// Charges nothing (the condition's nodes charged themselves).
    LoopTest {
        slot: u32,
        max_iters: u32,
        exit: u32,
    },
    /// The back-edge: checks the limit, charges nothing.
    LoopBack(u32),
    SetLocal(u32),
    /// Pop a value and a byte offset; store the low `bytes` of the value.
    Store {
        bytes: u8,
    },
    /// Pop a value and a key; write store `ds`.
    DsWrite(u32),
    StripFront(u32),
    PushFront(u32),
    /// Pop a condition; crash with message `n` when it is false.
    Assert(u32),
    Abort(u32),
    Emit(u8),
    Drop,
    Nop,
    /// Falling off the end of the body: drop, charging nothing.
    End,
}

/// A validated program lowered to flat code, ready to run any number of
/// packets. Holds nothing of the source [`Program`] but what running it
/// needs.
#[derive(Clone, Debug)]
pub struct Lowered {
    ops: Vec<Op>,
    /// Locals first, then one counter per loop.
    slots: usize,
    /// Deepest the value stack gets.
    stack: usize,
    /// Stores the code indexes: a state must have at least this many.
    stores: usize,
    /// `Assert` and `Abort` crash reasons, by message index.
    messages: Vec<CrashReason>,
}

/// Per-run working memory of [`Lowered::run`]: the value stack and the
/// slots. Reuse one across packets (and programs) so a run allocates
/// nothing once the scratch has grown to the largest program's needs.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    stack: Vec<u64>,
    slots: Vec<u64>,
}

impl Lowered {
    /// Lower `program`, which must validate ([`crate::validate()`];
    /// [`crate::builder::ProgramBuilder::finish`] runs it). A program that
    /// uses a local or data structure it does not declare is a
    /// [`ExecError::MalformedProgram`]; one that fails validation otherwise
    /// lowers to meaningless code or panics.
    pub fn new(program: &Program) -> Result<Lowered, ExecError> {
        let mut lowering = Lowering {
            program,
            ops: Vec::new(),
            depth: 0,
            max_depth: 0,
            slots: program.locals.len() as u32,
            messages: Vec::new(),
        };
        lowering.block(&program.body)?;
        lowering.ops.push(Op::End);
        Ok(Lowered {
            ops: lowering.ops,
            slots: lowering.slots as usize,
            stack: lowering.max_depth,
            stores: program.data_structures.len(),
            messages: lowering.messages,
        })
    }

    /// Run the code on `packet` (which it may rewrite) against `state`
    /// (which it may update), under `limits`.
    pub fn run(
        &self,
        packet: &mut Vec<u8>,
        state: &mut ElementState,
        limits: &ExecLimits,
        scratch: &mut Scratch,
    ) -> Result<ExecResult, ExecError> {
        if state.len() < self.stores {
            return Err(malformed(format!(
                "the program declares {} data structures, the state has {}",
                self.stores,
                state.len()
            )));
        }
        let limit = limits.max_instructions;
        if scratch.stack.len() < self.stack {
            scratch.stack.resize(self.stack, 0);
        }
        scratch.slots.clear();
        scratch.slots.resize(self.slots, 0);
        let stack = &mut scratch.stack[..];
        let slots = &mut scratch.slots[..];
        let stores = &mut state.stores[..];
        let ops = &self.ops[..];
        let mut sp = 0usize;
        let mut pc = 0usize;
        let mut count = 0u64;
        macro_rules! pop {
            () => {{
                sp -= 1;
                stack[sp]
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                stack[sp] = $v;
                sp += 1;
            }};
        }
        // A binary op on the top two values, result in place.
        macro_rules! binary {
            (|$a:ident, $b:ident| $v:expr) => {{
                count += 1;
                sp -= 1;
                let ($a, $b) = (stack[sp - 1], stack[sp]);
                stack[sp - 1] = $v;
            }};
        }
        // A unary op on the top value, in place.
        macro_rules! unary {
            (|$a:ident| $v:expr) => {{
                count += 1;
                let $a = stack[sp - 1];
                stack[sp - 1] = $v;
            }};
        }
        let outcome = loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Const(v) => {
                    count += 1;
                    push!(v);
                }
                Op::Local(slot) => {
                    count += 1;
                    push!(slots[slot as usize]);
                }
                Op::PacketLen => {
                    count += 1;
                    push!(packet.len() as u32 as u64);
                }
                Op::Load { bytes, pending } => {
                    count += 1;
                    let offset = stack[sp - 1];
                    match packet_range(offset, bytes, packet.len()) {
                        Some(range) => stack[sp - 1] = read_be(&packet[range]),
                        None => {
                            count += pending as u64;
                            break Outcome::Crashed(out_of_bounds(offset, bytes, packet));
                        }
                    }
                }
                Op::DsRead { ds, pending } => {
                    count += 1;
                    let key = stack[sp - 1];
                    let store = &stores[ds as usize];
                    match store.get(key) {
                        Some(v) => stack[sp - 1] = v,
                        None => {
                            count += pending as u64;
                            break Outcome::Crashed(store.out_of_range(key));
                        }
                    }
                }
                Op::Not(m) => unary!(|a| !a & m),
                Op::Neg(m) => unary!(|a| a.wrapping_neg() & m),
                Op::LogicalNot => unary!(|a| (a == 0) as u64),
                Op::Add(m) => binary!(|a, b| a.wrapping_add(b) & m),
                Op::Sub(m) => binary!(|a, b| a.wrapping_sub(b) & m),
                Op::Mul(m) => binary!(|a, b| a.wrapping_mul(b) & m),
                Op::UDiv { pending } | Op::URem { pending } => {
                    count += 1;
                    let b = pop!();
                    if b == 0 {
                        count += pending as u64;
                        break Outcome::Crashed(CrashReason::DivisionByZero);
                    }
                    let a = stack[sp - 1];
                    stack[sp - 1] = if matches!(op, Op::UDiv { .. }) {
                        a / b
                    } else {
                        a % b
                    };
                }
                Op::And => binary!(|a, b| a & b),
                Op::Or => binary!(|a, b| a | b),
                Op::Xor => binary!(|a, b| a ^ b),
                Op::Shl { width, mask } => {
                    binary!(|a, b| if b >= width as u64 {
                        0
                    } else {
                        (a << b) & mask
                    })
                }
                Op::LShr { width } => binary!(|a, b| if b >= width as u64 { 0 } else { a >> b }),
                Op::AShr { shift, mask } => binary!(|a, b| {
                    let top = 63 - shift as u64;
                    ((signed(a, shift) >> b.min(top)) as u64) & mask
                }),
                Op::Eq => binary!(|a, b| (a == b) as u64),
                Op::Ne => binary!(|a, b| (a != b) as u64),
                Op::ULt => binary!(|a, b| (a < b) as u64),
                Op::ULe => binary!(|a, b| (a <= b) as u64),
                Op::UGt => binary!(|a, b| (a > b) as u64),
                Op::UGe => binary!(|a, b| (a >= b) as u64),
                Op::SLt { shift } => binary!(|a, b| (signed(a, shift) < signed(b, shift)) as u64),
                Op::SLe { shift } => binary!(|a, b| (signed(a, shift) <= signed(b, shift)) as u64),
                Op::Widen => count += 1,
                Op::SExt { shift, mask } => unary!(|a| signed(a, shift) as u64 & mask),
                Op::Trunc(m) => unary!(|a| a & m),
                Op::JumpIfFalse(target) => {
                    count += 1;
                    if pop!() == 0 {
                        pc = target as usize;
                    }
                }
                Op::Jump(target) => pc = target as usize,
                Op::LoopInit(slot) => {
                    count += 1;
                    slots[slot as usize] = 0;
                }
                Op::LoopTest {
                    slot,
                    max_iters,
                    exit,
                } => {
                    if pop!() == 0 {
                        pc = exit as usize;
                    } else if slots[slot as usize] >= max_iters as u64 {
                        break Outcome::Crashed(CrashReason::LoopBoundExceeded { max_iters });
                    } else {
                        slots[slot as usize] += 1;
                    }
                }
                Op::LoopBack(head) => {
                    if count > limit {
                        return Err(ExecError::InstructionLimitExceeded { limit });
                    }
                    pc = head as usize;
                }
                Op::SetLocal(slot) => {
                    count += 1;
                    slots[slot as usize] = pop!();
                }
                Op::Store { bytes } => {
                    count += 1;
                    let value = pop!();
                    let offset = pop!();
                    match packet_range(offset, bytes, packet.len()) {
                        Some(range) => {
                            let be = value.to_be_bytes();
                            packet[range].copy_from_slice(&be[8 - bytes as usize..]);
                        }
                        None => break Outcome::Crashed(out_of_bounds(offset, bytes, packet)),
                    }
                }
                Op::DsWrite(ds) => {
                    count += 1;
                    let value = pop!();
                    let key = pop!();
                    let store = &mut stores[ds as usize];
                    if !store.set(key, value) {
                        break Outcome::Crashed(store.out_of_range(key));
                    }
                }
                Op::StripFront(n) => {
                    count += 1;
                    if (packet.len() as u64) < n as u64 {
                        break Outcome::Crashed(CrashReason::StripUnderflow {
                            strip: n,
                            packet_len: packet.len() as u64,
                        });
                    }
                    packet.drain(..n as usize);
                }
                Op::PushFront(n) => {
                    count += 1;
                    let (n, len) = (n as usize, packet.len());
                    packet.resize(len + n, 0);
                    packet.copy_within(..len, n);
                    packet[..n].fill(0);
                }
                Op::Assert(message) => {
                    count += 1;
                    if pop!() == 0 {
                        break Outcome::Crashed(self.messages[message as usize].clone());
                    }
                }
                Op::Abort(message) => {
                    count += 1;
                    break Outcome::Crashed(self.messages[message as usize].clone());
                }
                Op::Emit(port) => {
                    count += 1;
                    break Outcome::Emitted(port);
                }
                Op::Drop => {
                    count += 1;
                    break Outcome::Dropped;
                }
                Op::Nop => count += 1,
                Op::End => break Outcome::Dropped,
            }
        };
        if count > limit {
            return Err(ExecError::InstructionLimitExceeded { limit });
        }
        Ok(ExecResult {
            outcome,
            instructions: count,
        })
    }
}

fn malformed(detail: String) -> ExecError {
    ExecError::MalformedProgram { detail }
}

/// The packet bytes an access of `bytes` at `offset` covers, if in bounds.
fn packet_range(offset: u64, bytes: u8, len: usize) -> Option<std::ops::Range<usize>> {
    let end = offset.checked_add(bytes as u64)?;
    (end <= len as u64).then_some(offset as usize..end as usize)
}

fn out_of_bounds(offset: u64, width_bytes: u8, packet: &[u8]) -> CrashReason {
    CrashReason::PacketOutOfBounds {
        offset,
        width_bytes,
        packet_len: packet.len() as u64,
    }
}

/// Big-endian (network order) bytes as a value.
fn read_be(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |v, &b| (v << 8) | b as u64)
}

/// A raw value of `64 - shift` bits, sign-extended.
fn signed(v: u64, shift: u8) -> i64 {
    ((v << shift) as i64) >> shift
}

/// The lowering pass: one walk over the program, emitting ops.
struct Lowering<'p> {
    program: &'p Program,
    ops: Vec<Op>,
    /// Stack depth after the ops emitted so far, and its maximum.
    depth: usize,
    max_depth: usize,
    /// Next free slot (locals take the first ones).
    slots: u32,
    messages: Vec<CrashReason>,
}

impl Lowering<'_> {
    /// Emit `op`, which changes the stack depth by `delta`; returns its
    /// index for later patching.
    fn emit(&mut self, op: Op, delta: isize) -> usize {
        self.ops.push(op);
        self.depth = self.depth.wrapping_add_signed(delta);
        self.max_depth = self.max_depth.max(self.depth);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Point the jump at `at` to the next op to be emitted.
    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.ops[at] {
            Op::JumpIfFalse(t) | Op::Jump(t) | Op::LoopTest { exit: t, .. } => *t = target,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    fn message(&mut self, reason: CrashReason) -> u32 {
        self.messages.push(reason);
        self.messages.len() as u32 - 1
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
        stmts.iter().try_for_each(|stmt| self.stmt(stmt))
    }

    /// The declared width of a local, or the error of a program that
    /// reads or assigns one it does not declare.
    fn local(&self, id: LocalId, use_: &str) -> Result<u8, ExecError> {
        match self.program.local(id) {
            Some(decl) => Ok(decl.width),
            None => Err(malformed(format!("{use_} of unknown local l{}", id.0))),
        }
    }

    /// The value width of a data structure, or the error of a program that
    /// accesses one it does not declare.
    fn ds(&self, id: DsId, use_: &str) -> Result<u8, ExecError> {
        match self.program.ds(id) {
            Some(decl) => Ok(decl.value_width),
            None => Err(malformed(format!(
                "{use_} of unknown data structure ds{}",
                id.0
            ))),
        }
    }

    /// Lower one statement. Its expressions run before it is charged, so
    /// they see one more pending ancestor — except a loop condition, which
    /// runs after `LoopInit` charged the loop.
    fn stmt(&mut self, stmt: &Stmt) -> Result<(), ExecError> {
        match stmt {
            Stmt::Assign { local, value } => {
                self.local(*local, "assignment")?;
                self.expr(value, 1)?;
                self.emit(Op::SetLocal(local.0), -1);
            }
            Stmt::PacketStore {
                offset,
                width_bytes,
                value,
            } => {
                self.expr(offset, 1)?;
                self.expr(value, 1)?;
                self.emit(
                    Op::Store {
                        bytes: *width_bytes,
                    },
                    -2,
                );
            }
            Stmt::DsWrite { ds, key, value } => {
                self.ds(*ds, "write")?;
                self.expr(key, 1)?;
                self.expr(value, 1)?;
                self.emit(Op::DsWrite(ds.0), -2);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr(cond, 1)?;
                let branch = self.emit(Op::JumpIfFalse(0), -1);
                self.block(then_body)?;
                if else_body.is_empty() {
                    self.patch(branch);
                } else {
                    let skip = self.emit(Op::Jump(0), 0);
                    self.patch(branch);
                    self.block(else_body)?;
                    self.patch(skip);
                }
            }
            Stmt::Loop {
                max_iters,
                cond,
                body,
            } => {
                let slot = self.slots;
                self.slots += 1;
                self.emit(Op::LoopInit(slot), 0);
                let head = self.here();
                self.expr(cond, 0)?;
                let test = self.emit(
                    Op::LoopTest {
                        slot,
                        max_iters: *max_iters,
                        exit: 0,
                    },
                    -1,
                );
                self.block(body)?;
                self.emit(Op::LoopBack(head), 0);
                self.patch(test);
            }
            Stmt::StripFront { n } => {
                self.emit(Op::StripFront(*n), 0);
            }
            Stmt::PushFront { n } => {
                self.emit(Op::PushFront(*n), 0);
            }
            Stmt::Assert { cond, message } => {
                self.expr(cond, 1)?;
                let message = self.message(CrashReason::AssertionFailed {
                    message: message.clone(),
                });
                self.emit(Op::Assert(message), -1);
            }
            Stmt::Abort { message } => {
                let message = self.message(CrashReason::Aborted {
                    message: message.clone(),
                });
                self.emit(Op::Abort(message), 0);
            }
            Stmt::Emit { port } => {
                self.emit(Op::Emit(*port), 0);
            }
            Stmt::Drop => {
                self.emit(Op::Drop, 0);
            }
            Stmt::Nop => {
                self.emit(Op::Nop, 0);
            }
        }
        Ok(())
    }

    /// Lower one expression, returning its width.
    /// `pending` is the number of its ancestors not yet charged when its
    /// own op runs; its operands have one more (itself), except the arms
    /// of a `Select`, whose branch charged it.
    fn expr(&mut self, e: &Expr, pending: u32) -> Result<u8, ExecError> {
        let inner = pending + 1;
        match e {
            Expr::Const(v) => {
                self.emit(Op::Const(v.as_u64()), 1);
                Ok(v.width())
            }
            Expr::Local(id) => {
                self.emit(Op::Local(id.0), 1);
                self.local(*id, "read")
            }
            Expr::PacketLen => {
                self.emit(Op::PacketLen, 1);
                Ok(32)
            }
            Expr::PacketLoad {
                offset,
                width_bytes,
            } => {
                self.expr(offset, inner)?;
                self.emit(
                    Op::Load {
                        bytes: *width_bytes,
                        pending,
                    },
                    0,
                );
                Ok(width_bytes * 8)
            }
            Expr::DsRead { ds, key } => {
                self.expr(key, inner)?;
                self.emit(Op::DsRead { ds: ds.0, pending }, 0);
                self.ds(*ds, "read")
            }
            Expr::Unary { op, arg } => {
                let width = self.expr(arg, inner)?;
                let m = mask(width);
                let op = match op {
                    UnOp::Not => Op::Not(m),
                    UnOp::Neg => Op::Neg(m),
                    UnOp::LogicalNot => Op::LogicalNot,
                };
                self.emit(op, 0);
                Ok(width)
            }
            Expr::Binary { op, lhs, rhs } => {
                let width = self.expr(lhs, inner)?;
                self.expr(rhs, inner)?;
                let (m, shift) = (mask(width), 64 - width);
                let lowered = match op {
                    BinOp::Add => Op::Add(m),
                    BinOp::Sub => Op::Sub(m),
                    BinOp::Mul => Op::Mul(m),
                    BinOp::UDiv => Op::UDiv { pending },
                    BinOp::URem => Op::URem { pending },
                    // 1-bit operands: logical and bitwise agree.
                    BinOp::And | BinOp::BoolAnd => Op::And,
                    BinOp::Or | BinOp::BoolOr => Op::Or,
                    BinOp::Xor => Op::Xor,
                    BinOp::Shl => Op::Shl { width, mask: m },
                    BinOp::LShr => Op::LShr { width },
                    BinOp::AShr => Op::AShr { shift, mask: m },
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::ULt => Op::ULt,
                    BinOp::ULe => Op::ULe,
                    BinOp::UGt => Op::UGt,
                    BinOp::UGe => Op::UGe,
                    BinOp::SLt => Op::SLt { shift },
                    BinOp::SLe => Op::SLe { shift },
                };
                self.emit(lowered, -1);
                Ok(if op.is_comparison() || op.is_boolean() {
                    1
                } else {
                    width
                })
            }
            Expr::Select {
                cond,
                then_e,
                else_e,
            } => {
                self.expr(cond, inner)?;
                let branch = self.emit(Op::JumpIfFalse(0), -1);
                let width = self.expr(then_e, pending)?;
                let skip = self.emit(Op::Jump(0), 0);
                self.patch(branch);
                // Only one arm runs: the else arm starts from the depth
                // the then arm started from.
                self.depth -= 1;
                self.expr(else_e, pending)?;
                self.patch(skip);
                Ok(width)
            }
            Expr::Cast { kind, width, arg } => {
                let from = self.expr(arg, inner)?;
                let op = match kind {
                    CastKind::ZExt => Op::Widen,
                    CastKind::Resize if *width >= from => Op::Widen,
                    CastKind::SExt => Op::SExt {
                        shift: 64 - from,
                        mask: mask(*width),
                    },
                    CastKind::Trunc | CastKind::Resize => Op::Trunc(mask(*width)),
                };
                self.emit(op, 0);
                Ok(*width)
            }
        }
    }
}

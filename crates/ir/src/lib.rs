//! # dataplane-ir — the element IR of the verifiable software dataplane
//!
//! This crate defines the small imperative language in which every
//! packet-processing element expresses its *verification model*: the exact
//! per-packet behaviour that the compositional verifier reasons about.
//!
//! The design follows the pipeline structure of Dobrescu & Argyraki,
//! *Toward a Verifiable Software Dataplane* (HotNets 2013):
//!
//! * an element receives **packet state** (the packet bytes plus metadata) it
//!   exclusively owns while processing,
//! * it may read/write **private state** and read **static state** through a
//!   narrow key/value interface ([`program::DsDecl`]),
//! * it finishes by emitting the packet on an output port, dropping it, or
//!   crashing ([`program::Outcome`]).
//!
//! The IR is deliberately loop-bounded and free of pointers, recursion, and
//! shared mutable state, which is what makes exhaustive per-element symbolic
//! execution (crate `dataplane-symbex`) and compositional pipeline proofs
//! (crate `dataplane-verifier`) tractable — the central claim of the paper.
//!
//! ## Modules
//!
//! * [`value`] — fixed-width bit-vector values.
//! * [`expr`] — side-effect-free expressions and the [`expr::dsl`] helpers.
//! * [`program`] — statements, declarations, programs, outcomes.
//! * [`builder`] — ergonomic program construction.
//! * [`mod@validate`] — static width/type checking.
//! * [`interp`] — concrete execution: element state, limits, results.
//! * [`cost`] — the instruction cost model, the one rule every count
//!   follows.
//! * [`lower`] — programs lowered to flat code, the form the concrete
//!   interpreter runs; its count is the reference of [`cost`]'s rule.
//! * [`pretty`] — human-readable rendering for reports.
//!
//! ## Example
//!
//! ```
//! use dataplane_ir::builder::{Block, ProgramBuilder};
//! use dataplane_ir::expr::dsl::*;
//! use dataplane_ir::interp::{execute_default, ElementState};
//! use dataplane_ir::program::Outcome;
//!
//! // An element that decrements the first packet byte and drops the packet
//! // when the byte reaches zero (a toy TTL check).
//! let mut pb = ProgramBuilder::new("ToyDecTTL", 1);
//! let ttl = pb.local("ttl", 8);
//! let mut body = Block::new();
//! body.assign(ttl, pkt(0, 1));
//! body.if_then(ule(l(ttl), c(8, 1)), Block::with(|b| { b.drop_packet(); }));
//! body.pkt_store(0, 1, sub(l(ttl), c(8, 1)));
//! body.emit(0);
//! let program = pb.finish(body).unwrap();
//!
//! let mut packet = vec![5u8, 0, 0, 0];
//! let mut state = ElementState::for_program(&program);
//! let result = execute_default(&program, &mut packet, &mut state).unwrap();
//! assert_eq!(result.outcome, Outcome::Emitted(0));
//! assert_eq!(packet[0], 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cost;
pub mod expr;
pub mod interp;
pub mod lower;
pub mod pretty;
pub mod program;
pub mod validate;
pub mod value;

pub use builder::{Block, ProgramBuilder};
pub use expr::{BinOp, CastKind, DsId, Expr, LocalId, UnOp};
pub use interp::{execute, execute_default, ElementState, ExecError, ExecLimits, ExecResult};
pub use lower::{Lowered, Scratch};
pub use program::{CrashReason, DsClass, DsDecl, DsKind, LocalDecl, Outcome, Program, Stmt};
pub use validate::{expr_width, validate, ValidationError};
pub use value::BitVec;

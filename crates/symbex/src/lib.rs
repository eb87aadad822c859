//! # dataplane-symbex — symbolic execution for the element IR
//!
//! This crate is the reproduction's stand-in for the S2E/KLEE-style symbolic
//! execution engine the paper builds on: it executes an element's IR model
//! with a fully symbolic packet and produces the per-path **segments** that
//! the compositional verifier (crate `dataplane-verifier`) tags, composes,
//! and discharges.
//!
//! * [`term`] — symbolic bit-vector terms with constant folding, evaluation,
//!   and substitution (the substitution is what implements the paper's
//!   "stitching" of segments into pipeline paths).
//! * [`state`] — the symbolic packet transformation along one path.
//! * [`engine`] — exhaustive path exploration with two loop-handling modes
//!   (full unrolling vs. the paper's loop decomposition).
//! * [`solver`] — the decision procedure used to discharge infeasible paths
//!   (sound `Unsat`) and to build verified counterexample models (sound
//!   `Sat`).
//!
//! ## Example: exploring a toy element
//!
//! ```
//! use dataplane_ir::builder::{Block, ProgramBuilder};
//! use dataplane_ir::expr::dsl::*;
//! use dataplane_symbex::engine::{explore, EngineConfig};
//!
//! // A toy element that crashes when the first packet byte is zero.
//! let mut pb = ProgramBuilder::new("Toy", 1);
//! let x = pb.local("x", 8);
//! let mut b = Block::new();
//! b.assign(x, udiv(c(8, 255), pkt(0, 1)));
//! b.emit(0);
//! let program = pb.finish(b).unwrap();
//!
//! let exploration = explore(&program, &EngineConfig::default()).unwrap();
//! assert!(exploration.segments.iter().any(|s| s.outcome.is_crash()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod engine;
pub mod solver;
pub mod state;
pub mod term;

pub use cancel::CancelToken;
pub use engine::{
    explore, explore_with_cancel, CrashKind, DsReadRecord, DsWriteRecord, EngineConfig,
    Exploration, ExploreError, LoopMode, Segment, SegmentOutcome,
};
pub use solver::{
    interval_infeasible, term_bounds, CheckDiagnostics, Decision, Interval, Solver, SolverConfig,
    SolverResult, SolverStage,
};
pub use state::SymPacket;
pub use term::{Assignment, Term, TermRef, VarId};

// Terms are shared through `Arc`, so explorations (and everything the
// parallel verification orchestrator moves between worker threads) are
// `Send + Sync` by construction. These assertions make that a compile-time
// contract of the crate rather than an accident of its field types.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TermRef>();
    assert_send_sync::<Segment>();
    assert_send_sync::<Exploration>();
    assert_send_sync::<Solver>();
    assert_send_sync::<EngineConfig>();
    assert_send_sync::<CancelToken>();
};

//! # dataplane-verifier — compositional verification of software dataplanes
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! verifier that proves pipeline-level properties (crash freedom, bounded
//! per-packet instruction counts, reachability) by symbolically executing
//! each packet-processing element **in isolation** and then composing the
//! per-element results, instead of symbolically executing the pipeline as one
//! program.
//!
//! The verification process follows §3 of Dobrescu & Argyraki, *Toward a
//! Verifiable Software Dataplane* (HotNets 2013):
//!
//! 1. **Step 1** ([`summary`]) — every distinct element behaviour is explored
//!    once with the symbolic engine; segments that could violate the target
//!    property are tagged *suspect* ([`property`]).
//! 2. **Step 2** ([`compose`], [`verifier`]) — suspect segments are stitched
//!    onto every feasible pipeline prefix; the solver either discharges the
//!    stitched path as infeasible or produces a concrete counterexample
//!    packet, which is then confirmed by replaying it on the pipeline.
//!
//! The [`monolithic`] module implements the baseline the paper compares
//! against (whole-pipeline symbolic execution with unrolled loops and no
//! summary reuse), and the benches in `crates/bench` regenerate the paper's
//! evaluation from these two code paths.
//!
//! ## Example
//!
//! ```
//! use dataplane_pipeline::presets::ip_router_pipeline;
//! use dataplane_verifier::{Property, Verifier};
//!
//! let router = ip_router_pipeline();
//! let mut verifier = Verifier::new();
//! let report = verifier.verify(&router, &Property::CrashFreedom);
//! assert!(report.is_proven(), "{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compose;
pub mod monolithic;
pub mod property;
pub mod records;
pub mod report;
pub mod summary;
pub mod temporal;
mod tree;
pub mod verifier;

pub use dataplane_temporal::LtlSpec;
pub use monolithic::{explore_monolithic, MonolithicConfig, MonolithicResult};
pub use property::Property;
pub use records::RecordTable;
pub use report::{
    Counterexample, InstructionBoundReport, Report, UnprovenPath, Verdict, VerificationStats,
};
pub use summary::{summary_key, ElementSummary, SummaryCache};
pub use verifier::{
    run_violates_property, CheckOutcome, CheckRecord, ComposeOutline, ComposeShardResult,
    OutlineNode, ShardEdge, ShardNodeRecord, Verifier, VerifierOptions,
};

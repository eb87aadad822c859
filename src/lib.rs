//! # vericlick — a verifiable software dataplane
//!
//! This is the umbrella crate of the workspace: it re-exports the five
//! library crates so that the runnable examples under `examples/` and the
//! cross-crate integration tests under `tests/` can use one coherent facade.
//!
//! * [`ir`] (`dataplane-ir`) — the element IR and its concrete interpreter.
//! * [`net`] (`dataplane-net`) — packets, protocol codecs, workloads.
//! * [`pipeline`] (`dataplane-pipeline`) — the Click-like dataplane and the
//!   element library.
//! * [`symbex`] (`dataplane-symbex`) — the symbolic execution engine and the
//!   constraint solver.
//! * [`verifier`] (`dataplane-verifier`) — the compositional verifier, the
//!   paper's contribution.
//! * [`orchestrator`] (`dataplane-orchestrator`) — the parallel verification
//!   service layer: per-element jobs on a work-stealing pool, a
//!   content-addressed summary cache, and the preset scenario matrix.
//!
//! See `README.md` for the project overview and the system inventory, and
//! `ledger/README.md` for the benchmark: its workloads, metrics, and the
//! recorded measurements.

#![forbid(unsafe_code)]

pub mod cli;

pub use dataplane_ir as ir;
pub use dataplane_net as net;
pub use dataplane_orchestrator as orchestrator;
pub use dataplane_pipeline as pipeline;
pub use dataplane_symbex as symbex;
pub use dataplane_verifier as verifier;

/// The version of the vericlick workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_layers() {
        // One symbol from each layer, to keep the re-exports honest.
        let _ = crate::ir::BitVec::u8(1);
        let _ = crate::net::Packet::from_bytes(vec![1, 2, 3]);
        let _ = crate::pipeline::presets::ip_router_pipeline();
        let _ = crate::symbex::Solver::new();
        let _ = crate::verifier::Verifier::new();
        let _ = crate::orchestrator::VerifyService::new();
        assert!(!crate::VERSION.is_empty());
    }
}

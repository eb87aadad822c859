//! # dataplane-orchestrator — the verification service layer
//!
//! The compositional verifier (`dataplane-verifier`) proves pipeline
//! properties by exploring each element **in isolation** and composing the
//! per-element summaries. This crate turns that structure into a service
//! with **one front door**:
//!
//! * [`service`] — [`VerifyService`] serves typed, serialisable
//!   [`VerifyRequest`]s (`Single` / `Matrix` / `Diff` / `Watch`) and
//!   returns [`VerifyResponse`]s; it owns the summary store, the
//!   worker-thread budget, and the verifier options. The **plan/execute
//!   split** makes the job plan a first-class artifact:
//!   [`VerifyService::plan_request`] produces a [`wire::PlanSpec`] that
//!   round-trips through JSON, [`VerifyService::execute_plan`] runs one
//!   through any [`exec::Executor`].
//! * [`exec`] — the execution backends, layered for distribution: a
//!   line-JSON [`exec::transport::Transport`] abstraction (stdio, TCP,
//!   Unix sockets), the [`exec::WorkerRegistry`] (hello handshake with
//!   protocol/schema versions and capacity, liveness,
//!   drain-and-requeue), pull-based dispatch over one shared job queue,
//!   and the [`exec::WorkerFleet`] executor that runs Step-1
//!   explorations *and* Step-2 compositions on local or networked
//!   workers — byte-identical reports proven end to end.
//! * [`wire`] — the JSON codecs for requests, plans, options, jobs
//!   (explore *and* compose), and the deterministic report form, all
//!   schema-versioned.
//! * [`executor`] — the **shared scheduler**: one dynamic work-stealing
//!   pool ([`executor::Pool`]) plus a pool-wide thread ledger
//!   ([`executor::ThreadBudget`]) that explore jobs and composition jobs
//!   draw from together, so peak live solver threads are bounded by the
//!   single pool size.
//! * [`diff`] — incremental re-verification: fingerprint two pipeline
//!   configs and re-verify only scenarios whose element set changed (a
//!   composition-only pass for wiring-only diffs).
//! * [`cache`] — the content-addressed [`SummaryStore`]: an in-memory tier
//!   shared across workers and an optional JSON persistent tier, keyed by
//!   [`Fingerprint`]s of element behaviour + engine configuration.
//! * [`matrix`] — [`Scenario`], the scenario matrix (every preset
//!   pipeline × crash freedom, bounded execution, reachability) and the
//!   aggregate machine-readable [`MatrixReport`].
//! * [`fingerprint`] / [`persist`] / [`json`] — content hashing and the
//!   hand-rolled JSON codec (the workspace's `serde` is an offline API
//!   stub, so serialisation is explicit here).
//!
//! Parallel runs reuse the sequential verifier for composition, seeded with
//! pre-computed summaries — verdicts are identical to `Verifier::verify`,
//! only the wall-clock differs. The same holds across *processes*: a plan
//! serialised by one process and executed by another yields byte-identical
//! deterministic reports.
//!
//! ## Example
//!
//! ```
//! use dataplane_orchestrator::{Scenario, VerifyRequest, VerifyService};
//! use dataplane_pipeline::presets::ip_router_pipeline;
//! use dataplane_verifier::Property;
//!
//! let service = VerifyService::new().with_threads(4);
//! let report = service.verify(ip_router_pipeline(), Property::CrashFreedom);
//! assert!(report.is_proven(), "{report}");
//!
//! // The same verification through the front door, as a typed request —
//! // and a second run plans zero element jobs: every summary is served
//! // from the warm store.
//! let response = service
//!     .serve(VerifyRequest::Matrix {
//!         scenarios: vec![Scenario::new(
//!             "router",
//!             ip_router_pipeline(),
//!             Property::CrashFreedom,
//!         )],
//!     })
//!     .unwrap();
//! assert_eq!(response.matrix().unwrap().explore_jobs, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod codec;
pub mod conformance;
pub mod daemon;
pub mod diff;
pub mod exec;
pub mod executor;
pub mod fingerprint;
pub mod json;
pub mod matrix;
pub mod persist;
pub mod service;
pub mod wire;

pub use cache::{CacheStats, SummaryStore};
pub use conformance::{
    ConformanceReport, Contradiction, FuzzScenarioReport, FuzzShardReport, ReplayOutcome,
};
pub use daemon::{join_fleet, ClientReply, Daemon, DaemonClient, DaemonConfig};
pub use diff::{config_scenarios, DiffEntry, DiffKind, DiffReport, NamedConfig};
pub use exec::{
    serve_listener, worker_serve, DispatchStats, ExecError, Executor, HeartbeatConfig,
    InProcessExecutor, Listener, WorkerAddr, WorkerFleet, WorkerRegistry,
};
pub use executor::ThreadBudget;
pub use fingerprint::{element_fingerprint, fingerprint_bytes, Fingerprint};
pub use matrix::{
    preset_pipelines, preset_properties, preset_scenarios, MatrixReport, Scenario, ScenarioReport,
};
pub use service::{
    plan, BoundOutcome, ExploreSpec, JobPlan, ProgressEvent, PropertySelect, ServiceError,
    VerifyOutcome, VerifyRequest, VerifyResponse, VerifyService,
};
pub use wire::{
    ComposeJob, ComposeShardJob, ExploreJob, FuzzJob, JobSpec, PlanSpec, ScenarioSpec, WireError,
};

// The service moves pipelines, summaries, and progress observers across
// worker threads; keep those bounds a compile-time contract.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<Scenario>();
    assert_send::<VerifyRequest>();
    assert_send_sync::<VerifyService>();
    assert_send_sync::<SummaryStore>();
    assert_send_sync::<std::sync::Arc<dataplane_verifier::ElementSummary>>();
};

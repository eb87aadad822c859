//! Plan execution backends, layered for distribution:
//!
//! * [`transport`] — the line-JSON framing every worker conversation uses,
//!   behind one [`transport::Transport`] trait with **stdio** (spawned
//!   subprocess), **TCP**, and **Unix-socket** implementations. A
//!   [`transport::Connector`] knows how to open one; a [`Listener`] is
//!   where the daemon and socket workers accept them.
//! * [`registry`] — the [`WorkerRegistry`]: which workers joined (hello
//!   with protocol + schema version and capacity), which died, how much
//!   work each did, and the aggregate [`DispatchStats`] reported in
//!   `MatrixReport`.
//! * [`dispatch`] — **pull-based dispatch**: one shared job queue that
//!   connected workers drain at their own pace (each keeps up to its
//!   advertised capacity in flight). A worker that dies mid-plan has its
//!   in-flight jobs requeued and the survivors drain them — no job is
//!   pre-assigned to a worker, which is what makes uneven job costs (the
//!   prune-heavy Step-2 walks especially) load-balance.
//! * `frame` — the frames of both line protocols, the one place their
//!   format lives: one type per direction of the worker protocol
//!   (coordinator ↔ worker) and of the client protocol (client ↔
//!   daemon), with one encode and one decode each, and one codec per job
//!   kind's result payload. Results are decoded on the dispatch thread
//!   that received them.
//! * [`worker`] — the worker side of the protocol: handshake, concurrent
//!   job execution, [`worker_serve`] over any read/write pair and
//!   [`serve_listener`] for `vericlick worker --listen`.
//! * [`fleet`] — [`WorkerFleet`], the [`Executor`] over all of the above:
//!   subprocess workers (`--workers N`) or socket workers
//!   (`--workers host:port,...`), executing **both** Step-1 explorations
//!   and Step-2 compositions remotely.
//!
//! Results are folded back **by job index**, so reports are byte-identical
//! to an in-process run no matter which worker finished what, in which
//! order, or how often a job was requeued.
//!
//! Workers re-instantiate each element from the config factory and verify
//! the job's content fingerprint before exploring, so a worker built from
//! different element code fails loudly instead of poisoning the cache.

pub mod dispatch;
pub mod fleet;
pub(crate) mod frame;
pub mod registry;
pub mod transport;
pub mod worker;

pub use dispatch::HeartbeatConfig;
pub use fleet::WorkerFleet;
pub use frame::{WORKER_PROTO, WORKER_SCHEMA};
pub use registry::{DispatchStats, WorkerRegistry};
pub use transport::{Connector, Listener, SocketConnector, SpawnConnector, Transport, WorkerAddr};
pub use worker::{serve_listener, worker_serve, WorkerState};

use crate::fingerprint::{element_fingerprint, Fingerprint};
use crate::wire::{ComposeJob, ExploreJob};
use dataplane_pipeline::config::instantiate;
use dataplane_symbex::{explore, EngineConfig};
use dataplane_verifier::{ElementSummary, Report, VerifierOptions};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A plan-execution failure.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// A worker process could not be spawned or waited on.
    Spawn(String),
    /// A socket worker could not be reached.
    Connect(String),
    /// A protocol frame did not parse or had the wrong shape.
    Protocol(String),
    /// A job failed inside a worker (unknown element type, fingerprint
    /// mismatch, ...). Fatal: it means the worker build disagrees with the
    /// plan, not that the worker is unhealthy.
    Job(String),
    /// Every worker died (or never completed its handshake) with jobs
    /// still queued.
    NoWorkers(String),
    /// A read deadline elapsed with no complete frame: the peer may be
    /// wedged (stopped, silently partitioned) rather than dead. Dispatch
    /// turns repeated timeouts into heartbeat pings, and an unanswered
    /// deadline into a suspect-marking requeue.
    Timeout,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Spawn(m) => write!(f, "executor: cannot run worker: {m}"),
            ExecError::Connect(m) => write!(f, "executor: cannot reach worker: {m}"),
            ExecError::Protocol(m) => write!(f, "executor: protocol error: {m}"),
            ExecError::Job(m) => write!(f, "executor: job failed: {m}"),
            ExecError::NoWorkers(m) => write!(f, "executor: out of workers: {m}"),
            ExecError::Timeout => {
                write!(
                    f,
                    "executor: worker read timed out (no frame within the deadline)"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Where a request's jobs run, one job kind at a time.
///
/// Every method answers `None` when this executor has no remote path for
/// that kind of job — for any batch, an empty one included, which is how
/// the service probes — and the service then runs the work on its shared
/// pool. A remote path returns one slot per input job, **in input order**:
/// implementations may compute the slots in any order or place; the order
/// of the returned vector is the determinism contract.
pub trait Executor: Send + Sync {
    /// A human-readable name for logs and reports.
    fn describe(&self) -> String;

    /// Compute the summaries of `jobs` under `options.engine`, one slot per
    /// job (`None` where the exploration exceeded its engine budget — the
    /// composition then explores inline and reports the failure exactly as
    /// a sequential run would).
    ///
    /// Returns `None` when this executor has no remote exploration path
    /// (the service then explores on its shared scheduler).
    fn explore_jobs(
        &self,
        jobs: &[ExploreJob],
        options: &VerifierOptions,
    ) -> Option<Result<Vec<Option<ElementSummary>>, ExecError>> {
        let _ = (jobs, options);
        None
    }

    /// Decide Step-2 compositions remotely, one report per job in input
    /// order. `summaries` resolves a fingerprint to the summary that ships
    /// with the job (`None` for behaviours whose exploration exceeded its
    /// budget — the worker re-attempts inline).
    ///
    /// Returns `None` when this executor has no remote composition path
    /// (the service then composes in-process on its shared scheduler).
    fn compose_jobs(
        &self,
        jobs: &[ComposeJob],
        options: &VerifierOptions,
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
    ) -> Option<Result<Vec<Report>, ExecError>> {
        let _ = (jobs, options, summaries);
        None
    }

    /// Decide Step-2 compose *shards* remotely, one
    /// [`dataplane_verifier::ComposeShardResult`] per job in input order
    /// (the fold replays the sequential enumeration, so input order is the
    /// determinism contract here too). A shard whose sibling reported a
    /// violation first may come back partial or empty (`cancelled`) — the
    /// fold computes the remainder inline.
    ///
    /// Returns `None` when this executor has no remote shard path (the
    /// service then composes the scenario in-process).
    fn compose_shard_jobs(
        &self,
        jobs: &[crate::wire::ComposeShardJob],
        options: &VerifierOptions,
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
    ) -> Option<Result<Vec<dataplane_verifier::ComposeShardResult>, ExecError>> {
        let _ = (jobs, options, summaries);
        None
    }

    /// Run conformance fuzz shards remotely, one shard report per job in
    /// input order (the fold key is the job's `shard_index`; input order is
    /// the determinism contract, as for the other job kinds).
    ///
    /// Returns `None` when this executor has no remote fuzz path (the
    /// conformance runner then fuzzes in-process on the shared pool).
    fn fuzz_jobs(
        &self,
        jobs: &[crate::wire::FuzzJob],
        options: &VerifierOptions,
    ) -> Option<Result<Vec<crate::conformance::FuzzShardReport>, ExecError>> {
        let _ = (jobs, options);
        None
    }

    /// Registry/queue statistics of the last dispatch, for executors that
    /// track them.
    fn dispatch_stats(&self) -> Option<DispatchStats> {
        None
    }

    /// The live fleet capacity Step-2 shards are sized by: the summed
    /// advertised capacity of workers alive right now, each counted once
    /// and re-read per request (before any handshake, a connection-count
    /// estimate). Below two slots nothing is cut. `None` for executors
    /// with no notion of a fleet.
    fn live_capacity(&self) -> Option<usize> {
        None
    }
}

/// The "0 means one per available core" defaulting rule shared by every
/// parallelism knob in this module family.
pub(crate) fn default_parallelism(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Run one explore job: factory-instantiate, fingerprint-check, explore.
pub(crate) fn run_explore_job(
    job: &ExploreJob,
    engine: &EngineConfig,
) -> Result<Option<ElementSummary>, ExecError> {
    let element = instantiate(&job.type_name, &job.config_args).map_err(|e| {
        ExecError::Job(format!(
            "{}({}) does not instantiate: {e}",
            job.type_name, job.config_args
        ))
    })?;
    let actual = element_fingerprint(element.as_ref(), engine);
    if actual != job.fingerprint {
        return Err(ExecError::Job(format!(
            "{}({}) fingerprint mismatch: plan says {}, this build computes {} \
             (worker built from different element code?)",
            job.type_name, job.config_args, job.fingerprint, actual
        )));
    }
    let start = Instant::now();
    match explore(&element.model(), engine) {
        Ok(exploration) => Ok(Some(ElementSummary {
            type_name: element.type_name().to_string(),
            config_key: element.config_key(),
            exploration,
            explore_time: start.elapsed(),
        })),
        // Budget exceeded: publish nothing; composition handles it inline.
        Err(_) => Ok(None),
    }
}

/// The executor with no remote path at all: every job kind is "not here",
/// so a plan executed through it runs entirely on the service's shared
/// scheduler (`exec-plan --in-process`).
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessExecutor;

impl Executor for InProcessExecutor {
    fn describe(&self) -> String {
        "the in-process shared scheduler".into()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use dataplane_pipeline::presets::ip_router_pipeline;

    /// The distinct explore jobs of the preset IP router, as a plan would
    /// emit them.
    pub fn router_jobs(engine: &EngineConfig) -> Vec<ExploreJob> {
        let pipeline = ip_router_pipeline();
        let mut seen = std::collections::HashSet::new();
        let mut jobs = Vec::new();
        for (_, node) in pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, engine);
            if seen.insert(fp) {
                jobs.push(ExploreJob {
                    fingerprint: fp,
                    type_name: element.type_name().to_string(),
                    config_args: element.config_args().expect("preset elements serialise"),
                });
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::router_jobs;
    use super::*;
    use crate::service::{VerifyRequest, VerifyService};
    use dataplane_pipeline::presets::ip_router_pipeline;

    #[test]
    fn in_process_execution_publishes_every_job_under_its_fingerprint() {
        let service = VerifyService::new().with_threads(4);
        let plan = service
            .plan_request(&VerifyRequest::Bound {
                name: "router".into(),
                pipeline: ip_router_pipeline(),
            })
            .unwrap();
        assert_eq!(plan.jobs, router_jobs(&plan.options.engine));
        service.execute_plan(&plan, &InProcessExecutor).unwrap();
        for job in &plan.jobs {
            let summary = service
                .store()
                .get(job.fingerprint)
                .expect("preset exploration succeeds");
            assert_eq!(summary.type_name, job.type_name);
        }
    }

    #[test]
    fn fingerprint_mismatch_fails_loudly() {
        let options = VerifierOptions::default();
        let mut jobs = router_jobs(&options.engine);
        jobs[0].fingerprint = crate::fingerprint::fingerprint_bytes("not this element");
        let result = run_explore_job(&jobs[0], &options.engine);
        assert!(matches!(result, Err(ExecError::Job(_))), "{result:?}");
    }
}

//! [`WorkerFleet`] — the remote [`Executor`]: a set of worker
//! [`Connector`]s (spawned subprocesses over stdio, or socket workers by
//! address), a [`WorkerRegistry`], and the pull-based dispatch queue
//! (see [`super::dispatch`]'s module docs).
//! Both Step-1 explorations and Step-2 compositions execute on the fleet;
//! results fold back by job index, so the report is byte-identical to an
//! in-process run.

use super::dispatch::{dispatch, HeartbeatConfig, Summaries};
use super::frame::JobOutput;
use super::registry::{DispatchStats, WorkerRegistry};
use super::transport::{Connector, SocketConnector, SpawnConnector, WorkerAddr};
use super::{ExecError, Executor};
use crate::conformance::FuzzShardReport;
use crate::wire::{ComposeJob, ComposeShardJob, ExploreJob, FuzzJob, JobSpec};
use dataplane_verifier::{ComposeShardResult, ElementSummary, Property, Report, VerifierOptions};
use std::path::PathBuf;
use std::sync::Arc;

/// The remote-worker executor. See the module docs.
pub struct WorkerFleet {
    connectors: Vec<Box<dyn Connector>>,
    registry: WorkerRegistry,
    label: String,
    heartbeat: HeartbeatConfig,
}

impl WorkerFleet {
    /// A fleet of `workers` subprocess workers running `program args...`
    /// over stdio (0 workers = one per available core).
    pub fn subprocess(program: impl Into<PathBuf>, args: Vec<String>, workers: usize) -> Self {
        let workers = super::default_parallelism(workers);
        let program = program.into();
        let label = format!("subprocess workers ({} × {})", workers, program.display());
        WorkerFleet {
            connectors: (0..workers)
                .map(|i| {
                    Box::new(SpawnConnector {
                        program: program.clone(),
                        args: args.clone(),
                        label: format!("stdio#{i}"),
                    }) as Box<dyn Connector>
                })
                .collect(),
            registry: WorkerRegistry::new(),
            label,
            heartbeat: HeartbeatConfig::default(),
        }
    }

    /// The fleet that spawns the current executable with the `worker`
    /// argument — how `vericlick exec-plan --workers N` reaches its own
    /// worker mode.
    pub fn current_exe(workers: usize) -> Result<Self, ExecError> {
        let exe = std::env::current_exe()
            .map_err(|e| ExecError::Spawn(format!("cannot locate current executable: {e}")))?;
        Ok(WorkerFleet::subprocess(
            exe,
            vec!["worker".to_string()],
            workers,
        ))
    }

    /// A fleet of socket workers, one per address (TCP `host:port` or
    /// Unix-socket path) — how `vericlick exec-plan --workers addr,...`
    /// reaches `vericlick worker --listen addr`.
    pub fn sockets(addrs: Vec<WorkerAddr>) -> Self {
        let label = format!(
            "socket workers ({})",
            addrs
                .iter()
                .map(WorkerAddr::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        );
        WorkerFleet {
            connectors: addrs
                .into_iter()
                .map(|addr| Box::new(SocketConnector { addr }) as Box<dyn Connector>)
                .collect(),
            registry: WorkerRegistry::new(),
            label,
            heartbeat: HeartbeatConfig::default(),
        }
    }

    /// Replace the fleet's heartbeat tuning (read-deadline probing of
    /// socket workers; see [`HeartbeatConfig`]).
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatConfig) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// The number of workers this fleet dispatches to.
    pub fn workers(&self) -> usize {
        self.connectors.len()
    }

    /// The fleet's registry (per-worker liveness and work counts).
    pub fn registry(&self) -> &WorkerRegistry {
        &self.registry
    }

    /// The one job path of every job kind: dispatch `jobs` (attaching
    /// summaries from `summaries` when given, built per receiving worker)
    /// and return their outputs in input order, each unpacked by `take`.
    /// A job's output is decoded by that job's kind, so `take` meets only
    /// the variant of the kind `spec` makes.
    fn run<J: Clone, T>(
        &self,
        jobs: &[J],
        spec: fn(J) -> JobSpec,
        options: &VerifierOptions,
        summaries: Option<Summaries<'_>>,
        take: impl Fn(JobOutput) -> T,
    ) -> Option<Result<Vec<T>, ExecError>> {
        let jobs: Vec<JobSpec> = jobs.iter().cloned().map(spec).collect();
        let outputs = dispatch(
            &self.connectors,
            &self.registry,
            options,
            self.heartbeat,
            &jobs,
            summaries,
        );
        Some(outputs.map(|outputs| outputs.into_iter().map(take).collect()))
    }
}

impl Executor for WorkerFleet {
    fn describe(&self) -> String {
        self.label.clone()
    }

    fn explore_jobs(
        &self,
        jobs: &[ExploreJob],
        options: &VerifierOptions,
    ) -> Option<Result<Vec<Option<ElementSummary>>, ExecError>> {
        self.registry.record_offered(jobs.len(), 0, 0);
        self.run(
            jobs,
            JobSpec::Explore,
            options,
            None,
            |output| match output {
                JobOutput::Summary(summary) => summary.map(Arc::unwrap_or_clone),
                _ => unreachable!("an output decodes by its job's kind"),
            },
        )
    }

    fn compose_jobs(
        &self,
        jobs: &[ComposeJob],
        options: &VerifierOptions,
        summaries: Summaries<'_>,
    ) -> Option<Result<Vec<Report>, ExecError>> {
        let temporal = jobs
            .iter()
            .filter(|j| matches!(j.scenario.property, Property::Temporal(_)))
            .count();
        self.registry.record_offered(0, jobs.len() - temporal, 0);
        self.registry.record_temporal_offered(temporal);
        self.run(
            jobs,
            JobSpec::Compose,
            options,
            Some(summaries),
            |output| match output {
                JobOutput::Report(report) => *report,
                _ => unreachable!("an output decodes by its job's kind"),
            },
        )
    }

    fn compose_shard_jobs(
        &self,
        jobs: &[ComposeShardJob],
        options: &VerifierOptions,
        summaries: Summaries<'_>,
    ) -> Option<Result<Vec<ComposeShardResult>, ExecError>> {
        // Shards ride the same summary-dedup attachments as whole
        // compositions: every shard of a scenario names the same
        // fingerprints, so after a worker's first shard the rest collapse
        // to `"held"` markers.
        self.registry.record_shards_offered(jobs.len());
        self.run(
            jobs,
            JobSpec::ComposeShard,
            options,
            Some(summaries),
            |output| match output {
                JobOutput::Shard(result) => result,
                _ => unreachable!("an output decodes by its job's kind"),
            },
        )
    }

    fn fuzz_jobs(
        &self,
        jobs: &[FuzzJob],
        options: &VerifierOptions,
    ) -> Option<Result<Vec<FuzzShardReport>, ExecError>> {
        self.registry.record_offered(0, 0, jobs.len());
        self.run(jobs, JobSpec::Fuzz, options, None, |output| match output {
            JobOutput::Fuzz(report) => report,
            _ => unreachable!("an output decodes by its job's kind"),
        })
    }

    fn dispatch_stats(&self) -> Option<DispatchStats> {
        Some(self.registry.stats())
    }

    fn live_capacity(&self) -> Option<usize> {
        Some(match self.registry.live_capacity() {
            // No handshake yet (e.g. a warm request with no Step-1 job):
            // one slot per connector, a lower bound, so a fleet that may
            // have one slot is never cut.
            0 => self.connectors.len(),
            live => live,
        })
    }
}

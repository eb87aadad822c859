//! [`WorkerFleet`] — the remote [`Executor`]: a set of worker
//! [`Connector`]s (spawned subprocesses over stdio, or socket workers by
//! address), a [`WorkerRegistry`], and the pull-based dispatch queue
//! (see [`super::dispatch`]'s module docs).
//! Both Step-1 explorations and Step-2 compositions execute on the fleet;
//! results fold back by job index, so the report is byte-identical to an
//! in-process run.

use super::dispatch::{dispatch, dispatch_with_cancel, CancelSpec, HeartbeatConfig};
use super::registry::{DispatchStats, WorkerRegistry};
use super::transport::{Connector, SocketConnector, SpawnConnector, WorkerAddr};
use super::worker::WORKER_SCHEMA;
use super::{ExecError, Executor};
use crate::conformance::{shard_report_from_json, FuzzShardReport};
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::persist::{summary_from_json, summary_to_json};
use crate::wire::{
    job_to_json, report_from_json, shard_result_from_json, shard_result_to_json, ComposeJob,
    ComposeShardJob, ExploreJob, FuzzJob, JobSpec,
};
use dataplane_verifier::{ComposeShardResult, ElementSummary, Property, Report, VerifierOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

    /// Build a job frame's `summaries` attachment against one worker's
    /// held set: full documents for summaries the worker is missing,
    /// `"held"` markers for ones it already holds (the protocol-v4 dedup),
    /// `null` for budget-exceeded explorations. Records the transfer
    /// split in the registry.
    fn summary_slots(
        &self,
        fingerprints: &[Fingerprint],
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
        held: &mut std::collections::BTreeSet<Fingerprint>,
    ) -> Json {
        let (mut shipped, mut shipped_bytes, mut deduped) = (0usize, 0u64, 0usize);
        let slots = Json::Arr(
            fingerprints
                .iter()
                .map(|fp| match summaries(*fp) {
                    None => Json::Null,
                    Some(_) if held.contains(fp) => {
                        deduped += 1;
                        Json::str("held")
                    }
                    Some(summary) => {
                        let doc = summary_to_json(&summary);
                        shipped += 1;
                        shipped_bytes += doc.to_text().len() as u64;
                        held.insert(*fp);
                        doc
                    }
                })
                .collect(),
        );
        self.registry
            .record_summaries(shipped, shipped_bytes, deduped);
        slots
    }
}

/// Does a compose-shard result frame carry a violation check? This is the
/// sibling-group early-exit trigger, decided on the raw frame without a
/// full decode.
fn shard_frame_has_violation(frame: &Json) -> bool {
    let Some(records) = frame
        .get("shard")
        .and_then(|s| s.get("records"))
        .and_then(Json::as_arr)
    else {
        return false;
    };
    records.iter().any(|rec| {
        rec.get("checks")
            .and_then(Json::as_arr)
            .is_some_and(|checks| {
                checks.iter().any(|c| {
                    c.get("outcome")
                        .and_then(|o| o.get("kind"))
                        .and_then(Json::as_str)
                        == Some("violation")
                })
            })
    })
}

fn job_frame(id: usize, job: &JobSpec, summaries: Option<Json>) -> Json {
    let mut fields = vec![
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("job")),
        ("id", Json::int(id as u64)),
        ("job", job_to_json(job)),
    ];
    if let Some(summaries) = summaries {
        fields.push(("summaries", summaries));
    }
    Json::obj(fields)
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
        if jobs.is_empty() {
            return Some(Ok(Vec::new()));
        }
        self.registry.record_offered(jobs.len(), 0, 0);
        let frame_for = |id: usize, _held: &mut std::collections::BTreeSet<Fingerprint>| {
            job_frame(id, &JobSpec::Explore(jobs[id].clone()), None)
        };
        let results = match dispatch(
            &self.connectors,
            &self.registry,
            options,
            self.heartbeat,
            jobs.len(),
            &frame_for,
        ) {
            Ok(results) => results,
            Err(e) => return Some(Err(e)),
        };
        Some(
            results
                .iter()
                .map(|frame| match frame.get("summary") {
                    Some(Json::Null) => Ok(None),
                    Some(doc) => summary_from_json(doc)
                        .map(Some)
                        .map_err(|e| ExecError::Protocol(format!("undecodable summary: {e}"))),
                    None => Err(ExecError::Protocol(
                        "explore result without a summary".into(),
                    )),
                })
                .collect(),
        )
    }

    fn compose_jobs(
        &self,
        jobs: &[ComposeJob],
        options: &VerifierOptions,
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
    ) -> Option<Result<Vec<Report>, ExecError>> {
        if jobs.is_empty() {
            return Some(Ok(Vec::new()));
        }
        let temporal = jobs
            .iter()
            .filter(|j| matches!(j.scenario.property, Property::Temporal(_)))
            .count();
        self.registry.record_offered(0, jobs.len() - temporal, 0);
        self.registry.record_temporal_offered(temporal);
        // Per-(job, worker) frame building: the receiving worker's held
        // set decides which summary slots ship as full documents and
        // which collapse to the `"held"` marker. A requeued job is
        // rebuilt against the surviving worker's own held set.
        let frame_for = |id: usize, held: &mut std::collections::BTreeSet<Fingerprint>| {
            let job = &jobs[id];
            let slots = self.summary_slots(&job.fingerprints, summaries, held);
            job_frame(id, &JobSpec::Compose(job.clone()), Some(slots))
        };
        let results = match dispatch(
            &self.connectors,
            &self.registry,
            options,
            self.heartbeat,
            jobs.len(),
            &frame_for,
        ) {
            Ok(results) => results,
            Err(e) => return Some(Err(e)),
        };
        Some(
            results
                .iter()
                .zip(jobs)
                .map(|(frame, job)| {
                    let elapsed = Duration::from_micros(
                        frame
                            .get("elapsed_micros")
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                    );
                    let doc = frame.get("report").ok_or_else(|| {
                        ExecError::Protocol("compose result without a report".into())
                    })?;
                    report_from_json(doc, job.scenario.property.clone(), elapsed)
                        .map_err(|e| ExecError::Protocol(format!("undecodable report: {e}")))
                })
                .collect(),
        )
    }

    fn compose_shard_jobs(
        &self,
        jobs: &[ComposeShardJob],
        options: &VerifierOptions,
        summaries: &(dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync),
    ) -> Option<Result<Vec<ComposeShardResult>, ExecError>> {
        if jobs.is_empty() {
            return Some(Ok(Vec::new()));
        }
        self.registry.record_shards_offered(jobs.len());
        // Shards ride the same summary-dedup frames as whole compositions:
        // every shard of a scenario names the same fingerprints, so after
        // a worker's first shard the rest collapse to `"held"` markers.
        let frame_for = |id: usize, held: &mut std::collections::BTreeSet<Fingerprint>| {
            let job = &jobs[id];
            let slots = self.summary_slots(&job.fingerprints, summaries, held);
            job_frame(id, &JobSpec::ComposeShard(job.clone()), Some(slots))
        };
        // Early exit: the first violation in a scenario decides the
        // scenario's verdict, so sibling shards are cancelled (queued ones
        // resolve empty, in-flight ones get a cancel frame). The fold
        // computes whatever the cancelled shards did not ship.
        let group_of = |id: usize| Some(u64::from(jobs[id].scenario_index));
        let synthetic = |id: usize| {
            Json::obj([
                ("schema", Json::int(WORKER_SCHEMA)),
                ("kind", Json::str("result")),
                ("id", Json::int(id as u64)),
                (
                    "shard",
                    shard_result_to_json(&ComposeShardResult {
                        records: Vec::new(),
                        cancelled: true,
                        timings: Vec::new(),
                    }),
                ),
            ])
        };
        let spec = CancelSpec {
            group_of: &group_of,
            ends_group: &shard_frame_has_violation,
            synthetic: &synthetic,
        };
        let results = match dispatch_with_cancel(
            &self.connectors,
            &self.registry,
            options,
            self.heartbeat,
            jobs.len(),
            &frame_for,
            Some(&spec),
        ) {
            Ok(results) => results,
            Err(e) => return Some(Err(e)),
        };
        Some(
            results
                .iter()
                .map(|frame| {
                    let doc = frame.get("shard").ok_or_else(|| {
                        ExecError::Protocol("compose-shard result without a shard".into())
                    })?;
                    let result = shard_result_from_json(doc)
                        .map_err(|e| ExecError::Protocol(format!("undecodable shard: {e}")))?;
                    if result.cancelled {
                        self.registry.record_shard_cancelled();
                    }
                    Ok(result)
                })
                .collect(),
        )
    }

    fn fuzz_jobs(
        &self,
        jobs: &[FuzzJob],
        options: &VerifierOptions,
    ) -> Option<Result<Vec<FuzzShardReport>, ExecError>> {
        if jobs.is_empty() {
            return Some(Ok(Vec::new()));
        }
        self.registry.record_offered(0, 0, jobs.len());
        let frame_for = |id: usize, _held: &mut std::collections::BTreeSet<Fingerprint>| {
            job_frame(id, &JobSpec::Fuzz(jobs[id].clone()), None)
        };
        let results = match dispatch(
            &self.connectors,
            &self.registry,
            options,
            self.heartbeat,
            jobs.len(),
            &frame_for,
        ) {
            Ok(results) => results,
            Err(e) => return Some(Err(e)),
        };
        Some(
            results
                .iter()
                .map(|frame| {
                    let doc = frame.get("fuzz").ok_or_else(|| {
                        ExecError::Protocol("fuzz result without a shard report".into())
                    })?;
                    shard_report_from_json(doc)
                        .map_err(|e| ExecError::Protocol(format!("undecodable shard report: {e}")))
                })
                .collect(),
        )
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

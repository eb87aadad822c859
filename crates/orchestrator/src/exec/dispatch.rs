//! Pull-based dispatch: one shared job queue, drained by however many
//! workers joined, each at its own pace.
//!
//! This replaces the old round-robin pre-partitioning. No job belongs to a
//! worker until that worker pulls it, so a fast worker (or one whose jobs
//! happened to be cheap — Step-2 walks on prune-heavy pipelines vary
//! wildly) simply pulls more, and a worker that dies mid-plan has its
//! in-flight jobs requeued for the survivors. Results land in per-job
//! slots **by job index**, which is the determinism contract: however the
//! queue was drained, the folded output is identical.
//!
//! Per worker, the coordinator runs one thread: handshake (hello frames
//! carrying protocol + schema version and the session's verifier options),
//! then a window of up to `capacity` outstanding jobs, refilled from the
//! shared queue as results return.

use super::frame::{attached_to, Attached, FromWorker, JobOutput, Pin, ToWorker, Undecodable};
use super::registry::WorkerRegistry;
use super::transport::Connector;
use super::ExecError;
use crate::fingerprint::Fingerprint;
use crate::persist::summary_to_json;
use crate::wire::{options_digest, JobSpec};
use dataplane_verifier::{ElementSummary, VerifierOptions};
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Read-deadline and heartbeat tuning of a dispatch session.
///
/// Only socket transports can arm read deadlines; a stdio worker keeps
/// the pre-v4 blocking behaviour (its process is local — if it wedges,
/// so did this machine). On a timed-out read the coordinator sends a
/// `ping`; a worker whose read loop is alive answers `pong` immediately
/// even while its jobs grind. A worker silent past `deadline` — no
/// results, no pongs — is marked **suspect** and its in-flight jobs are
/// requeued to the survivors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often a silent connection is probed (also the recv poll
    /// interval).
    pub interval: Duration,
    /// How long a worker may stay silent before it is marked suspect.
    pub deadline: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
        }
    }
}

impl HeartbeatConfig {
    /// The single-knob form `--heartbeat-ms` exposes: probe every
    /// `ms` milliseconds, suspect after four unanswered intervals.
    pub fn from_interval_ms(ms: u64) -> Self {
        let interval = Duration::from_millis(ms.max(1));
        HeartbeatConfig {
            interval,
            deadline: interval * 4,
        }
    }
}

/// Shared dispatch state: the job queue and the result slots.
struct State {
    queue: VecDeque<usize>,
    /// Jobs not yet completed (queued or in flight).
    remaining: usize,
    /// A job-level failure (wrong worker build, malformed job or result):
    /// abort the whole dispatch — requeueing cannot fix it.
    fatal: Option<ExecError>,
    /// Decoded results, one slot per job index.
    results: Vec<Option<JobOutput>>,
    /// The most recent worker-level failure, for the terminal error when
    /// every worker is gone.
    last_failure: Option<String>,
}

impl State {
    /// Fill job `job`'s slot unless a requeued copy already did.
    fn complete(&mut self, job: usize, output: JobOutput) {
        if self.results[job].is_none() {
            self.results[job] = Some(output);
            self.remaining -= 1;
        }
    }
}

/// Resolves a fingerprint to the summary a job's attachment ships (`None`
/// for a behaviour whose exploration exceeded its budget).
pub(crate) type Summaries<'a> = &'a (dyn Fn(Fingerprint) -> Option<Arc<ElementSummary>> + Sync);

/// Build a job's summary attachment against one worker's held set: the
/// summaries the worker is missing ship in full, ones it already holds
/// travel as `"held"` markers (the protocol-v4 dedup), and
/// budget-exceeded explorations as empty slots. Records the transfer
/// split in the registry.
fn attach(
    registry: &WorkerRegistry,
    job: &JobSpec,
    summaries: Summaries<'_>,
    held: &mut BTreeSet<Fingerprint>,
) -> Vec<Attached> {
    let (mut shipped, mut shipped_bytes, mut deduped) = (0usize, 0u64, 0usize);
    let slots = attached_to(job)
        .iter()
        .map(|fp| match summaries(*fp) {
            None => Attached::Missing,
            Some(_) if held.contains(fp) => {
                deduped += 1;
                Attached::Held
            }
            Some(summary) => {
                shipped += 1;
                shipped_bytes += summary_to_json(&summary).to_text().len() as u64;
                held.insert(*fp);
                Attached::Shipped(summary)
            }
        })
        .collect();
    registry.record_summaries(shipped, shipped_bytes, deduped);
    slots
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Dispatch `jobs` over `connectors` and return their outputs by job
/// index, each decoded on the thread that received it. With `summaries`,
/// each job's summary attachment is built **for the worker it is sent
/// to**, against that worker's held set — a requeued job is rebuilt for
/// the survivor. Jobs run exactly as planned, one result slot per job.
pub(crate) fn dispatch(
    connectors: &[Box<dyn Connector>],
    registry: &WorkerRegistry,
    options: &VerifierOptions,
    heartbeat: HeartbeatConfig,
    jobs: &[JobSpec],
    summaries: Option<Summaries<'_>>,
) -> Result<Vec<JobOutput>, ExecError> {
    let count = jobs.len();
    if count == 0 {
        return Ok(Vec::new());
    }
    let shared = Shared {
        state: Mutex::new(State {
            queue: (0..count).collect(),
            remaining: count,
            fatal: None,
            results: (0..count).map(|_| None).collect(),
            last_failure: None,
        }),
        cv: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for connector in connectors {
            let shared = &shared;
            scope.spawn(move || {
                worker_loop(
                    connector.as_ref(),
                    registry,
                    options,
                    heartbeat,
                    shared,
                    jobs,
                    summaries,
                )
            });
        }
    });

    let state = shared.state.into_inner().expect("dispatch state");
    if let Some(fatal) = state.fatal {
        return Err(fatal);
    }
    if state.remaining > 0 {
        let why = state
            .last_failure
            .unwrap_or_else(|| "no worker ever connected".to_string());
        return Err(ExecError::NoWorkers(format!(
            "{} of {count} jobs unfinished: {why}",
            state.remaining
        )));
    }
    Ok(state
        .results
        .into_iter()
        .map(|slot| slot.expect("remaining == 0 implies every slot filled"))
        .collect())
}

/// One worker's coordinator-side loop.
fn worker_loop(
    connector: &dyn Connector,
    registry: &WorkerRegistry,
    options: &VerifierOptions,
    heartbeat: HeartbeatConfig,
    shared: &Shared,
    jobs: &[JobSpec],
    summaries: Option<Summaries<'_>>,
) {
    // Connect + handshake. Failures here lose the worker, never the jobs
    // (nothing was pulled yet).
    let fail = |note: String| {
        registry.register_dead(connector.describe(), note.clone());
        let mut state = shared.state.lock().expect("dispatch state");
        state.last_failure = Some(format!("{}: {note}", connector.describe()));
        shared.cv.notify_all();
    };
    let mut transport = match connector.connect() {
        Ok(t) => t,
        Err(e) => return fail(e.to_string()),
    };
    // Arm the read deadline where the transport supports it (sockets).
    // Stdio pipes cannot time out; they keep the blocking behaviour and
    // `recv` never returns `Timeout` for them.
    let timed = transport.set_read_timeout(Some(heartbeat.interval));
    // The session is pinned by digest; the full options follow only when
    // the worker asks for them.
    let hello = ToWorker::Hello(Pin::Digest(options_digest(options)));
    if let Err(e) = transport.send(&hello.encode()) {
        return fail(format!("hello not sent: {e}"));
    }
    // Keep receiving past read timeouts until the heartbeat deadline: the
    // handshake's tolerance for a worker alive but slow to answer.
    let start = Instant::now();
    let reply = loop {
        match transport.recv() {
            Err(ExecError::Timeout) if start.elapsed() < heartbeat.deadline => continue,
            reply => break reply,
        }
    };
    let (capacity, mut held) = match reply {
        Ok(Some(frame)) => match FromWorker::decode(&frame, |_| None) {
            Ok(FromWorker::Hello {
                capacity,
                held,
                need_options,
            }) => {
                if need_options {
                    if let Err(e) = transport.send(&ToWorker::Options(options.clone()).encode()) {
                        return fail(format!("options not sent: {e}"));
                    }
                }
                // The worker's held-summary advertisement seeds this
                // session's dedup set.
                (capacity, held.into_iter().collect::<BTreeSet<_>>())
            }
            Ok(FromWorker::Error { message, .. }) => {
                return fail(format!("hello rejected: {message}"))
            }
            Ok(_) => return fail("unexpected handshake frame".into()),
            Err(e) => return fail(e.message),
        },
        Ok(None) => return fail("connection closed during handshake".into()),
        Err(ExecError::Timeout) => {
            return fail(format!(
                "suspect: no hello within the {:?} heartbeat deadline",
                heartbeat.deadline
            ))
        }
        Err(e) => return fail(e.to_string()),
    };
    let peer = transport.peer();
    let worker = registry.register(peer.clone(), capacity);

    // The pull loop: keep up to `capacity` jobs in flight.
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let die = |outstanding: &mut VecDeque<usize>, note: String, suspect: bool| {
        let requeued = outstanding.len();
        let mut state = shared.state.lock().expect("dispatch state");
        state.queue.extend(outstanding.drain(..));
        state.last_failure = Some(format!("{peer}: {note}"));
        drop(state);
        if suspect {
            registry.mark_suspect(worker, requeued, note);
        } else {
            registry.mark_dead(worker, requeued, note);
        }
        shared.cv.notify_all();
    };
    let fatal = |error: ExecError| {
        shared.state.lock().expect("dispatch state").fatal = Some(error);
        shared.cv.notify_all();
    };
    let mut last_heard = Instant::now();
    let mut ping_seq = 0u64;
    loop {
        // Top up the window from the shared queue.
        while outstanding.len() < capacity {
            let next = {
                let mut state = shared.state.lock().expect("dispatch state");
                if state.fatal.is_some() {
                    return; // another worker hit a fatal job error
                }
                state.queue.pop_front()
            };
            let Some(job) = next else { break };
            let frame = ToWorker::Job {
                id: job as u64,
                job: jobs[job].clone(),
                summaries: summaries.map(|s| attach(registry, &jobs[job], s, &mut held)),
            };
            outstanding.push_back(job);
            if let Err(e) = transport.send(&frame.encode()) {
                return die(&mut outstanding, format!("job not sent: {e}"), false);
            }
            registry.record_dispatched();
        }

        if outstanding.is_empty() {
            // Nothing in flight and the queue is dry: park until another
            // worker's death requeues something, or the run finishes.
            let mut state = shared.state.lock().expect("dispatch state");
            loop {
                if state.fatal.is_some() || state.remaining == 0 {
                    return;
                }
                if !state.queue.is_empty() {
                    break;
                }
                state = shared.cv.wait(state).expect("dispatch state");
            }
            continue;
        }

        // Await one result. With a read deadline armed, a silent interval
        // surfaces as `Timeout`: probe with a ping, and once the worker
        // has been silent past the heartbeat deadline, mark it suspect
        // and requeue — a SIGSTOPped or silently partitioned worker must
        // never block plan completion.
        let frame = match transport.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                let in_flight = outstanding.len();
                return die(
                    &mut outstanding,
                    format!("connection closed with {in_flight} jobs in flight"),
                    false,
                );
            }
            Err(ExecError::Timeout) if timed => {
                let silent = last_heard.elapsed();
                if silent >= heartbeat.deadline {
                    return die(
                        &mut outstanding,
                        format!(
                            "suspect: silent for {silent:?} (heartbeat deadline {:?})",
                            heartbeat.deadline
                        ),
                        true,
                    );
                }
                ping_seq += 1;
                if let Err(e) = transport.send(&ToWorker::Ping(Some(ping_seq)).encode()) {
                    return die(&mut outstanding, format!("ping not sent: {e}"), false);
                }
                continue;
            }
            Err(e) => return die(&mut outstanding, e.to_string(), false),
        };
        last_heard = Instant::now();
        let held_job = |id: u64| {
            let job = usize::try_from(id).ok()?;
            outstanding.contains(&job).then(|| &jobs[job])
        };
        match FromWorker::decode(&frame, held_job) {
            Ok(FromWorker::Result { id, output, folded }) => {
                let job = id as usize;
                outstanding.retain(|&j| j != job);
                // Fold acks: the worker confirms which summaries it now
                // holds (its own explore results included).
                held.extend(folded);
                registry.record_completed(worker);
                let mut state = shared.state.lock().expect("dispatch state");
                state.complete(job, output);
                if state.remaining == 0 {
                    shared.cv.notify_all();
                }
            }
            Ok(FromWorker::Pong(_)) => {}
            Ok(FromWorker::Error { message, .. }) => return fatal(ExecError::Job(message)),
            Ok(FromWorker::Hello { .. }) => {
                return die(&mut outstanding, "unexpected hello frame".into(), false)
            }
            // A result this worker's job cannot be read from fails the
            // request, as a job error does; any other bad frame loses the
            // worker only.
            Err(Undecodable {
                job: Some(_),
                message,
            }) => return fatal(ExecError::Protocol(message)),
            Err(e) => return die(&mut outstanding, e.message, false),
        }
    }
}

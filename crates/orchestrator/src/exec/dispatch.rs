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

use super::registry::WorkerRegistry;
use super::transport::{Connector, Transport};
use super::{ExecError, WORKER_PROTO, WORKER_SCHEMA};
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use dataplane_verifier::VerifierOptions;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Condvar, Mutex};
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
    /// A job-level failure (wrong worker build, malformed job): abort the
    /// whole dispatch — requeueing cannot fix it.
    fatal: Option<ExecError>,
    /// Result frames, one slot per job index.
    results: Vec<Option<Json>>,
    /// The most recent worker-level failure, for the terminal error when
    /// every worker is gone.
    last_failure: Option<String>,
    /// Sibling groups whose outcome is already decided (a shard reported a
    /// violation): queued members resolve synthetically, in-flight members
    /// get a cancel frame.
    cancelled_groups: BTreeSet<u64>,
}

/// Sibling-group cancellation policy for a dispatch (compose sharding's
/// early exit). When a result frame `ends_group`, the group's queued
/// members are resolved with `synthetic` frames without ever being sent,
/// and its in-flight members are sent `cancel` frames — each worker sends
/// them for its own outstanding jobs when it next wakes (a result, a pong,
/// or a heartbeat-interval read timeout). Cancellation is purely a
/// work-avoidance signal: a cancelled job still answers with the complete
/// partial records it finished, and the fold computes the remainder
/// inline, so the folded output is identical with or without it.
pub(crate) struct CancelSpec<'a> {
    /// The sibling-group key of job `i` (`None`: not cancellable).
    pub group_of: &'a (dyn Fn(usize) -> Option<u64> + Sync),
    /// Does this result frame decide its whole group?
    pub ends_group: &'a (dyn Fn(&Json) -> bool + Sync),
    /// The result frame recorded for a queued job resolved by its group's
    /// cancellation (never dispatched).
    pub synthetic: &'a (dyn Fn(usize) -> Json + Sync),
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// The coordinator's hello frame, opening a session pinned to `options` —
/// by digest only; the full document follows in an options frame when the
/// worker replies `need_options`.
pub(crate) fn hello_frame(options: &VerifierOptions) -> Json {
    Json::obj([
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("hello")),
        ("proto", Json::str(WORKER_PROTO)),
        (
            "options_digest",
            Json::str(crate::wire::options_digest(options)),
        ),
    ])
}

/// The full-options fallback frame, sent when a worker does not know the
/// hello's digest.
pub(crate) fn options_frame(options: &VerifierOptions) -> Json {
    Json::obj([
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("options")),
        (
            "options_digest",
            Json::str(crate::wire::options_digest(options)),
        ),
        ("options", crate::wire::options_to_json(options)),
    ])
}

fn ping_frame(seq: u64) -> Json {
    Json::obj([
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("ping")),
        ("seq", Json::int(seq)),
    ])
}

/// Keep receiving past read timeouts until `deadline` has elapsed since
/// `start` — the handshake's tolerance for a worker that is alive but
/// slow to answer its first frame.
fn recv_within(
    transport: &mut Box<dyn Transport>,
    start: Instant,
    deadline: Duration,
) -> Result<Option<Json>, ExecError> {
    loop {
        match transport.recv() {
            Err(ExecError::Timeout) if start.elapsed() < deadline => continue,
            other => return other,
        }
    }
}

/// Dispatch `count` jobs over `connectors` and return the raw result
/// frames by job index. `frame_for(i, held)` builds the complete job
/// frame for job `i` (including its id and any attachments) **for one
/// specific worker**: `held` is that worker's summary held-set, which the
/// builder consults to ship only missing summaries (and updates with what
/// it ships). The builder may be called again with a *different* worker's
/// held-set if the job is requeued after a worker death.
pub(crate) fn dispatch(
    connectors: &[Box<dyn Connector>],
    registry: &WorkerRegistry,
    options: &VerifierOptions,
    heartbeat: HeartbeatConfig,
    count: usize,
    frame_for: &(dyn Fn(usize, &mut BTreeSet<Fingerprint>) -> Json + Sync),
) -> Result<Vec<Json>, ExecError> {
    dispatch_with_cancel(
        connectors, registry, options, heartbeat, count, frame_for, None,
    )
}

/// [`dispatch`] with an optional sibling-group cancellation policy (see
/// [`CancelSpec`]) — the compose-shard early exit. Jobs run exactly as
/// planned: one result slot per job, sized once.
pub(crate) fn dispatch_with_cancel(
    connectors: &[Box<dyn Connector>],
    registry: &WorkerRegistry,
    options: &VerifierOptions,
    heartbeat: HeartbeatConfig,
    count: usize,
    frame_for: &(dyn Fn(usize, &mut BTreeSet<Fingerprint>) -> Json + Sync),
    cancel: Option<&CancelSpec<'_>>,
) -> Result<Vec<Json>, ExecError> {
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
            cancelled_groups: BTreeSet::new(),
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
                    frame_for,
                    cancel,
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

fn cancel_frame(id: usize) -> Json {
    Json::obj([
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("cancel")),
        ("id", Json::int(id as u64)),
    ])
}

/// One worker's coordinator-side loop.
fn worker_loop(
    connector: &dyn Connector,
    registry: &WorkerRegistry,
    options: &VerifierOptions,
    heartbeat: HeartbeatConfig,
    shared: &Shared,
    frame_for: &(dyn Fn(usize, &mut BTreeSet<Fingerprint>) -> Json + Sync),
    cancel: Option<&CancelSpec<'_>>,
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
    if let Err(e) = transport.send(&hello_frame(options)) {
        return fail(format!("hello not sent: {e}"));
    }
    let handshake_start = Instant::now();
    let (capacity, mut held) =
        match recv_within(&mut transport, handshake_start, heartbeat.deadline) {
            Ok(Some(frame)) => match frame.get("kind").and_then(Json::as_str) {
                Some("hello") => {
                    let schema = frame.get("schema").and_then(Json::as_u64);
                    let proto = frame.get("proto").and_then(Json::as_str);
                    if schema != Some(WORKER_SCHEMA) || proto != Some(WORKER_PROTO) {
                        return fail(format!(
                            "version mismatch: worker speaks {proto:?} schema {schema:?}, \
                         this build speaks {WORKER_PROTO} schema {WORKER_SCHEMA}"
                        ));
                    }
                    let capacity = frame
                        .get("capacity")
                        .and_then(Json::as_u64)
                        .map(|c| c.max(1) as usize)
                        .unwrap_or(1);
                    // The worker's held-summary advertisement seeds this
                    // session's dedup set.
                    let mut held: BTreeSet<Fingerprint> = BTreeSet::new();
                    if let Some(fps) = frame.get("held").and_then(Json::as_arr) {
                        for fp in fps {
                            match fp.as_str().and_then(Fingerprint::parse) {
                                Some(fp) => {
                                    held.insert(fp);
                                }
                                None => return fail("unparsable held fingerprint".into()),
                            }
                        }
                    }
                    if frame.get("need_options").and_then(Json::as_bool) == Some(true) {
                        if let Err(e) = transport.send(&options_frame(options)) {
                            return fail(format!("options not sent: {e}"));
                        }
                    }
                    (capacity, held)
                }
                Some("error") => {
                    let message = frame
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("worker rejected the session");
                    return fail(format!("hello rejected: {message}"));
                }
                other => return fail(format!("unexpected handshake frame kind {other:?}")),
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
    let id = registry.register(peer.clone(), capacity);

    // The pull loop: keep up to `capacity` jobs in flight.
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let die = |outstanding: &mut VecDeque<usize>, note: String, suspect: bool| {
        let requeued = outstanding.len();
        let mut state = shared.state.lock().expect("dispatch state");
        state.queue.extend(outstanding.drain(..));
        state.last_failure = Some(format!("{peer}: {note}"));
        drop(state);
        if suspect {
            registry.mark_suspect(id, requeued, note);
        } else {
            registry.mark_dead(id, requeued, note);
        }
        shared.cv.notify_all();
    };
    let mut last_heard = Instant::now();
    let mut ping_seq = 0u64;
    // Jobs this worker has already sent a cancel frame for.
    let mut cancel_sent: BTreeSet<usize> = BTreeSet::new();
    loop {
        // Top up the window from the shared queue.
        while outstanding.len() < capacity {
            let next = {
                let mut state = shared.state.lock().expect("dispatch state");
                if state.fatal.is_some() {
                    return; // another worker hit a fatal job error
                }
                loop {
                    let Some(job) = state.queue.pop_front() else {
                        break None;
                    };
                    // A queued member of a cancelled group resolves right
                    // here, without ever reaching a worker.
                    let group = cancel.and_then(|spec| (spec.group_of)(job));
                    if let (Some(spec), Some(g)) = (cancel, group) {
                        if state.cancelled_groups.contains(&g) {
                            if state.results[job].is_none() {
                                state.results[job] = Some((spec.synthetic)(job));
                                state.remaining -= 1;
                                if state.remaining == 0 {
                                    shared.cv.notify_all();
                                }
                            }
                            continue;
                        }
                    }
                    break Some(job);
                }
            };
            let Some(job) = next else { break };
            if let Err(e) = transport.send(&frame_for(job, &mut held)) {
                outstanding.push_back(job);
                return die(&mut outstanding, format!("job not sent: {e}"), false);
            }
            registry.record_dispatched();
            outstanding.push_back(job);
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

        // Relay group cancellations to this worker's own in-flight jobs —
        // once per job. A worker blocked in `recv` notices at its next
        // wake-up: a result, a pong, or a heartbeat-interval read timeout.
        if let Some(spec) = cancel {
            let groups = {
                let state = shared.state.lock().expect("dispatch state");
                state.cancelled_groups.clone()
            };
            if !groups.is_empty() {
                for &job in &outstanding {
                    if !cancel_sent.contains(&job)
                        && (spec.group_of)(job).is_some_and(|g| groups.contains(&g))
                    {
                        // A send failure surfaces on the next recv.
                        let _ = transport.send(&cancel_frame(job));
                        cancel_sent.insert(job);
                    }
                }
            }
        }

        // Await one result. With a read deadline armed, a silent interval
        // surfaces as `Timeout`: probe with a ping, and once the worker
        // has been silent past the heartbeat deadline, mark it suspect
        // and requeue — a SIGSTOPped or silently partitioned worker must
        // never block plan completion.
        match transport.recv() {
            Ok(Some(frame)) => {
                last_heard = Instant::now();
                match frame.get("kind").and_then(Json::as_str) {
                    Some("result") => {
                        let Some(job) = frame
                            .get("id")
                            .and_then(Json::as_u64)
                            .and_then(|v| usize::try_from(v).ok())
                        else {
                            return die(
                                &mut outstanding,
                                "result frame without an id".into(),
                                false,
                            );
                        };
                        let Some(pos) = outstanding.iter().position(|&j| j == job) else {
                            return die(
                                &mut outstanding,
                                format!("result for job {job} this worker does not hold"),
                                false,
                            );
                        };
                        outstanding.remove(pos);
                        // Fold acks: the worker confirms which summaries it
                        // now holds (its own explore results included).
                        if let Some(fps) = frame.get("folded").and_then(Json::as_arr) {
                            for fp in fps {
                                if let Some(fp) = fp.as_str().and_then(Fingerprint::parse) {
                                    held.insert(fp);
                                }
                            }
                        }
                        registry.record_completed(id);
                        let ended_group = cancel.and_then(|spec| {
                            (spec.group_of)(job).filter(|_| (spec.ends_group)(&frame))
                        });
                        let mut state = shared.state.lock().expect("dispatch state");
                        if state.results[job].is_none() {
                            state.results[job] = Some(frame);
                            state.remaining -= 1;
                        }
                        if let (Some(spec), Some(g)) = (cancel, ended_group) {
                            if state.cancelled_groups.insert(g) {
                                // The group's verdict is in: resolve its
                                // queued members synthetically so no
                                // worker ever pulls them.
                                let mut kept = VecDeque::new();
                                while let Some(j) = state.queue.pop_front() {
                                    if (spec.group_of)(j) == Some(g) {
                                        if state.results[j].is_none() {
                                            state.results[j] = Some((spec.synthetic)(j));
                                            state.remaining -= 1;
                                        }
                                    } else {
                                        kept.push_back(j);
                                    }
                                }
                                state.queue = kept;
                            }
                        }
                        if state.remaining == 0 {
                            shared.cv.notify_all();
                        }
                    }
                    Some("pong") => {}
                    Some("error") => {
                        let message = frame
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("worker reported a job failure");
                        let mut state = shared.state.lock().expect("dispatch state");
                        state.fatal = Some(ExecError::Job(message.to_string()));
                        shared.cv.notify_all();
                        return;
                    }
                    other => {
                        return die(
                            &mut outstanding,
                            format!("unexpected frame kind {other:?}"),
                            false,
                        )
                    }
                }
            }
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
                if let Err(e) = transport.send(&ping_frame(ping_seq)) {
                    return die(&mut outstanding, format!("ping not sent: {e}"), false);
                }
            }
            Err(e) => return die(&mut outstanding, e.to_string(), false),
        }
    }
}

//! The worker side of the dispatch protocol: handshake, then execute
//! every job frame the coordinator pushes into this worker's window —
//! Step-1 explorations *and* Step-2 compositions — replying with result
//! frames as each job finishes (possibly out of order; the coordinator
//! folds by job id).
//!
//! [`worker_serve`] runs the protocol over any read/write pair — stdin and
//! stdout for `vericlick worker`, an accepted socket for
//! `vericlick worker --listen` (see [`serve_listener`]). The framing is
//! identical on every transport.

use super::transport::{read_frame, tcp_no_delay, write_frame, WorkerAddr};
use super::{run_explore_job, ExecError};
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::persist::{summary_from_json, summary_to_json};
use crate::wire::{
    job_from_json, options_digest, options_from_json, report_to_json, shard_result_to_json, JobSpec,
};
use dataplane_symbex::CancelToken;
use dataplane_verifier::{ElementSummary, Verifier, VerifierOptions};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Schema version of the worker-protocol frames. Version 2 is the
/// registry protocol: hello handshake, pull-dispatched tagged jobs
/// (explore *and* compose), out-of-order results by id. Version 3 adds
/// `fuzz` to the job vocabulary (conformance fuzz shards) — a bump, not
/// an addition, because a v2 worker would reject the new kind mid-plan
/// instead of at the handshake. Version 4 is the summary-transfer and
/// fleet-health upgrade: hellos carry an `options_digest` instead of the
/// full options (with a full-options fallback when the worker does not
/// know the digest), workers advertise the summary fingerprints they
/// already `held` and ack newly `folded` ones per result, compose frames
/// mark already-held summary slots with `"held"` instead of re-shipping
/// the document, and `ping`/`pong` frames let the coordinator detect a
/// wedged-but-connected worker. Version 5 is compose sharding: the
/// `compose-shard` job kind (a contiguous slice of a scenario's Step-2
/// check enumeration, riding the same summary-dedup attachments as
/// `compose`) and the `cancel` frame, which fires a running shard's
/// cancellation token so a sibling's violation stops work the fold no
/// longer needs — the cancelled job still answers with the complete
/// records it finished. Version 6 adds the `temporal` job kind: a
/// compose-shaped job (scenario + summary fingerprints, same dedup
/// attachments) whose property is an LTL spec decided by the
/// Büchi-product search — a bump so a v5 worker refuses it at decode
/// time instead of failing mid-plan. Version 7 added the `split` frame
/// (shard stealing); shard results also carry per-node `timings` the
/// service feeds into shard-width calibration, and shard unit addresses
/// are solver-work units (checks and weighted edges), not node counts.
/// Version 8 drops shard stealing: the `split` frame is now an unknown
/// frame kind that ends the session with a protocol error, and shard
/// results no longer carry a `remainder` range — a bump so a v7
/// coordinator, which may still send `split`, is refused at the hello.
/// Version 9 drops the `temporal` job kind: temporal scenarios travel as
/// `compose` jobs (the verifier routes an LTL property to the
/// Büchi-product search on its own), and a `temporal` job is now an
/// unknown kind answered with an error frame — a bump so a v8
/// coordinator, which may still send one, is refused at the hello.
pub const WORKER_SCHEMA: u64 = 9;

/// Protocol name announced in hello frames, so a mismatched peer is told
/// what this endpoint speaks.
pub const WORKER_PROTO: &str = "vericlick-worker";

/// A worker process's cross-session memory. One instance outlives every
/// coordinator session a listener serves, which is what makes the v4
/// protocol's dedup real: verifier options are remembered by digest (a
/// reconnecting coordinator sends 32 hex chars instead of the options
/// document), and element summaries — folded from job frames or computed
/// by this worker's own explore jobs — are retained and advertised in
/// hello replies, so the dispatcher ships only what this worker is
/// missing.
#[derive(Default)]
pub struct WorkerState {
    options: Mutex<BTreeMap<String, VerifierOptions>>,
    summaries: Mutex<BTreeMap<Fingerprint, Arc<ElementSummary>>>,
}

impl WorkerState {
    /// An empty state (a worker that has seen nothing yet).
    pub fn new() -> Self {
        WorkerState::default()
    }

    /// Fingerprints of every summary this worker holds, in sorted order —
    /// the `held` advertisement of a hello reply.
    pub fn held(&self) -> Vec<Fingerprint> {
        self.summaries
            .lock()
            .expect("worker summaries")
            .keys()
            .copied()
            .collect()
    }

    /// Retain `summary` under `fingerprint` for future sessions.
    pub fn fold(&self, fingerprint: Fingerprint, summary: Arc<ElementSummary>) {
        self.summaries
            .lock()
            .expect("worker summaries")
            .insert(fingerprint, summary);
    }

    /// The summary held under `fingerprint`, if any.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<Arc<ElementSummary>> {
        self.summaries
            .lock()
            .expect("worker summaries")
            .get(&fingerprint)
            .cloned()
    }

    /// Remember `options` under their content digest.
    pub fn remember_options(&self, options: &VerifierOptions) {
        self.options
            .lock()
            .expect("worker options")
            .insert(options_digest(options), options.clone());
    }

    /// The options previously pinned under `digest`, if this worker has
    /// seen them.
    pub fn options_for(&self, digest: &str) -> Option<VerifierOptions> {
        self.options
            .lock()
            .expect("worker options")
            .get(digest)
            .cloned()
    }
}

fn error_frame(id: Option<u64>, message: &str) -> Json {
    let mut fields = vec![
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("error")),
        ("message", Json::str(message)),
    ];
    if let Some(id) = id {
        fields.insert(2, ("id", Json::int(id)));
    }
    Json::obj(fields)
}

/// A job's result-frame payload fields, plus the fingerprints the job
/// folded into this worker's held set.
type JobOutput = (Vec<(&'static str, Json)>, Vec<Fingerprint>);

/// Resolved summary attachments, plus the fingerprints newly folded from
/// the frame they arrived in.
type DecodedSummaries = (Vec<Option<Arc<ElementSummary>>>, Vec<Fingerprint>);

/// Execute one decoded job; returns the result frame's payload fields
/// plus any fingerprints the job folded into this worker's held set (an
/// explore job retains its own result for future compose sessions).
fn run_job(
    job: &JobSpec,
    summaries: Vec<Option<Arc<ElementSummary>>>,
    options: &VerifierOptions,
    state: &WorkerState,
    cancel: &CancelToken,
) -> Result<JobOutput, ExecError> {
    match job {
        JobSpec::Explore(job) => {
            let summary = run_explore_job(job, &options.engine)?.map(Arc::new);
            let payload = vec![(
                "summary",
                match &summary {
                    Some(s) => summary_to_json(s),
                    None => Json::Null,
                },
            )];
            let mut folded = Vec::new();
            if let Some(summary) = summary {
                state.fold(job.fingerprint, summary);
                folded.push(job.fingerprint);
            }
            Ok((payload, folded))
        }
        // `verify` routes a temporal property to the Büchi-product search,
        // so the report matches an in-process run byte for byte.
        JobSpec::Compose(job) => {
            let scenario = job
                .scenario
                .to_scenario()
                .map_err(|e| ExecError::Job(format!("compose job scenario: {e}")))?;
            let mut verifier = Verifier::with_options(options.clone());
            verifier.seed_summaries(summaries.into_iter().flatten());
            let report = verifier.verify(&scenario.pipeline, &scenario.property);
            Ok((
                vec![
                    ("report", report_to_json(&report)),
                    (
                        "elapsed_micros",
                        Json::int(report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
                    ),
                ],
                Vec::new(),
            ))
        }
        JobSpec::ComposeShard(job) => {
            let scenario = job
                .scenario
                .to_scenario()
                .map_err(|e| ExecError::Job(format!("compose-shard job scenario: {e}")))?;
            let mut verifier = Verifier::with_options(options.clone());
            let result = verifier.decide_composition_shard(
                &scenario.pipeline,
                &scenario.property,
                summaries.into_iter().flatten(),
                job.start,
                job.end,
                cancel,
            );
            Ok((vec![("shard", shard_result_to_json(&result))], Vec::new()))
        }
        JobSpec::Fuzz(job) => {
            let report = crate::conformance::run_fuzz_shard(job, options)?;
            Ok((
                vec![("fuzz", crate::conformance::shard_report_to_json(&report))],
                Vec::new(),
            ))
        }
    }
}

/// Decode a job frame's `summaries` attachment under the v4 vocabulary:
/// a full document is folded into `state` (keyed by the job's fingerprint
/// at that position) and used, the string `"held"` resolves from `state`,
/// and `null` stays empty (budget-exceeded exploration). Returns the
/// resolved summaries plus the fingerprints newly folded from this frame.
fn decode_summaries(
    frame: &Json,
    job: &JobSpec,
    state: &WorkerState,
) -> Result<DecodedSummaries, ExecError> {
    let doc = match frame.get("summaries") {
        None | Some(Json::Null) => return Ok((Vec::new(), Vec::new())),
        Some(doc) => doc,
    };
    let arr = doc
        .as_arr()
        .ok_or_else(|| ExecError::Protocol("job summaries is not an array".into()))?;
    let fingerprints: &[Fingerprint] = match job {
        JobSpec::Compose(job) => &job.fingerprints,
        JobSpec::ComposeShard(job) => &job.fingerprints,
        _ => &[],
    };
    let mut folded = Vec::new();
    let summaries = arr
        .iter()
        .enumerate()
        .map(|(i, entry)| match entry {
            Json::Null => Ok(None),
            entry if entry.as_str() == Some("held") => {
                let fp = fingerprints.get(i).ok_or_else(|| {
                    ExecError::Protocol(format!(
                        "held summary slot {i} beyond the job's fingerprints"
                    ))
                })?;
                state.get(*fp).map(Some).ok_or_else(|| {
                    ExecError::Protocol(format!(
                        "summary {fp} marked held but absent from this worker's store"
                    ))
                })
            }
            entry => {
                let summary = Arc::new(
                    summary_from_json(entry)
                        .map_err(|e| ExecError::Protocol(format!("undecodable summary: {e}")))?,
                );
                if let Some(fp) = fingerprints.get(i) {
                    state.fold(*fp, summary.clone());
                    folded.push(*fp);
                }
                Ok(Some(summary))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((summaries, folded))
}

/// Serve one coordinator session with a fresh [`WorkerState`] — the
/// stdio form, where the worker process lives exactly one session. See
/// [`worker_serve_with`] for listeners that retain state across sessions.
pub fn worker_serve<R, W>(input: R, output: W, capacity: usize) -> Result<(), ExecError>
where
    R: BufRead,
    W: Write + Send,
{
    worker_serve_with(input, output, capacity, &WorkerState::new())
}

/// Serve one coordinator session: handshake on the first frame, then
/// execute job frames (up to `capacity` concurrently — the coordinator
/// never keeps more than the advertised capacity in flight) until the
/// peer closes the stream. `capacity` 0 means one per available core.
/// `state` is this worker's cross-session memory: the hello reply
/// advertises its held summaries and resolves the coordinator's options
/// digest against it (replying `need_options` and awaiting the full
/// document when the digest is unknown).
///
/// This is what `vericlick worker` runs over stdin/stdout; the framing is
/// line-delimited JSON, so the same function serves an accepted socket.
pub fn worker_serve_with<R, W>(
    input: R,
    output: W,
    capacity: usize,
    state: &WorkerState,
) -> Result<(), ExecError>
where
    R: BufRead,
    W: Write + Send,
{
    let capacity = super::default_parallelism(capacity);
    let mut input = input;
    let writer = Mutex::new(output);

    // Handshake: the first frame must be a hello with our protocol and
    // schema. EOF before any frame is a clean no-op session.
    let Some(hello) = read_frame(&mut input)? else {
        return Ok(());
    };
    let kind = hello.get("kind").and_then(Json::as_str);
    let schema = hello.get("schema").and_then(Json::as_u64);
    let proto = hello.get("proto").and_then(Json::as_str);
    if kind != Some("hello") || schema != Some(WORKER_SCHEMA) || proto != Some(WORKER_PROTO) {
        // Reject cleanly: tell the peer what this build speaks, then
        // refuse the session.
        let message = format!(
            "version mismatch: peer sent kind {kind:?} proto {proto:?} schema {schema:?}; \
             this worker speaks {WORKER_PROTO} schema {WORKER_SCHEMA}"
        );
        let _ = write_frame(
            &mut *writer.lock().expect("worker writer"),
            &error_frame(None, &message),
        );
        return Err(ExecError::Protocol(message));
    }
    // Pin this session's options: a full document wins (and is remembered
    // under its digest), otherwise the digest must resolve against this
    // worker's memory — and when it does not, the hello reply asks for
    // the full document before any job.
    let mut need_options = false;
    let options = if let Some(doc) = hello.get("options") {
        let options = options_from_json(doc).map_err(|e| ExecError::Protocol(e.to_string()))?;
        state.remember_options(&options);
        Some(options)
    } else if let Some(digest) = hello.get("options_digest").and_then(Json::as_str) {
        let known = state.options_for(digest);
        need_options = known.is_none();
        known
    } else {
        return Err(ExecError::Protocol(
            "hello frame has neither options nor options_digest".into(),
        ));
    };
    let mut reply = vec![
        ("schema", Json::int(WORKER_SCHEMA)),
        ("kind", Json::str("hello")),
        ("proto", Json::str(WORKER_PROTO)),
        ("capacity", Json::int(capacity as u64)),
        (
            "held",
            Json::Arr(
                state
                    .held()
                    .iter()
                    .map(|fp| Json::str(fp.to_string()))
                    .collect(),
            ),
        ),
    ];
    if need_options {
        reply.push(("need_options", Json::Bool(true)));
    }
    write_frame(
        &mut *writer.lock().expect("worker writer"),
        &Json::obj(reply),
    )?;
    let options = match options {
        Some(options) => options,
        None => {
            // The digest fallback: the very next frame must carry the
            // full options document.
            let Some(frame) = read_frame(&mut input)? else {
                return Err(ExecError::Protocol(
                    "connection closed awaiting the full options document".into(),
                ));
            };
            if frame.get("kind").and_then(Json::as_str) != Some("options") {
                return Err(ExecError::Protocol(
                    "expected an options frame after need_options".into(),
                ));
            }
            let options = options_from_json(
                frame
                    .get("options")
                    .ok_or_else(|| ExecError::Protocol("options frame without options".into()))?,
            )
            .map_err(|e| ExecError::Protocol(e.to_string()))?;
            state.remember_options(&options);
            options
        }
    };

    // The job loop. Jobs run on scoped threads; results are written as
    // they finish. The in-flight gate enforces the advertised capacity on
    // *this* side too — an honest coordinator never exceeds the window,
    // but a remote peer is not trusted to spawn unbounded solver threads
    // here.
    let options = &options;
    let writer = &writer;
    let in_flight = &(Mutex::new(0usize), Condvar::new());
    // Cancellation tokens of in-flight jobs, by id: a `cancel` frame fires
    // the token from the read loop while the job's thread keeps running —
    // the job notices between walk nodes and answers with what it has.
    let cancels = &Mutex::new(BTreeMap::<u64, CancelToken>::new());
    std::thread::scope(|scope| -> Result<(), ExecError> {
        loop {
            let Some(frame) = read_frame(&mut input)? else {
                return Ok(()); // coordinator closed the session: drain and exit
            };
            if frame.get("schema").and_then(Json::as_u64) != Some(WORKER_SCHEMA) {
                return Err(ExecError::Protocol("job frame with wrong schema".into()));
            }
            match frame.get("kind").and_then(Json::as_str) {
                Some("job") => {
                    let id = frame
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ExecError::Protocol("job frame without an id".into()))?;
                    let doc = frame
                        .get("job")
                        .ok_or_else(|| ExecError::Protocol("job frame without a job".into()))?;
                    // An undecodable job (an unknown kind, say) fails that
                    // job only: its id gets an error frame.
                    let job = match job_from_json(doc) {
                        Ok(job) => job,
                        Err(e) => {
                            let reply = error_frame(Some(id), &e.to_string());
                            write_frame(&mut *writer.lock().expect("worker writer"), &reply)?;
                            continue;
                        }
                    };
                    let (summaries, folded) = decode_summaries(&frame, &job, state)?;
                    {
                        let (count, cv) = in_flight;
                        let mut running = count.lock().expect("in-flight gate");
                        while *running >= capacity {
                            running = cv.wait(running).expect("in-flight gate");
                        }
                        *running += 1;
                    }
                    let cancel = CancelToken::new();
                    cancels
                        .lock()
                        .expect("cancel registry")
                        .insert(id, cancel.clone());
                    scope.spawn(move || {
                        let frame = match run_job(&job, summaries, options, state, &cancel) {
                            Ok((payload, run_folded)) => {
                                let mut fields = vec![
                                    ("schema", Json::int(WORKER_SCHEMA)),
                                    ("kind", Json::str("result")),
                                    ("id", Json::int(id)),
                                ];
                                fields.extend(payload);
                                let mut folded = folded;
                                folded.extend(run_folded);
                                if !folded.is_empty() {
                                    fields.push((
                                        "folded",
                                        Json::Arr(
                                            folded
                                                .iter()
                                                .map(|fp| Json::str(fp.to_string()))
                                                .collect(),
                                        ),
                                    ));
                                }
                                Json::obj(fields)
                            }
                            Err(e) => error_frame(Some(id), &e.to_string()),
                        };
                        cancels.lock().expect("cancel registry").remove(&id);
                        // A write failure means the coordinator is gone;
                        // the read loop will see EOF and exit.
                        let _ = write_frame(&mut *writer.lock().expect("worker writer"), &frame);
                        let (count, cv) = in_flight;
                        *count.lock().expect("in-flight gate") -= 1;
                        cv.notify_one();
                    });
                }
                Some("ping") => {
                    // Heartbeat: answer immediately from the read loop,
                    // even while jobs are in flight — that immediacy is
                    // exactly what tells a coordinator this worker is
                    // busy rather than wedged.
                    let mut pong = vec![
                        ("schema", Json::int(WORKER_SCHEMA)),
                        ("kind", Json::str("pong")),
                    ];
                    if let Some(seq) = frame.get("seq").and_then(Json::as_u64) {
                        pong.push(("seq", Json::int(seq)));
                    }
                    write_frame(
                        &mut *writer.lock().expect("worker writer"),
                        &Json::obj(pong),
                    )?;
                }
                Some("cancel") => {
                    // Fire the named job's token if it is still running; a
                    // cancel racing a finished job is a clean no-op (its
                    // result frame is already on the wire).
                    let id = frame
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ExecError::Protocol("cancel frame without an id".into()))?;
                    if let Some(token) = cancels.lock().expect("cancel registry").get(&id) {
                        token.cancel();
                    }
                }
                Some("options") => {
                    // An idempotent re-pin (a coordinator may push the
                    // full document even when the digest resolved).
                    let options = options_from_json(frame.get("options").ok_or_else(|| {
                        ExecError::Protocol("options frame without options".into())
                    })?)
                    .map_err(|e| ExecError::Protocol(e.to_string()))?;
                    state.remember_options(&options);
                }
                Some("shutdown") => return Ok(()),
                other => {
                    return Err(ExecError::Protocol(format!(
                        "unexpected frame kind {other:?}"
                    )))
                }
            }
        }
    })
}

/// Bind `addr` and serve coordinator connections: the body of
/// `vericlick worker --listen`. Every accepted connection is one
/// [`worker_serve`] session; sessions are served sequentially (one
/// coordinator at a time — parallelism lives *inside* a session, bounded
/// by `capacity`). With `once`, exit after the first session (used by
/// tests); otherwise loop until killed.
///
/// `log` receives one line per lifecycle event; the first is always
/// `listening on <addr>` with the *actual* bound address (so `:0` TCP
/// listeners report their chosen port).
pub fn serve_listener(
    addr: &WorkerAddr,
    capacity: usize,
    once: bool,
    log: &mut dyn FnMut(&str),
) -> Result<(), ExecError> {
    // One state for every session this listener serves: options stay
    // pinned by digest and summaries stay held across coordinator
    // reconnects — the warm half of the v4 dedup.
    let state = WorkerState::new();
    match addr {
        WorkerAddr::Tcp(spec) => {
            let listener = std::net::TcpListener::bind(spec)
                .map_err(|e| ExecError::Connect(format!("bind {spec}: {e}")))?;
            let local = listener
                .local_addr()
                .map_err(|e| ExecError::Connect(format!("bind {spec}: {e}")))?;
            log(&format!("listening on {local}"));
            loop {
                let (stream, peer) = listener
                    .accept()
                    .map_err(|e| ExecError::Connect(format!("accept: {e}")))?;
                log(&format!("session from {peer}"));
                tcp_no_delay(&stream)?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| ExecError::Connect(format!("clone stream: {e}")))?;
                match worker_serve_with(BufReader::new(reader), stream, capacity, &state) {
                    Ok(()) => log(&format!("session from {peer} done")),
                    Err(e) => log(&format!("session from {peer} failed: {e}")),
                }
                if once {
                    return Ok(());
                }
            }
        }
        WorkerAddr::Unix(path) => {
            // Reclaim only a *stale* socket file: if a live worker still
            // answers on it, refuse instead of silently stealing its
            // address (the old worker would keep running, unreachable).
            if path.exists() {
                if std::os::unix::net::UnixStream::connect(path).is_ok() {
                    return Err(ExecError::Connect(format!(
                        "{} is in use by a live worker",
                        path.display()
                    )));
                }
                let _ = std::fs::remove_file(path);
            }
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| ExecError::Connect(format!("bind {}: {e}", path.display())))?;
            log(&format!("listening on unix:{}", path.display()));
            loop {
                let (stream, _) = listener
                    .accept()
                    .map_err(|e| ExecError::Connect(format!("accept: {e}")))?;
                log("session on unix socket");
                let reader = stream
                    .try_clone()
                    .map_err(|e| ExecError::Connect(format!("clone stream: {e}")))?;
                match worker_serve_with(BufReader::new(reader), stream, capacity, &state) {
                    Ok(()) => log("session done"),
                    Err(e) => log(&format!("session failed: {e}")),
                }
                if once {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::dispatch::{hello_frame, options_frame};
    use super::super::testutil::router_jobs;
    use super::*;
    use crate::wire::{job_to_json, ExploreJob};

    fn frames_to_input(frames: &[Json]) -> std::io::Cursor<String> {
        let text: String = frames
            .iter()
            .map(|f| format!("{}\n", f.to_text()))
            .collect();
        std::io::Cursor::new(text)
    }

    fn job_frame(id: u64, job: &ExploreJob) -> Json {
        Json::obj([
            ("schema", Json::int(WORKER_SCHEMA)),
            ("kind", Json::str("job")),
            ("id", Json::int(id)),
            ("job", job_to_json(&JobSpec::Explore(job.clone()))),
        ])
    }

    fn parse_output(output: &[u8]) -> Vec<Json> {
        String::from_utf8(output.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn worker_serves_a_session_over_buffers() {
        // Drive the exact protocol through in-memory buffers: hello
        // (digest-only, so the fresh worker asks for and receives the
        // full options), two explore jobs, EOF.
        let options = VerifierOptions::default();
        let jobs = router_jobs(&options.engine);
        let mut frames = vec![hello_frame(&options), options_frame(&options)];
        frames.push(job_frame(0, &jobs[0]));
        frames.push(job_frame(1, &jobs[1]));
        let mut output = Vec::new();
        worker_serve(frames_to_input(&frames), &mut output, 2).unwrap();
        let replies = parse_output(&output);
        assert_eq!(
            replies[0].get("kind").and_then(Json::as_str),
            Some("hello"),
            "first reply is the hello"
        );
        assert_eq!(
            replies[0].get("schema").and_then(Json::as_u64),
            Some(WORKER_SCHEMA)
        );
        assert_eq!(
            replies[0].get("need_options").and_then(Json::as_bool),
            Some(true),
            "a fresh worker cannot resolve the digest"
        );
        assert!(
            matches!(replies[0].get("held"), Some(Json::Arr(held)) if held.is_empty()),
            "a fresh worker holds no summaries"
        );
        let mut ids: Vec<u64> = replies[1..]
            .iter()
            .map(|r| {
                assert_eq!(r.get("kind").and_then(Json::as_str), Some("result"));
                assert!(
                    r.get("summary").is_some(),
                    "explore results carry a summary"
                );
                r.get("id").and_then(Json::as_u64).unwrap()
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1], "every job answered exactly once");
    }

    #[test]
    fn digest_hello_resolves_against_a_preseeded_state() {
        let options = VerifierOptions::default();
        let state = WorkerState::new();
        state.remember_options(&options);
        let jobs = router_jobs(&options.engine);
        let frames = vec![hello_frame(&options), job_frame(0, &jobs[0])];
        let mut output = Vec::new();
        worker_serve_with(frames_to_input(&frames), &mut output, 1, &state).unwrap();
        let replies = parse_output(&output);
        assert!(
            replies[0].get("need_options").is_none(),
            "a known digest needs no options round trip"
        );
        let result = &replies[1];
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("result"));
        assert!(
            matches!(result.get("folded"), Some(Json::Arr(folded)) if folded.len() == 1),
            "an explore result acks the summary it folded into the store"
        );
        assert_eq!(
            state.held().len(),
            1,
            "the explored summary is held for the next session's hello"
        );
    }

    #[test]
    fn second_session_hello_advertises_summaries_held_from_the_first() {
        let options = VerifierOptions::default();
        let state = WorkerState::new();
        let jobs = router_jobs(&options.engine);
        let frames = vec![
            hello_frame(&options),
            options_frame(&options),
            job_frame(0, &jobs[0]),
        ];
        let mut output = Vec::new();
        worker_serve_with(frames_to_input(&frames), &mut output, 1, &state).unwrap();
        // Session 2 on the same state: the digest resolves and the hello
        // advertises the summary explored in session 1.
        let frames = vec![hello_frame(&options)];
        let mut output = Vec::new();
        worker_serve_with(frames_to_input(&frames), &mut output, 1, &state).unwrap();
        let replies = parse_output(&output);
        assert!(replies[0].get("need_options").is_none());
        assert!(
            matches!(replies[0].get("held"), Some(Json::Arr(held)) if held.len() == 1),
            "the second hello advertises the held summary: {:?}",
            replies[0]
        );
    }

    #[test]
    fn ping_frames_are_answered_with_pongs() {
        let options = VerifierOptions::default();
        let frames = vec![
            hello_frame(&options),
            options_frame(&options),
            Json::obj([
                ("schema", Json::int(WORKER_SCHEMA)),
                ("kind", Json::str("ping")),
                ("seq", Json::int(3u64)),
            ]),
        ];
        let mut output = Vec::new();
        worker_serve(frames_to_input(&frames), &mut output, 1).unwrap();
        let replies = parse_output(&output);
        let pong = replies
            .iter()
            .find(|r| r.get("kind").and_then(Json::as_str) == Some("pong"))
            .expect("a ping is answered with a pong");
        assert_eq!(pong.get("seq").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn version_mismatch_hello_is_rejected_cleanly() {
        let bad_hello = Json::obj([
            ("schema", Json::int(99u64)),
            ("kind", Json::str("hello")),
            ("proto", Json::str(WORKER_PROTO)),
        ]);
        let mut output = Vec::new();
        let result = worker_serve(frames_to_input(&[bad_hello]), &mut output, 1);
        assert!(matches!(result, Err(ExecError::Protocol(_))), "{result:?}");
        let replies = parse_output(&output);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].get("kind").and_then(Json::as_str), Some("error"));
        let message = replies[0]
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(
            message.contains(&format!("schema {WORKER_SCHEMA}")),
            "tells the peer what we speak: {message}"
        );
    }

    #[test]
    fn worker_rejects_malformed_frames_and_eof_is_clean() {
        let mut output = Vec::new();
        let result = worker_serve(
            std::io::Cursor::new("not json\n".to_string()),
            &mut output,
            1,
        );
        assert!(result.is_err());
        // EOF without a frame is a clean exit.
        let mut output = Vec::new();
        worker_serve(std::io::Cursor::new(String::new()), &mut output, 1).unwrap();
        assert!(output.is_empty());
        // A post-handshake `split` frame (the v7 steal request) is an
        // unknown kind: the session ends with a protocol error.
        let options = VerifierOptions::default();
        let frames = vec![
            hello_frame(&options),
            options_frame(&options),
            Json::obj([
                ("schema", Json::int(WORKER_SCHEMA)),
                ("kind", Json::str("split")),
                ("id", Json::int(0u64)),
            ]),
        ];
        let mut output = Vec::new();
        let result = worker_serve(frames_to_input(&frames), &mut output, 1);
        assert!(
            matches!(&result, Err(ExecError::Protocol(m)) if m.contains("split")),
            "{result:?}"
        );
    }

    #[test]
    fn fingerprint_mismatch_becomes_an_error_frame() {
        let options = VerifierOptions::default();
        let mut jobs = router_jobs(&options.engine);
        jobs[0].fingerprint = crate::fingerprint::fingerprint_bytes("not this element");
        let frames = vec![
            hello_frame(&options),
            options_frame(&options),
            job_frame(7, &jobs[0]),
        ];
        let mut output = Vec::new();
        worker_serve(frames_to_input(&frames), &mut output, 1).unwrap();
        let replies = parse_output(&output);
        assert_eq!(replies[1].get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(replies[1].get("id").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn a_temporal_job_kind_is_answered_with_an_unknown_kind_error() {
        // Temporal scenarios travel as `compose` jobs; `temporal` is no
        // job kind.
        let options = VerifierOptions::default();
        let mut job = job_to_json(&JobSpec::Explore(router_jobs(&options.engine)[0].clone()));
        if let Json::Obj(fields) = &mut job {
            fields.insert("kind".into(), Json::str("temporal"));
        }
        let frames = vec![
            hello_frame(&options),
            options_frame(&options),
            Json::obj([
                ("schema", Json::int(WORKER_SCHEMA)),
                ("kind", Json::str("job")),
                ("id", Json::int(3u64)),
                ("job", job),
            ]),
        ];
        let mut output = Vec::new();
        worker_serve(frames_to_input(&frames), &mut output, 1).unwrap();
        let replies = parse_output(&output);
        assert_eq!(replies[1].get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(replies[1].get("id").and_then(Json::as_u64), Some(3));
        let message = replies[1].get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("unknown job kind 'temporal'"), "{message}");
    }
}

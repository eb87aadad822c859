//! The worker side of the dispatch protocol: handshake, then execute
//! every job frame the coordinator pushes into this worker's window —
//! Step-1 explorations *and* Step-2 compositions — replying with result
//! frames as each job finishes (possibly out of order; the coordinator
//! folds by job id).
//!
//! [`worker_serve`] runs the protocol over any read/write pair — stdin and
//! stdout for `vericlick worker`, a [`Listener`]'s accepted socket for
//! `vericlick worker --listen` (see [`serve_listener`]). The framing is
//! identical on every transport.

use super::frame::{attached_to, Attached, FromWorker, JobOutput, Pin, ToWorker, Undecodable};
use super::transport::{closed_before_a_frame, read_frame, write_frame, Listener};
use super::{run_explore_job, ExecError};
use crate::fingerprint::Fingerprint;
use crate::wire::{options_digest, JobSpec, ScenarioSpec};
use dataplane_symbex::CancelToken;
use dataplane_verifier::{ElementSummary, Verifier, VerifierOptions};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};

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

/// Resolved summaries, plus the fingerprints newly folded from the frame
/// they arrived in.
type Resolved = (Vec<Option<Arc<ElementSummary>>>, Vec<Fingerprint>);

/// Execute one decoded job; returns its output plus any fingerprints the
/// job folded into this worker's held set (an explore job retains its own
/// result for future compose sessions).
fn run_job(
    job: &JobSpec,
    summaries: Vec<Option<Arc<ElementSummary>>>,
    options: &VerifierOptions,
    state: &WorkerState,
) -> Result<(JobOutput, Vec<Fingerprint>), ExecError> {
    let scenario = |spec: &ScenarioSpec, kind: &str| {
        spec.to_scenario()
            .map_err(|e| ExecError::Job(format!("{kind} job scenario: {e}")))
    };
    match job {
        JobSpec::Explore(job) => {
            let summary = run_explore_job(job, &options.engine)?.map(Arc::new);
            let mut folded = Vec::new();
            if let Some(summary) = &summary {
                state.fold(job.fingerprint, summary.clone());
                folded.push(job.fingerprint);
            }
            Ok((JobOutput::Summary(summary), folded))
        }
        // `verify` routes a temporal property to the Büchi-product search,
        // so the report matches an in-process run byte for byte.
        JobSpec::Compose(job) => {
            let scenario = scenario(&job.scenario, "compose")?;
            let mut verifier = Verifier::with_options(options.clone());
            verifier.seed_summaries(summaries.into_iter().flatten());
            let report = verifier.verify(&scenario.pipeline, &scenario.property);
            Ok((JobOutput::Report(Box::new(report)), Vec::new()))
        }
        // A shard runs to its end: nothing cancels it.
        JobSpec::ComposeShard(job) => {
            let scenario = scenario(&job.scenario, "compose-shard")?;
            let result = Verifier::with_options(options.clone()).decide_composition_shard(
                &scenario.pipeline,
                &scenario.property,
                summaries.into_iter().flatten(),
                job.start,
                job.end,
                &CancelToken::new(),
            );
            Ok((JobOutput::Shard(result), Vec::new()))
        }
        JobSpec::Fuzz(job) => {
            let report = crate::conformance::run_fuzz_shard(job, options)?;
            Ok((JobOutput::Fuzz(report), Vec::new()))
        }
    }
}

/// Resolve a job's summary attachment against `state`: a shipped summary
/// is folded into `state` (keyed by the job's fingerprint at that
/// position) and used, a `held` marker resolves from `state`, and an
/// empty slot stays empty (budget-exceeded exploration). Returns the
/// resolved summaries plus the fingerprints newly folded.
fn resolve(
    job: &JobSpec,
    slots: Vec<Attached>,
    state: &WorkerState,
) -> Result<Resolved, ExecError> {
    let fingerprints = attached_to(job);
    let mut folded = Vec::new();
    let summaries = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Attached::Missing => Ok(None),
            Attached::Held => fingerprints
                .get(i)
                .and_then(|fp| state.get(*fp))
                .map(Some)
                .ok_or_else(|| {
                    ExecError::Protocol(format!(
                        "held summary slot {i} is not in this worker's store"
                    ))
                }),
            Attached::Shipped(summary) => {
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
    let send = |frame: FromWorker| {
        let frame = frame.encode();
        write_frame(&mut *writer.lock().expect("worker writer"), &frame)
    };

    // Handshake: the first frame must be a hello with our protocol and
    // schema. EOF before any frame is a clean no-op session.
    let Some(hello) = read_frame(&mut input)? else {
        return Ok(());
    };
    let pin = match ToWorker::decode(&hello) {
        Ok(ToWorker::Hello(pin)) => pin,
        refused => {
            // Reject cleanly: tell the peer why (a version mismatch names
            // what this build speaks), then refuse the session.
            let message = match refused {
                Err(e) => e.message,
                Ok(_) => "the session must open with a hello".to_string(),
            };
            let _ = send(FromWorker::Error {
                id: None,
                message: message.clone(),
            });
            return Err(ExecError::Protocol(message));
        }
    };
    // Pin this session's options: a full document wins (and is remembered
    // under its digest), otherwise the digest must resolve against this
    // worker's memory — and when it does not, the hello reply asks for
    // the full document before any job.
    let options = match pin {
        Pin::Full(options) => {
            state.remember_options(&options);
            Some(options)
        }
        Pin::Digest(digest) => state.options_for(&digest),
    };
    send(FromWorker::Hello {
        capacity,
        held: state.held(),
        need_options: options.is_none(),
    })?;
    let options = match options {
        Some(options) => options,
        // The digest fallback: the very next frame must carry the full
        // options document.
        None => match read_frame(&mut input)?.map(|frame| ToWorker::decode(&frame)) {
            Some(Ok(ToWorker::Options(options))) => {
                state.remember_options(&options);
                options
            }
            Some(Err(e)) => return Err(ExecError::Protocol(e.message)),
            _ => {
                return Err(ExecError::Protocol(
                    "expected the full options document after need_options".into(),
                ))
            }
        },
    };

    // The job loop. Jobs run on scoped threads; results are written as
    // they finish. The in-flight gate enforces the advertised capacity on
    // *this* side too — an honest coordinator never exceeds the window,
    // but a remote peer is not trusted to spawn unbounded solver threads
    // here.
    let options = &options;
    let send = &send;
    let in_flight = &(Mutex::new(0usize), Condvar::new());
    std::thread::scope(|scope| -> Result<(), ExecError> {
        loop {
            let Some(frame) = read_frame(&mut input)? else {
                return Ok(()); // coordinator closed the session: drain and exit
            };
            match ToWorker::decode(&frame) {
                Ok(ToWorker::Job { id, job, summaries }) => {
                    let (summaries, folded) = resolve(&job, summaries.unwrap_or_default(), state)?;
                    {
                        let (count, cv) = in_flight;
                        let mut running = count.lock().expect("in-flight gate");
                        while *running >= capacity {
                            running = cv.wait(running).expect("in-flight gate");
                        }
                        *running += 1;
                    }
                    scope.spawn(move || {
                        let reply = match run_job(&job, summaries, options, state) {
                            Ok((output, run_folded)) => FromWorker::Result {
                                id,
                                output,
                                folded: folded.into_iter().chain(run_folded).collect(),
                            },
                            Err(e) => FromWorker::Error {
                                id: Some(id),
                                message: e.to_string(),
                            },
                        };
                        // A write failure means the coordinator is gone;
                        // the read loop will see EOF and exit.
                        let _ = send(reply);
                        let (count, cv) = in_flight;
                        *count.lock().expect("in-flight gate") -= 1;
                        cv.notify_one();
                    });
                }
                // An undecodable job fails that job only: its id gets an
                // error frame and the session goes on.
                Err(Undecodable {
                    job: Some(id),
                    message,
                }) => send(FromWorker::Error {
                    id: Some(id),
                    message,
                })?,
                // Heartbeat: answer immediately from the read loop, even
                // while jobs are in flight — that immediacy is exactly
                // what tells a coordinator this worker is busy rather
                // than wedged.
                Ok(ToWorker::Ping(seq)) => send(FromWorker::Pong(seq))?,
                // An idempotent re-pin (a coordinator may push the full
                // document even when the digest resolved).
                Ok(ToWorker::Options(options)) => state.remember_options(&options),
                Ok(ToWorker::Hello(_)) => {
                    return Err(ExecError::Protocol("unexpected hello frame".into()))
                }
                Err(e) => return Err(ExecError::Protocol(e.message)),
            }
        }
    })
}

/// Serve coordinator connections on `listener`: the body of `vericlick
/// worker --listen`. Every accepted connection is one [`worker_serve`]
/// session; sessions are served sequentially (one coordinator at a time —
/// parallelism lives *inside* a session, bounded by `capacity`). With
/// `once`, return after the first session (used by tests; a connection
/// that closes before its first frame is none); otherwise loop until
/// killed. `log` receives one line per session event.
pub fn serve_listener(listener: Listener, capacity: usize, once: bool, log: &mut dyn FnMut(&str)) {
    // One state for every session this listener serves: options stay
    // pinned by digest and summaries stay held across coordinator
    // reconnects — the warm half of the v4 dedup.
    let state = WorkerState::new();
    loop {
        let (mut reader, writer, peer) = listener.accept(log);
        if once && closed_before_a_frame(&mut reader) {
            continue;
        }
        log(&format!("session from {peer}"));
        match worker_serve_with(reader, writer, capacity, &state) {
            Ok(()) => log(&format!("session from {peer} done")),
            Err(e) => log(&format!("session from {peer} failed: {e}")),
        }
        if once {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::router_jobs;
    use super::super::{WORKER_PROTO, WORKER_SCHEMA};
    use super::*;
    use crate::json::Json;
    use crate::wire::{job_to_json, ExploreJob};

    fn hello_frame(options: &VerifierOptions) -> Json {
        ToWorker::Hello(Pin::Digest(options_digest(options))).encode()
    }

    fn options_frame(options: &VerifierOptions) -> Json {
        ToWorker::Options(options.clone()).encode()
    }

    fn frames_to_input(frames: &[Json]) -> std::io::Cursor<String> {
        let text: String = frames
            .iter()
            .map(|f| format!("{}\n", f.to_text()))
            .collect();
        std::io::Cursor::new(text)
    }

    fn job_frame(id: u64, job: &ExploreJob) -> Json {
        ToWorker::Job {
            id,
            job: JobSpec::Explore(job.clone()),
            summaries: None,
        }
        .encode()
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
    fn a_malformed_job_fingerprint_becomes_an_error_frame_and_the_session_goes_on() {
        // 32 bytes that are not 32 hex digits: `é` across the midpoint,
        // and signs `from_str_radix` would accept.
        let options = VerifierOptions::default();
        let mut frames = vec![hello_frame(&options), options_frame(&options)];
        let straddling = format!("{}\u{e9}{}", "a".repeat(15), "a".repeat(15));
        for (id, fingerprint) in [
            (0u64, straddling.as_str()),
            (1, "+000000000000001+000000000000001"),
        ] {
            let mut job = job_frame(id, &router_jobs(&options.engine)[0]);
            if let Json::Obj(fields) = &mut job {
                let mut doc = fields["job"].clone();
                if let Json::Obj(job) = &mut doc {
                    job.insert("fingerprint".into(), Json::str(fingerprint));
                }
                fields.insert("job".into(), doc);
            }
            frames.push(job);
        }
        frames.push(Json::obj([
            ("schema", Json::int(WORKER_SCHEMA)),
            ("kind", Json::str("ping")),
            ("seq", Json::int(5u64)),
        ]));
        let mut output = Vec::new();
        worker_serve(frames_to_input(&frames), &mut output, 1).unwrap();
        let replies = parse_output(&output);
        assert_eq!(replies.len(), 4, "{replies:?}");
        for (reply, id) in replies[1..3].iter().zip([0, 1]) {
            assert_eq!(reply.get("kind").and_then(Json::as_str), Some("error"));
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
            let message = reply.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains("bad fingerprint"), "{message}");
        }
        assert_eq!(replies[3].get("kind").and_then(Json::as_str), Some("pong"));
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

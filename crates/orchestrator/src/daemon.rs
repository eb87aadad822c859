//! `vericlick serve` — a persistent verification daemon.
//!
//! A [`Daemon`] owns one warm core — a shared [`SummaryStore`] and a set
//! of default [`VerifierOptions`] — and serves line-JSON
//! [`VerifyRequest`]s over TCP or Unix-domain sockets. Because the store
//! outlives any one request, a client re-submitting a matrix it (or
//! anyone else) already verified plans **zero** element-exploration jobs:
//! Step 1 is entirely served from memory, and only the cheap Step-2
//! compositions re-run. Deterministic report content is byte-identical
//! to a cold in-process run either way.
//!
//! ## The client protocol
//!
//! One connection is one session, framed as line-delimited JSON (the
//! same framing the worker protocol uses — see [`crate::exec`]):
//!
//! 1. client → `{schema, kind: "hello", proto, options?}` — an optional
//!    full options document pins this session's [`VerifierOptions`];
//!    omitted, the session runs under the daemon's defaults.
//! 2. daemon → `{schema, kind: "hello", proto, sessions, workers}` on
//!    admission. When `max_sessions` verify sessions are already in
//!    flight the hello is held in a bounded line instead: the client
//!    gets `{kind: "queued", position}` at once and the normal `hello`
//!    reply when a slot frees. Past `max_queue` pending hellos the
//!    daemon refuses outright with `{kind: "error", message: "busy:
//!    ...", retry_after_ms}`.
//! 3. client → `{kind: "verify", request}` — any serialised
//!    [`VerifyRequest`], repeatable; a watch session's rolling baseline
//!    lives exactly as long as the connection.
//! 4. daemon → `{kind: "response", request, proven, violated, unknown,
//!    ok, display, report, det_report, dispatch}` — the server-rendered
//!    human text plus both report documents, or `{kind: "error",
//!    message}` for a request that failed (the session survives).
//!
//! A *worker* can also dial the daemon: `{kind: "join", addr}` appends
//! `addr` to the daemon's socket-worker pool (deduplicated) and is
//! answered with `{kind: "joined", workers}`; the connection then
//! closes. Joins bypass admission — fleet growth is never queued behind
//! verify traffic — and take effect on the next dispatch: every request
//! re-plans capacity against the pool as it is *now*, so a worker joined
//! mid-session picks up work on the very next phase.
//!
//! When the pool is non-empty, requests execute on a
//! [`WorkerFleet`] with the daemon's [`HeartbeatConfig`], so a wedged
//! worker is marked suspect and its jobs requeue to survivors (see
//! [`crate::exec::dispatch`]); summary dedup (worker protocol v4) means
//! a warm worker receives `"held"` markers instead of re-shipped
//! summary documents.

use crate::cache::SummaryStore;
use crate::codec::{from_json, to_json};
use crate::exec::transport::{
    read_frame, tcp_no_delay, write_frame, Connector, SocketConnector, WorkerAddr,
};
use crate::exec::{DispatchStats, ExecError, Executor, HeartbeatConfig, Transport, WorkerFleet};
use crate::json::Json;
use crate::service::{VerifyOutcome, VerifyRequest, VerifyResponse, VerifyService};
use dataplane_verifier::VerifierOptions;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Client protocol name, sent in every hello/join frame.
pub const CLIENT_PROTO: &str = "vericlick-client";

/// Client protocol schema version. Version 1 speaks hello (with optional
/// session options), verify, join, queued, response, and error frames.
pub const CLIENT_SCHEMA: u64 = 1;

/// The per-queue-slot component of the `retry_after_ms` hint a full
/// daemon puts in its busy error frame: a refused client is told to come
/// back after roughly this long per session it would have waited behind.
pub const BUSY_RETRY_HINT_MS: u64 = 250;

/// How a [`Daemon`] is built: the warm core plus admission and fleet
/// tuning.
pub struct DaemonConfig {
    /// Default verifier options for sessions that pin none of their own.
    pub options: VerifierOptions,
    /// Worker threads per session service (0 = one per available core).
    pub threads: usize,
    /// The shared summary store — the daemon's warmth. `None` builds a
    /// fresh in-memory store; pass a persistent store to keep summaries
    /// across daemon restarts too.
    pub store: Option<Arc<SummaryStore>>,
    /// Verify sessions admitted concurrently; further hellos queue (up to
    /// `max_queue`) or are refused with a `busy` error frame
    /// (0 = unlimited).
    pub max_sessions: usize,
    /// Hellos held in line when all `max_sessions` slots are taken. A
    /// queued client gets a `queued` frame (with its position) at once
    /// and the normal `hello` reply when a slot frees; past this depth
    /// the busy error frame carries a `retry_after_ms` hint instead
    /// (0 = never queue, refuse immediately).
    pub max_queue: usize,
    /// The initial socket-worker pool (workers can also [`Daemon::join`]
    /// at runtime).
    pub workers: Vec<WorkerAddr>,
    /// Heartbeat tuning for the fleets built per request.
    pub heartbeat: HeartbeatConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            options: VerifierOptions::default(),
            threads: 0,
            store: None,
            max_sessions: 4,
            max_queue: 4,
            workers: Vec::new(),
            heartbeat: HeartbeatConfig::default(),
        }
    }
}

struct DaemonInner {
    store: Arc<SummaryStore>,
    options: VerifierOptions,
    threads: usize,
    max_sessions: usize,
    max_queue: usize,
    heartbeat: HeartbeatConfig,
    workers: Mutex<Vec<WorkerAddr>>,
    admission: Mutex<Admission>,
    freed: Condvar,
}

/// The admission ledger: sessions holding a slot plus hellos in line.
#[derive(Default)]
struct Admission {
    active: usize,
    queued: usize,
}

/// What the admission gate decided for one hello.
enum Admit {
    /// A slot was free; the session runs now.
    Admitted(SessionGuard),
    /// All slots taken, queue has room: the 1-based position in line.
    Queued(usize),
    /// Slots and queue both full — refuse with a retry hint.
    Busy,
}

/// The daemon: cheap to clone (sessions share one inner state), so the
/// accept loop hands one clone to each session thread.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<DaemonInner>,
}

/// Decrements the in-flight session count on drop, however the session
/// ends.
struct SessionGuard(Arc<DaemonInner>);

impl SessionGuard {
    /// Admit a session, queue it, or refuse it.
    fn admit(inner: &Arc<DaemonInner>) -> Admit {
        let mut admission = inner.admission.lock().expect("daemon sessions");
        if inner.max_sessions == 0 || admission.active < inner.max_sessions {
            admission.active += 1;
            return Admit::Admitted(SessionGuard(inner.clone()));
        }
        if admission.queued < inner.max_queue {
            admission.queued += 1;
            return Admit::Queued(admission.queued);
        }
        Admit::Busy
    }

    /// Block a queued hello until a slot frees, then take it. The caller
    /// must have incremented `queued` via [`SessionGuard::admit`].
    fn wait_from_queue(inner: &Arc<DaemonInner>) -> SessionGuard {
        let mut admission = inner.admission.lock().expect("daemon sessions");
        loop {
            if admission.active < inner.max_sessions {
                admission.queued -= 1;
                admission.active += 1;
                return SessionGuard(inner.clone());
            }
            admission = inner.freed.wait(admission).expect("daemon sessions");
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let mut admission = self.0.admission.lock().expect("daemon sessions");
        admission.active -= 1;
        drop(admission);
        self.0.freed.notify_all();
    }
}

fn error_frame(message: &str) -> Json {
    Json::obj([
        ("schema", Json::int(CLIENT_SCHEMA)),
        ("kind", Json::str("error")),
        ("message", Json::str(message)),
    ])
}

fn response_frame(response: &VerifyResponse, dispatch: Option<&DispatchStats>) -> Json {
    let (proven, violated, unknown) = response.verdict_counts();
    let ok = match &response.outcome {
        VerifyOutcome::Conformance(c) => c.ok(),
        VerifyOutcome::Bound(_) => true,
        _ => violated == 0 && unknown == 0,
    };
    Json::obj([
        ("schema", Json::int(CLIENT_SCHEMA)),
        ("kind", Json::str("response")),
        ("request", Json::str(response.request)),
        ("proven", Json::int(proven as u64)),
        ("violated", Json::int(violated as u64)),
        ("unknown", Json::int(unknown as u64)),
        ("ok", Json::Bool(ok)),
        ("display", Json::str(format!("{response}"))),
        ("report", response.to_json()),
        ("det_report", response.deterministic_json()),
        ("dispatch", dispatch.map_or(Json::Null, to_json)),
    ])
}

impl Daemon {
    /// Build a daemon from `config`. No socket is bound yet — call
    /// [`Daemon::serve`], or drive sessions directly with
    /// [`Daemon::serve_connection`].
    pub fn new(config: DaemonConfig) -> Daemon {
        Daemon {
            inner: Arc::new(DaemonInner {
                store: config
                    .store
                    .unwrap_or_else(|| Arc::new(SummaryStore::in_memory())),
                options: config.options,
                threads: config.threads,
                max_sessions: config.max_sessions,
                max_queue: config.max_queue,
                heartbeat: config.heartbeat,
                workers: Mutex::new(config.workers),
                admission: Mutex::new(Admission::default()),
                freed: Condvar::new(),
            }),
        }
    }

    /// The daemon's shared summary store (the warmth clients benefit
    /// from).
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.inner.store
    }

    /// The current socket-worker pool.
    pub fn workers(&self) -> Vec<WorkerAddr> {
        self.inner.workers.lock().expect("daemon workers").clone()
    }

    /// Append `addr` to the worker pool (deduplicated); returns the pool
    /// size afterwards. Takes effect on the next dispatched request —
    /// the daemon re-plans fleet capacity per request.
    pub fn join(&self, addr: WorkerAddr) -> usize {
        let mut workers = self.inner.workers.lock().expect("daemon workers");
        if !workers.contains(&addr) {
            workers.push(addr);
        }
        workers.len()
    }

    /// Serve one client request on a per-session `service`, returning
    /// the reply frame or an error message (which the session survives).
    fn serve_request(&self, service: &VerifyService, frame: &Json) -> Result<Json, String> {
        let doc = frame
            .get("request")
            .ok_or("verify frame without a request")?;
        let request = VerifyRequest::from_json(doc).map_err(|e| e.to_string())?;
        // A fleet per request, over the workers joined right now; none
        // joined, the same call serves on the session's own pool.
        let workers = self.workers();
        let fleet = (!workers.is_empty())
            .then(|| WorkerFleet::sockets(workers).with_heartbeat(self.inner.heartbeat));
        let response = service
            .serve_with(request, fleet.as_ref().map(|fleet| fleet as &dyn Executor))
            .map_err(|e| e.to_string())?;
        let stats = fleet.map(|fleet| fleet.registry().stats());
        Ok(response_frame(&response, stats.as_ref()))
    }

    /// Serve one connection: the hello/join handshake, then verify
    /// frames until the peer closes the stream. Generic over the stream
    /// pair so tests can drive a session over in-memory buffers exactly
    /// as the socket listener drives it.
    pub fn serve_connection<R, W>(&self, mut input: R, mut output: W) -> Result<(), ExecError>
    where
        R: BufRead,
        W: Write,
    {
        let inner = &self.inner;
        let Some(hello) = read_frame(&mut input)? else {
            return Ok(());
        };
        let kind = hello.get("kind").and_then(Json::as_str);
        let schema = hello.get("schema").and_then(Json::as_u64);
        let proto = hello.get("proto").and_then(Json::as_str);
        if schema != Some(CLIENT_SCHEMA) || proto != Some(CLIENT_PROTO) {
            let message = format!(
                "version mismatch: peer sent kind {kind:?} proto {proto:?} schema {schema:?}; \
                 this daemon speaks {CLIENT_PROTO} schema {CLIENT_SCHEMA}"
            );
            let _ = write_frame(&mut output, &error_frame(&message));
            return Err(ExecError::Protocol(message));
        }
        match kind {
            // A worker announcing itself: grow the pool, ack, done.
            // Joins bypass admission so fleet growth is never queued
            // behind verify traffic.
            Some("join") => {
                let addr = hello
                    .get("addr")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ExecError::Protocol("join frame without an addr".into()))?;
                let workers = self.join(WorkerAddr::parse(addr));
                return write_frame(
                    &mut output,
                    &Json::obj([
                        ("schema", Json::int(CLIENT_SCHEMA)),
                        ("kind", Json::str("joined")),
                        ("workers", Json::int(workers as u64)),
                    ]),
                );
            }
            Some("hello") => {}
            other => {
                let message = format!("expected a hello or join frame, got kind {other:?}");
                let _ = write_frame(&mut output, &error_frame(&message));
                return Err(ExecError::Protocol(message));
            }
        }

        // Admission: hold a bounded line of pending hellos (each told its
        // position at once, served as slots free), and past that refuse
        // with a retry hint — an *unbounded* backlog would make a daemon
        // wedged behind deep queues look exactly like a wedged daemon.
        let guard = match SessionGuard::admit(inner) {
            Admit::Admitted(guard) => guard,
            Admit::Queued(position) => {
                write_frame(
                    &mut output,
                    &Json::obj([
                        ("schema", Json::int(CLIENT_SCHEMA)),
                        ("kind", Json::str("queued")),
                        ("position", Json::int(position as u64)),
                    ]),
                )?;
                SessionGuard::wait_from_queue(inner)
            }
            Admit::Busy => {
                let retry_after_ms = BUSY_RETRY_HINT_MS * (inner.max_queue as u64 + 1);
                let mut frame = error_frame(&format!(
                    "busy: {} sessions in flight (max {}) and the queue of {} is full; \
                     retry in ~{retry_after_ms}ms",
                    inner.max_sessions, inner.max_sessions, inner.max_queue
                ));
                if let Json::Obj(map) = &mut frame {
                    map.insert("retry_after_ms".into(), Json::int(retry_after_ms));
                }
                return write_frame(&mut output, &frame);
            }
        };

        // Session options: a full document in the hello pins them for
        // every request on this connection; otherwise the daemon's
        // defaults apply.
        let options = match hello.get("options") {
            Some(doc) => match from_json(doc) {
                Ok(options) => options,
                Err(e) => {
                    let message = format!("undecodable session options: {e}");
                    let _ = write_frame(&mut output, &error_frame(&message));
                    return Err(ExecError::Protocol(message));
                }
            },
            None => inner.options.clone(),
        };
        write_frame(
            &mut output,
            &Json::obj([
                ("schema", Json::int(CLIENT_SCHEMA)),
                ("kind", Json::str("hello")),
                ("proto", Json::str(CLIENT_PROTO)),
                (
                    "sessions",
                    Json::int(inner.admission.lock().expect("daemon sessions").active as u64),
                ),
                ("workers", Json::int(self.workers().len() as u64)),
            ]),
        )?;

        // The per-session service: fresh options and watch baseline,
        // shared (warm) store.
        let service = VerifyService::new()
            .with_threads(inner.threads)
            .with_options(options)
            .with_store(inner.store.clone());
        while let Some(frame) = read_frame(&mut input)? {
            let reply = match frame.get("kind").and_then(Json::as_str) {
                Some("verify") => match self.serve_request(&service, &frame) {
                    Ok(reply) => reply,
                    Err(message) => error_frame(&message),
                },
                other => error_frame(&format!("unsupported frame kind {other:?}")),
            };
            write_frame(&mut output, &reply)?;
        }
        drop(guard);
        Ok(())
    }

    /// Bind `addr` and serve clients until killed (or, with `once`,
    /// exactly one connection — used by tests). Each connection runs on
    /// its own thread so admission and warm-store sharing are real.
    ///
    /// `log` receives one line per lifecycle event; the first is always
    /// `listening on <addr>` with the *actual* bound address (so `:0`
    /// TCP listeners report their chosen port).
    pub fn serve(
        &self,
        addr: &WorkerAddr,
        once: bool,
        log: Arc<dyn Fn(&str) + Send + Sync>,
    ) -> Result<(), ExecError> {
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
                    if once {
                        match self.serve_connection(BufReader::new(reader), stream) {
                            Ok(()) => log(&format!("session from {peer} done")),
                            Err(e) => log(&format!("session from {peer} failed: {e}")),
                        }
                        return Ok(());
                    }
                    let daemon = self.clone();
                    let log = log.clone();
                    std::thread::spawn(move || {
                        match daemon.serve_connection(BufReader::new(reader), stream) {
                            Ok(()) => log(&format!("session from {peer} done")),
                            Err(e) => log(&format!("session from {peer} failed: {e}")),
                        }
                    });
                }
            }
            WorkerAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| {
                        ExecError::Connect(format!("remove stale {}: {e}", path.display()))
                    })?;
                }
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| ExecError::Connect(format!("bind {}: {e}", path.display())))?;
                log(&format!("listening on {}", path.display()));
                let mut session = 0usize;
                loop {
                    let (stream, _) = listener
                        .accept()
                        .map_err(|e| ExecError::Connect(format!("accept: {e}")))?;
                    session += 1;
                    log(&format!("session #{session}"));
                    let reader = stream
                        .try_clone()
                        .map_err(|e| ExecError::Connect(format!("clone stream: {e}")))?;
                    if once {
                        match self.serve_connection(BufReader::new(reader), stream) {
                            Ok(()) => log(&format!("session #{session} done")),
                            Err(e) => log(&format!("session #{session} failed: {e}")),
                        }
                        return Ok(());
                    }
                    let daemon = self.clone();
                    let log = log.clone();
                    std::thread::spawn(move || {
                        match daemon.serve_connection(BufReader::new(reader), stream) {
                            Ok(()) => log(&format!("session #{session} done")),
                            Err(e) => log(&format!("session #{session} failed: {e}")),
                        }
                    });
                }
            }
        }
    }
}

/// One served request as the client sees it: verdict counts, the
/// server-rendered display text, and both report documents.
pub struct ClientReply {
    /// The request kind the daemon served (`"matrix"`, `"diff"`, ...).
    pub request: String,
    /// Scenarios proven.
    pub proven: usize,
    /// Scenarios violated.
    pub violated: usize,
    /// Scenarios that ended Unknown.
    pub unknown: usize,
    /// The one-bit outcome: conformance passed, or no scenario violated
    /// or Unknown.
    pub ok: bool,
    /// The server-rendered human-readable report.
    pub display: String,
    /// The operational report document (timings, cache stats, dispatch).
    pub report: Json,
    /// The deterministic report document — byte-identical to the same
    /// request served in-process.
    pub det_report: Json,
    /// The fleet's dispatch stats for this request, when the daemon
    /// executed on socket workers (`Json::Null` otherwise).
    pub dispatch: Json,
}

impl ClientReply {
    fn from_frame(frame: &Json) -> Result<ClientReply, ExecError> {
        match frame.get("kind").and_then(Json::as_str) {
            Some("response") => {}
            Some("error") => {
                let message = frame
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified daemon error");
                return Err(ExecError::Protocol(format!("daemon: {message}")));
            }
            other => {
                return Err(ExecError::Protocol(format!(
                    "expected a response frame, got kind {other:?}"
                )))
            }
        }
        let count = |key: &str| {
            frame
                .get(key)
                .and_then(Json::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| ExecError::Protocol(format!("response frame without {key}")))
        };
        Ok(ClientReply {
            request: frame
                .get("request")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            proven: count("proven")?,
            violated: count("violated")?,
            unknown: count("unknown")?,
            ok: frame
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or_else(|| ExecError::Protocol("response frame without ok".into()))?,
            display: frame
                .get("display")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            report: frame.get("report").cloned().unwrap_or(Json::Null),
            det_report: frame.get("det_report").cloned().unwrap_or(Json::Null),
            dispatch: frame.get("dispatch").cloned().unwrap_or(Json::Null),
        })
    }

    /// One dispatch-stats counter (`summaries_deduped`, ...), when the
    /// daemon dispatched this request to socket workers.
    pub fn dispatch_stat(&self, key: &str) -> Option<u64> {
        self.dispatch.get(key).and_then(Json::as_u64)
    }
}

/// A connected client session: hello exchanged, options pinned; each
/// [`DaemonClient::verify`] call is one request/response round trip.
pub struct DaemonClient {
    transport: Box<dyn Transport>,
}

impl DaemonClient {
    /// Dial `addr` and complete the hello handshake. `options` pins the
    /// session's verifier options; `None` accepts the daemon's defaults.
    pub fn connect(
        addr: &WorkerAddr,
        options: Option<&VerifierOptions>,
    ) -> Result<DaemonClient, ExecError> {
        let mut transport = SocketConnector { addr: addr.clone() }.connect()?;
        let mut hello = vec![
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("hello")),
            ("proto", Json::str(CLIENT_PROTO)),
        ];
        if let Some(options) = options {
            hello.push(("options", to_json(options)));
        }
        transport.send(&Json::obj(hello))?;
        // A busy daemon may park us in its admission queue first: a
        // `queued` frame names our position, and the real hello follows
        // once a slot frees. Keep waiting through it.
        loop {
            let reply = transport.recv()?.ok_or_else(|| {
                ExecError::Protocol("daemon closed the stream before a hello reply".into())
            })?;
            match reply.get("kind").and_then(Json::as_str) {
                Some("hello") => return Ok(DaemonClient { transport }),
                Some("queued") => continue,
                Some("error") => {
                    let message = reply
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("unspecified daemon error");
                    let hint = reply
                        .get("retry_after_ms")
                        .and_then(Json::as_u64)
                        .map(|ms| format!(" (retry_after_ms {ms})"))
                        .unwrap_or_default();
                    return Err(ExecError::Protocol(format!("daemon: {message}{hint}")));
                }
                other => {
                    return Err(ExecError::Protocol(format!(
                        "expected a hello reply, got kind {other:?}"
                    )))
                }
            }
        }
    }

    /// Submit one request and wait for its reply.
    pub fn verify(&mut self, request: &VerifyRequest) -> Result<ClientReply, ExecError> {
        let doc = request
            .to_json()
            .map_err(|e| ExecError::Protocol(format!("unserialisable request: {e}")))?;
        self.transport.send(&Json::obj([
            ("schema", Json::int(CLIENT_SCHEMA)),
            ("kind", Json::str("verify")),
            ("request", doc),
        ]))?;
        let reply = self.transport.recv()?.ok_or_else(|| {
            ExecError::Protocol("daemon closed the stream before a response".into())
        })?;
        ClientReply::from_frame(&reply)
    }
}

/// Announce `worker` (a listening socket worker's address) to the daemon
/// at `daemon`; returns the pool size after joining. This is one
/// connection, closed after the ack — `vericlick worker --join` calls it
/// once its own listener is bound.
pub fn join_fleet(daemon: &WorkerAddr, worker: &WorkerAddr) -> Result<usize, ExecError> {
    let mut transport = SocketConnector {
        addr: daemon.clone(),
    }
    .connect()?;
    transport.send(&Json::obj([
        ("schema", Json::int(CLIENT_SCHEMA)),
        ("kind", Json::str("join")),
        ("proto", Json::str(CLIENT_PROTO)),
        ("addr", Json::str(worker.to_string())),
    ]))?;
    let reply = transport
        .recv()?
        .ok_or_else(|| ExecError::Protocol("daemon closed the stream before a join ack".into()))?;
    match reply.get("kind").and_then(Json::as_str) {
        Some("joined") => reply
            .get("workers")
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| ExecError::Protocol("joined ack without a worker count".into())),
        Some("error") => Err(ExecError::Protocol(format!(
            "daemon: {}",
            reply
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unspecified daemon error")
        ))),
        other => Err(ExecError::Protocol(format!(
            "expected a joined ack, got kind {other:?}"
        ))),
    }
}

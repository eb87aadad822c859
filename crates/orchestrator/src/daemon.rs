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
//! same framing the worker protocol uses — see [`crate::exec`]). Each
//! frame is a value of `ToDaemon` or `FromDaemon` in `exec/frame.rs`,
//! which spell every key; this module speaks only in those values:
//!
//! 1. client → hello, optionally carrying a full options document that
//!    pins this session's [`VerifierOptions`]; without one, the session
//!    runs under the daemon's defaults.
//! 2. daemon → hello reply on admission. When `max_sessions` verify
//!    sessions are already in flight the hello is held in a bounded line
//!    instead: the client gets a `queued` frame with its position at once
//!    and the hello reply when a slot frees. Past `max_queue` pending
//!    hellos the daemon refuses outright with a `busy` error frame that
//!    carries a `retry_after_ms` hint.
//! 3. client → verify, carrying any [`VerifyRequest`], repeatable; a watch
//!    session's rolling baseline lives exactly as long as the connection.
//! 4. daemon → response, a [`ClientReply`]: verdict counts, the
//!    server-rendered human text, both report documents and the fleet's
//!    dispatch stats — or an error frame for a request that failed (the
//!    session survives).
//!
//! A *worker* can also dial the daemon: a join frame appends its address
//! to the daemon's socket-worker pool (deduplicated) and is answered with
//! `joined` and the pool size; the connection then closes. Joins bypass
//! admission — fleet growth is never queued behind verify traffic — and
//! take effect on the next dispatch: every request re-plans capacity
//! against the pool as it is *now*, so a worker joined mid-session picks
//! up work on the very next phase.
//!
//! When the pool is non-empty, requests execute on a
//! [`WorkerFleet`] with the daemon's [`HeartbeatConfig`], so a wedged
//! worker is marked suspect and its jobs requeue to survivors (see
//! [`crate::exec::dispatch`]); summary dedup (worker protocol v4) means
//! a warm worker receives `"held"` markers instead of re-shipped
//! summary documents.

use crate::cache::SummaryStore;
use crate::codec::to_json;
use crate::exec::frame::{FromDaemon, ToDaemon};
use crate::exec::transport::{
    closed_before_a_frame, read_frame, write_frame, Connector, Listener, SocketConnector,
};
use crate::exec::{
    DispatchStats, ExecError, Executor, HeartbeatConfig, Transport, WorkerAddr, WorkerFleet,
};
use crate::json::Json;
use crate::service::{VerifyOutcome, VerifyRequest, VerifyResponse, VerifyService};
use dataplane_verifier::VerifierOptions;
use std::borrow::Borrow;
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};

pub use crate::exec::frame::{CLIENT_PROTO, CLIENT_SCHEMA};

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

    /// Serve one client request on a per-session `service`: the response
    /// frame, or an error frame (which the session survives).
    fn serve_request(&self, service: &VerifyService, request: VerifyRequest) -> FromDaemon {
        // A fleet per request, over the workers joined right now; none
        // joined, the same call serves on the session's own pool.
        let workers = self.workers();
        let fleet = (!workers.is_empty())
            .then(|| WorkerFleet::sockets(workers).with_heartbeat(self.inner.heartbeat));
        match service.serve_with(request, fleet.as_ref().map(|fleet| fleet as &dyn Executor)) {
            Ok(response) => {
                let dispatch = fleet.map(|fleet| fleet.registry().stats());
                FromDaemon::Response(Box::new(ClientReply::served(&response, dispatch)))
            }
            Err(e) => FromDaemon::error(e.to_string()),
        }
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
        let mut send = |frame: FromDaemon| write_frame(&mut output, &frame.encode());
        let Some(first) = read_frame(&mut input)? else {
            return Ok(());
        };
        let options = match ToDaemon::decode(&first) {
            Ok(ToDaemon::Hello(options)) => options,
            // A worker announcing itself: grow the pool, ack, done.
            // Joins bypass admission so fleet growth is never queued
            // behind verify traffic.
            Ok(ToDaemon::Join(addr)) => return send(FromDaemon::Joined(self.join(addr))),
            refused => {
                let message = match refused {
                    Err(e) => e.message,
                    Ok(_) => "the session must open with a hello or join frame".to_string(),
                };
                let _ = send(FromDaemon::error(message.clone()));
                return Err(ExecError::Protocol(message));
            }
        };

        // Admission: hold a bounded line of pending hellos (each told its
        // position at once, served as slots free), and past that refuse
        // with a retry hint — an *unbounded* backlog would make a daemon
        // wedged behind deep queues look exactly like a wedged daemon.
        let guard = match SessionGuard::admit(inner) {
            Admit::Admitted(guard) => guard,
            Admit::Queued(position) => {
                send(FromDaemon::Queued(position))?;
                SessionGuard::wait_from_queue(inner)
            }
            Admit::Busy => {
                let retry_after_ms = BUSY_RETRY_HINT_MS * (inner.max_queue as u64 + 1);
                return send(FromDaemon::Error {
                    message: format!(
                        "busy: {} sessions in flight (max {}) and the queue of {} is full; \
                         retry in ~{retry_after_ms}ms",
                        inner.max_sessions, inner.max_sessions, inner.max_queue
                    ),
                    retry_after_ms: Some(retry_after_ms),
                });
            }
        };
        send(FromDaemon::Hello {
            sessions: inner.admission.lock().expect("daemon sessions").active,
            workers: self.workers().len(),
        })?;

        // The per-session service: the hello's options (else the
        // daemon's defaults) and a fresh watch baseline, over the shared
        // (warm) store.
        let service = VerifyService::new()
            .with_threads(inner.threads)
            .with_options(options.unwrap_or_else(|| inner.options.clone()))
            .with_store(inner.store.clone());
        while let Some(frame) = read_frame(&mut input)? {
            send(match ToDaemon::decode(&frame) {
                Ok(ToDaemon::Verify(request)) => self.serve_request(&service, request),
                Ok(_) => FromDaemon::error("only verify frames follow the hello"),
                Err(e) => FromDaemon::error(e.message),
            })?;
        }
        drop(guard);
        Ok(())
    }

    /// Serve clients on `listener` until killed (or, with `once`, exactly
    /// one session — used by tests; a connection that closes before its
    /// first frame is none). Each connection runs on its own
    /// thread so admission and warm-store sharing are real. `log`
    /// receives one line per session event.
    pub fn serve(&self, listener: Listener, once: bool, log: Arc<dyn Fn(&str) + Send + Sync>) {
        loop {
            let (mut reader, writer, peer) = listener.accept(&mut |line| log(line));
            if once && closed_before_a_frame(&mut reader) {
                continue;
            }
            log(&format!("session from {peer}"));
            let daemon = self.clone();
            let log = log.clone();
            let session = move || match daemon.serve_connection(reader, writer) {
                Ok(()) => log(&format!("session from {peer} done")),
                Err(e) => log(&format!("session from {peer} failed: {e}")),
            };
            if once {
                session();
                return;
            }
            std::thread::spawn(session);
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
    /// executed on socket workers.
    pub dispatch: Option<DispatchStats>,
}

impl ClientReply {
    /// The reply to a request the daemon served as `response`.
    fn served(response: &VerifyResponse, dispatch: Option<DispatchStats>) -> ClientReply {
        let (proven, violated, unknown) = response.verdict_counts();
        let ok = match &response.outcome {
            VerifyOutcome::Conformance(c) => c.ok(),
            VerifyOutcome::Bound(_) => true,
            _ => violated == 0 && unknown == 0,
        };
        ClientReply {
            request: response.request.to_string(),
            proven,
            violated,
            unknown,
            ok,
            display: format!("{response}"),
            report: response.to_json(),
            det_report: response.deterministic_json(),
            dispatch,
        }
    }

    /// One dispatch-stats counter (`summaries_deduped`, ...), when the
    /// daemon dispatched this request to socket workers.
    pub fn dispatch_stat(&self, key: &str) -> Option<u64> {
        to_json(self.dispatch.as_ref()?)
            .get(key)
            .and_then(Json::as_u64)
    }
}

/// Send one client frame on `transport`.
fn send<R: Borrow<VerifyRequest>>(
    transport: &mut dyn Transport,
    frame: ToDaemon<R>,
) -> Result<(), ExecError> {
    let frame = frame
        .encode()
        .map_err(|e| ExecError::Protocol(format!("unserialisable request: {e}")))?;
    transport.send(&frame)
}

/// Receive the daemon's next frame; `awaited` names what a closed stream
/// cut off. An error frame is the daemon's refusal, with its reason and
/// any retry hint.
fn recv(transport: &mut dyn Transport, awaited: &str) -> Result<FromDaemon, ExecError> {
    let frame = transport
        .recv()?
        .ok_or_else(|| ExecError::Protocol(format!("daemon closed the stream before {awaited}")))?;
    match FromDaemon::decode(&frame).map_err(|e| ExecError::Protocol(e.message))? {
        FromDaemon::Error {
            message,
            retry_after_ms: Some(ms),
        } => Err(ExecError::Protocol(format!(
            "daemon: {message} (retry_after_ms {ms})"
        ))),
        FromDaemon::Error { message, .. } => Err(ExecError::Protocol(format!("daemon: {message}"))),
        frame => Ok(frame),
    }
}

/// The error for a frame that is not the `awaited` one.
fn unexpected(awaited: &str) -> ExecError {
    ExecError::Protocol(format!(
        "expected {awaited} from the daemon, got another frame"
    ))
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
        let hello: ToDaemon = ToDaemon::Hello(options.cloned());
        send(transport.as_mut(), hello)?;
        // A busy daemon may park us in its admission queue first: a
        // `queued` frame names our position, and the real hello follows
        // once a slot frees. Keep waiting through it.
        loop {
            match recv(transport.as_mut(), "a hello reply")? {
                FromDaemon::Hello { .. } => return Ok(DaemonClient { transport }),
                FromDaemon::Queued(_) => continue,
                _ => return Err(unexpected("a hello reply")),
            }
        }
    }

    /// Submit one request and wait for its reply.
    pub fn verify(&mut self, request: &VerifyRequest) -> Result<ClientReply, ExecError> {
        send(self.transport.as_mut(), ToDaemon::Verify(request))?;
        match recv(self.transport.as_mut(), "a response")? {
            FromDaemon::Response(reply) => Ok(*reply),
            _ => Err(unexpected("a response")),
        }
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
    let join: ToDaemon = ToDaemon::Join(worker.clone());
    send(transport.as_mut(), join)?;
    match recv(transport.as_mut(), "a join ack")? {
        FromDaemon::Joined(workers) => Ok(workers),
        _ => Err(unexpected("a join ack")),
    }
}

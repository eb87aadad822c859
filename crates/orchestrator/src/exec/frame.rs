//! The frames of both line protocols — the one place their format lives.
//!
//! Every frame is one JSON object tagged with its protocol's `schema` and
//! its `kind` (the line framing is [`super::transport`]'s). There is one
//! type per direction of each protocol, each with exactly one `encode` and
//! one `decode`: the worker protocol's [`ToWorker`] (hello, options, job,
//! ping, cancel) and [`FromWorker`] (hello reply, result, pong, error),
//! and the client protocol's [`ToDaemon`] (hello, join, verify) and
//! [`FromDaemon`] (hello reply, queued, joined, response, error). A
//! result's payload is a [`JobOutput`], one encoder and one decoder per job
//! kind. The documents a frame carries (options, jobs, requests,
//! summaries, reports, shards, dispatch stats) are spelled by the crate's
//! codec, the tables plans and the cache use too. Decoders are total:
//! malformed bytes are an [`Undecodable`], never a panic.

use super::transport::WorkerAddr;
use crate::codec::{field, from_json, record, to_json, with_member};
use crate::conformance::{shard_report_from_json, shard_report_to_json, FuzzShardReport};
use crate::daemon::ClientReply;
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::persist::{summary_from_json, summary_to_json};
use crate::service::VerifyRequest;
use crate::wire::{options_digest, report_from_json, report_to_json, JobSpec, WireError};
use dataplane_verifier::{ComposeShardResult, ElementSummary, Report, VerifierOptions};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;

/// Schema version of the worker-protocol frames, bumped whenever a peer
/// of the previous version would otherwise fail mid-plan instead of being
/// refused at the hello:
/// * v2 — the registry protocol: hello handshake, pull-dispatched tagged
///   `explore` and `compose` jobs, out-of-order results by id;
/// * v3 — `fuzz` jobs (conformance fuzz shards);
/// * v4 — summary transfer and fleet health: hellos pin options by
///   `options_digest` (full `options` only on `need_options`), workers
///   advertise `held` summaries and ack `folded` ones per result, compose
///   frames mark held summary slots `"held"`, and `ping`/`pong` expose a
///   wedged-but-connected worker;
/// * v5 — compose sharding: `compose-shard` jobs and the `cancel` frame,
///   which stops a shard whose sibling found a violation (it still
///   answers with the complete records it finished);
/// * v6 — `temporal` jobs (an LTL property on a compose-shaped job);
/// * v7 — the `split` frame (shard stealing), per-node shard `timings`,
///   and shard addresses in solver-work units;
/// * v8 — no shard stealing: `split` is an unknown kind that ends the
///   session, and shard results carry no `remainder`;
/// * v9 — no `temporal` job kind: temporal scenarios travel as `compose`
///   jobs, and a `temporal` job is answered with an unknown-kind error;
/// * v10 — one solver budget: no check is retried at raised budgets, so
///   the `options` frame, report stats and shard check records lose the
///   retry keys (a check record keeps its outcome, stage diagnostics and
///   `prefiltered`).
pub const WORKER_SCHEMA: u64 = 10;

/// Protocol name announced in hello frames, so a mismatched peer is told
/// what this endpoint speaks.
pub const WORKER_PROTO: &str = "vericlick-worker";

/// Client protocol name, sent in every hello and join frame.
pub const CLIENT_PROTO: &str = "vericlick-client";

/// Client protocol schema version. Version 1 speaks hello (with optional
/// session options), verify, join, queued, joined, response, and error
/// frames.
pub const CLIENT_SCHEMA: u64 = 1;

/// A line protocol's identity: the name its greetings announce and the
/// schema its frames carry.
#[derive(Clone, Copy)]
struct Protocol {
    name: &'static str,
    schema: u64,
}

/// Coordinator ↔ worker.
const WORKER: Protocol = Protocol {
    name: WORKER_PROTO,
    schema: WORKER_SCHEMA,
};

/// Client (or joining worker) ↔ daemon.
const CLIENT: Protocol = Protocol {
    name: CLIENT_PROTO,
    schema: CLIENT_SCHEMA,
};

/// How a coordinator's hello pins the session's verifier options.
#[derive(Debug)]
pub(crate) enum Pin {
    /// By content digest; a worker that does not know it asks for the
    /// full document (`need_options`).
    Digest(String),
    /// The full document.
    Full(VerifierOptions),
}

/// One slot of a job's summary attachment, paired by position with the
/// job's summary fingerprints (see [`attached_to`]).
#[derive(Debug)]
pub(crate) enum Attached {
    /// No summary: its exploration exceeded the budget, so the worker
    /// re-attempts it inline.
    Missing,
    /// The worker already holds it (the `"held"` marker).
    Held,
    /// The full summary document.
    Shipped(Arc<ElementSummary>),
}

/// A coordinator → worker frame.
#[derive(Debug)]
pub(crate) enum ToWorker {
    /// Open a session pinned to these options.
    Hello(Pin),
    /// The full options, after a hello reply asked for them.
    Options(VerifierOptions),
    /// Run `job` as session job `id`; compose and shard jobs carry their
    /// summary attachment.
    Job {
        id: u64,
        job: JobSpec,
        summaries: Option<Vec<Attached>>,
    },
    /// A heartbeat probe; the pong echoes its sequence number.
    Ping(Option<u64>),
    /// Fire the cancellation token of in-flight job `id`.
    Cancel(u64),
}

/// A worker → coordinator frame.
#[derive(Debug)]
pub(crate) enum FromWorker {
    /// The hello reply: how many jobs the worker keeps in flight, the
    /// summaries it already holds, and whether it needs the full options.
    Hello {
        capacity: usize,
        held: Vec<Fingerprint>,
        need_options: bool,
    },
    /// Job `id` finished; `folded` names the summaries it left the worker
    /// holding.
    Result {
        id: u64,
        output: JobOutput,
        folded: Vec<Fingerprint>,
    },
    /// The answer to a ping.
    Pong(Option<u64>),
    /// A refused session (no `id`) or a failed job.
    Error { id: Option<u64>, message: String },
}

/// What one job computed: the payload of its result frame.
#[derive(Debug)]
pub(crate) enum JobOutput {
    /// An exploration's summary (`None`: over its engine budget).
    Summary(Option<Arc<ElementSummary>>),
    /// A composition's report; its `elapsed` travels as `elapsed_micros`.
    Report(Box<Report>),
    /// A compose shard's records.
    Shard(ComposeShardResult),
    /// A fuzz shard's report.
    Fuzz(FuzzShardReport),
}

/// A frame that does not decode.
#[derive(Debug)]
pub(crate) struct Undecodable {
    /// The job at fault, when the frame's id decoded and only the job's
    /// own part did not: the worker answers that job with an error frame,
    /// the coordinator fails the request. `None`: the frame as a whole is
    /// malformed, and the session it arrived on ends.
    pub job: Option<u64>,
    pub message: String,
}

fn malformed(message: impl Into<String>) -> Undecodable {
    Undecodable {
        job: None,
        message: message.into(),
    }
}

/// The summary fingerprints a job's attachment slots pair with, by
/// position: a compose or shard job's; no other job kind attaches any.
pub(crate) fn attached_to(job: &JobSpec) -> &[Fingerprint] {
    match job {
        JobSpec::Compose(job) => &job.fingerprints,
        JobSpec::ComposeShard(job) => &job.fingerprints,
        JobSpec::Explore(_) | JobSpec::Fuzz(_) => &[],
    }
}

impl Protocol {
    /// `body` tagged as this protocol's frame of `kind`.
    fn tag(self, kind: &'static str, body: Json) -> Json {
        let body = with_member("kind", Json::str(kind), body);
        with_member("schema", Json::int(self.schema), body)
    }

    /// A frame of `kind` with `fields`. (One `Vec` for every frame, so
    /// `Json::obj` is instantiated once here.)
    fn frame(
        self,
        kind: &'static str,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Json {
        self.tag(kind, Json::obj(fields.into_iter().collect::<Vec<_>>()))
    }

    /// Does `frame` carry this protocol's schema — and, on a greeting (a
    /// hello, or a worker's join), its name? Otherwise the error names
    /// both sides' versions.
    fn check_version(self, frame: &Json) -> Result<(), Undecodable> {
        let kind = frame.get("kind").and_then(Json::as_str);
        let proto = frame.get("proto").and_then(Json::as_str);
        let schema = frame.get("schema").and_then(Json::as_u64);
        let greeting = matches!(kind, Some("hello" | "join"));
        if schema == Some(self.schema) && (!greeting || proto == Some(self.name)) {
            return Ok(());
        }
        Err(malformed(format!(
            "version mismatch: peer sent kind {kind:?} proto {proto:?} schema {schema:?}; \
             this build speaks {} schema {}",
            self.name, self.schema
        )))
    }
}

fn id(frame: &Json) -> Option<u64> {
    frame.get("id").and_then(Json::as_u64)
}

fn decode_options(frame: &Json, kind: &str) -> Result<VerifierOptions, Undecodable> {
    let doc = frame.get("options");
    let doc = doc.ok_or_else(|| malformed(format!("{kind} frame without options")))?;
    from_json(doc).map_err(|e| malformed(e.to_string()))
}

impl ToWorker {
    pub(crate) fn encode(&self) -> Json {
        match self {
            ToWorker::Hello(pin) => WORKER.frame(
                "hello",
                [
                    ("proto", Json::str(WORKER_PROTO)),
                    match pin {
                        Pin::Digest(digest) => ("options_digest", Json::str(digest)),
                        Pin::Full(options) => ("options", to_json(options)),
                    },
                ],
            ),
            ToWorker::Options(options) => WORKER.frame(
                "options",
                [
                    ("options_digest", Json::str(options_digest(options))),
                    ("options", to_json(options)),
                ],
            ),
            ToWorker::Job { id, job, summaries } => {
                let slots = summaries.as_ref().map(|slots| {
                    let slot = |slot: &Attached| match slot {
                        Attached::Missing => Json::Null,
                        Attached::Held => Json::str("held"),
                        Attached::Shipped(summary) => summary_to_json(summary),
                    };
                    ("summaries", Json::Arr(slots.iter().map(slot).collect()))
                });
                let fields = [("id", Json::int(*id)), ("job", to_json(job))];
                WORKER.frame("job", fields.into_iter().chain(slots))
            }
            ToWorker::Ping(seq) => WORKER.frame("ping", seq.map(|seq| ("seq", Json::int(seq)))),
            ToWorker::Cancel(id) => WORKER.frame("cancel", [("id", Json::int(*id))]),
        }
    }

    /// Decode a coordinator's frame. Every frame must carry this build's
    /// schema, a hello also its protocol name. A hello's full options
    /// document wins over its digest.
    pub(crate) fn decode(frame: &Json) -> Result<ToWorker, Undecodable> {
        WORKER.check_version(frame)?;
        Ok(match frame.get("kind").and_then(Json::as_str) {
            Some("hello") => ToWorker::Hello(match frame.get("options_digest") {
                Some(Json::Str(digest)) if frame.get("options").is_none() => {
                    Pin::Digest(digest.clone())
                }
                _ => Pin::Full(decode_options(frame, "hello")?),
            }),
            Some("options") => ToWorker::Options(decode_options(frame, "options")?),
            Some("job") => {
                let id = id(frame).ok_or_else(|| malformed("job frame without an id"))?;
                let doc = frame
                    .get("job")
                    .ok_or_else(|| malformed("job frame without a job"))?;
                // An undecodable job (an unknown kind, say) fails that job
                // only.
                let job = from_json(doc).map_err(|e| Undecodable {
                    job: Some(id),
                    message: e.to_string(),
                })?;
                let slot = |slot: &Json| match slot {
                    Json::Null => Ok(Attached::Missing),
                    slot if slot.as_str() == Some("held") => Ok(Attached::Held),
                    doc => summary_from_json(doc)
                        .map(|summary| Attached::Shipped(Arc::new(summary)))
                        .map_err(|e| malformed(format!("undecodable summary: {e}"))),
                };
                let summaries = match frame.get("summaries") {
                    None | Some(Json::Null) => None,
                    Some(doc) => Some(
                        doc.as_arr()
                            .ok_or_else(|| malformed("job summaries is not an array"))?
                            .iter()
                            .map(slot)
                            .collect::<Result<_, _>>()?,
                    ),
                };
                ToWorker::Job { id, job, summaries }
            }
            Some("ping") => ToWorker::Ping(frame.get("seq").and_then(Json::as_u64)),
            Some("cancel") => {
                ToWorker::Cancel(id(frame).ok_or_else(|| malformed("cancel frame without an id"))?)
            }
            other => return Err(malformed(format!("unexpected frame kind {other:?}"))),
        })
    }
}

impl FromWorker {
    pub(crate) fn encode(&self) -> Json {
        match self {
            FromWorker::Hello {
                capacity,
                held,
                need_options,
            } => {
                let fields = [
                    ("proto", Json::str(WORKER_PROTO)),
                    ("capacity", Json::int(*capacity as u64)),
                    ("held", to_json(held)),
                ];
                let ask = need_options.then(|| ("need_options", Json::Bool(true)));
                WORKER.frame("hello", fields.into_iter().chain(ask))
            }
            FromWorker::Result { id, output, folded } => {
                let acks = (!folded.is_empty()).then(|| ("folded", to_json(folded)));
                let fields = [("id", Json::int(*id))].into_iter().chain(output.encode());
                WORKER.frame("result", fields.chain(acks))
            }
            FromWorker::Pong(seq) => WORKER.frame("pong", seq.map(|seq| ("seq", Json::int(seq)))),
            FromWorker::Error { id, message } => {
                let fields = id.map(|id| ("id", Json::int(id))).into_iter();
                WORKER.frame("error", fields.chain([("message", Json::str(message))]))
            }
        }
    }

    /// Decode a worker's frame. A result decodes only for a job `job_of`
    /// resolves — one this worker holds — and that job's kind says how
    /// its payload reads. A hello must carry this build's versions; a
    /// missing capacity means one slot. An unparsable fold ack is skipped
    /// (it only costs a re-ship).
    pub(crate) fn decode<'j>(
        frame: &Json,
        job_of: impl Fn(u64) -> Option<&'j JobSpec>,
    ) -> Result<FromWorker, Undecodable> {
        let parse = |fp: &Json| fp.as_str().and_then(Fingerprint::parse);
        Ok(match frame.get("kind").and_then(Json::as_str) {
            Some("hello") => {
                WORKER.check_version(frame)?;
                let held = frame.get("held").and_then(Json::as_arr).unwrap_or_default();
                FromWorker::Hello {
                    capacity: frame
                        .get("capacity")
                        .and_then(Json::as_u64)
                        .map_or(1, |c| c.max(1) as usize),
                    held: held
                        .iter()
                        .map(|fp| parse(fp).ok_or_else(|| malformed("unparsable held fingerprint")))
                        .collect::<Result<_, _>>()?,
                    need_options: frame.get("need_options").and_then(Json::as_bool) == Some(true),
                }
            }
            Some("result") => {
                let id = id(frame).ok_or_else(|| malformed("result frame without an id"))?;
                let job = job_of(id).ok_or_else(|| {
                    malformed(format!("result for job {id} this worker does not hold"))
                })?;
                let output = JobOutput::decode(frame, job).map_err(|message| Undecodable {
                    job: Some(id),
                    message,
                })?;
                let acks = frame.get("folded").and_then(Json::as_arr);
                let folded = acks.unwrap_or_default().iter().filter_map(parse).collect();
                FromWorker::Result { id, output, folded }
            }
            Some("pong") => FromWorker::Pong(frame.get("seq").and_then(Json::as_u64)),
            Some("error") => FromWorker::Error {
                id: id(frame),
                message: frame
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("the worker gave no reason")
                    .to_string(),
            },
            other => return Err(malformed(format!("unexpected frame kind {other:?}"))),
        })
    }
}

impl JobOutput {
    /// The payload fields of a result frame.
    fn encode(&self) -> Vec<(&'static str, Json)> {
        match self {
            JobOutput::Summary(s) => {
                vec![("summary", s.as_deref().map_or(Json::Null, summary_to_json))]
            }
            JobOutput::Report(report) => vec![
                ("report", report_to_json(report)),
                ("elapsed_micros", to_json(&report.elapsed)),
            ],
            JobOutput::Shard(result) => vec![("shard", to_json(result))],
            JobOutput::Fuzz(report) => vec![("fuzz", shard_report_to_json(report))],
        }
    }

    /// Read the payload of a result frame answering `job`.
    fn decode(frame: &Json, job: &JobSpec) -> Result<JobOutput, String> {
        let payload = |key: &str| {
            frame
                .get(key)
                .ok_or_else(|| format!("result without its '{key}' payload"))
        };
        Ok(match job {
            JobSpec::Explore(_) => JobOutput::Summary(match payload("summary")? {
                Json::Null => None,
                doc => Some(Arc::new(
                    summary_from_json(doc).map_err(|e| format!("undecodable summary: {e}"))?,
                )),
            }),
            JobSpec::Compose(job) => {
                let micros = frame.get("elapsed_micros").and_then(Json::as_u64);
                let elapsed = Duration::from_micros(micros.unwrap_or(0));
                let property = job.scenario.property.clone();
                JobOutput::Report(Box::new(
                    report_from_json(payload("report")?, property, elapsed)
                        .map_err(|e| format!("undecodable report: {e}"))?,
                ))
            }
            JobSpec::ComposeShard(_) => JobOutput::Shard(
                from_json(payload("shard")?).map_err(|e| format!("undecodable shard: {e}"))?,
            ),
            JobSpec::Fuzz(_) => JobOutput::Fuzz(
                shard_report_from_json(payload("fuzz")?)
                    .map_err(|e| format!("undecodable shard report: {e}"))?,
            ),
        })
    }
}

/// A client → daemon frame. A decoded verify frame owns its request; a
/// client encodes one it keeps by reference (`ToDaemon<&VerifyRequest>`).
pub(crate) enum ToDaemon<R = VerifyRequest> {
    /// Open a verify session pinned to these options (`None`: the
    /// daemon's defaults).
    Hello(Option<VerifierOptions>),
    /// Add the socket worker listening here to the daemon's pool.
    Join(WorkerAddr),
    /// Serve this request.
    Verify(R),
}

/// A daemon → client frame.
pub(crate) enum FromDaemon {
    /// The session is admitted: the sessions in flight and the size of
    /// the worker pool.
    Hello { sessions: usize, workers: usize },
    /// The hello waits in the admission queue, at this 1-based position.
    Queued(usize),
    /// A join took effect: the pool's size after it.
    Joined(usize),
    /// A served request.
    Response(Box<ClientReply>),
    /// A refused session or a failed request; a busy refusal says when to
    /// come back.
    Error {
        message: String,
        retry_after_ms: Option<u64>,
    },
}

// The body of a response frame.
record!(ClientReply {
    request => "request",
    proven => "proven",
    violated => "violated",
    unknown => "unknown",
    ok => "ok",
    display => "display",
    report => "report",
    det_report => "det_report",
    dispatch => "dispatch",
});

impl<R: Borrow<VerifyRequest>> ToDaemon<R> {
    /// The frame; a request whose pipeline has no config text has none.
    pub(crate) fn encode(&self) -> Result<Json, WireError> {
        let proto = ("proto", Json::str(CLIENT_PROTO));
        Ok(match self {
            ToDaemon::Hello(options) => {
                let pin = options
                    .as_ref()
                    .map(|options| ("options", to_json(options)));
                CLIENT.frame("hello", [proto].into_iter().chain(pin))
            }
            ToDaemon::Join(addr) => {
                CLIENT.frame("join", [proto, ("addr", Json::str(addr.to_string()))])
            }
            ToDaemon::Verify(request) => {
                CLIENT.frame("verify", [("request", request.borrow().to_json()?)])
            }
        })
    }
}

impl ToDaemon {
    /// Decode a client's frame. A greeting (hello or join) must carry this
    /// build's client protocol and schema.
    pub(crate) fn decode(frame: &Json) -> Result<ToDaemon, Undecodable> {
        let document = |key: &str, what: &str| {
            frame
                .get(key)
                .ok_or_else(|| malformed(format!("{what} frame without {key}")))
        };
        Ok(match frame.get("kind").and_then(Json::as_str) {
            Some("hello") => {
                CLIENT.check_version(frame)?;
                let options = frame.get("options").map(from_json).transpose();
                ToDaemon::Hello(
                    options.map_err(|e| malformed(format!("undecodable session options: {e}")))?,
                )
            }
            Some("join") => {
                CLIENT.check_version(frame)?;
                let addr = document("addr", "join")?.as_str();
                let addr = addr.ok_or_else(|| malformed("join addr is not a string"))?;
                ToDaemon::Join(WorkerAddr::parse(addr))
            }
            Some("verify") => ToDaemon::Verify(
                VerifyRequest::from_json(document("request", "verify")?)
                    .map_err(|e| malformed(e.to_string()))?,
            ),
            other => return Err(malformed(format!("unexpected frame kind {other:?}"))),
        })
    }
}

impl FromDaemon {
    /// An error frame without a retry hint.
    pub(crate) fn error(message: impl Into<String>) -> FromDaemon {
        FromDaemon::Error {
            message: message.into(),
            retry_after_ms: None,
        }
    }

    pub(crate) fn encode(&self) -> Json {
        match self {
            FromDaemon::Hello { sessions, workers } => CLIENT.frame(
                "hello",
                [
                    ("proto", Json::str(CLIENT_PROTO)),
                    ("sessions", to_json(sessions)),
                    ("workers", to_json(workers)),
                ],
            ),
            FromDaemon::Queued(position) => {
                CLIENT.frame("queued", [("position", to_json(position))])
            }
            FromDaemon::Joined(workers) => CLIENT.frame("joined", [("workers", to_json(workers))]),
            FromDaemon::Response(reply) => CLIENT.tag("response", to_json(&**reply)),
            FromDaemon::Error {
                message,
                retry_after_ms,
            } => {
                let hint = retry_after_ms.map(|ms| ("retry_after_ms", Json::int(ms)));
                CLIENT.frame(
                    "error",
                    [("message", Json::str(message))].into_iter().chain(hint),
                )
            }
        }
    }

    /// Decode a daemon's frame. A hello reply must carry this build's
    /// client protocol and schema.
    pub(crate) fn decode(frame: &Json) -> Result<FromDaemon, Undecodable> {
        let count = |key: &str| field(frame, key).map_err(|e: WireError| malformed(e.to_string()));
        Ok(match frame.get("kind").and_then(Json::as_str) {
            Some("hello") => {
                CLIENT.check_version(frame)?;
                FromDaemon::Hello {
                    sessions: count("sessions")?,
                    workers: count("workers")?,
                }
            }
            Some("queued") => FromDaemon::Queued(count("position")?),
            Some("joined") => FromDaemon::Joined(count("workers")?),
            Some("response") => FromDaemon::Response(Box::new(
                from_json(frame).map_err(|e| malformed(format!("undecodable response: {e}")))?,
            )),
            Some("error") => FromDaemon::Error {
                message: frame
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified daemon error")
                    .to_string(),
                retry_after_ms: frame.get("retry_after_ms").and_then(Json::as_u64),
            },
            other => return Err(malformed(format!("unexpected frame kind {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_explore_job;
    use super::super::testutil::router_jobs;
    use super::super::DispatchStats;
    use super::*;
    use crate::diff::NamedConfig;
    use crate::service::PropertySelect;
    use crate::wire::{
        job_to_json, ComposeJob, ComposeShardJob, ExploreJob, FuzzJob, ScenarioSpec,
    };
    use dataplane_verifier::{Property, ShardTiming, Verdict, VerificationStats};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::sync::OnceLock;

    /// One coordinator frame of each kind, as schema 10 spells it on the
    /// wire: peers built before this module must keep reading them.
    const TO_WORKER: [&str; 8] = [
        r#"{"kind":"hello","options_digest":"9dfa2805e99a3f70caddf02c4f8a8405","proto":"vericlick-worker","schema":10}"#,
        r#"{"kind":"options","options":{"engine":{"loop_mode":"decompose","max_branches":2000000,"max_segments":200000},"max_composed_paths":100000,"prune_prefixes":true,"solver":{"max_fm_constraints":128000,"max_packet_len":2048,"model_search_tries":4000,"search_seed":1592590337},"validate_counterexamples":true},"options_digest":"9dfa2805e99a3f70caddf02c4f8a8405","schema":10}"#,
        r#"{"id":4,"job":{"config_args":"","fingerprint":"00000000000000010000000000000002","kind":"explore","type_name":"DecTTL"},"kind":"job","schema":10}"#,
        r#"{"id":5,"job":{"fingerprints":["00000000000000010000000000000002","00000000000000030000000000000004"],"kind":"compose","scenario":{"config":"t :: DecTTL();","name":"t","property":{"kind":"crash-freedom"}}},"kind":"job","schema":10,"summaries":[null,"held"]}"#,
        r#"{"id":6,"job":{"end":0,"fingerprints":["00000000000000010000000000000002"],"kind":"compose-shard","scenario":{"config":"t :: DecTTL();","name":"t","property":{"kind":"crash-freedom"}},"scenario_index":2,"start":0},"kind":"job","schema":10,"summaries":[null]}"#,
        r#"{"id":7,"job":{"kind":"fuzz","model_seeds":false,"packets":0,"scenario":{"config":"t :: DecTTL();","name":"t","property":{"kind":"crash-freedom"}},"scenario_index":1,"seed":7,"shard_index":0},"kind":"job","schema":10}"#,
        r#"{"kind":"ping","schema":10,"seq":3}"#,
        r#"{"id":9,"kind":"cancel","schema":10}"#,
    ];

    /// One worker frame of each kind, as schema 10 spells it on the wire.
    const FROM_WORKER: [&str; 8] = [
        r#"{"capacity":1,"held":[],"kind":"hello","need_options":true,"proto":"vericlick-worker","schema":10}"#,
        r#"{"folded":["af8ecdd6968a5d6bd7cfd8ad3295c53e"],"id":0,"kind":"result","schema":10,"summary":{"branches":2,"config_key":"12/0800","explore_micros":60,"format":2,"segments":[{"approximate":false,"constraint":[7],"ds_reads":[],"ds_writes":[],"instructions":8,"outcome":{"k":"crash","kind":"oob"},"packet":{"base":0,"clobber":null,"delta":0,"writes":[]}},{"approximate":false,"constraint":[8,19],"ds_reads":[],"ds_writes":[],"instructions":11,"outcome":{"k":"emit","port":0},"packet":{"base":0,"clobber":null,"delta":0,"writes":[]}},{"approximate":false,"constraint":[8,20],"ds_reads":[],"ds_writes":[],"instructions":11,"outcome":{"k":"drop"},"packet":{"base":0,"clobber":null,"delta":0,"writes":[]}}],"terms":[{"t":"plen"},{"t":"const","v":14,"w":32},{"a":0,"b":1,"op":"UGe","t":"bin"},{"t":"const","v":14,"w":64},{"t":"plen"},{"a":4,"kind":"ZExt","t":"cast","w":64},{"a":3,"b":5,"op":"UGt","t":"bin"},{"a":2,"b":6,"op":"BoolAnd","t":"bin"},{"a":7,"op":"LogicalNot","t":"un"},{"i":12,"t":"pb"},{"a":9,"kind":"ZExt","t":"cast","w":16},{"t":"const","v":8,"w":16},{"a":10,"b":11,"op":"Shl","t":"bin"},{"i":13,"t":"pb"},{"a":13,"kind":"ZExt","t":"cast","w":16},{"a":12,"b":14,"op":"Or","t":"bin"},{"t":"const","v":2048,"w":16},{"a":15,"b":16,"op":"Eq","t":"bin"},{"t":"const","v":0,"w":1},{"c":2,"e":18,"t":"sel","tt":17},{"a":19,"op":"LogicalNot","t":"un"}],"type_name":"Classifier"}}"#,
        r#"{"elapsed_micros":359,"id":1,"kind":"result","report":{"counterexamples":[],"property":"crash-freedom","stats":{"buchi_states":0,"composed_paths":0,"discharged":0,"elements":1,"fm_budget_aborts":0,"lasso_found":0,"model_search_aborts":0,"prefilter_decided":0,"prefilter_passed":0,"product_states":0,"solver_calls":4,"summaries_computed":1,"summaries_reused":0,"suspects":0,"total_segments":7},"unproven":[],"verdict":"proven"},"schema":10}"#,
        r#"{"id":2,"kind":"result","schema":10,"shard":{"cancelled":false,"records":[],"timings":[]}}"#,
        r#"{"fuzz":{"checked":0,"contradiction_count":0,"contradictions":[],"crashed":0,"dropped":0,"forwarded":0,"max_instructions":0,"model_seeds":0,"packets":0,"scenario":"t/crash-freedom","scenario_index":1,"schema":1,"shard_index":0},"id":3,"kind":"result","schema":10}"#,
        r#"{"kind":"pong","schema":10,"seq":3}"#,
        r#"{"id":4,"kind":"error","message":"executor: job failed: DecTTL() fingerprint mismatch: plan says 00000000000000010000000000000002, this build computes e3cbe28a3ff04b5641a944f5a1a34823 (worker built from different element code?)","schema":10}"#,
        r#"{"kind":"error","message":"version mismatch: peer sent kind Some(\"hello\") proto None schema Some(99); this worker speaks vericlick-worker schema 10","schema":10}"#,
    ];

    /// One client frame of each kind, as client schema 1 spells it on the
    /// wire: hello without and with options, join, verify.
    const TO_DAEMON: [&str; 4] = [
        r#"{"kind":"hello","proto":"vericlick-client","schema":1}"#,
        r#"{"kind":"hello","options":{"engine":{"loop_mode":"decompose","max_branches":2000000,"max_segments":200000},"max_composed_paths":100000,"prune_prefixes":true,"solver":{"max_fm_constraints":128000,"max_packet_len":2048,"model_search_tries":4000,"search_seed":1592590337},"validate_counterexamples":true},"proto":"vericlick-client","schema":1}"#,
        r#"{"addr":"127.0.0.1:7843","kind":"join","proto":"vericlick-client","schema":1}"#,
        r#"{"kind":"verify","request":{"config":"t :: DecTTL();\n","kind":"single","name":"t","property":{"kind":"crash-freedom"},"schema":1},"schema":1}"#,
    ];

    /// One daemon frame of each kind, as client schema 1 spells it: hello
    /// reply, queued, joined, response, and an error with and without a
    /// retry hint.
    const FROM_DAEMON: [&str; 6] = [
        r#"{"kind":"hello","proto":"vericlick-client","schema":1,"sessions":1,"workers":0}"#,
        r#"{"kind":"queued","position":1,"schema":1}"#,
        r#"{"kind":"joined","schema":1,"workers":1}"#,
        r#"{"det_report":{"kind":"single","pipeline":"t","report":{"counterexamples":[],"property":"crash-freedom","stats":{"buchi_states":0,"composed_paths":0,"discharged":0,"elements":1,"fm_budget_aborts":0,"lasso_found":0,"model_search_aborts":0,"prefilter_decided":0,"prefilter_passed":0,"product_states":0,"solver_calls":4,"summaries_computed":0,"summaries_reused":1,"suspects":0,"total_segments":7},"unproven":[],"verdict":"proven"},"schema":2},"dispatch":null,"display":"property crash-freedom — Proven in 0.000s\n  elements 1, summaries computed 0 (reused 1), segments 7, suspects 0, discharged 0, composed paths 0, solver calls 4\n","kind":"response","ok":true,"proven":1,"report":{"elapsed_micros":277,"kind":"single","pipeline":"t","report":{"counterexamples":[],"property":"crash-freedom","stats":{"buchi_states":0,"composed_paths":0,"discharged":0,"elements":1,"fm_budget_aborts":0,"lasso_found":0,"model_search_aborts":0,"prefilter_decided":0,"prefilter_passed":0,"product_states":0,"solver_calls":4,"summaries_computed":0,"summaries_reused":1,"suspects":0,"total_segments":7},"unproven":[],"verdict":"proven"},"schema":2},"request":"single","schema":1,"unknown":0,"violated":0}"#,
        r#"{"kind":"error","message":"busy: 1 sessions in flight (max 1) and the queue of 1 is full; retry in ~500ms","retry_after_ms":500,"schema":1}"#,
        r#"{"kind":"error","message":"wire: malformed document: missing field 'schema'","schema":1}"#,
    ];

    fn scenario(name: String, config: String) -> ScenarioSpec {
        ScenarioSpec {
            name,
            config,
            property: Property::CrashFreedom,
        }
    }

    /// One job of each kind, by id: the jobs the pinned results answer.
    fn pinned_jobs() -> Vec<JobSpec> {
        let scenario = scenario("t".into(), "t :: DecTTL();".into());
        let fp = Fingerprint(1, 2);
        vec![
            JobSpec::Explore(ExploreJob {
                fingerprint: fp,
                type_name: "DecTTL".into(),
                config_args: String::new(),
            }),
            JobSpec::Compose(ComposeJob {
                scenario: scenario.clone(),
                fingerprints: vec![fp, Fingerprint(3, 4)],
            }),
            JobSpec::ComposeShard(ComposeShardJob {
                scenario: scenario.clone(),
                fingerprints: vec![fp],
                scenario_index: 2,
                start: 0,
                end: 0,
            }),
            JobSpec::Fuzz(FuzzJob {
                scenario,
                scenario_index: 1,
                shard_index: 0,
                seed: 7,
                packets: 0,
                model_seeds: false,
            }),
        ]
    }

    fn job_of<'j>(jobs: &'j [JobSpec]) -> impl Fn(u64) -> Option<&'j JobSpec> {
        |id| jobs.get(usize::try_from(id).ok()?)
    }

    #[test]
    fn every_frame_kind_keeps_its_wire_bytes() {
        let jobs = pinned_jobs();
        for pinned in TO_WORKER {
            let decoded = ToWorker::decode(&Json::parse(pinned).unwrap()).unwrap();
            assert_eq!(decoded.encode().to_text(), pinned);
        }
        for pinned in FROM_WORKER {
            let frame = Json::parse(pinned).unwrap();
            let decoded = FromWorker::decode(&frame, job_of(&jobs)).unwrap();
            assert_eq!(decoded.encode().to_text(), pinned);
        }
        // The frames the coordinator and the worker build, from values.
        let options = VerifierOptions::default();
        let digest = options_digest(&options);
        assert_eq!(
            ToWorker::Hello(Pin::Digest(digest)).encode().to_text(),
            TO_WORKER[0]
        );
        assert_eq!(ToWorker::Options(options).encode().to_text(), TO_WORKER[1]);
        let job = |id: u64, job: &JobSpec, summaries| ToWorker::Job {
            id,
            job: job.clone(),
            summaries,
        };
        assert_eq!(job(4, &jobs[0], None).encode().to_text(), TO_WORKER[2]);
        let held = Some(vec![Attached::Missing, Attached::Held]);
        assert_eq!(job(5, &jobs[1], held).encode().to_text(), TO_WORKER[3]);
        assert_eq!(ToWorker::Ping(Some(3)).encode().to_text(), TO_WORKER[6]);
        assert_eq!(ToWorker::Cancel(9).encode().to_text(), TO_WORKER[7]);
        let hello = FromWorker::Hello {
            capacity: 1,
            held: Vec::new(),
            need_options: true,
        };
        assert_eq!(hello.encode().to_text(), FROM_WORKER[0]);
        let shard = FromWorker::Result {
            id: 2,
            output: JobOutput::Shard(ComposeShardResult::default()),
            folded: Vec::new(),
        };
        assert_eq!(shard.encode().to_text(), FROM_WORKER[3]);
        assert_eq!(FromWorker::Pong(Some(3)).encode().to_text(), FROM_WORKER[5]);
    }

    /// The request the pinned verify frame carries.
    fn single_request() -> VerifyRequest {
        VerifyRequest::Single {
            name: "t".into(),
            pipeline: dataplane_pipeline::parse_config("t :: DecTTL();").unwrap(),
            property: Property::CrashFreedom,
        }
    }

    #[test]
    fn every_client_frame_keeps_its_wire_bytes() {
        let text = |frame: Result<Json, WireError>| frame.unwrap().to_text();
        for pinned in TO_DAEMON {
            let decoded = ToDaemon::decode(&Json::parse(pinned).unwrap());
            assert_eq!(
                text(decoded.map_err(|e| e.message).unwrap().encode()),
                pinned
            );
        }
        for pinned in FROM_DAEMON {
            let decoded = FromDaemon::decode(&Json::parse(pinned).unwrap());
            assert_eq!(
                decoded.map_err(|e| e.message).unwrap().encode().to_text(),
                pinned
            );
        }
        // The frames client and daemon build, from values.
        let client: [ToDaemon; 3] = [
            ToDaemon::Hello(None),
            ToDaemon::Hello(Some(VerifierOptions::default())),
            ToDaemon::Join(WorkerAddr::Tcp("127.0.0.1:7843".into())),
        ];
        for (frame, pinned) in client.iter().zip(TO_DAEMON) {
            assert_eq!(text(frame.encode()), pinned);
        }
        let request = single_request();
        assert_eq!(text(ToDaemon::Verify(&request).encode()), TO_DAEMON[3]);
        let daemon = [
            FromDaemon::Hello {
                sessions: 1,
                workers: 0,
            },
            FromDaemon::Queued(1),
            FromDaemon::Joined(1),
        ];
        for (frame, pinned) in daemon.iter().zip(FROM_DAEMON) {
            assert_eq!(frame.encode().to_text(), pinned);
        }
        let busy = FromDaemon::Error {
            message: "busy: 1 sessions in flight (max 1) and the queue of 1 is full; \
                      retry in ~500ms"
                .into(),
            retry_after_ms: Some(500),
        };
        assert_eq!(busy.encode().to_text(), FROM_DAEMON[4]);
        let refused = FromDaemon::error("wire: malformed document: missing field 'schema'");
        assert_eq!(refused.encode().to_text(), FROM_DAEMON[5]);
    }

    #[test]
    fn malformed_frames_keep_their_failure_kind() {
        let jobs = pinned_jobs();
        let parse = |text: &str| Json::parse(text).unwrap();
        // A job that does not decode is that job's failure.
        let bad = parse(r#"{"id":3,"job":{"kind":"temporal"},"kind":"job","schema":10}"#);
        assert!(matches!(
            ToWorker::decode(&bad),
            Err(Undecodable { job: Some(3), .. })
        ));
        // A frame without its id, or of another schema, is the session's.
        let bad = parse(r#"{"job":{"kind":"temporal"},"kind":"job","schema":10}"#);
        assert!(matches!(
            ToWorker::decode(&bad),
            Err(Undecodable { job: None, .. })
        ));
        let bad = parse(r#"{"kind":"hello","proto":"vericlick-worker","schema":8}"#);
        let e = ToWorker::decode(&bad).unwrap_err();
        assert!(e.job.is_none() && e.message.contains("schema 10"), "{e:?}");
        // A result nobody holds loses the worker; one whose payload does
        // not read fails the request.
        let unheld = parse(r#"{"id":9,"kind":"result","schema":10,"shard":{}}"#);
        let e = FromWorker::decode(&unheld, job_of(&jobs)).unwrap_err();
        assert!(e.job.is_none(), "{e:?}");
        let unreadable = parse(r#"{"id":2,"kind":"result","schema":10,"shard":{}}"#);
        let e = FromWorker::decode(&unreadable, job_of(&jobs)).unwrap_err();
        assert_eq!(e.job, Some(2), "{e:?}");
        // A hello reply without a capacity offers one slot.
        let hello = parse(r#"{"kind":"hello","proto":"vericlick-worker","schema":10}"#);
        assert!(matches!(
            FromWorker::decode(&hello, job_of(&jobs)),
            Ok(FromWorker::Hello { capacity: 1, .. })
        ));
    }

    /// A random string of up to twelve characters, mixing hex digits,
    /// signs, JSON escapes and multi-byte characters.
    fn any_text(rng: &mut TestRng) -> String {
        const CHARS: [char; 12] = [
            'a', 'f', '0', '9', '+', '-', '"', '\\', '\n', 'é', '€', '🦀',
        ];
        let len = rng.next_u64() % 13;
        (0..len)
            .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
            .collect()
    }

    /// Text where a fingerprint belongs: valid, or 32 bytes that are not
    /// 32 hex digits (a sign, or a character across the midpoint).
    fn any_fingerprint(rng: &mut TestRng) -> String {
        match rng.next_u64() % 4 {
            0 => format!("{}\u{e9}{}", "a".repeat(15), "a".repeat(15)),
            1 => "+000000000000001+000000000000001".to_string(),
            2 => any_text(rng).repeat(3),
            _ => Fingerprint(rng.next_u64(), rng.next_u64()).to_string(),
        }
    }

    fn coin(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }

    fn any_u64(rng: &mut TestRng) -> u64 {
        rng.next_u64() >> (rng.next_u64() % 64)
    }

    /// A real element summary, explored once.
    fn summary() -> Arc<ElementSummary> {
        static SUMMARY: OnceLock<Arc<ElementSummary>> = OnceLock::new();
        SUMMARY
            .get_or_init(|| {
                let options = VerifierOptions::default();
                let job = &router_jobs(&options.engine)[0];
                Arc::new(run_explore_job(job, &options.engine).unwrap().unwrap())
            })
            .clone()
    }

    fn any_job(rng: &mut TestRng) -> JobSpec {
        let scenario = scenario(any_text(rng), any_text(rng));
        let fingerprints = (0..rng.next_u64() % 3)
            .map(|_| Fingerprint(rng.next_u64(), rng.next_u64()))
            .collect();
        match rng.next_u64() % 4 {
            0 => JobSpec::Explore(ExploreJob {
                fingerprint: Fingerprint(rng.next_u64(), rng.next_u64()),
                type_name: any_text(rng),
                config_args: any_text(rng),
            }),
            1 => JobSpec::Compose(ComposeJob {
                scenario,
                fingerprints,
            }),
            2 => JobSpec::ComposeShard(ComposeShardJob {
                scenario,
                fingerprints,
                scenario_index: rng.next_u64() as u32,
                start: any_u64(rng) as usize,
                end: any_u64(rng) as usize,
            }),
            _ => JobSpec::Fuzz(FuzzJob {
                scenario,
                scenario_index: rng.next_u64() as u32,
                shard_index: rng.next_u64() as u32,
                seed: rng.next_u64(),
                packets: any_u64(rng),
                model_seeds: coin(rng),
            }),
        }
    }

    /// What `job` could have computed.
    fn any_output(rng: &mut TestRng, job: &JobSpec) -> JobOutput {
        match job {
            JobSpec::Explore(_) => JobOutput::Summary(coin(rng).then(summary)),
            JobSpec::Compose(job) => JobOutput::Report(Box::new(Report {
                property: job.scenario.property.clone(),
                verdict: Verdict::Proven,
                counterexamples: Vec::new(),
                unproven: Vec::new(),
                stats: VerificationStats {
                    elements: any_u64(rng) as usize,
                    ..VerificationStats::default()
                },
                elapsed: Duration::from_micros(any_u64(rng)),
            })),
            JobSpec::ComposeShard(_) => JobOutput::Shard(ComposeShardResult {
                records: Vec::new(),
                cancelled: coin(rng),
                timings: vec![ShardTiming {
                    index: any_u64(rng) as usize,
                    units: any_u64(rng) as usize,
                    ns: any_u64(rng),
                }],
            }),
            JobSpec::Fuzz(job) => JobOutput::Fuzz(FuzzShardReport {
                scenario: any_text(rng),
                scenario_index: job.scenario_index,
                shard_index: job.shard_index,
                packets: any_u64(rng),
                checked: any_u64(rng),
                forwarded: 0,
                dropped: 0,
                crashed: 0,
                max_instructions: any_u64(rng),
                model_seeds: 0,
                contradiction_count: 0,
                contradictions: Vec::new(),
            }),
        }
    }

    /// A request whose document encodes: a watch or diff of random config
    /// text, or the pinned single.
    fn any_request(rng: &mut TestRng) -> VerifyRequest {
        let configs = vec![NamedConfig::new(any_text(rng), any_text(rng))];
        match rng.next_u64() % 3 {
            0 => VerifyRequest::Watch {
                configs,
                properties: PropertySelect::Default,
            },
            1 => VerifyRequest::Diff {
                old: configs.clone(),
                new: configs,
                properties: PropertySelect::Preset,
            },
            _ => single_request(),
        }
    }

    fn any_addr(rng: &mut TestRng) -> WorkerAddr {
        match coin(rng) {
            true => WorkerAddr::Tcp(any_text(rng)),
            false => WorkerAddr::Unix(any_text(rng).into()),
        }
    }

    fn any_reply(rng: &mut TestRng) -> ClientReply {
        ClientReply {
            request: any_text(rng),
            proven: any_u64(rng) as usize,
            violated: any_u64(rng) as usize,
            unknown: any_u64(rng) as usize,
            ok: coin(rng),
            display: any_text(rng),
            report: Json::obj([("elapsed_micros", Json::int(any_u64(rng)))]),
            det_report: Json::str(any_text(rng)),
            dispatch: coin(rng).then(|| DispatchStats {
                workers: any_u64(rng) as usize,
                summary_bytes_shipped: any_u64(rng),
                ..DispatchStats::default()
            }),
        }
    }

    /// The side a frame travels to, whose decoder reads it.
    #[derive(Clone, Copy)]
    enum To {
        Worker,
        Coordinator,
        Daemon,
        Client,
    }

    /// `frame` read by the decoder of the side it travels to, and encoded
    /// again.
    fn redecode(frame: &Json, to: To, jobs: &[JobSpec]) -> Result<Json, String> {
        match to {
            To::Worker => ToWorker::decode(frame).map(|f| f.encode()),
            To::Coordinator => FromWorker::decode(frame, job_of(jobs)).map(|f| f.encode()),
            To::Daemon => {
                let frame = ToDaemon::decode(frame).map_err(|e| e.message)?;
                return frame.encode().map_err(|e| e.to_string());
            }
            To::Client => FromDaemon::decode(frame).map(|f| f.encode()),
        }
        .map_err(|e| e.message)
    }

    /// One frame any side may encode (a worker frame answers one of
    /// `jobs`), and the side it travels to.
    fn any_encoded(rng: &mut TestRng, jobs: &[JobSpec]) -> (Json, To) {
        let id = rng.next_u64() % jobs.len() as u64;
        let job = &jobs[id as usize];
        let fingerprints = |rng: &mut TestRng| {
            (0..rng.next_u64() % 3)
                .map(|_| Fingerprint(rng.next_u64(), rng.next_u64()))
                .collect()
        };
        let kind = rng.next_u64() % 12;
        let frame = match kind {
            0 => ToWorker::Hello(Pin::Digest(any_text(rng))).encode(),
            1 => ToWorker::Hello(Pin::Full(VerifierOptions::default())).encode(),
            2 => ToWorker::Options(VerifierOptions::default()).encode(),
            3 => {
                let slot = |rng: &mut TestRng| match rng.next_u64() % 3 {
                    0 => Attached::Missing,
                    1 => Attached::Held,
                    _ => Attached::Shipped(summary()),
                };
                let summaries = (!attached_to(job).is_empty())
                    .then(|| attached_to(job).iter().map(|_| slot(rng)).collect());
                ToWorker::Job {
                    id,
                    job: job.clone(),
                    summaries,
                }
                .encode()
            }
            4 => match rng.next_u64() % 2 {
                0 => ToWorker::Ping(coin(rng).then_some(any_u64(rng))),
                _ => ToWorker::Cancel(any_u64(rng)),
            }
            .encode(),
            5 => FromWorker::Hello {
                capacity: 1 + any_u64(rng) as usize % 64,
                held: fingerprints(rng),
                need_options: coin(rng),
            }
            .encode(),
            6 => FromWorker::Result {
                id,
                output: any_output(rng, job),
                folded: fingerprints(rng),
            }
            .encode(),
            7 => FromWorker::Pong(coin(rng).then_some(any_u64(rng))).encode(),
            8 => FromWorker::Error {
                id: coin(rng).then_some(id),
                message: any_text(rng),
            }
            .encode(),
            9 => match rng.next_u64() % 3 {
                0 => ToDaemon::Hello(coin(rng).then(VerifierOptions::default)),
                1 => ToDaemon::Join(any_addr(rng)),
                _ => ToDaemon::Verify(any_request(rng)),
            }
            .encode()
            .unwrap(),
            10 => match rng.next_u64() % 4 {
                0 => FromDaemon::Hello {
                    sessions: any_u64(rng) as usize,
                    workers: any_u64(rng) as usize,
                },
                1 => FromDaemon::Queued(any_u64(rng) as usize),
                2 => FromDaemon::Joined(any_u64(rng) as usize),
                _ => FromDaemon::Error {
                    message: any_text(rng),
                    retry_after_ms: coin(rng).then_some(any_u64(rng)),
                },
            }
            .encode(),
            _ => FromDaemon::Response(Box::new(any_reply(rng))).encode(),
        };
        let to = match kind {
            0..=4 => To::Worker,
            5..=8 => To::Coordinator,
            9 => To::Daemon,
            _ => To::Client,
        };
        (frame, to)
    }

    /// A frame-shaped object of random fields: every key either protocol
    /// reads, each with a well-typed, mistyped or hostile value.
    fn any_object(rng: &mut TestRng) -> Json {
        const KINDS: [&str; 15] = [
            "hello", "options", "job", "ping", "cancel", "result", "pong", "error", "split",
            "shutdown", "join", "verify", "queued", "joined", "response",
        ];
        let pick = |rng: &mut TestRng, of: &[u64]| of[(rng.next_u64() % of.len() as u64) as usize];
        let mut fields = Vec::new();
        let mut maybe = |key: &'static str, value: Json, rng: &mut TestRng| {
            if !rng.next_u64().is_multiple_of(4) {
                fields.push((key, value));
            }
        };
        let schemas = [
            CLIENT_SCHEMA,
            WORKER_SCHEMA - 1,
            WORKER_SCHEMA,
            WORKER_SCHEMA + 1,
        ];
        maybe("schema", Json::int(pick(rng, &schemas)), rng);
        let kind = KINDS[(rng.next_u64() % KINDS.len() as u64) as usize];
        maybe("kind", Json::str(kind), rng);
        let proto = if coin(rng) {
            WORKER_PROTO
        } else {
            CLIENT_PROTO
        };
        maybe("proto", Json::str(proto), rng);
        maybe("id", Json::int(rng.next_u64() % 5), rng);
        maybe("seq", Json::str(any_text(rng)), rng);
        maybe("capacity", Json::int(any_u64(rng)), rng);
        let fps = |rng: &mut TestRng| Json::Arr(vec![Json::str(any_fingerprint(rng))]);
        maybe("held", fps(rng), rng);
        maybe("folded", fps(rng), rng);
        maybe("options_digest", Json::str(any_text(rng)), rng);
        maybe("message", Json::str(any_text(rng)), rng);
        let mut job = job_to_json(&any_job(rng));
        if let Json::Obj(map) = &mut job {
            let hostile = Json::str(any_fingerprint(rng));
            if map.contains_key("fingerprint") {
                map.insert("fingerprint".into(), hostile);
            } else if map.contains_key("fingerprints") {
                map.insert("fingerprints".into(), Json::Arr(vec![hostile]));
            }
        }
        maybe("job", job, rng);
        let slots = [Json::Null, Json::str("held"), Json::str(any_text(rng))];
        maybe("summaries", Json::Arr(slots.to_vec()), rng);
        for key in ["summary", "report", "shard", "fuzz", "options", "dispatch"] {
            maybe(key, Json::obj([("schema", Json::int(1u64))]), rng);
        }
        maybe("elapsed_micros", Json::str(any_fingerprint(rng)), rng);
        // The client protocol's keys; a request's config is random text.
        maybe("addr", Json::str(any_text(rng)), rng);
        let mut request = any_request(rng).to_json().unwrap();
        if let Json::Obj(map) = &mut request {
            if map.contains_key("config") {
                map.insert("config".into(), Json::str(any_text(rng)));
            }
        }
        maybe("request", request, rng);
        for key in [
            "position", "sessions", "workers", "proven", "violated", "unknown",
        ] {
            maybe(key, Json::int(any_u64(rng)), rng);
        }
        maybe("retry_after_ms", Json::str(any_text(rng)), rng);
        maybe("ok", Json::Bool(coin(rng)), rng);
        maybe("display", Json::str(any_text(rng)), rng);
        maybe("det_report", Json::str(any_text(rng)), rng);
        Json::obj(fields)
    }

    /// Flip, drop or insert a few bytes of `text`.
    fn mutate(rng: &mut TestRng, text: &str) -> Vec<u8> {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + rng.next_u64() % 4 {
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            const BYTES: &[u8] = b"\"{}[],:0123456789aef-+\\ \xc3\xa9";
            let byte = BYTES[(rng.next_u64() % BYTES.len() as u64) as usize];
            match rng.next_u64() % 3 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        bytes
    }

    /// Feed `frame` to every decoder: they may refuse it, never panic.
    fn decode_all(frame: &Json, jobs: &[JobSpec]) {
        for to in [To::Worker, To::Coordinator, To::Daemon, To::Client] {
            let _ = redecode(frame, to, jobs);
        }
    }

    /// A strategy over raw RNG streams, so one case can draw as many
    /// values as the frame it builds needs.
    struct Stream;

    impl Strategy for Stream {
        type Value = TestRng;
        fn generate(&self, rng: &mut TestRng) -> TestRng {
            rng.clone()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoded_frames_round_trip_and_no_bytes_panic_a_decoder(rng in Stream) {
            let mut rng = rng;
            let jobs: Vec<JobSpec> = (0..4).map(|_| any_job(&mut rng)).collect();
            // Every frame any side encodes decodes and re-encodes to the
            // same text.
            let (frame, to) = any_encoded(&mut rng, &jobs);
            let text = frame.to_text();
            let frame = Json::parse(&text).unwrap();
            let again = redecode(&frame, to, &jobs).map_err(|e| format!("{text}: {e}"))?;
            prop_assert_eq!(again.to_text(), text);
            // Hostile objects, and mutations of the valid text.
            decode_all(&any_object(&mut rng), &jobs);
            let mutated = mutate(&mut rng, &text);
            if let Some(frame) = std::str::from_utf8(&mutated).ok().and_then(|t| Json::parse(t).ok()) {
                decode_all(&frame, &jobs);
            }
        }
    }
}

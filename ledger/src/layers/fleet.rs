//! `fleet_roundtrip`, staged: the same tick as `reverify_warm`, but along
//! the path a daemon with a worker fleet takes — request codec, plan,
//! plan codec, explore jobs whose summaries cross the wire, Step 2 as
//! outline → shard walk (shard results crossing the wire) → fold, report
//! codec. All in one process: what remains of the op after these stages
//! is transport, dispatch and waiting (`service.unattributed_ms` when this
//! workload is the traced one).
//!
//! The layer probes talk to the live fleet: connect latency, one request
//! executed on the worker without the daemon in between, and the worker
//! protocol over in-memory pipes.

use super::{staged_matrix, Traced};
use crate::clock::{Meter, TimeSource};
use crate::trace::Trace;
use crate::workloads::fleet_roundtrip::FleetRoundtrip;
use crate::workloads::reverify_warm::{check_tick, watch_request, Shadow};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;
use vericlick::orchestrator::exec::transport::{read_frame, write_frame};
use vericlick::orchestrator::exec::{WORKER_PROTO, WORKER_SCHEMA};
use vericlick::orchestrator::json::Json;
use vericlick::orchestrator::persist::{summary_from_json, summary_to_json};
use vericlick::orchestrator::wire::{
    job_to_json, options_to_json, plan_from_json, plan_to_json, report_from_json, report_to_json,
    shard_result_from_json, shard_result_to_json,
};
use vericlick::orchestrator::{
    worker_serve, ComposeJob, DaemonClient, DiffReport, JobSpec, NamedConfig, PlanSpec,
    PropertySelect, ScenarioReport, VerifyRequest, VerifyService, WorkerFleet,
};
use vericlick::pipeline::config::instantiate;
use vericlick::pipeline::{parse_config, write_config};
use vericlick::symbex::{explore, CancelToken};
use vericlick::verifier::{ElementSummary, Verifier};

/// Serialise `doc`, parse the text back, and return the parsed document
/// with the text's size in bytes — both directions under per-kB spans.
fn through_text(doc: &Json, trace: &mut Trace) -> Result<(Json, usize), String> {
    let text = trace.sized(
        "json.to_text_us_per_kb",
        || doc.to_text(),
        |t| t.len() as f64 / 1024.0,
    );
    let parsed = trace
        .batch("json.parse_us_per_kb", text.len() as f64 / 1024.0, || {
            Json::parse(&text)
        })
        .map_err(|e| e.to_string())?;
    Ok((parsed, text.len()))
}

/// The plan a daemon makes of a tick whose rolling baseline is `old`.
fn plan_tick(old: &[NamedConfig], new: &[NamedConfig]) -> Result<PlanSpec, String> {
    VerifyService::new()
        .with_threads(1)
        .plan_request(&VerifyRequest::Diff {
            old: old.to_vec(),
            new: new.to_vec(),
            properties: PropertySelect::Preset,
        })
        .map_err(|e| e.to_string())
}

/// One watch tick along the distributed path, staged. Returns the
/// deterministic text of the diff report.
fn staged_tick(
    shadow: &Shadow,
    old: &[NamedConfig],
    new: &[NamedConfig],
    trace: &mut Trace,
) -> Result<String, String> {
    // Client → daemon: the request document.
    let watch = watch_request(new);
    let doc = trace
        .leaf("wire.request_encode_us", || watch.to_json())
        .map_err(|e| e.to_string())?;
    let (doc, request_bytes) = through_text(&doc, trace)?;
    trace.value("wire.request_bytes", request_bytes as f64);
    trace
        .leaf("wire.request_decode_us", || VerifyRequest::from_json(&doc))
        .map_err(|e| e.to_string())?;
    // One frame through a buffer: what the transport adds to the codec.
    trace
        .leaf("exec.frame_roundtrip_us", || {
            let mut wire = Vec::with_capacity(request_bytes + 1);
            write_frame(&mut wire, &doc)?;
            read_frame(&mut Cursor::new(wire))
        })
        .map_err(|e| e.to_string())?;

    // Daemon: plan the tick; the plan as a document.
    for config in new
        .iter()
        .zip(old)
        .filter(|(n, o)| n.config != o.config)
        .map(|(n, _)| n)
    {
        let pipeline = parse_config(&config.config).map_err(|e| e.to_string())?;
        trace
            .leaf("pipeline.write_config_us", || write_config(&pipeline))
            .map_err(|e| e.to_string())?;
    }
    let plan = trace.leaf("fleet.plan_request", || plan_tick(old, new))?;
    let doc = trace.leaf("wire.plan_encode_us", || plan_to_json(&plan));
    let (doc, _) = through_text(&doc, trace)?;
    let plan = trace
        .leaf("wire.plan_decode_us", || plan_from_json(&doc))
        .map_err(|e| e.to_string())?;

    // Worker: explore what the store lacks; each summary crosses the wire.
    for job in &plan.jobs {
        if shadow.store.get(job.fingerprint).is_some() {
            continue;
        }
        let started = std::time::Instant::now();
        let summary = trace.leaf("fleet.explore", || {
            let element =
                instantiate(&job.type_name, &job.config_args).map_err(|e| e.to_string())?;
            let exploration =
                explore(&element.model(), &plan.options.engine).map_err(|e| e.to_string())?;
            Ok::<_, String>(ElementSummary {
                type_name: element.type_name().to_string(),
                config_key: element.config_key(),
                exploration,
                explore_time: started.elapsed(),
            })
        })?;
        let doc = trace.leaf("persist.summary_encode_us", || summary_to_json(&summary));
        let (doc, bytes) = through_text(&doc, trace)?;
        trace.value("persist.summary_bytes", bytes as f64);
        let summary = trace
            .leaf("persist.summary_decode_us", || summary_from_json(&doc))
            .map_err(|e| e.to_string())?;
        shadow.store.insert(job.fingerprint, Arc::new(summary));
    }

    // Step 2, sharded: outline at the daemon, the walk at the worker (its
    // result crossing the wire), the fold back at the daemon.
    let mut reports = Vec::with_capacity(plan.scenarios.len());
    for (spec, fps) in plan.scenarios.iter().zip(&plan.element_fingerprints) {
        let scenario = spec.to_scenario().map_err(|e| e.to_string())?;
        let summaries = || fps.iter().filter_map(|fp| shadow.store.get(*fp));
        let verifier = || Verifier::with_options(plan.options.clone());
        let outline = trace.leaf("fleet.outline", || {
            verifier().outline_composition(&scenario.pipeline, &scenario.property, summaries())
        });
        let report = match outline {
            None => trace.leaf("fleet.verify_inline", || {
                let mut verifier = verifier();
                verifier.seed_summaries(summaries());
                verifier.verify(&scenario.pipeline, &scenario.property)
            }),
            Some(outline) => {
                let shard = trace.leaf("fleet.shard_walk", || {
                    verifier().decide_composition_shard(
                        &scenario.pipeline,
                        &scenario.property,
                        summaries(),
                        0,
                        outline.total_weight(),
                        &CancelToken::new(),
                    )
                });
                let doc = trace.leaf("wire.shard_result_encode_us", || {
                    shard_result_to_json(&shard)
                });
                let (doc, _) = through_text(&doc, trace)?;
                let shard = trace
                    .leaf("wire.shard_result_decode_us", || {
                        shard_result_from_json(&doc)
                    })
                    .map_err(|e| e.to_string())?;
                trace.leaf("fleet.fold", || {
                    verifier().fold_composition_shards(
                        &scenario.pipeline,
                        &scenario.property,
                        summaries(),
                        &outline,
                        shard.records,
                    )
                })
            }
        };
        // Daemon → client: the report as a document.
        let doc = trace.leaf("wire.report_encode_us", || report_to_json(&report));
        let (doc, _) = through_text(&doc, trace)?;
        let report = trace
            .leaf("wire.report_decode_us", || {
                report_from_json(&doc, scenario.property.clone(), Duration::ZERO)
            })
            .map_err(|e| e.to_string())?;
        reports.push(ScenarioReport {
            pipeline_name: spec.name.clone(),
            report,
        });
    }

    let meta = plan.diff.ok_or("a tick's plan carries no diff")?;
    let text = DiffReport {
        entries: meta.entries,
        removed_configs: meta.removed_configs,
        skipped_scenarios: meta.skipped_scenarios,
        matrix: staged_matrix(reports),
    }
    .deterministic_json()
    .to_text();
    trace.value("wire.report_bytes", text.len() as f64);
    Ok(text)
}

/// The frames a coordinator would send a worker for the tick planned in
/// `plan`: a hello pinning the options, one explore job per element the
/// tick introduced, one compose job per scenario with its summaries
/// attached. Returns the script and the number of jobs in it.
fn worker_script(plan: &PlanSpec, shadow: &Shadow, fresh: &[usize]) -> (Vec<u8>, usize) {
    let frame = |fields: Vec<(&'static str, Json)>| {
        let mut all = vec![("schema", Json::int(WORKER_SCHEMA))];
        all.extend(fields);
        Json::obj(all)
    };
    let mut frames = vec![frame(vec![
        ("kind", Json::str("hello")),
        ("proto", Json::str(WORKER_PROTO)),
        ("options", options_to_json(&plan.options)),
    ])];
    let mut jobs: Vec<(JobSpec, Option<Json>)> = fresh
        .iter()
        .map(|&job| (JobSpec::Explore(plan.jobs[job].clone()), None))
        .collect();
    for (spec, fps) in plan.scenarios.iter().zip(&plan.element_fingerprints) {
        let summaries = fps
            .iter()
            .map(|fp| {
                shadow
                    .store
                    .get(*fp)
                    .map_or(Json::Null, |s| summary_to_json(&s))
            })
            .collect();
        jobs.push((
            JobSpec::Compose(ComposeJob {
                scenario: spec.clone(),
                fingerprints: fps.clone(),
            }),
            Some(Json::Arr(summaries)),
        ));
    }
    let count = jobs.len();
    for (id, (job, summaries)) in jobs.into_iter().enumerate() {
        let mut fields = vec![
            ("kind", Json::str("job")),
            ("id", Json::int(id as u64)),
            ("job", job_to_json(&job)),
        ];
        if let Some(summaries) = summaries {
            fields.push(("summaries", summaries));
        }
        frames.push(frame(fields));
    }
    let mut script = Vec::new();
    for frame in &frames {
        script.extend_from_slice(frame.to_text().as_bytes());
        script.push(b'\n');
    }
    (script, count)
}

/// Ticks executed straight on the worker.
const DIRECT_REQUESTS: usize = 3;

/// Tick numbers for the layer probes, far beyond any window's.
const PROBE_TICKS: usize = 1 << 20;

impl Traced for FleetRoundtrip {
    const SIDE_OPS: usize = 4;

    fn prepare<T: TimeSource>(
        &mut self,
        meter: &mut Meter<T>,
        trace: &mut Trace,
    ) -> Result<(), String> {
        // Connection set-up: dial plus hello, five times.
        let daemon = self.fleet().daemon_addr.clone();
        trace.request(meter, |t| {
            for _ in 0..5 {
                t.leaf("daemon.connect_ms", || DaemonClient::connect(&daemon, None))
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        })?;

        // The same tick executed on the worker with no daemon in between.
        // The direct service first executes the baseline, as the daemon's
        // session did, so that its store holds the same summaries and the
        // same shard-cost calibration when the ticks arrive.
        let baseline = self.script().baseline();
        let direct = VerifyService::new().with_threads(1);
        let worker = self.fleet().worker_addr.clone();
        // A fleet per request, as the daemon builds one per request.
        let on_the_worker = |plan: &PlanSpec| {
            direct
                .execute_plan(plan, &WorkerFleet::sockets(vec![worker.clone()]))
                .map_err(|e| format!("direct fleet request: {e}"))
        };
        let first = direct
            .plan_request(&watch_request(&baseline))
            .map_err(|e| e.to_string())?;
        on_the_worker(&first)?;
        for k in 0..DIRECT_REQUESTS {
            let tick = self.script().tick(PROBE_TICKS + k);
            let plan = plan_tick(&baseline, &tick)?;
            let response = trace.request(meter, |t| {
                t.leaf("exec.fleet_request_ms", || on_the_worker(&plan))
            })?;
            check_tick(&response).map_err(|why| format!("direct fleet request: {why}"))?;
        }

        // The worker protocol alone: one tick's jobs over in-memory pipes.
        // Staging the tick on an empty shadow store leaves every summary
        // its compose jobs attach in that store; the jobs the tick itself
        // adds are the ones another tick's plan does not share.
        let shadow = Shadow::default();
        let tick = self.script().tick(PROBE_TICKS + DIRECT_REQUESTS);
        let plan = plan_tick(&baseline, &tick)?;
        staged_tick(&shadow, &baseline, &tick, &mut Trace::new())?;
        let other = plan_tick(
            &baseline,
            &self.script().tick(PROBE_TICKS + DIRECT_REQUESTS + 1),
        )?;
        let fresh: Vec<usize> = (0..plan.jobs.len())
            .filter(|&job| {
                !other
                    .jobs
                    .iter()
                    .any(|o| o.fingerprint == plan.jobs[job].fingerprint)
            })
            .collect();
        let (script, jobs) = worker_script(&plan, &shadow, &fresh);
        let mut replies = Vec::new();
        trace
            .request(meter, |t| {
                t.batch("exec.worker_job_ms", jobs as f64, || {
                    worker_serve(Cursor::new(script), &mut replies, 1)
                })
            })
            .map_err(|e| e.to_string())?;
        let results = String::from_utf8_lossy(&replies)
            .lines()
            .filter_map(|line| Json::parse(line).ok())
            .filter(|frame| frame.get("kind").and_then(Json::as_str) == Some("result"))
            .count();
        if results != jobs {
            return Err(format!(
                "the worker answered {results} of {jobs} scripted jobs"
            ));
        }
        Ok(())
    }

    fn observe(&self, out: &Self::Out, trace: &mut Trace) {
        let Ok(reply) = out else { return };
        for (metric, key) in [
            ("exec.jobs_dispatched", "jobs_dispatched"),
            ("exec.summaries_shipped", "summaries_shipped"),
            ("exec.summary_bytes_shipped", "summary_bytes_shipped"),
            ("exec.summaries_deduped", "summaries_deduped"),
        ] {
            if let Some(value) = reply.dispatch_stat(key) {
                trace.value(metric, value as f64);
            }
        }
    }

    fn served_text(&self, out: &Self::Out) -> Result<String, String> {
        out.as_ref()
            .map(|reply| reply.det_report.to_text())
            .map_err(|e| e.to_string())
    }

    fn replica(&mut self, index: usize, trace: &mut Trace) -> Result<String, String> {
        let old = self.previous_tick(index).to_vec();
        let new = self.tick(index).to_vec();
        staged_tick(self.shadow(), &old, &new, trace)
    }
}

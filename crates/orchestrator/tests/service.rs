//! Integration tests of the `VerifyService` front door and the
//! plan/execute split:
//!
//! * a `PlanSpec` serialised to JSON and executed by a *different* service
//!   instance (fresh store, fresh scheduler) produces a deterministic
//!   report byte-identical to serving the original request — across all 20
//!   preset scenarios and for diff plans,
//! * requests round-trip through their JSON form,
//! * watch requests establish a rolling baseline and then re-verify only
//!   what changed.

use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::wire::{plan_from_json, plan_to_json};
use dataplane_orchestrator::{
    preset_scenarios, InProcessExecutor, NamedConfig, PropertySelect, VerifyOutcome, VerifyRequest,
    VerifyService,
};

const ROUTER: &str = r#"
    cls :: Classifier(12/0800);
    strip :: EthDecap();
    chk :: CheckIPHeader();
    rt :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
    ttl0 :: DecTTL();
    ttl1 :: DecTTL();
    out0 :: Sink();
    out1 :: Sink();
    cls -> strip -> chk -> rt;
    rt[0] -> ttl0 -> out0;
    rt[1] -> ttl1 -> out1;
"#;

const FILTER: &str = r#"
    strip :: EthDecap();
    chk :: CheckIPHeader();
    f :: SrcFilter(203.0.113.9);
    out :: Sink();
    strip -> chk -> f -> out;
"#;

#[test]
fn plan_round_trips_and_executes_byte_identical_for_all_presets() {
    // Serve the preset matrix in-process: the reference result.
    let service = VerifyService::new().with_threads(4);
    let served = service
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .unwrap();
    let reference = served.deterministic_json().to_text();
    let (proven, violated, unknown) = served.verdict_counts();
    assert_eq!(
        (proven, violated, unknown),
        (15, 5, 0),
        "preset verdict mix drifted"
    );

    // Plan the same request, push the plan through its JSON wire form, and
    // execute it on a *fresh* service (empty store — every element summary
    // must come through the executor).
    let plan = service
        .plan_request(&VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .unwrap();
    assert!(plan.jobs.len() >= 10, "plan lost jobs: {}", plan.jobs.len());
    assert_eq!(plan.scenarios.len(), 20);
    let text = plan_to_json(&plan).to_text();
    let decoded = plan_from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(decoded.jobs.len(), plan.jobs.len());
    assert_eq!(decoded.scenario_jobs, plan.scenario_jobs);
    assert_eq!(decoded.element_fingerprints, plan.element_fingerprints);
    // Re-encoding the decoded plan is byte-stable.
    assert_eq!(plan_to_json(&decoded).to_text(), text);

    let fresh = VerifyService::new().with_threads(4);
    let executed = fresh.execute_plan(&decoded, &InProcessExecutor).unwrap();
    let matrix = executed.matrix().unwrap();
    assert_eq!(
        matrix.explore_jobs,
        plan.jobs.len(),
        "a cold executing service must run every job"
    );
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "executed plan must reproduce the served matrix byte for byte"
    );

    // Executing the same plan again on the now-warm service runs zero
    // explore jobs and still reproduces the report.
    let warm = fresh.execute_plan(&decoded, &InProcessExecutor).unwrap();
    assert_eq!(warm.matrix().unwrap().explore_jobs, 0);
    assert_eq!(warm.deterministic_json().to_text(), reference);
}

#[test]
fn in_process_plan_execution_runs_on_the_services_own_scheduler() {
    use dataplane_orchestrator::ProgressEvent;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let request = || VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    };
    let cold = VerifyService::new().with_threads(2);
    let served = cold.serve(request()).unwrap();
    let served = served.matrix().unwrap();

    // The same request as a plan, executed in process on a fresh two-thread
    // service: Step 1 included, everything draws from its one budget.
    let explored = Arc::new(AtomicUsize::new(0));
    let counter = explored.clone();
    let fresh = VerifyService::new()
        .with_threads(2)
        .with_progress(move |event| {
            if matches!(event, ProgressEvent::ExploreFinished { .. }) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
    let plan = cold.plan_request(&request()).unwrap();
    let executed = fresh.execute_plan(&plan, &InProcessExecutor).unwrap();
    let executed = executed.matrix().unwrap();
    assert!(
        executed.peak_live_threads <= 2,
        "{} live threads on a 2-thread service",
        executed.peak_live_threads
    );
    assert_eq!(
        fresh.thread_budget().peak_in_use(),
        executed.peak_live_threads
    );
    assert_eq!(
        explored.load(Ordering::Relaxed),
        executed.explore_jobs,
        "one ExploreFinished per explored behaviour"
    );
    assert_eq!(
        (executed.explore_jobs, executed.cached_jobs),
        (served.explore_jobs, served.cached_jobs),
        "a cold in-process execution counts its jobs like a cold serve"
    );
    assert_eq!((executed.explore_jobs, executed.cached_jobs), (13, 0));
}

#[test]
fn diff_plans_round_trip_and_execute_byte_identical() {
    let old = vec![
        NamedConfig::new("router", ROUTER),
        NamedConfig::new("filter", FILTER),
    ];
    let new = vec![
        NamedConfig::new(
            "router",
            ROUTER.replace("192.168.0.0/16 1", "192.168.0.0/24 1"),
        ),
        NamedConfig::new("filter", FILTER),
    ];
    let request = || VerifyRequest::Diff {
        old: old.clone(),
        new: new.clone(),
        properties: PropertySelect::Default,
    };

    let service = VerifyService::new().with_threads(2);
    let served = service.serve(request()).unwrap();
    let reference = served.deterministic_json().to_text();
    let VerifyOutcome::Diff(report) = &served.outcome else {
        panic!("diff request must produce a diff outcome");
    };
    assert_eq!(report.skipped_scenarios, 2, "identical filter not skipped");
    assert_eq!(report.reverified_scenarios(), 2);

    // Round-trip the plan and execute on a fresh service.
    let plan = service.plan_request(&request()).unwrap();
    assert!(plan.diff.is_some(), "diff plans carry their diff metadata");
    let text = plan_to_json(&plan).to_text();
    let decoded = plan_from_json(&Json::parse(&text).unwrap()).unwrap();
    let fresh = VerifyService::new().with_threads(2);
    let executed = fresh.execute_plan(&decoded, &InProcessExecutor).unwrap();
    assert!(matches!(executed.outcome, VerifyOutcome::Diff(_)));
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "executed diff plan must reproduce the served diff byte for byte"
    );
}

#[test]
fn requests_round_trip_through_json() {
    // A matrix request over presets survives its wire form and serves to
    // the same deterministic result.
    let request = VerifyRequest::Matrix {
        scenarios: preset_scenarios(),
    };
    let text = request.to_json().unwrap().to_text();
    let decoded = VerifyRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
    let VerifyRequest::Matrix { scenarios } = &decoded else {
        panic!("kind drifted");
    };
    assert_eq!(scenarios.len(), 20);
    // Re-encoding is byte-stable (configs and properties are canonical).
    assert_eq!(decoded.to_json().unwrap().to_text(), text);

    // Diff and watch shapes round-trip too.
    for request in [
        VerifyRequest::Diff {
            old: vec![NamedConfig::new("router", ROUTER)],
            new: vec![NamedConfig::new("router", ROUTER)],
            properties: PropertySelect::Preset,
        },
        VerifyRequest::Watch {
            configs: vec![NamedConfig::new("filter", FILTER)],
            properties: PropertySelect::Default,
        },
    ] {
        let text = request.to_json().unwrap().to_text();
        let decoded = VerifyRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.kind(), request.kind());
        assert_eq!(decoded.to_json().unwrap().to_text(), text);
    }
}

#[test]
fn watch_rolls_the_baseline_and_reverifies_only_changes() {
    let service = VerifyService::new().with_threads(2);
    let watch = |config: &str| VerifyRequest::Watch {
        configs: vec![
            NamedConfig::new("router", config.to_string()),
            NamedConfig::new("filter", FILTER),
        ],
        properties: PropertySelect::Default,
    };

    // First watch call: no baseline yet — everything is verified.
    let first = service.serve(watch(ROUTER)).unwrap();
    let VerifyOutcome::Matrix(matrix) = &first.outcome else {
        panic!("first watch call must verify everything");
    };
    assert_eq!(matrix.scenarios.len(), 4);
    assert!(matrix.explore_jobs > 0);

    // Second call with identical configs: a diff that skips everything.
    let second = service.serve(watch(ROUTER)).unwrap();
    let VerifyOutcome::Diff(diff) = &second.outcome else {
        panic!("follow-up watch calls must diff");
    };
    assert_eq!(diff.reverified_scenarios(), 0);
    assert_eq!(diff.skipped_scenarios, 4);

    // Third call with one element edited: only that config re-verifies,
    // and only the edited behaviour is re-explored.
    let edited = ROUTER.replace("192.168.0.0/16 1", "192.168.0.0/24 1");
    let third = service.serve(watch(&edited)).unwrap();
    let VerifyOutcome::Diff(diff) = &third.outcome else {
        panic!("watch after an edit must diff");
    };
    assert_eq!(diff.reverified_scenarios(), 2);
    assert_eq!(diff.skipped_scenarios, 2);
    assert_eq!(
        diff.matrix.explore_jobs, 1,
        "only the edited IPLookup behaviour re-explores"
    );

    // Fourth call reverting the edit: the baseline rolled forward, so the
    // revert is again a change against the *third* call's configs.
    let fourth = service.serve(watch(ROUTER)).unwrap();
    let VerifyOutcome::Diff(diff) = &fourth.outcome else {
        panic!("watch must keep diffing");
    };
    assert_eq!(
        diff.reverified_scenarios(),
        2,
        "the baseline must have rolled forward"
    );
    assert_eq!(
        diff.matrix.explore_jobs, 0,
        "the original behaviour is still in the store — composition-only"
    );
}

#[test]
fn watch_does_not_roll_the_baseline_on_failed_ticks() {
    let service = VerifyService::new().with_threads(2);
    let watch = |cfg: &str| VerifyRequest::Watch {
        configs: vec![NamedConfig::new("mini", cfg.to_string())],
        properties: PropertySelect::Default,
    };
    const MINI: &str = "cnt :: Counter();\ns :: Sink();\ncnt -> s;";
    const EDITED: &str = "cnt :: Counter();\nttl :: DecTTL();\ns :: Sink();\ncnt -> ttl -> s;";

    // Establish the baseline, then submit a tick that cannot parse: the
    // tick errors and must NOT become the baseline.
    service.serve(watch(MINI)).unwrap();
    assert!(service.serve(watch("not a config")).is_err());

    // The next (fixed, edited) tick diffs against the last *good* baseline,
    // so the edit is actually verified — not skipped as `Identical` against
    // a baseline that never verified.
    let response = service.serve(watch(EDITED)).unwrap();
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        panic!("watch after an error must still diff");
    };
    assert_eq!(
        diff.reverified_scenarios(),
        2,
        "the edit since the last good baseline must be verified"
    );
}

#[test]
fn bound_requests_ride_the_plan_execute_split() {
    use dataplane_pipeline::presets::ip_router_pipeline;
    let request = || VerifyRequest::Bound {
        name: "router".into(),
        pipeline: ip_router_pipeline(),
    };

    // Serve directly: the analysis itself.
    let service = VerifyService::new().with_threads(2);
    let served = service.serve(request()).unwrap();
    assert_eq!(served.request, "bound");
    let reference = served.deterministic_json().to_text();
    let VerifyOutcome::Bound(bound) = &served.outcome else {
        panic!("bound requests produce bound outcomes");
    };
    assert!(bound.report.max_instructions > 0, "{}", bound.report);
    assert!(bound.report.feasible_paths > 0);
    assert!(reference.contains("\"kind\":\"bound\""));

    // The request round-trips through its wire form.
    let text = request().to_json().unwrap().to_text();
    let decoded = VerifyRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(decoded.kind(), "bound");
    assert_eq!(decoded.to_json().unwrap().to_text(), text);

    // Plan → JSON → execute on a fresh service (cold store: every element
    // exploration goes through the executor) reproduces the analysis byte
    // for byte — the bound analysis rides the plan/execute split.
    let plan = service.plan_request(&request()).unwrap();
    assert!(
        plan.bound.is_some(),
        "bound plans carry their analysis spec"
    );
    assert!(plan.scenarios.is_empty());
    assert!(!plan.jobs.is_empty(), "the pipeline's explores are planned");
    let text = plan_to_json(&plan).to_text();
    let decoded = plan_from_json(&Json::parse(&text).unwrap()).unwrap();
    let fresh = VerifyService::new().with_threads(2);
    let executed = fresh.execute_plan(&decoded, &InProcessExecutor).unwrap();
    assert_eq!(
        executed.deterministic_json().to_text(),
        reference,
        "executed bound plan must reproduce the served analysis byte for byte"
    );
}

#[test]
fn single_requests_return_single_outcomes() {
    use dataplane_pipeline::presets::ip_router_pipeline;
    use dataplane_verifier::Property;

    let service = VerifyService::new().with_threads(2);
    let response = service
        .serve(VerifyRequest::Single {
            name: "router".into(),
            pipeline: ip_router_pipeline(),
            property: Property::CrashFreedom,
        })
        .unwrap();
    assert_eq!(response.request, "single");
    let report = response.report().expect("single outcome");
    assert!(report.is_proven(), "{report}");
    assert_eq!(response.verdict_counts(), (1, 0, 0));
    assert!(response.matrix().is_none());
    // The JSON forms carry the schema version.
    let json = response.to_json();
    assert_eq!(json.get("schema").and_then(Json::as_u64), Some(2));
    assert_eq!(
        response
            .deterministic_json()
            .get("report")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str),
        Some("proven")
    );
}

#[test]
fn plans_render_each_distinct_pipeline_once_and_check_every_one() {
    use dataplane_orchestrator::Scenario;
    use dataplane_pipeline::elements::{DecTTL, Sink};
    use dataplane_pipeline::{parse_config, write_config, Pipeline};
    use dataplane_verifier::Property;

    // The presets ask four properties of each pipeline: every scenario
    // still carries exactly its own pipeline's config text.
    let presets = preset_scenarios();
    let service = VerifyService::new().with_threads(1);
    let plan = service
        .plan_request(&VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .unwrap();
    for (spec, scenario) in plan.scenarios.iter().zip(&presets) {
        assert_eq!(spec.name, scenario.pipeline_name);
        assert_eq!(spec.config, write_config(&scenario.pipeline).unwrap());
    }

    // The same elements under other instance names are another pipeline:
    // its own text, and its own round-trip check, which fails here on a
    // name the config language cannot carry.
    let chain = |ttl: &str, out: &str| {
        let mut b = Pipeline::builder();
        let t = b.add(ttl, Box::new(DecTTL::new()));
        let o = b.add(out, Box::new(Sink::new()));
        b.connect(t, 0, o);
        b.build().unwrap()
    };
    let matrix = |second_out: &str| VerifyRequest::Matrix {
        scenarios: vec![
            Scenario::new("a", chain("ttl", "out"), Property::CrashFreedom),
            Scenario::new(
                "a",
                chain("ttl", "out"),
                Property::BoundedInstructions {
                    max_instructions: 64,
                },
            ),
            Scenario::new("b", chain("ttl", second_out), Property::CrashFreedom),
        ],
    };
    let plan = service.plan_request(&matrix("sink")).unwrap();
    assert_eq!(plan.scenarios[0].config, plan.scenarios[1].config);
    assert_ne!(plan.scenarios[0].config, plan.scenarios[2].config);
    assert_eq!(
        write_config(&parse_config(&plan.scenarios[2].config).unwrap()).unwrap(),
        plan.scenarios[2].config
    );
    assert!(service.plan_request(&matrix("bad name")).is_err());
}

//! The Step-2 record table's key is complete: within one request, a fold
//! answers a question from the table only when an earlier fold asked
//! exactly the same one, so every scenario of a batch reports what it
//! reports alone — and the preset matrix does share records.

use dataplane_orchestrator::wire::report_to_json;
use dataplane_orchestrator::{
    preset_properties, preset_scenarios, Scenario, VerifyRequest, VerifyService,
};
use dataplane_pipeline::elements::{BuggyDecTTL, Classifier, EthDecap, Sink, UncheckedOptions};
use dataplane_pipeline::presets::{buggy_pipeline, ip_router_pipeline};
use dataplane_pipeline::Pipeline;
use dataplane_verifier::Property;
use std::net::Ipv4Addr;

/// The `buggy` preset with every instance renamed.
fn renamed_buggy() -> Pipeline {
    let mut b = Pipeline::builder();
    let cls = b.add("classify", Box::new(Classifier::ipv4_only()));
    let strip = b.add("decap", Box::new(EthDecap::new()));
    let opts = b.add("options", Box::new(UncheckedOptions::new()));
    let ttl = b.add("decttl", Box::new(BuggyDecTTL::new()));
    let out = b.add("sink", Box::new(Sink::new()));
    b.chain(&[cls, strip, opts, ttl, out]);
    b.build().expect("renamed buggy pipeline is valid")
}

/// Each scenario's deterministic report, served as one matrix request.
fn batch_reports(scenarios: Vec<Scenario>) -> Vec<String> {
    let response = VerifyService::new()
        .with_threads(1)
        .serve(VerifyRequest::Matrix { scenarios })
        .unwrap();
    response
        .matrix()
        .expect("a matrix response")
        .scenarios
        .iter()
        .map(|s| report_to_json(&s.report).to_text())
        .collect()
}

/// The deterministic report of one scenario served on its own.
fn solo_report(name: &str, pipeline: Pipeline, property: Property) -> String {
    let response = VerifyService::new()
        .with_threads(1)
        .serve(VerifyRequest::Single {
            name: name.to_string(),
            pipeline,
            property,
        })
        .unwrap();
    report_to_json(response.report().expect("a single response")).to_text()
}

#[test]
fn renamed_copies_of_a_pipeline_report_their_own_instance_names() {
    let batch = batch_reports(vec![
        Scenario::new("buggy", buggy_pipeline(), Property::CrashFreedom),
        Scenario::new("renamed", renamed_buggy(), Property::CrashFreedom),
    ]);
    let alone = [
        solo_report("buggy", buggy_pipeline(), Property::CrashFreedom),
        solo_report("renamed", renamed_buggy(), Property::CrashFreedom),
    ];
    assert_eq!(batch, alone);
    // The two really differ: each violation names its own instances.
    assert!(batch[0].contains("\"ttl\"") && !batch[0].contains("\"decttl\""));
    assert!(batch[1].contains("\"decttl\"") && !batch[1].contains("\"ttl\""));
}

#[test]
fn reachability_to_two_destinations_reports_each_alone() {
    let reach = |dst: Ipv4Addr| {
        let Some(Property::Reachability {
            dst_offset,
            deliver_to,
            may_drop,
            ..
        }) = preset_properties("ip_router")
            .into_iter()
            .find(|p| matches!(p, Property::Reachability { .. }))
        else {
            panic!("ip_router has a reachability property");
        };
        Property::Reachability {
            dst,
            dst_offset,
            deliver_to,
            may_drop,
        }
    };
    // 10.1.2.3 is routed; 172.16.0.1 matches no route and is dropped.
    let properties = [
        reach(Ipv4Addr::new(10, 1, 2, 3)),
        reach(Ipv4Addr::new(172, 16, 0, 1)),
    ];
    let batch = batch_reports(
        properties
            .iter()
            .map(|p| Scenario::new("ip_router", ip_router_pipeline(), p.clone()))
            .collect(),
    );
    let alone: Vec<String> = properties
        .iter()
        .map(|p| solo_report("ip_router", ip_router_pipeline(), p.clone()))
        .collect();
    assert_eq!(batch, alone);
    assert_ne!(batch[0], batch[1]);
}

#[test]
fn the_preset_matrix_shares_records_and_a_lone_scenario_does_not() {
    let service = VerifyService::new().with_threads(1);
    let response = service
        .serve(VerifyRequest::Matrix {
            scenarios: preset_scenarios(),
        })
        .unwrap();
    let cache = &response.matrix().expect("a matrix response").cache;
    assert!(cache.records_computed > 0);
    assert!(cache.records_reused > 0, "{cache:?}");

    let lone = VerifyService::new()
        .with_threads(1)
        .serve(VerifyRequest::Matrix {
            scenarios: vec![Scenario::new(
                "ip_router",
                ip_router_pipeline(),
                Property::CrashFreedom,
            )],
        })
        .unwrap();
    let cache = &lone.matrix().expect("a matrix response").cache;
    assert!(cache.records_computed > 0);
    assert_eq!(cache.records_reused, 0);
}

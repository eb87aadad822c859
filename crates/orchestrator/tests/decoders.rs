//! Every document decoder is total and every document round-trips.
//!
//! For each document the crate reads back — plans, requests, reports,
//! compose-shard results, element summaries, cache manifests, fuzz shard
//! reports and conformance reports — a random value of each variant is
//! encoded, decoded and encoded again to the identical text. Hostile
//! documents (a valid document with one value swapped for one of the
//! wrong type or range) and byte-mutated valid text may be refused, but
//! no decoder may panic on them.

use dataplane_orchestrator::conformance::{
    shard_report_from_json, shard_report_to_json, ConformanceReport, Contradiction,
    FuzzShardReport, ReplayOutcome,
};
use dataplane_orchestrator::json::Json;
use dataplane_orchestrator::persist::{
    manifest_from_json, manifest_to_json, summary_from_json, summary_to_json, ManifestEntry,
};
use dataplane_orchestrator::wire::{
    plan_from_json, plan_to_json, report_from_json, report_to_json, request_from_json,
    request_to_json, shard_result_from_json, shard_result_to_json,
};
use dataplane_orchestrator::{
    preset_pipelines, preset_scenarios, NamedConfig, PlanSpec, PropertySelect, VerifyRequest,
    VerifyService,
};
use dataplane_symbex::{explore, CheckDiagnostics};
use dataplane_temporal::LtlSpec;
use dataplane_verifier::{
    CheckOutcome, CheckRecord, ComposeShardResult, Counterexample, ElementSummary, Property,
    Report, ShardEdge, ShardNodeRecord, UnprovenPath, Verdict, VerificationStats, VerifierOptions,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A random string of up to twelve characters, mixing hex digits, signs,
/// JSON escapes and multi-byte characters.
fn any_text(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'f', '0', '9', '+', '-', '"', '\\', '\n', 'é', '€', '🦀',
    ];
    let len = rng.next_u64() % 13;
    (0..len)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

fn any_texts(rng: &mut TestRng) -> Vec<String> {
    (0..rng.next_u64() % 3).map(|_| any_text(rng)).collect()
}

fn any_u64(rng: &mut TestRng) -> u64 {
    rng.next_u64() >> (rng.next_u64() % 64)
}

fn any_usize(rng: &mut TestRng) -> usize {
    any_u64(rng) as usize
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

fn any_bytes(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.next_u64() % 20)
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize].clone()
}

fn any_property(rng: &mut TestRng) -> Property {
    match rng.next_u64() % 4 {
        0 => Property::CrashFreedom,
        1 => Property::BoundedInstructions {
            max_instructions: any_u64(rng),
        },
        2 => Property::Reachability {
            dst: std::net::Ipv4Addr::from(rng.next_u64() as u32),
            dst_offset: rng.next_u64() as u32,
            deliver_to: any_texts(rng),
            may_drop: any_texts(rng),
        },
        _ => {
            let spec = pick(
                rng,
                &[
                    "G !crashed",
                    "F (forwarded | dropped)",
                    "G (dst(10.0.0.1) -> F forwarded)",
                ],
            );
            Property::Temporal(LtlSpec::parse(spec).unwrap())
        }
    }
}

fn any_select(rng: &mut TestRng) -> PropertySelect {
    match rng.next_u64() % 3 {
        0 => PropertySelect::Default,
        1 => PropertySelect::Preset,
        _ => PropertySelect::Explicit((0..rng.next_u64() % 3).map(|_| any_property(rng)).collect()),
    }
}

fn any_configs(rng: &mut TestRng) -> Vec<NamedConfig> {
    (0..rng.next_u64() % 3)
        .map(|_| NamedConfig::new(any_text(rng), any_text(rng)))
        .collect()
}

fn any_scenarios(rng: &mut TestRng) -> Vec<dataplane_orchestrator::Scenario> {
    preset_scenarios()
        .into_iter()
        .filter(|_| rng.next_u64().is_multiple_of(6))
        .collect()
}

/// A request of every kind, with random names, properties and config text
/// (configs are parsed only where the request carries a pipeline).
fn any_request(rng: &mut TestRng) -> VerifyRequest {
    let pipeline = |rng: &mut TestRng| pick(rng, &preset_pipelines()).1();
    match rng.next_u64() % 6 {
        0 => VerifyRequest::Single {
            name: any_text(rng),
            pipeline: pipeline(rng),
            property: any_property(rng),
        },
        1 => VerifyRequest::Matrix {
            scenarios: any_scenarios(rng),
        },
        2 => VerifyRequest::Diff {
            old: any_configs(rng),
            new: any_configs(rng),
            properties: any_select(rng),
        },
        3 => VerifyRequest::Watch {
            configs: any_configs(rng),
            properties: any_select(rng),
        },
        4 => VerifyRequest::Bound {
            name: any_text(rng),
            pipeline: pipeline(rng),
        },
        _ => VerifyRequest::Conformance {
            scenarios: any_scenarios(rng),
            seed: rng.next_u64(),
            packets: any_u64(rng),
        },
    }
}

/// Plans of every shape (matrix, diff metadata, bound section), built once.
fn plans() -> &'static [PlanSpec] {
    static PLANS: OnceLock<Vec<PlanSpec>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let service = VerifyService::new();
        let router = "a :: CheckIPHeader(); b :: DecTTL(); a -> b;";
        let longer = "a :: CheckIPHeader(); b :: DecTTL(); c :: DecTTL(); a -> b -> c;";
        let requests = [
            VerifyRequest::Matrix {
                scenarios: preset_scenarios(),
            },
            VerifyRequest::Diff {
                old: vec![NamedConfig::new("x", router)],
                new: vec![NamedConfig::new("x", longer), NamedConfig::new("y", router)],
                properties: PropertySelect::Default,
            },
            VerifyRequest::Bound {
                name: "b".into(),
                pipeline: dataplane_pipeline::parse_config(longer).unwrap(),
            },
        ];
        requests
            .iter()
            .map(|request| service.plan_request(request).unwrap())
            .collect()
    })
}

fn any_plan(rng: &mut TestRng) -> PlanSpec {
    let mut plan = pick(rng, plans());
    plan.options.max_composed_paths = any_usize(rng);
    plan.options.solver.search_seed = rng.next_u64();
    for job in &mut plan.jobs {
        job.type_name = any_text(rng);
        job.config_args = any_text(rng);
    }
    for scenario in &mut plan.scenarios {
        scenario.name = any_text(rng);
        scenario.property = any_property(rng);
    }
    plan
}

fn any_report(rng: &mut TestRng) -> Report {
    Report {
        property: any_property(rng),
        verdict: pick(rng, &[Verdict::Proven, Verdict::Violated, Verdict::Unknown]),
        counterexamples: (0..rng.next_u64() % 3)
            .map(|_| any_counterexample(rng))
            .collect(),
        unproven: (0..rng.next_u64() % 3).map(|_| any_unproven(rng)).collect(),
        stats: VerificationStats {
            elements: any_usize(rng),
            suspects: any_usize(rng),
            solver_calls: any_usize(rng),
            lasso_found: any_usize(rng),
            ..VerificationStats::default()
        },
        elapsed: Duration::from_micros(any_u64(rng)),
    }
}

fn any_counterexample(rng: &mut TestRng) -> Counterexample {
    Counterexample {
        packet: any_bytes(rng),
        path: any_texts(rng),
        description: any_text(rng),
        confirmed: coin(rng),
    }
}

fn any_unproven(rng: &mut TestRng) -> UnprovenPath {
    UnprovenPath {
        path: any_texts(rng),
        reason: any_text(rng),
    }
}

fn any_shard_result(rng: &mut TestRng) -> ComposeShardResult {
    let check = |rng: &mut TestRng| {
        coin(rng).then(|| CheckRecord {
            outcome: match rng.next_u64() % 3 {
                0 => CheckOutcome::Discharged,
                1 => CheckOutcome::Violation(any_counterexample(rng)),
                _ => CheckOutcome::Undecided(any_unproven(rng)),
            },
            diag: CheckDiagnostics {
                fm_budget_exhausted: coin(rng),
                model_search_exhausted: coin(rng),
            },
            prefiltered: coin(rng),
        })
    };
    let edge = |rng: &mut TestRng| {
        coin(rng).then(|| ShardEdge {
            prefiltered: coin(rng),
            pruned_call: coin(rng),
            feasible: coin(rng),
        })
    };
    ComposeShardResult {
        records: (0..rng.next_u64() % 3)
            .map(|_| ShardNodeRecord {
                index: any_usize(rng),
                checks: (0..rng.next_u64() % 4).map(|_| check(rng)).collect(),
                edges: (0..rng.next_u64() % 4).map(|_| edge(rng)).collect(),
            })
            .collect(),
        cancelled: coin(rng),
    }
}

/// Real summaries of every distinct preset element, explored once.
fn summaries() -> &'static [Arc<ElementSummary>] {
    static SUMMARIES: OnceLock<Vec<Arc<ElementSummary>>> = OnceLock::new();
    SUMMARIES.get_or_init(|| {
        let engine = VerifierOptions::default().engine;
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for (_, make) in preset_pipelines() {
            for (_, node) in make().iter() {
                let element = node.element.as_ref();
                let key = (element.type_name().to_string(), element.config_key());
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                out.push(Arc::new(ElementSummary {
                    type_name: element.type_name().to_string(),
                    config_key: element.config_key(),
                    exploration: explore(&element.model(), &engine).unwrap(),
                    explore_time: Duration::from_micros(17),
                }));
            }
        }
        out
    })
}

fn any_manifest(rng: &mut TestRng) -> Vec<ManifestEntry> {
    (0..rng.next_u64() % 4)
        .map(|_| ManifestEntry {
            file: format!("{:016x}.json", rng.next_u64()),
            bytes: any_u64(rng),
            checksum: any_text(rng),
        })
        .collect()
}

fn any_contradiction(rng: &mut TestRng) -> Contradiction {
    Contradiction {
        packet: any_bytes(rng),
        shrunk: coin(rng).then(|| any_bytes(rng)),
        disposition: any_text(rng),
        at: any_text(rng),
        instructions: any_u64(rng),
        packet_index: any_u64(rng),
        reproduces_fresh: coin(rng),
    }
}

fn any_shard_report(rng: &mut TestRng) -> FuzzShardReport {
    FuzzShardReport {
        scenario: any_text(rng),
        scenario_index: rng.next_u64() as u32,
        shard_index: rng.next_u64() as u32,
        packets: any_u64(rng),
        checked: any_u64(rng),
        forwarded: any_u64(rng),
        dropped: any_u64(rng),
        crashed: any_u64(rng),
        max_instructions: any_u64(rng),
        model_seeds: any_u64(rng),
        contradiction_count: any_u64(rng),
        contradictions: (0..rng.next_u64() % 3)
            .map(|_| any_contradiction(rng))
            .collect(),
    }
}

fn any_conformance(rng: &mut TestRng) -> ConformanceReport {
    ConformanceReport {
        seed: rng.next_u64(),
        packets_requested: any_u64(rng),
        replay: (0..rng.next_u64() % 3)
            .map(|_| ReplayOutcome {
                scenario: any_text(rng),
                property: any_text(rng),
                description: any_text(rng),
                symbolic_path: any_texts(rng),
                packet: any_bytes(rng),
                reproduced: coin(rng),
                disposition: any_text(rng),
                at: any_text(rng),
                instructions: any_u64(rng),
                concrete_path: any_texts(rng),
            })
            .collect(),
        fuzz: Vec::new(),
        threads: 1,
        elapsed: Duration::ZERO,
    }
}

/// One valid document of each kind, and the text its decode → encode
/// round trip produces (which must be the document's own text).
fn documents(rng: &mut TestRng) -> Vec<(Json, String)> {
    let again = |doc: &Json| Json::parse(&doc.to_text()).unwrap();
    let plan = plan_to_json(&any_plan(rng));
    let plan_back = plan_to_json(&plan_from_json(&again(&plan)).unwrap());
    let request = request_to_json(&any_request(rng)).unwrap();
    let request_back = request_to_json(&request_from_json(&again(&request)).unwrap()).unwrap();
    let report = any_report(rng);
    let report_doc = report_to_json(&report);
    let decoded = report_from_json(&again(&report_doc), report.property.clone(), report.elapsed);
    let report_back = report_to_json(&decoded.unwrap());
    let shard = shard_result_to_json(&any_shard_result(rng));
    let shard_back = shard_result_to_json(&shard_result_from_json(&again(&shard)).unwrap());
    let summary = summary_to_json(pick(rng, summaries()).as_ref());
    let summary_back = summary_to_json(&summary_from_json(&again(&summary)).unwrap());
    let manifest = manifest_to_json(&any_manifest(rng));
    let manifest_back = manifest_to_json(&manifest_from_json(&again(&manifest)).unwrap());
    let fuzz = shard_report_to_json(&any_shard_report(rng));
    let fuzz_back = shard_report_to_json(&shard_report_from_json(&again(&fuzz)).unwrap());
    let conformance = any_conformance(rng);
    let conformance_doc = conformance.deterministic_json();
    let replay = ConformanceReport::replay_from_json(&again(&conformance_doc)).unwrap();
    let conformance_back = ConformanceReport {
        replay,
        ..conformance
    }
    .deterministic_json();
    vec![
        (plan, plan_back.to_text()),
        (request, request_back.to_text()),
        (report_doc, report_back.to_text()),
        (shard, shard_back.to_text()),
        (summary, summary_back.to_text()),
        (manifest, manifest_back.to_text()),
        (fuzz, fuzz_back.to_text()),
        (conformance_doc, conformance_back.to_text()),
    ]
}

/// Feed `doc` to every decoder: each may refuse it, none may panic.
fn decode_all(doc: &Json) {
    let _ = plan_from_json(doc);
    let _ = request_from_json(doc);
    let _ = report_from_json(doc, Property::CrashFreedom, Duration::ZERO);
    let _ = shard_result_from_json(doc);
    let _ = summary_from_json(doc);
    let _ = manifest_from_json(doc);
    let _ = shard_report_from_json(doc);
    let _ = ConformanceReport::replay_from_json(doc);
}

/// A value of the wrong type or out of a field's range.
fn hostile_value(rng: &mut TestRng) -> Json {
    // Integers at and just past every range a decoder checks: bit widths
    // (1..=64), `u8`, `u32`, `u64`, and table indexes.
    const INTS: [i128; 11] = [
        -1,
        0,
        1,
        64,
        65,
        255,
        256,
        4096,
        1 << 32,
        1 << 64,
        i128::MAX,
    ];
    match rng.next_u64() % 8 {
        0 => Json::Null,
        1 => Json::Bool(coin(rng)),
        2 | 3 => Json::Int(pick(rng, &INTS)),
        4 => Json::str(any_text(rng)),
        5 => Json::str(format!("{}\u{e9}{}", "a".repeat(15), "a".repeat(15))),
        6 => Json::Arr(vec![Json::Int(pick(rng, &INTS))]),
        _ => Json::obj([]),
    }
}

/// The number of values in `doc`, itself included.
fn size(doc: &Json) -> u64 {
    1 + match doc {
        Json::Arr(items) => items.iter().map(size).sum(),
        Json::Obj(map) => map.values().map(size).sum(),
        _ => 0,
    }
}

/// `doc` with its value number `*at` (pre-order) swapped for a hostile one.
fn swap_one(rng: &mut TestRng, doc: &Json, at: &mut u64) -> Json {
    if *at == 0 {
        *at = u64::MAX;
        return hostile_value(rng);
    }
    *at = at.wrapping_sub(1);
    match doc {
        Json::Arr(items) => Json::Arr(items.iter().map(|item| swap_one(rng, item, at)).collect()),
        Json::Obj(map) => Json::Obj(
            map.iter()
                .map(|(key, value)| (key.clone(), swap_one(rng, value, at)))
                .collect(),
        ),
        leaf => leaf.clone(),
    }
}

/// `doc` with one value anywhere in it swapped for a hostile one: the
/// rest stays valid, so the decoder reaches the swapped value.
fn perturb(rng: &mut TestRng, doc: &Json) -> Json {
    let mut at = rng.next_u64() % size(doc);
    swap_one(rng, doc, &mut at)
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

/// A strategy over raw RNG streams, so one case can draw as many values
/// as the documents it builds need.
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
    fn documents_round_trip_and_no_document_panics_a_decoder(rng in Stream) {
        let mut rng = rng;
        for (doc, again) in documents(&mut rng) {
            let text = doc.to_text();
            prop_assert_eq!(&again, &text);
            for _ in 0..8 {
                decode_all(&perturb(&mut rng, &doc));
                let mutated = mutate(&mut rng, &text);
                if let Some(doc) = std::str::from_utf8(&mutated).ok().and_then(|t| Json::parse(t).ok()) {
                    decode_all(&doc);
                }
            }
        }
    }
}

//! End-to-end verification tests: the paper's headline results in miniature.
//!
//! * the reference IP-router pipeline is proven crash-free for any input
//!   (§3 "Preliminary Results"),
//! * removing the upstream `CheckIPHeader` makes the same options-processing
//!   code unsafe, and the verifier produces a concrete crashing packet
//!   (the Figure-2 effect, in both directions),
//! * planted bugs are found with confirmed witness packets,
//! * the stateful middlebox (NetFlow + NAT) is proven crash-free,
//! * the toy pipeline of Figure 2 is proven crash-free by composition.

use dataplane_ir::builder::{Block, ProgramBuilder};
use dataplane_ir::expr::dsl::*;
use dataplane_ir::Program;
use dataplane_net::Packet;
use dataplane_pipeline::elements::*;
use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline, router_chain,
};
use dataplane_pipeline::{Action, Element, Pipeline};
use dataplane_verifier::{explore_monolithic, MonolithicConfig, Property, Verdict, Verifier};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// E1: crash freedom of the router pipelines
// ---------------------------------------------------------------------------

#[test]
fn router_pipeline_is_crash_free() {
    let router = ip_router_pipeline();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&router, &Property::CrashFreedom);
    assert!(report.is_proven(), "expected proof, got:\n{report}");
    // The interesting part: Step 1 must have found suspects (the options
    // walker can crash in isolation) and Step 2 must have discharged them.
    assert!(report.stats.suspects > 0, "{report}");
    assert!(report.stats.discharged >= report.stats.suspects);
}

#[test]
fn linear_router_is_crash_free_too() {
    let router = linear_router_pipeline();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&router, &Property::CrashFreedom);
    assert!(report.is_proven(), "expected proof, got:\n{report}");
}

#[test]
fn options_walker_without_header_check_is_unsafe() {
    // The same IPOptions element, composed without the protective
    // CheckIPHeader: the verifier must find a crashing packet and confirm it
    // by replay.
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let opts = b.add("opts", Box::new(IPOptions::with_default_addr()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[strip, opts, out]);
    let pipeline = b.build().unwrap();

    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(
        report.is_violated(),
        "expected a confirmed violation, got:\n{report}"
    );
    let ce = report
        .counterexamples
        .iter()
        .find(|c| c.confirmed)
        .expect("confirmed counterexample");
    // Replaying the witness on the native pipeline crashes as well.
    let mut native = {
        let mut b = Pipeline::builder();
        let strip = b.add("strip", Box::new(EthDecap::new()));
        let opts = b.add("opts", Box::new(IPOptions::with_default_addr()));
        let out = b.add("out", Box::new(Sink::new()));
        b.chain(&[strip, opts, out]);
        b.build().unwrap()
    };
    let outcome = native.push(Packet::from_bytes(ce.packet.clone()));
    assert!(
        outcome.is_crash(),
        "witness must crash natively: {outcome:?}"
    );
}

// ---------------------------------------------------------------------------
// Failure injection: planted bugs are found with witnesses
// ---------------------------------------------------------------------------

#[test]
fn buggy_ttl_element_is_caught_with_witness() {
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let ttl = b.add("ttl", Box::new(BuggyDecTTL::new()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[strip, chk, ttl, out]);
    let pipeline = b.build().unwrap();

    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(report.is_violated(), "{report}");
    let ce = &report.counterexamples[0];
    assert!(ce.confirmed);
    assert!(
        ce.description.contains("division by zero"),
        "{}",
        ce.description
    );
    // The witness packet has TTL zero in its IPv4 header.
    assert_eq!(ce.packet[14 + 8], 0);
}

#[test]
fn buggy_pipeline_from_presets_is_violated() {
    let pipeline = buggy_pipeline();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(report.is_violated(), "{report}");
    assert!(report.counterexamples.iter().any(|c| c.confirmed));
}

#[test]
fn correct_dec_ttl_is_not_flagged() {
    // Sanity: the correct DecTTL in the same position produces no violation.
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let ttl = b.add("ttl", Box::new(DecTTL::new()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[strip, chk, ttl, out]);
    let pipeline = b.build().unwrap();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(report.is_proven(), "{report}");
}

// ---------------------------------------------------------------------------
// Stateful elements (the paper's "currently experimenting with" set)
// ---------------------------------------------------------------------------

#[test]
fn middlebox_with_netflow_and_nat_is_crash_free() {
    let pipeline = middlebox_pipeline();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(report.is_proven(), "{report}");
}

#[test]
fn overflowing_counter_is_reported() {
    // The planted counter-overflow bug (the paper lists counter overflow as a
    // target defect class): the verifier must not prove it safe.
    let mut b = Pipeline::builder();
    let strip = b.add("strip", Box::new(EthDecap::new()));
    let chk = b.add("chk", Box::new(CheckIPHeader::new()));
    let ctr = b.add("ctr", Box::new(OverflowingCounter::new()));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[strip, chk, ctr, out]);
    let pipeline = b.build().unwrap();
    let mut verifier = Verifier::new();
    let report = verifier.verify(&pipeline, &Property::CrashFreedom);
    assert!(
        !report.is_proven(),
        "a counter that can overflow must not be proven crash-free:\n{report}"
    );
}

// ---------------------------------------------------------------------------
// Figure 2: the toy two-element pipeline
// ---------------------------------------------------------------------------

/// Element E1 of Figure 2: clamps negative inputs to zero.
struct ToyE1;
/// Element E2 of Figure 2: asserts its input is non-negative.
struct ToyE2;

impl Element for ToyE1 {
    fn type_name(&self) -> &'static str {
        "ToyE1"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: Packet) -> Action {
        let v = packet.get_u32(0).unwrap_or(0) as i32;
        let out = if v < 0 { 0 } else { v as u32 };
        packet.set_u32(0, out);
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("ToyE1", 1);
        let input = pb.local("in", 32);
        let out = pb.local("out", 32);
        let mut b = Block::new();
        b.assign(input, pkt(0, 4));
        b.if_else(
            slt(l(input), c(32, 0)),
            Block::with(|bb| {
                bb.assign(out, c(32, 0));
            }),
            Block::with(|bb| {
                bb.assign(out, l(input));
            }),
        );
        b.pkt_store(0, 4, l(out));
        b.emit(0);
        pb.finish(b).unwrap()
    }
}

impl Element for ToyE2 {
    fn type_name(&self) -> &'static str {
        "ToyE2"
    }
    fn output_ports(&self) -> usize {
        1
    }
    fn process(&mut self, mut packet: Packet) -> Action {
        let v = packet.get_u32(0).unwrap_or(0) as i32;
        if v < 0 {
            return Action::Crash(dataplane_ir::CrashReason::AssertionFailed {
                message: "in >= 0".into(),
            });
        }
        let out = if v < 10 { 10 } else { v as u32 };
        packet.set_u32(0, out);
        Action::Emit(0, packet)
    }
    fn model(&self) -> Program {
        let mut pb = ProgramBuilder::new("ToyE2", 1);
        let input = pb.local("in", 32);
        let out = pb.local("out", 32);
        let mut b = Block::new();
        b.assign(input, pkt(0, 4));
        b.assert(sle(c(32, 0), l(input)), "in >= 0");
        b.if_else(
            slt(l(input), c(32, 10)),
            Block::with(|bb| {
                bb.assign(out, c(32, 10));
            }),
            Block::with(|bb| {
                bb.assign(out, l(input));
            }),
        );
        b.pkt_store(0, 4, l(out));
        b.emit(0);
        pb.finish(b).unwrap()
    }
}

fn figure2_pipeline() -> Pipeline {
    let mut b = Pipeline::builder();
    let pad = b.add("pad", Box::new(CheckLength::new(4, 4096)));
    let e1 = b.add("e1", Box::new(ToyE1));
    let e2 = b.add("e2", Box::new(ToyE2));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[pad, e1, e2, out]);
    b.build().unwrap()
}

#[test]
fn figure2_composition_discharges_the_crash() {
    // E2 alone can crash; after E1 the crash segment is infeasible, so the
    // composed pipeline is crash-free — exactly the paper's Figure 2.
    let mut verifier = Verifier::new();

    // E2 alone (behind the length guard) is NOT crash-free.
    let mut b = Pipeline::builder();
    let pad = b.add("pad", Box::new(CheckLength::new(4, 4096)));
    let e2 = b.add("e2", Box::new(ToyE2));
    let out = b.add("out", Box::new(Sink::new()));
    b.chain(&[pad, e2, out]);
    let alone = b.build().unwrap();
    let report = verifier.verify(&alone, &Property::CrashFreedom);
    assert!(report.is_violated(), "{report}");
    let ce = &report.counterexamples[0];
    assert!(ce.confirmed);
    assert!(ce.packet[0] & 0x80 != 0, "witness word must be negative");

    // The full E1 -> E2 pipeline is crash-free.
    let report = verifier.verify(&figure2_pipeline(), &Property::CrashFreedom);
    assert!(report.is_proven(), "{report}");
    assert!(report.stats.suspects > 0);
}

// ---------------------------------------------------------------------------
// E2: bounded instructions
// ---------------------------------------------------------------------------

#[test]
fn router_instruction_bound_covers_concrete_executions() {
    let router = linear_router_pipeline();
    let mut verifier = Verifier::new();
    let bound = verifier.max_instructions(&router);
    assert!(bound.max_instructions > 0, "{bound}");
    assert!(bound.feasible_paths > 0, "{bound}");

    // Every concrete execution over a varied workload stays below the bound.
    let concrete_pipeline = linear_router_pipeline();
    let mut model_runtime = dataplane_pipeline::ModelRuntime::new(&concrete_pipeline);
    let mut max_concrete = 0u64;
    for pkt in dataplane_net::WorkloadGen::adversarial(99).batch(300) {
        let run = model_runtime.push(pkt);
        max_concrete = max_concrete.max(run.instructions);
    }
    assert!(
        bound.max_instructions >= max_concrete,
        "bound {} must cover the concrete maximum {}",
        bound.max_instructions,
        max_concrete
    );
    // And the bound is not absurdly loose (same order of magnitude as the
    // paper's ~3600-instruction figure).
    assert!(
        bound.max_instructions < 100_000,
        "bound {} is unreasonably loose",
        bound.max_instructions
    );

    // Proving the bound as a property succeeds, and proving a bound below the
    // concrete maximum fails.
    let report = verifier.verify(
        &linear_router_pipeline(),
        &Property::BoundedInstructions {
            max_instructions: bound.max_instructions,
        },
    );
    assert!(report.is_proven(), "{report}");
    let report = verifier.verify(
        &linear_router_pipeline(),
        &Property::BoundedInstructions {
            max_instructions: max_concrete / 2,
        },
    );
    assert!(!report.is_proven(), "{report}");
}

/// A witness packet: `len` bytes, zero except at the listed offsets.
fn sparse_packet(len: usize, set: &[(usize, u8)]) -> Vec<u8> {
    let mut packet = vec![0u8; len];
    for &(offset, byte) in set {
        packet[offset] = byte;
    }
    packet
}

#[test]
fn instruction_bounds_and_witnesses_are_pinned() {
    // (preset, pipeline, max, approximate, paths considered, feasible
    // paths, path, witness as (length, non-zero bytes)).
    type Row = (
        &'static str,
        fn() -> Pipeline,
        u64,
        bool,
        usize,
        usize,
        &'static str,
        Option<(usize, &'static [(usize, u8)])>,
    );
    let rows: [Row; 5] = [
        (
            "ip_router",
            ip_router_pipeline,
            4609,
            true,
            166,
            47,
            "cls,strip,chk,opts,rt,ttl1,enc1,out1",
            None,
        ),
        (
            "linear_router",
            linear_router_pipeline,
            4605,
            true,
            112,
            41,
            "cls,strip,chk,opts,rt,ttl,enc,sink",
            None,
        ),
        (
            "middlebox",
            middlebox_pipeline,
            1454,
            true,
            161,
            17,
            "strip,chk,flow,nat,enc,out",
            Some((4096, &[(14, 79), (16, 1), (17, 251), (23, 17)])),
        ),
        (
            "firewall",
            || firewall_pipeline(vec![]),
            739,
            true,
            43,
            18,
            "strip,chk,filter,rt,ttl,enc,out0",
            Some((
                4096,
                &[
                    (14, 76),
                    (16, 250),
                    (17, 13),
                    (22, 36),
                    (30, 70),
                    (31, 131),
                    (32, 241),
                    (33, 255),
                ],
            )),
        ),
        (
            "buggy",
            buggy_pipeline,
            1023,
            true,
            20,
            13,
            "cls,strip,opts,ttl,out",
            Some((4096, &[(12, 8), (14, 255), (22, 6)])),
        ),
    ];
    for (preset, pipeline, max, approximate, considered, feasible, path, witness) in rows {
        let bound = Verifier::new().max_instructions(&pipeline());
        assert_eq!(bound.max_instructions, max, "{preset}: {bound}");
        assert_eq!(bound.approximate, approximate, "{preset}: {bound}");
        assert_eq!(bound.paths_considered, considered, "{preset}: {bound}");
        assert_eq!(bound.feasible_paths, feasible, "{preset}: {bound}");
        assert_eq!(bound.path.join(","), path, "{preset}: {bound}");
        let witness = witness.map(|(len, set)| sparse_packet(len, set));
        assert_eq!(bound.witness, witness, "{preset}: witness bytes moved");
    }
}

#[test]
fn monolithic_baseline_counts_are_pinned() {
    let result = explore_monolithic(
        &firewall_pipeline(vec![]),
        &MonolithicConfig {
            max_paths: 3_000,
            max_segments_per_element: 20_000,
            ..MonolithicConfig::default()
        },
    );
    assert!(MonolithicConfig::default().check_feasibility);
    assert!(result.completed, "{result:?}");
    assert_eq!(result.paths_explored, 1031, "{result:?}");
    assert_eq!(result.feasible_crashes, 0, "{result:?}");
    assert_eq!(result.element_explorations, 8, "{result:?}");
}

#[test]
fn router_chain_counts_are_pinned() {
    // No stage aborts under the default budget. At two hops four checks
    // need more than 2 000 Fourier–Motzkin constraints, the old budget:
    // `an_aborted_fm_budget_leaves_its_check_undecided_and_says_why` pins
    // that, because where FM aborts depends on the elimination order,
    // which the preset golden report cannot see. (Release: three hops 399
    // composed paths / 570 solver calls, four hops 1495 / 2008, both with
    // no aborts.)
    for (hops, composed, solver_calls) in [(1, 25, 52), (2, 107, 176)] {
        let report = Verifier::new().verify(&router_chain(hops), &Property::CrashFreedom);
        assert!(report.is_proven(), "h = {hops}:\n{report}");
        let stats = &report.stats;
        let counts = (
            stats.composed_paths,
            stats.solver_calls,
            stats.fm_budget_aborts,
            stats.model_search_aborts,
        );
        assert_eq!(counts, (composed, solver_calls, 0, 0), "h = {hops}");
    }
}

// ---------------------------------------------------------------------------
// E6: reachability for a specific configuration
// ---------------------------------------------------------------------------

#[test]
fn reachability_holds_for_routed_destination() {
    let pipeline = firewall_pipeline(vec![]);
    let mut verifier = Verifier::new();
    let property = Property::Reachability {
        dst: Ipv4Addr::new(192, 168, 7, 7),
        dst_offset: 30,
        deliver_to: vec!["out1".to_string()],
        may_drop: vec!["strip".to_string(), "chk".to_string(), "ttl".to_string()],
    };
    let report = verifier.verify(&pipeline, &property);
    assert!(report.is_proven(), "{report}");
}

#[test]
fn reachability_fails_for_unrouted_destination() {
    let pipeline = firewall_pipeline(vec![]);
    let mut verifier = Verifier::new();
    let property = Property::Reachability {
        dst: Ipv4Addr::new(8, 8, 8, 8),
        dst_offset: 30,
        deliver_to: vec!["out0".to_string(), "out1".to_string()],
        may_drop: vec!["strip".to_string(), "chk".to_string(), "ttl".to_string()],
    };
    let report = verifier.verify(&pipeline, &property);
    assert!(
        report.is_violated(),
        "a destination with no route must be unreachable:\n{report}"
    );
    assert!(report.counterexamples.iter().any(|c| c.confirmed));
}

#[test]
fn reachability_with_blocking_filter_is_not_proven() {
    // A filter that can drop some sources means the destination is not
    // reachable from *every* source; the verifier must not claim a proof.
    let pipeline = firewall_pipeline(vec![Ipv4Addr::new(10, 0, 0, 66)]);
    let mut verifier = Verifier::new();
    let property = Property::Reachability {
        dst: Ipv4Addr::new(192, 168, 7, 7),
        dst_offset: 30,
        deliver_to: vec!["out1".to_string()],
        may_drop: vec!["strip".to_string(), "chk".to_string(), "ttl".to_string()],
    };
    let report = verifier.verify(&pipeline, &property);
    assert_ne!(report.verdict, Verdict::Proven, "{report}");
}

// ---------------------------------------------------------------------------
// Solver budgets
// ---------------------------------------------------------------------------

#[test]
fn an_aborted_fm_budget_leaves_its_check_undecided_and_says_why() {
    use dataplane_symbex::SolverConfig;
    use dataplane_verifier::VerifierOptions;
    // At two hops the chain has four checks that Fourier–Motzkin cannot
    // eliminate within 2 000 constraints; the model search finds no model
    // for them either. With nothing to retry them, each stays undecided
    // and names the stage that gave up.
    let pipeline = router_chain(2);
    let report = Verifier::with_options(VerifierOptions {
        solver: SolverConfig {
            max_fm_constraints: 2000,
            ..SolverConfig::default()
        },
        ..VerifierOptions::default()
    })
    .verify(&pipeline, &Property::CrashFreedom);
    assert_eq!(report.verdict, Verdict::Unknown, "{report}");
    assert_eq!(report.unproven.len(), 4, "{report}");
    for up in &report.unproven {
        assert!(
            up.reason
                .contains("fourier-motzkin aborted at its constraint budget"),
            "{}",
            up.reason
        );
    }
    assert_eq!(report.stats.fm_budget_aborts, 4, "{report}");
    assert_eq!(report.stats.model_search_aborts, 4, "{report}");

    // The default budget decides all four.
    let report = Verifier::new().verify(&pipeline, &Property::CrashFreedom);
    assert!(report.is_proven(), "{report}");
    assert_eq!(report.stats.fm_budget_aborts, 0, "{report}");
    assert_eq!(report.stats.model_search_aborts, 0, "{report}");
}

// ---------------------------------------------------------------------------
// Summary reuse
// ---------------------------------------------------------------------------

#[test]
fn summaries_are_reused_across_positions_and_pipelines() {
    let mut verifier = Verifier::new();
    // The reference router instantiates DecTTL, EthEncap, and Sink twice
    // each; summaries must be computed only once per distinct behaviour.
    let report = verifier.verify(&ip_router_pipeline(), &Property::CrashFreedom);
    assert!(report.stats.summaries_reused >= 3, "{report}");
    let computed_first = report.stats.summaries_computed;
    // Verifying a second pipeline built from the same element types computes
    // (almost) nothing new.
    let report = verifier.verify(&linear_router_pipeline(), &Property::CrashFreedom);
    assert!(report.stats.summaries_computed < computed_first, "{report}");
}

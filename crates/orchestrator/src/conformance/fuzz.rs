//! Seeded differential fuzzing of `Proven` scenarios.
//!
//! Every proven verdict is a universal claim: *no* packet sequence
//! violates the property. The fuzzer attacks that claim concretely —
//! streaming large seeded batches of random, adversarial, and
//! solver-model-seeded packets through the scenario's
//! [`dataplane_pipeline::ModelRuntime`] and checking each run with the
//! same violation predicate the verifier's counterexample confirmation
//! uses. A packet that violates a proven property is a **contradiction**
//! (a soundness bug) and is greedily shrunk before reporting.
//!
//! The unit of work is the [`FuzzJob`] **shard**: a fixed slice of one
//! scenario's packet stream with its own derived seeds and its own fresh
//! model runtime. Element state accumulates within a shard and never
//! across shards, so a shard's report is a pure function of the job and
//! the pinned options — which is what lets shards run on the in-process
//! pool or ride the worker fleet's pull dispatch and fold back
//! byte-identically by shard index.

use super::replay::{disposition_element, disposition_kind};
use super::report::{
    Contradiction, FuzzScenarioReport, FuzzShardReport, MAX_RECORDED_CONTRADICTIONS,
};
use super::shrink::shrink;
use crate::exec::ExecError;
use crate::executor::{Pool, ThreadBudget};
use crate::wire::{FuzzJob, ScenarioSpec};
use dataplane_net::{Ipv4Header, Packet, WorkloadGen};
use dataplane_pipeline::{model_run_fresh, Disposition, ModelRuntime, Pipeline};
use dataplane_symbex::{explore, Solver, SolverResult};
use dataplane_verifier::{run_violates_property, Property, VerifierOptions};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Packets per fuzz shard: small enough that a shard is a sub-second unit
/// the pull dispatcher can load-balance, large enough that per-shard
/// setup (pipeline parse, model-state build) stays noise.
pub const SHARD_PACKETS: u64 = 4096;

/// One round of splitmix64 — the seed-derivation mixer. Statistically
/// solid for stream splitting and dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of one generator stream within one shard: the base seed mixed
/// with the scenario index, the shard index, and a stream discriminator
/// (clean vs adversarial), each through a full mixing round so related
/// shards share no stream prefix.
fn stream_seed(base: u64, scenario_index: u32, shard_index: u32, stream: u64) -> u64 {
    splitmix64(
        splitmix64(splitmix64(base ^ u64::from(scenario_index)) ^ u64::from(shard_index)) ^ stream,
    )
}

/// Split a conformance run's packet budget into [`FuzzJob`] shards:
/// `total_packets` divided evenly across the scenarios (earlier scenarios
/// take the remainder), each scenario's share cut into shards of at most
/// [`SHARD_PACKETS`]. Shard 0 of every scenario additionally pushes the
/// solver-model-seeded packets. The returned order (scenario-major,
/// shard-minor) is the deterministic fold order.
pub fn plan_fuzz_shards(scenarios: &[ScenarioSpec], seed: u64, total_packets: u64) -> Vec<FuzzJob> {
    let count = scenarios.len() as u64;
    if count == 0 {
        return Vec::new();
    }
    let mut jobs = Vec::new();
    for (index, spec) in scenarios.iter().enumerate() {
        let scenario_index = index as u32;
        let share = total_packets / count + u64::from((index as u64) < total_packets % count);
        let mut remaining = share;
        let mut shard_index = 0u32;
        loop {
            let packets = remaining.min(SHARD_PACKETS);
            jobs.push(FuzzJob {
                scenario: spec.clone(),
                scenario_index,
                shard_index,
                seed,
                packets,
                model_seeds: shard_index == 0,
            });
            remaining -= packets;
            shard_index += 1;
            if remaining == 0 {
                break;
            }
        }
    }
    jobs
}

/// Whether the property's violation predicate applies to this *input*
/// packet. Crash freedom and instruction bounds are universal;
/// reachability only claims anything about packets that actually carry
/// the target address at the property's offset.
fn predicate_applies(property: &Property, bytes: &[u8]) -> bool {
    match property {
        Property::CrashFreedom | Property::BoundedInstructions { .. } => true,
        // A temporal spec quantifies over every packet's trace; header
        // atoms are resolved per packet inside the trace evaluator.
        Property::Temporal(_) => true,
        Property::Reachability {
            dst, dst_offset, ..
        } => {
            let off = *dst_offset as usize;
            bytes.len() >= off + 4 && bytes[off..off + 4] == dst.octets()
        }
    }
}

/// Aim a packet at a reachability property's target: write the
/// destination address at the property's offset and, when `fix_checksum`
/// is set, rewrite the IPv4 header checksum so well-formed packets stay
/// well-formed (adversarial streams keep their broken checksums — drops
/// at the header checker are what `may_drop` is for). Mirrors the
/// verifier's own counterexample materialisation byte for byte.
fn aim_at_target(property: &Property, bytes: &mut [u8], fix_checksum: bool) {
    let Property::Reachability {
        dst, dst_offset, ..
    } = property
    else {
        return;
    };
    let off = *dst_offset as usize;
    if bytes.len() < off + 4 {
        return;
    }
    bytes[off..off + 4].copy_from_slice(&dst.octets());
    if !fix_checksum {
        return;
    }
    let ip_start = off.saturating_sub(16);
    if bytes.len() >= ip_start + 20 {
        let mut hdr = bytes[ip_start..].to_vec();
        if Ipv4Header::rewrite_checksum(&mut hdr) {
            let hl = (((hdr[0] & 0x0f) as usize) * 4).min(hdr.len());
            bytes[ip_start..ip_start + hl].copy_from_slice(&hdr[..hl]);
        }
    }
}

/// Concrete packets materialised from the solver's Sat models: one per
/// satisfiable path segment of every element's symbolic exploration, plus
/// (for reachability) a copy aimed at the target address. These are the
/// packets the *verifier itself* considered interesting — boundary values
/// of every branch condition — and routinely hit paths random streams
/// miss.
fn model_seed_packets(
    pipeline: &Pipeline,
    property: &Property,
    options: &VerifierOptions,
) -> Vec<Vec<u8>> {
    let solver = Solver::with_config(options.solver.clone());
    let mut packets = Vec::new();
    for (_, node) in pipeline.iter() {
        let Ok(exploration) = explore(&node.element.model(), &options.engine) else {
            continue;
        };
        for segment in &exploration.segments {
            let SolverResult::Sat(model) = solver.check(&segment.constraint) else {
                continue;
            };
            let bytes = model.concrete_packet();
            if bytes.is_empty() {
                continue;
            }
            if matches!(property, Property::Reachability { .. }) {
                let mut aimed = bytes.clone();
                aim_at_target(property, &mut aimed, true);
                if aimed != bytes {
                    packets.push(aimed);
                }
            }
            packets.push(bytes);
        }
    }
    packets
}

/// Push one packet through the shard's runtime, account it, and record a
/// contradiction when the concrete run violates the proven property.
fn push_one(
    runtime: &mut ModelRuntime<'_>,
    pipeline: &Pipeline,
    property: &Property,
    bytes: Vec<u8>,
    report: &mut FuzzShardReport,
) {
    let packet_index = report.packets;
    report.packets += 1;
    let applicable = predicate_applies(property, &bytes);
    if applicable {
        report.checked += 1;
    }
    let run = runtime.push(Packet::from_bytes(bytes.clone()));
    match run.disposition {
        Disposition::Exited { .. } => report.forwarded += 1,
        Disposition::Dropped { .. } => report.dropped += 1,
        Disposition::Crashed { .. } => report.crashed += 1,
    }
    report.max_instructions = report.max_instructions.max(run.instructions);
    if !applicable || !run_violates_property(pipeline, property, &bytes, &run) {
        return;
    }
    report.contradiction_count += 1;
    if report.contradictions.len() >= MAX_RECORDED_CONTRADICTIONS {
        return;
    }
    // Shrink against a *fresh* runtime: the minimised form must violate
    // standalone, with the applicability gate intact so reachability
    // packets cannot be "shrunk" out of the property's scope.
    let mut violates_fresh = |candidate: &[u8]| {
        predicate_applies(property, candidate)
            && run_violates_property(
                pipeline,
                property,
                candidate,
                &model_run_fresh(pipeline, Packet::from_bytes(candidate.to_vec())),
            )
    };
    let reproduces_fresh = violates_fresh(&bytes);
    let shrunk = reproduces_fresh.then(|| shrink(&bytes, &mut violates_fresh));
    report.contradictions.push(Contradiction {
        packet: bytes,
        shrunk,
        disposition: disposition_kind(&run.disposition).to_string(),
        at: disposition_element(pipeline, &run.disposition),
        instructions: run.instructions,
        packet_index,
        reproduces_fresh,
    });
}

/// Run one fuzz shard: instantiate the scenario from its config text,
/// build a fresh model runtime, push the shard's model-seeded packets
/// (shard 0 only) and its slice of the seeded clean/adversarial streams,
/// and report counts plus contradictions. **The one shared
/// implementation** — the in-process pool and the worker protocol's
/// `fuzz` job both call this, which is what makes the two paths
/// byte-identical by construction.
pub fn run_fuzz_shard(
    job: &FuzzJob,
    options: &VerifierOptions,
) -> Result<FuzzShardReport, ExecError> {
    let scenario = job
        .scenario
        .to_scenario()
        .map_err(|e| ExecError::Job(format!("fuzz shard scenario does not instantiate: {e}")))?;
    let pipeline = &scenario.pipeline;
    let property = &scenario.property;
    let mut runtime = ModelRuntime::new(pipeline);
    let mut report = FuzzShardReport {
        scenario: scenario.label(),
        scenario_index: job.scenario_index,
        shard_index: job.shard_index,
        packets: 0,
        checked: 0,
        forwarded: 0,
        dropped: 0,
        crashed: 0,
        max_instructions: 0,
        model_seeds: 0,
        contradiction_count: 0,
        contradictions: Vec::new(),
    };

    if job.model_seeds {
        for bytes in model_seed_packets(pipeline, property, options) {
            report.model_seeds += 1;
            push_one(&mut runtime, pipeline, property, bytes, &mut report);
        }
    }

    let mut clean = WorkloadGen::clean(stream_seed(
        job.seed,
        job.scenario_index,
        job.shard_index,
        0,
    ));
    let mut adversarial = WorkloadGen::adversarial(stream_seed(
        job.seed,
        job.scenario_index,
        job.shard_index,
        1,
    ));
    for i in 0..job.packets {
        // Alternate the streams so every shard exercises both well-formed
        // and malformed traffic; aim every packet at the reachability
        // target (fixing the checksum only on the clean stream — the
        // adversarial stream's broken headers are part of its job).
        let from_clean = i % 2 == 0;
        let generator = if from_clean {
            &mut clean
        } else {
            &mut adversarial
        };
        let mut bytes = generator.next_packet().into_bytes();
        aim_at_target(property, &mut bytes, from_clean);
        push_one(&mut runtime, pipeline, property, bytes, &mut report);
    }
    Ok(report)
}

/// Run fuzz shards on an in-process work-stealing pool of one thread per
/// `budget` permit, returning one report per job in input order (the same
/// contract as [`crate::exec::Executor::fuzz_jobs`]).
pub fn run_fuzz_jobs(
    jobs: &[FuzzJob],
    options: &VerifierOptions,
    budget: Arc<ThreadBudget>,
) -> Result<Vec<FuzzShardReport>, ExecError> {
    type Slot = Mutex<Option<Result<FuzzShardReport, ExecError>>>;
    let slots: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
    Pool::run(budget.total(), budget, |pool| {
        for (job, slot) in jobs.iter().zip(&slots) {
            pool.spawn(Box::new(move |_| {
                *slot.lock().expect("fuzz slot") = Some(run_fuzz_shard(job, options));
            }));
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fuzz slot")
                .expect("every fuzz slot filled")
        })
        .collect()
}

/// Fold shard reports into per-scenario reports, deterministically:
/// grouped by scenario index, shards consumed in shard-index order,
/// counts summed, instruction maxima maxed, recorded contradictions
/// concatenated. The fold is independent of which executor produced the
/// shards and in what order they completed.
pub fn fold_fuzz_shards(shards: Vec<FuzzShardReport>) -> Vec<FuzzScenarioReport> {
    let mut by_scenario: BTreeMap<u32, Vec<FuzzShardReport>> = BTreeMap::new();
    for shard in shards {
        by_scenario
            .entry(shard.scenario_index)
            .or_default()
            .push(shard);
    }
    by_scenario
        .into_values()
        .map(|mut shards| {
            shards.sort_by_key(|s| s.shard_index);
            let mut folded = FuzzScenarioReport {
                scenario: shards[0].scenario.clone(),
                shards: shards.len() as u32,
                packets: 0,
                checked: 0,
                forwarded: 0,
                dropped: 0,
                crashed: 0,
                max_instructions: 0,
                model_seeds: 0,
                contradiction_count: 0,
                contradictions: Vec::new(),
            };
            for shard in shards {
                folded.packets += shard.packets;
                folded.checked += shard.checked;
                folded.forwarded += shard.forwarded;
                folded.dropped += shard.dropped;
                folded.crashed += shard.crashed;
                folded.max_instructions = folded.max_instructions.max(shard.max_instructions);
                folded.model_seeds += shard.model_seeds;
                folded.contradiction_count += shard.contradiction_count;
                folded.contradictions.extend(shard.contradictions);
            }
            folded
        })
        .collect()
}

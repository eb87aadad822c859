//! `packet_conform`, staged: a sweep is already a sequence of public
//! calls — one `run_fuzz_shard` per proven scenario, then the fold — so
//! the replica is the sweep with a span around each. What a shard is made
//! of (packet generation, the model push, the instructions a packet
//! costs) is probed separately over the same scenarios and packet counts.

use super::Traced;
use crate::clock::{Meter, TimeSource};
use crate::trace::Trace;
use crate::workloads::packet_conform::{PacketConform, Verified, PACKETS_PER_SCENARIO};
use std::time::Duration;
use vericlick::net::{Packet, WorkloadGen};
use vericlick::orchestrator::conformance::{
    fold_fuzz_shards, plan_fuzz_shards, replay_report, run_fuzz_shard,
};
use vericlick::orchestrator::{ConformanceReport, ExecError, FuzzShardReport};
use vericlick::pipeline::{parse_config, ModelRuntime};
use vericlick::verifier::Verdict;

/// The deterministic text of a sweep's shard reports, folded the way a
/// conformance run folds them.
fn sweep_text(shards: Vec<FuzzShardReport>, trace: &mut Trace) -> String {
    let packets = shards.iter().map(|s| s.packets).sum();
    let fuzz = trace.leaf("conform.fold", || fold_fuzz_shards(shards));
    ConformanceReport {
        seed: 0,
        packets_requested: packets,
        replay: Vec::new(),
        fuzz,
        threads: 1,
        elapsed: Duration::ZERO,
    }
    .deterministic_json()
    .to_text()
}

/// `count` packets the way a shard draws them: clean and adversarial
/// streams alternating.
fn packets(seed: u64, count: u64) -> Vec<Packet> {
    let mut clean = WorkloadGen::clean(seed);
    let mut adversarial = WorkloadGen::adversarial(seed ^ 1);
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                clean.next_packet()
            } else {
                adversarial.next_packet()
            }
        })
        .collect()
}

impl Traced for PacketConform {
    const SIDE_OPS: usize = 3;

    fn prepare<T: TimeSource>(
        &mut self,
        meter: &mut Meter<T>,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let specs: Vec<_> = self
            .jobs(0)
            .iter()
            .map(|job| job.scenario.clone())
            .collect();
        let pipelines = specs
            .iter()
            .map(|spec| parse_config(&spec.config).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        trace.request(meter, |t| {
            t.batch("conformance.plan_shards_us", 16.0, || {
                for seed in 0..16 {
                    std::hint::black_box(plan_fuzz_shards(
                        &specs,
                        seed,
                        PACKETS_PER_SCENARIO * specs.len() as u64,
                    ));
                }
            });

            // Generation, then the same packets through the model
            // interpreter and through the native elements.
            let mut instructions = 0;
            for (index, pipeline) in pipelines.iter().enumerate() {
                let seed = index as u64;
                let generated = t.batch("net.workload_gen_ns", PACKETS_PER_SCENARIO as f64, || {
                    packets(seed, PACKETS_PER_SCENARIO)
                });
                let mut runtime = ModelRuntime::new(pipeline);
                t.batch("pipeline.model_push_ns", generated.len() as f64, || {
                    for packet in generated {
                        instructions += runtime.push(packet).instructions;
                    }
                });
                let mut native = parse_config(&specs[index].config).expect("parsed above");
                let again = packets(seed, PACKETS_PER_SCENARIO);
                t.batch("pipeline.native_push_ns", again.len() as f64, || {
                    for packet in again {
                        std::hint::black_box(native.push(packet));
                    }
                });
            }
            t.value(
                "ir.interp_instr_per_pkt",
                instructions as f64 / (PACKETS_PER_SCENARIO * pipelines.len() as u64) as f64,
            );
        });

        // Replay: every counterexample of the violated scenarios through a
        // fresh concrete runtime.
        let Verified { configs, matrix } = self.verified();
        trace.request(meter, |t| {
            for scenario in &matrix.scenarios {
                if scenario.report.verdict != Verdict::Violated {
                    continue;
                }
                let config = configs
                    .iter()
                    .find(|c| c.name == scenario.pipeline_name)
                    .ok_or("a violated scenario has no config")?;
                let pipeline = parse_config(&config.config).map_err(|e| e.to_string())?;
                let outcomes = t.leaf("conformance.replay_ms", || {
                    replay_report(&pipeline, &scenario.pipeline_name, &scenario.report)
                });
                if outcomes.iter().any(|o| !o.reproduced) {
                    return Err(format!("{}: replay mismatch", scenario.label()));
                }
            }
            Ok(())
        })
    }

    fn served_text(&self, out: &Self::Out) -> Result<String, String> {
        let shards = out
            .iter()
            .cloned()
            .collect::<Result<Vec<_>, ExecError>>()
            .map_err(|e| e.to_string())?;
        Ok(sweep_text(shards, &mut Trace::new()))
    }

    fn replica(&mut self, index: usize, trace: &mut Trace) -> Result<String, String> {
        let mut shards = Vec::new();
        for job in self.jobs(index) {
            let options = self.options();
            let shard = trace
                .leaf("conformance.fuzz_shard_ms", || run_fuzz_shard(job, options))
                .map_err(|e| e.to_string())?;
            shards.push(shard);
        }
        let (checked, pushed) = shards
            .iter()
            .fold((0, 0), |(c, p), s| (c + s.checked, p + s.packets));
        trace.value(
            "conformance.checked_ratio",
            checked as f64 / pushed.max(1) as f64,
        );
        Ok(sweep_text(shards, trace))
    }
}

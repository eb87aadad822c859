//! Differential conformance: concrete evidence for symbolic verdicts.
//!
//! The verifier's verdicts are claims about *all* packet sequences,
//! produced by composing per-element symbolic summaries. This module
//! family tests those claims against the concrete model interpreter, in
//! two directions:
//!
//! * [`replay`] — every `Violated` verdict's counterexample packet is
//!   pushed through a fresh [`dataplane_pipeline::ModelRuntime`]; the
//!   concrete run must violate the property exactly as predicted. A
//!   mismatch is a soundness bug and fails loudly with both traces.
//! * [`fuzz`] — every `Proven` verdict is bombarded with large seeded
//!   batches of clean, adversarial, and solver-model-seeded packets; a
//!   single violating packet is a **contradiction** of the proof. The
//!   stream is cut into [`wire::FuzzJob`](crate::wire::FuzzJob) shards
//!   that run on the in-process work-stealing pool or ride the worker
//!   fleet's pull dispatch — fixed seed ⇒ byte-identical
//!   [`ConformanceReport`] either way.
//! * [`mod@shrink`] — greedy byte/field minimisation of contradicting packets
//!   before they are reported.
//! * [`report`] — the schema-versioned report types and codecs, split
//!   into a deterministic document (the byte-identity contract) and an
//!   operational one (timings, threads).
//!
//! Surfaced end to end as
//! [`VerifyRequest::Conformance`](crate::service::VerifyRequest) through
//! [`VerifyService`](crate::service::VerifyService), and as
//! `vericlick conform` / `vericlick fuzz` on the command line.

pub mod fuzz;
pub mod replay;
pub mod report;
pub mod shrink;

pub use fuzz::{fold_fuzz_shards, plan_fuzz_shards, run_fuzz_jobs, run_fuzz_shard, SHARD_PACKETS};
pub use replay::{replay_matrix_json, replay_report};
pub use report::{
    shard_report_from_json, shard_report_to_json, ConformanceReport, Contradiction,
    FuzzScenarioReport, FuzzShardReport, ReplayOutcome, CONFORMANCE_SCHEMA,
    MAX_RECORDED_CONTRADICTIONS,
};
pub use shrink::{shrink, SHRINK_BUDGET};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ThreadBudget;
    use crate::wire::ScenarioSpec;
    use dataplane_verifier::{Property, VerifierOptions};

    fn spec(name: &str) -> ScenarioSpec {
        let make = crate::matrix::preset_pipelines()
            .into_iter()
            .find(|(preset, _)| *preset == name)
            .map(|(_, make)| make)
            .unwrap();
        ScenarioSpec {
            name: name.to_string(),
            config: dataplane_pipeline::write_config(&make()).unwrap(),
            property: Property::CrashFreedom,
        }
    }

    #[test]
    fn shard_planning_covers_the_budget_exactly() {
        let specs = vec![spec("ip_router"), spec("middlebox"), spec("firewall")];
        let jobs = plan_fuzz_shards(&specs, 7, 10_000);
        let total: u64 = jobs.iter().map(|j| j.packets).sum();
        assert_eq!(total, 10_000);
        // Every scenario gets exactly one model-seed shard: shard 0.
        for (index, _) in specs.iter().enumerate() {
            let shards: Vec<_> = jobs
                .iter()
                .filter(|j| j.scenario_index == index as u32)
                .collect();
            assert!(shards.iter().all(|j| j.model_seeds == (j.shard_index == 0)));
            assert!(!shards.is_empty());
            // Contiguous shard indices, SHARD_PACKETS-sized except the last.
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(shard.shard_index, i as u32);
                if i + 1 < shards.len() {
                    assert_eq!(shard.packets, SHARD_PACKETS);
                }
            }
        }
    }

    #[test]
    fn a_zero_packet_plan_still_pushes_model_seeds() {
        let jobs = plan_fuzz_shards(&[spec("ip_router")], 1, 0);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].packets, 0);
        assert!(jobs[0].model_seeds);
    }

    #[test]
    fn shard_reports_round_trip_through_json() {
        let options = VerifierOptions::default();
        let jobs = plan_fuzz_shards(&[spec("ip_router")], 42, 64);
        let report = run_fuzz_shard(&jobs[0], &options).unwrap();
        assert!(report.packets >= 64, "model seeds ride on top");
        assert!(report.model_seeds > 0);
        let decoded = shard_report_from_json(&shard_report_to_json(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn fuzz_shards_are_deterministic_under_a_fixed_seed() {
        let options = VerifierOptions::default();
        let jobs = plan_fuzz_shards(&[spec("middlebox")], 99, 200);
        let (two, four) = (ThreadBudget::new(2), ThreadBudget::new(4));
        let a = run_fuzz_jobs(&jobs, &options, two.clone()).unwrap();
        let b = run_fuzz_jobs(&jobs, &options, four.clone()).unwrap();
        assert_eq!(a, b, "thread count must not leak into shard reports");
        assert!(
            two.peak_in_use() > 0 && four.peak_in_use() > 0,
            "shards ran under the budget"
        );
        let folded = fold_fuzz_shards(a);
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].packets, 200 + folded[0].model_seeds);
    }
}

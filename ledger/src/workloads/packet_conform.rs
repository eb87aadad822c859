//! `packet_conform` — the conformance gate.
//!
//! Who it stands for: whoever has to *trust* a `Proven` verdict. The gate
//! pushes seeded clean and adversarial packets through the concrete model
//! interpreter of every proven scenario and looks for a packet that
//! contradicts the proof. Its cost is concrete interpretation
//! (`pipeline::ModelRuntime`, `ir::interp`, `net::workload`); the symbolic
//! stack does nothing inside the window.

use crate::clock::TimeSource;
use crate::harness::{Steps, Workload};
use crate::oracle::{check_verdicts, replay_violations};
use crate::variants::{mix, variant, FAMILIES};
use vericlick::orchestrator::conformance::{plan_fuzz_shards, run_fuzz_shard};
use vericlick::orchestrator::{
    config_scenarios, preset_properties, ExecError, FuzzJob, FuzzShardReport, MatrixReport,
    NamedConfig, ScenarioSpec, VerifyOutcome, VerifyRequest, VerifyService,
};
use vericlick::verifier::{Verdict, VerifierOptions};

/// Packets each proven scenario gets per sweep.
pub const PACKETS_PER_SCENARIO: u64 = 512;

pub struct PacketConform {
    /// One fixed shard list per op of the round: the proven scenarios,
    /// each with [`PACKETS_PER_SCENARIO`] packets of that sweep's streams.
    sweeps: Vec<Vec<FuzzJob>>,
    reference: Vec<Vec<FuzzShardReport>>,
    options: VerifierOptions,
    /// The violated scenarios of this matrix are what replay is probed on.
    verified: Verified,
}

/// One sweep on the calling thread — no pool, so an op is one thread's
/// work from start to end.
pub fn sweep(
    jobs: &[FuzzJob],
    options: &VerifierOptions,
) -> Vec<Result<FuzzShardReport, ExecError>> {
    jobs.iter()
        .map(|job| run_fuzz_shard(job, options))
        .collect()
}

/// The five seeded family configs and their verified matrix.
pub struct Verified {
    pub configs: Vec<NamedConfig>,
    pub matrix: MatrixReport,
}

/// The five seeded family configs, verified and checked against the
/// table; returns them with the specs of the proven scenarios.
pub fn proven_specs(seed: u64) -> Result<(Verified, Vec<ScenarioSpec>), String> {
    let configs: Vec<NamedConfig> = FAMILIES.iter().map(|f| variant(seed, f, 0)).collect();
    let scenarios = config_scenarios(&configs, &preset_properties).map_err(|e| e.to_string())?;
    let response = VerifyService::new()
        .with_threads(1)
        .serve(VerifyRequest::Matrix { scenarios })
        .map_err(|e| e.to_string())?;
    let VerifyOutcome::Matrix(matrix) = response.outcome else {
        return Err("a matrix request did not return a matrix".into());
    };
    check_verdicts(&matrix)
        .and_then(|()| replay_violations(&matrix, &configs))
        .map_err(|why| format!("generated configs break the verdict table: {why}"))?;
    let specs = matrix
        .scenarios
        .iter()
        .filter(|s| s.report.verdict == Verdict::Proven)
        .map(|s| ScenarioSpec {
            name: s.pipeline_name.clone(),
            config: configs
                .iter()
                .find(|c| c.name == s.pipeline_name)
                .expect("scenarios are named like their config")
                .config
                .clone(),
            property: s.report.property.clone(),
        })
        .collect();
    Ok((Verified { configs, matrix }, specs))
}

/// The shard list of sweep `round` under `seed`.
pub fn sweep_jobs(specs: &[ScenarioSpec], seed: u64, round: usize) -> Vec<FuzzJob> {
    let mut jobs = plan_fuzz_shards(
        specs,
        mix(seed ^ round as u64),
        PACKETS_PER_SCENARIO * specs.len() as u64,
    );
    for job in &mut jobs {
        // Model-seeded packets need the solver; the gate's own cost is
        // what this workload measures.
        job.model_seeds = false;
    }
    jobs
}

impl PacketConform {
    pub fn jobs(&self, index: usize) -> &[FuzzJob] {
        &self.sweeps[index % Self::ROUND_LEN]
    }

    pub fn options(&self) -> &VerifierOptions {
        &self.options
    }

    pub fn verified(&self) -> &Verified {
        &self.verified
    }
}

impl Workload for PacketConform {
    const NAME: &'static str = "packet_conform";
    const ROUND_LEN: usize = 8;
    const NOMINAL_OP_MS: f64 = 90.0;
    const CORRECTED: bool = true;
    type Out = Vec<Result<FuzzShardReport, ExecError>>;

    fn set_up<T: TimeSource>(seed: u64, _ops: usize, steps: &mut Steps<T>) -> Result<Self, String> {
        let (verified, specs) = steps.step("verify the five families", || proven_specs(seed))?;
        if specs.len() != 15 {
            return Err(format!(
                "{} proven scenarios, the table has 15",
                specs.len()
            ));
        }
        let sweeps: Vec<Vec<FuzzJob>> = steps.step("plan sweeps", || {
            (0..Self::ROUND_LEN)
                .map(|round| sweep_jobs(&specs, seed, round))
                .collect()
        });
        let options = VerifierOptions::default();
        // One pass over the round is both the reference and the warm-up.
        let mut reference = Vec::with_capacity(sweeps.len());
        for jobs in &sweeps {
            let reports = steps
                .step("reference sweep", || sweep(jobs, &options))
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            reference.push(reports);
        }
        Ok(PacketConform {
            sweeps,
            reference,
            options,
            verified,
        })
    }

    fn op(&mut self, index: usize) -> Self::Out {
        sweep(&self.sweeps[index % Self::ROUND_LEN], &self.options)
    }

    fn check(&mut self, index: usize, out: Self::Out) -> Result<(), String> {
        let reports = out
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for report in &reports {
            if report.contradiction_count != 0 {
                return Err(format!(
                    "{}: {} packets contradict the proof",
                    report.scenario, report.contradiction_count
                ));
            }
            if report.packets != PACKETS_PER_SCENARIO {
                return Err(format!(
                    "{}: pushed {} packets",
                    report.scenario, report.packets
                ));
            }
        }
        if reports != self.reference[index % Self::ROUND_LEN] {
            return Err("shard reports differ from the reference sweep".into());
        }
        Ok(())
    }
}

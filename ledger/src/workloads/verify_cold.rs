//! `verify_cold` — time to a first verdict.
//!
//! Who it stands for: an operator running `vericlick run` on a config
//! nobody verified before, or a CI runner with an empty cache. Nothing is
//! warm, so the op is Step-1 exploration of all eight elements plus the
//! full Step-2 suspect×prefix walk — about 85 % solver time.

use crate::clock::TimeSource;
use crate::harness::{Steps, Workload};
use crate::oracle::check_verdicts;
use crate::variants::variant;
use vericlick::orchestrator::{
    config_scenarios, preset_properties, NamedConfig, ServiceError, VerifyRequest, VerifyResponse,
    VerifyService,
};

/// The family every op verifies: the paper's 8-element linear IP router.
pub const FAMILY: &str = "linear_router";

pub struct VerifyCold {
    variants: Vec<NamedConfig>,
    /// The deterministic report each variant must produce, as text.
    reference: Vec<String>,
}

/// Verify `config` against its family's four preset properties on a
/// service that has never seen anything.
pub fn serve_cold(config: &NamedConfig) -> Result<VerifyResponse, ServiceError> {
    let scenarios = config_scenarios(std::slice::from_ref(config), &preset_properties)?;
    VerifyService::new()
        .with_threads(1)
        .serve(VerifyRequest::Matrix { scenarios })
}

impl VerifyCold {
    pub fn variants(&self) -> &[NamedConfig] {
        &self.variants
    }
}

impl Workload for VerifyCold {
    const NAME: &'static str = "verify_cold";
    const ROUND_LEN: usize = 8;
    const NOMINAL_OP_MS: f64 = 260.0;
    const CORRECTED: bool = true;
    type Out = Result<VerifyResponse, ServiceError>;

    fn set_up<T: TimeSource>(seed: u64, _ops: usize, steps: &mut Steps<T>) -> Result<Self, String> {
        let variants: Vec<NamedConfig> = steps.step("generate variants", || {
            (0..Self::ROUND_LEN as u32)
                .map(|v| variant(seed, FAMILY, v))
                .collect()
        });
        // The reference pass doubles as the warm-up: one cold verification
        // of every variant pages in the whole symbolic stack.
        let mut reference = Vec::with_capacity(variants.len());
        for config in &variants {
            let response = steps
                .step("reference answer", || serve_cold(config))
                .map_err(|e| format!("{FAMILY}: {e}"))?;
            check_verdicts(response.matrix().expect("a matrix response"))
                .map_err(|why| format!("generated config breaks the verdict table: {why}"))?;
            reference.push(response.deterministic_json().to_text());
        }
        Ok(VerifyCold {
            variants,
            reference,
        })
    }

    fn op(&mut self, index: usize) -> Self::Out {
        serve_cold(&self.variants[index % Self::ROUND_LEN])
    }

    fn check(&mut self, index: usize, out: Self::Out) -> Result<(), String> {
        let response = out.map_err(|e| e.to_string())?;
        let matrix = response.matrix().ok_or("not a matrix response")?;
        check_verdicts(matrix)?;
        if matrix.explore_jobs != 8 || matrix.cached_jobs != 0 {
            return Err(format!(
                "not cold: {} explore jobs, {} cached",
                matrix.explore_jobs, matrix.cached_jobs
            ));
        }
        if response.deterministic_json().to_text() != self.reference[index % Self::ROUND_LEN] {
            return Err("deterministic report differs from the reference".into());
        }
        Ok(())
    }
}

//! `reverify_warm` — the watch session's steady state.
//!
//! Who it stands for: a developer with `vericlick watch` (or a daemon
//! session) open, saving an edit every few seconds. The store is warm and
//! the edits touch configs whose recomposition is light, so the heavy
//! solver is bypassed and what a tick costs is parsing, diffing,
//! fingerprinting, planning, the store, two small explorations, and the
//! temporal product.

use crate::clock::TimeSource;
use crate::harness::{Steps, Workload};
use crate::oracle::{check_verdicts, replay_violations};
use crate::variants::{EditScript, EDITED};
use vericlick::orchestrator::NamedConfig;
use vericlick::orchestrator::{
    DiffKind, PropertySelect, ServiceError, SummaryStore, VerifyOutcome, VerifyRequest,
    VerifyResponse, VerifyService,
};
use vericlick::verifier::VerifierOptions;

/// Ticks served before the window opens.
pub const WARM_UP_TICKS: usize = 60;

/// The request a tick submits: the whole config set, preset properties.
pub fn watch_request(configs: &[NamedConfig]) -> VerifyRequest {
    VerifyRequest::Watch {
        configs: configs.to_vec(),
        properties: PropertySelect::Preset,
    }
}

/// The session's first request: all five baseline configs, which the
/// service verifies in full (20 scenarios) and keeps as the baseline.
/// Checks the table and replays every counterexample.
pub fn establish_baseline(service: &VerifyService, script: &EditScript) -> Result<(), String> {
    let configs = script.baseline();
    let response = service
        .serve(VerifyRequest::Watch {
            configs: configs.clone(),
            properties: PropertySelect::Preset,
        })
        .map_err(|e| e.to_string())?;
    let VerifyOutcome::Matrix(matrix) = &response.outcome else {
        return Err("the first watch request did not verify the full matrix".into());
    };
    if matrix.scenarios.len() != 20 {
        return Err(format!("baseline has {} scenarios", matrix.scenarios.len()));
    }
    check_verdicts(matrix)
        .and_then(|()| replay_violations(matrix, &configs))
        .map(|_| ())
        .map_err(|why| format!("generated configs break the verdict table: {why}"))
}

/// Whether `response` is what a tick must produce: exactly the two
/// edited configs re-verified (the routers and `buggy` diff `Identical`),
/// one exploration per edited config, and the table's verdicts.
pub fn check_tick(response: &VerifyResponse) -> Result<(), String> {
    let VerifyOutcome::Diff(diff) = &response.outcome else {
        return Err("a watch tick did not diff against the baseline".into());
    };
    for entry in &diff.entries {
        let edited = EDITED.iter().find(|(family, _)| *family == entry.name);
        let as_expected = match edited {
            Some((_, element)) => {
                entry.kind == DiffKind::ElementsChanged && entry.changed_elements == [*element]
            }
            None => entry.kind == DiffKind::Identical,
        };
        if !as_expected {
            return Err(format!(
                "{} diffed {:?} {:?}",
                entry.name, entry.kind, entry.changed_elements
            ));
        }
    }
    if diff.matrix.scenarios.len() != 8
        || diff.skipped_scenarios != 12
        || diff.matrix.explore_jobs != EDITED.len()
    {
        return Err(format!(
            "{} scenarios re-verified, {} skipped, {} explore jobs",
            diff.matrix.scenarios.len(),
            diff.skipped_scenarios,
            diff.matrix.explore_jobs
        ));
    }
    check_verdicts(&diff.matrix)
}

/// What a staged replica of the session (`crate::layers`) carries from
/// tick to tick: a store kept in step with the service's, so the replica
/// meets the same misses and hits.
pub struct Shadow {
    pub store: SummaryStore,
    pub options: VerifierOptions,
}

impl Default for Shadow {
    fn default() -> Self {
        Shadow {
            store: SummaryStore::in_memory(),
            options: VerifierOptions::default(),
        }
    }
}

pub struct ReverifyWarm {
    service: VerifyService,
    /// Warm-up ticks, then the window's.
    ticks: Vec<Vec<NamedConfig>>,
    shadow: Shadow,
}

impl ReverifyWarm {
    pub fn tick(&self, index: usize) -> &[NamedConfig] {
        &self.ticks[WARM_UP_TICKS + index]
    }

    /// The config set the session's baseline holds when op `index` runs.
    pub fn previous_tick(&self, index: usize) -> &[NamedConfig] {
        &self.ticks[WARM_UP_TICKS + index - 1]
    }

    pub fn service(&self) -> &VerifyService {
        &self.service
    }

    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }
}

fn check_served(out: Result<VerifyResponse, ServiceError>) -> Result<(), String> {
    check_tick(&out.map_err(|e| e.to_string())?)
}

impl Workload for ReverifyWarm {
    const NAME: &'static str = "reverify_warm";
    const ROUND_LEN: usize = 1;
    const NOMINAL_OP_MS: f64 = 20.0;
    const CORRECTED: bool = true;
    type Out = Result<VerifyResponse, ServiceError>;

    fn set_up<T: TimeSource>(seed: u64, ops: usize, steps: &mut Steps<T>) -> Result<Self, String> {
        let script = EditScript::new(seed);
        let ticks: Vec<Vec<NamedConfig>> = steps.step("generate edit script", || {
            (0..WARM_UP_TICKS + ops).map(|t| script.tick(t)).collect()
        });
        let service = VerifyService::new().with_threads(1);
        steps.step("verify baseline", || establish_baseline(&service, &script))?;
        for (t, tick) in ticks.iter().take(WARM_UP_TICKS).enumerate() {
            let out = steps.step("warm-up tick", || service.serve(watch_request(tick)));
            check_served(out).map_err(|why| format!("warm-up tick {t}: {why}"))?;
        }
        Ok(ReverifyWarm {
            service,
            ticks,
            shadow: Shadow::default(),
        })
    }

    fn op(&mut self, index: usize) -> Self::Out {
        self.service
            .serve(watch_request(&self.ticks[WARM_UP_TICKS + index]))
    }

    fn check(&mut self, _index: usize, out: Self::Out) -> Result<(), String> {
        check_served(out)
    }
}

//! The correctness checks every workload shares: verdicts against the
//! hand-written table, counterexamples against the concrete interpreter.

use crate::expected::{expected, Expected};
use vericlick::orchestrator::conformance::replay_report;
use vericlick::orchestrator::{MatrixReport, NamedConfig};
use vericlick::pipeline::parse_config;
use vericlick::verifier::Verdict;

/// Every scenario of `matrix` has the verdict the table gives its family
/// and property class. `Unknown` never matches.
pub fn check_verdicts(matrix: &MatrixReport) -> Result<(), String> {
    for scenario in &matrix.scenarios {
        let property = scenario.report.property.name();
        let want = expected(&scenario.pipeline_name, &property).ok_or_else(|| {
            format!(
                "{}/{property} is not a cell of the verdict table",
                scenario.pipeline_name
            )
        })?;
        let got = match scenario.report.verdict {
            Verdict::Proven => Some(Expected::Proven),
            Verdict::Violated => Some(Expected::Violated),
            Verdict::Unknown => None,
        };
        if got != Some(want) {
            return Err(format!(
                "{}/{property}: verdict {:?}, the table says {want:?}",
                scenario.pipeline_name, scenario.report.verdict
            ));
        }
    }
    Ok(())
}

/// Every counterexample of every `Violated` scenario of `matrix` violates
/// its property when pushed through a fresh concrete model runtime of the
/// config it was found in. Returns how many were replayed.
pub fn replay_violations(matrix: &MatrixReport, configs: &[NamedConfig]) -> Result<usize, String> {
    let mut replayed = 0;
    for scenario in &matrix.scenarios {
        if scenario.report.verdict != Verdict::Violated {
            continue;
        }
        let config = configs
            .iter()
            .find(|c| c.name == scenario.pipeline_name)
            .ok_or_else(|| format!("no config named {}", scenario.pipeline_name))?;
        let pipeline = parse_config(&config.config).map_err(|e| e.to_string())?;
        let outcomes = replay_report(&pipeline, &scenario.pipeline_name, &scenario.report);
        if outcomes.is_empty() {
            return Err(format!(
                "{}/{}: violated without a counterexample",
                scenario.pipeline_name,
                scenario.report.property.name()
            ));
        }
        for outcome in &outcomes {
            if !outcome.reproduced {
                return Err(format!(
                    "{}/{}: counterexample does not reproduce concretely ({} at {})",
                    outcome.scenario, outcome.property, outcome.disposition, outcome.at
                ));
            }
        }
        replayed += outcomes.len();
    }
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::variant;
    use crate::workloads::packet_conform::proven_specs;
    use vericlick::orchestrator::{
        config_scenarios, preset_properties, VerifyOutcome, VerifyRequest, VerifyService,
    };

    fn verify(configs: &[NamedConfig]) -> MatrixReport {
        let scenarios = config_scenarios(configs, &preset_properties).unwrap();
        let response = VerifyService::new()
            .with_threads(1)
            .serve(VerifyRequest::Matrix { scenarios })
            .unwrap();
        match response.outcome {
            VerifyOutcome::Matrix(matrix) => matrix,
            _ => panic!("a matrix request returns a matrix"),
        }
    }

    #[test]
    fn two_seeds_keep_the_whole_verdict_table_and_every_counterexample_replays() {
        for seed in [1, 2] {
            let (verified, proven) = proven_specs(seed).expect("the table holds");
            assert_eq!(verified.matrix.scenarios.len(), 20);
            assert_eq!(proven.len(), 15);
            assert!(replay_violations(&verified.matrix, &verified.configs).unwrap() >= 5);
        }
    }

    #[test]
    fn a_config_that_breaks_the_table_is_caught() {
        // `buggy`'s elements under the firewall's name: the table says the
        // firewall is crash-free, this pipeline is not.
        let mut config = variant(1, "buggy", 0);
        config.name = "firewall".into();
        config.config = config
            .config
            .replace("out ::", "out0 ::")
            .replace("-> out;", "-> out0;")
            + "out1 :: Sink();\n";
        let why = check_verdicts(&verify(&[config])).unwrap_err();
        assert!(why.contains("firewall/crash-freedom"), "{why}");
    }

    #[test]
    fn a_scenario_outside_the_table_is_an_error() {
        let mut config = variant(1, "middlebox", 0);
        config.name = "switch".into();
        let scenarios = config_scenarios(&[config], &|_| {
            vec![vericlick::verifier::Property::CrashFreedom]
        })
        .unwrap();
        let response = VerifyService::new()
            .with_threads(1)
            .serve(VerifyRequest::Matrix { scenarios })
            .unwrap();
        let why = check_verdicts(response.matrix().unwrap()).unwrap_err();
        assert!(why.contains("not a cell"), "{why}");
    }
}

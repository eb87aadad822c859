//! A1 — ablations of two design choices of the decomposed verifier:
//! summary-cache reuse on/off and prefix feasibility pruning on/off, measured
//! on the reference router's crash-freedom proof.

use dataplane_bench::row;
use dataplane_pipeline::presets::ip_router_pipeline;
use dataplane_symbex::EngineConfig;
use dataplane_verifier::{Property, Verifier, VerifierOptions};
use std::time::Instant;

fn run(label: &str, options: VerifierOptions, reuse_cache_across_runs: bool) {
    // "cache off" is approximated by re-creating the verifier for every run
    // so nothing is reused; "cache on" verifies twice with the same verifier
    // and reports the second (warm) run.
    let runs = if reuse_cache_across_runs { 2 } else { 1 };
    let mut verifier = Verifier::with_options(options);
    let mut last = None;
    let mut secs = 0.0;
    for _ in 0..runs {
        let start = Instant::now();
        let report = verifier.verify(&ip_router_pipeline(), &Property::CrashFreedom);
        secs = start.elapsed().as_secs_f64();
        last = Some(report);
    }
    let report = last.expect("at least one run");
    row(
        "a1-ablation",
        &[
            ("variant", label.to_string()),
            ("verdict", format!("{:?}", report.verdict)),
            ("solver_calls", report.stats.solver_calls.to_string()),
            ("composed_paths", report.stats.composed_paths.to_string()),
            (
                "summaries_computed",
                report.stats.summaries_computed.to_string(),
            ),
            ("seconds", format!("{secs:.3}")),
        ],
    );
}

fn main() {
    run("baseline", VerifierOptions::default(), false);
    run("warm-summary-cache", VerifierOptions::default(), true);
    run(
        "no-prefix-pruning",
        VerifierOptions {
            prune_prefixes: false,
            ..VerifierOptions::default()
        },
        false,
    );
    run(
        "no-counterexample-validation",
        VerifierOptions {
            validate_counterexamples: false,
            ..VerifierOptions::default()
        },
        false,
    );
    run(
        "decomposed-engine-explicit",
        VerifierOptions {
            engine: EngineConfig::decomposed(),
            ..VerifierOptions::default()
        },
        false,
    );
}

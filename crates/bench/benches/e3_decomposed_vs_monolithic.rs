//! E3 — the headline comparison: "our verification time was about 18
//! minutes; in contrast, when we fed the same code to the symbex engine
//! (without pipeline decomposition), verification did not complete within
//! 12 hours."
//!
//! Reproduced as a scaling *shape*: for router chains of growing length the
//! decomposed verifier's cost grows roughly linearly with the number of
//! elements (k·2ⁿ), while the monolithic baseline's path count grows
//! multiplicatively (2^(k·n)) and stops completing within its budget as soon
//! as the loop-heavy IP-options element joins the chain.

use dataplane_bench::{router_prefix_pipeline, row};
use dataplane_verifier::{explore_monolithic, MonolithicConfig, Property, Verifier};
use std::time::Instant;

fn main() {
    for k in 1..=7 {
        // Decomposed (the paper's approach). A fresh verifier per length so
        // the summary cache does not amortise across rows.
        let pipeline = router_prefix_pipeline(k);
        let start = Instant::now();
        let mut verifier = Verifier::new();
        let report = verifier.verify(&pipeline, &Property::CrashFreedom);
        let decomposed_secs = start.elapsed().as_secs_f64();

        // Monolithic baseline with a budget so the bench terminates.
        let pipeline = router_prefix_pipeline(k);
        let mono = explore_monolithic(
            &pipeline,
            &MonolithicConfig {
                max_paths: 20_000,
                max_segments_per_element: 20_000,
                check_feasibility: false,
            },
        );

        row(
            "e3-scaling",
            &[
                ("chain_length", k.to_string()),
                ("decomposed_verdict", format!("{:?}", report.verdict)),
                (
                    "decomposed_segments",
                    report.stats.total_segments.to_string(),
                ),
                (
                    "decomposed_composed_paths",
                    report.stats.composed_paths.to_string(),
                ),
                ("decomposed_seconds", format!("{decomposed_secs:.3}")),
                ("monolithic_completed", mono.completed.to_string()),
                ("monolithic_paths", mono.paths_explored.to_string()),
                (
                    "monolithic_seconds",
                    format!("{:.3}", mono.elapsed.as_secs_f64()),
                ),
            ],
        );
    }
}

//! E2 — "the longest pipeline executes up to about 3600 instructions per
//! packet, and we also identified the packet that yields this maximum."
//! Establishes the per-packet instruction bound of the full router chain,
//! compares it with the maximum observed over a concrete adversarial
//! workload, and reports the witness packet the verifier produced, replayed
//! on a fresh model runtime: the instructions it runs and whether it
//! follows the path the bound claims.

use dataplane_bench::{router_prefix_pipeline, row};
use dataplane_net::{Packet, WorkloadGen};
use dataplane_pipeline::{model_run_fresh, ModelRuntime};
use dataplane_verifier::Verifier;

fn main() {
    for k in [3, 5, 7] {
        let pipeline = router_prefix_pipeline(k);
        let mut verifier = Verifier::new();
        let bound = verifier.max_instructions(&pipeline);

        // Concrete maximum over a varied workload, for comparison.
        let concrete_pipeline = router_prefix_pipeline(k);
        let mut runtime = ModelRuntime::new(&concrete_pipeline);
        let mut concrete_max = 0u64;
        for pkt in WorkloadGen::adversarial(0xE2).batch(500) {
            concrete_max = concrete_max.max(runtime.push(pkt).instructions);
        }
        let (witness_instructions, witness_follows_path) = match &bound.witness {
            Some(witness) => {
                let run = model_run_fresh(&concrete_pipeline, Packet::from_bytes(witness.clone()));
                let hops: Vec<&str> = run
                    .hops
                    .iter()
                    .map(|&n| concrete_pipeline.node(n).name.as_str())
                    .collect();
                (
                    run.instructions.to_string(),
                    (hops == bound.path).to_string(),
                )
            }
            None => ("none".to_string(), "none".to_string()),
        };

        row(
            "e2-instruction-bound",
            &[
                ("pipeline", format!("chain-{k}")),
                ("verified_bound", bound.max_instructions.to_string()),
                (
                    "bound_kind",
                    if bound.approximate {
                        "upper-bound".to_string()
                    } else {
                        "exact".to_string()
                    },
                ),
                ("concrete_max", concrete_max.to_string()),
                (
                    "witness_bytes",
                    bound.witness.map(|w| w.len()).unwrap_or(0).to_string(),
                ),
                ("witness_instructions", witness_instructions),
                ("witness_follows_path", witness_follows_path),
                ("most_expensive_path", bound.path.join(">")),
                ("feasible_paths", bound.feasible_paths.to_string()),
                ("seconds", format!("{:.3}", bound.elapsed.as_secs_f64())),
            ],
        );
    }
}

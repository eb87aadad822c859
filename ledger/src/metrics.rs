//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end number each should move.
//! `BENCHMARK.json` says the same thing to the driver; a test keeps the
//! two in step. Later issues cite these names.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "verify_cold",
        "time to a first verdict on a never-seen 8-element router: all Step-1 exploration plus the full Step-2 solver walk, nothing cached",
    ),
    (
        "reverify_warm",
        "steady-state watch tick on a warm store: bypasses the heavy solver, so plan/diff/fingerprint/cache/temporal costs show",
    ),
    (
        "fleet_roundtrip",
        "the reverify_warm tick script through client, daemon and one TCP worker: the difference is the per-request cost of distribution",
    ),
    (
        "packet_conform",
        "conformance sweep of 7680 seeded packets through the concrete interpreter of the 15 proven scenarios: no symbolic work at all",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; also the A/A bound.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are three times the spreads two sets of ten runs showed on
/// the benchmark host, where that fits under the driver's limit of 0.25
/// (README, "Is the ledger itself steady?").
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("ops_per_s", "1/s", Higher, 0.15),
    end_to_end("op_ms_p50", "ms", Lower, 0.15),
    end_to_end("op_ms_p90", "ms", Lower, 0.25),
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.1),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, grouped by the end-to-end number they should move
/// (README, "Per-layer metrics"). Durations are speed-corrected medians
/// per call; the rest are exact counts or ratios.
pub const PER_LAYER: [Layer; 65] = [
    // → verify_cold/op_ms_p50; predicted flat elsewhere.
    layer("core.outline_ms", "ms", Lower),
    layer("core.shard_walk_ms", "ms", Lower),
    layer("core.fold_ms", "ms", Lower),
    layer("core.verify_inline_ms", "ms", Lower),
    layer("core.suspects", "count", Lower),
    layer("core.composed_paths", "count", Lower),
    layer("core.outline_units", "count", Lower),
    layer("symbex.solver_check_us", "us", Lower),
    layer("symbex.prefilter_us", "us", Lower),
    layer("symbex.solver_calls", "count", Lower),
    layer("symbex.prefilter_decided_ratio", "ratio", Higher),
    layer("symbex.escalations", "count", Lower),
    // → reverify_warm/op_ms_p50; at most 3 % of verify_cold.
    layer("symbex.explore_us", "us", Lower),
    layer("symbex.segments", "count", Lower),
    layer("pipeline.parse_config_us", "us", Lower),
    layer("pipeline.diff_us", "us", Lower),
    layer("fingerprint.element_us", "us", Lower),
    layer("service.plan_request_us", "us", Lower),
    layer("cache.get_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("executor.pool_job_us", "us", Lower),
    layer("temporal.compile_us", "us", Lower),
    layer("temporal.buchi_states", "count", Lower),
    layer("temporal.product_states", "count", Lower),
    layer("core.temporal_verify_ms", "ms", Lower),
    // → fleet_roundtrip/op_ms_p50 and op_ms_p90.
    layer("json.parse_us_per_kb", "us/kB", Lower),
    layer("json.to_text_us_per_kb", "us/kB", Lower),
    layer("wire.request_encode_us", "us", Lower),
    layer("wire.request_decode_us", "us", Lower),
    layer("wire.plan_encode_us", "us", Lower),
    layer("wire.plan_decode_us", "us", Lower),
    layer("wire.report_encode_us", "us", Lower),
    layer("wire.report_decode_us", "us", Lower),
    layer("wire.shard_result_encode_us", "us", Lower),
    layer("wire.shard_result_decode_us", "us", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("wire.report_bytes", "bytes", Lower),
    layer("persist.summary_encode_us", "us", Lower),
    layer("persist.summary_decode_us", "us", Lower),
    layer("persist.summary_bytes", "bytes", Lower),
    layer("pipeline.write_config_us", "us", Lower),
    layer("exec.frame_roundtrip_us", "us", Lower),
    layer("exec.worker_job_ms", "ms", Lower),
    layer("exec.fleet_request_ms", "ms", Lower),
    layer("exec.jobs_dispatched", "count", Lower),
    layer("exec.summaries_shipped", "count", Lower),
    layer("exec.summary_bytes_shipped", "bytes", Lower),
    layer("exec.summaries_deduped", "count", Higher),
    layer("daemon.connect_ms", "ms", Lower),
    layer("daemon.overhead_ms", "ms", Lower),
    // → packet_conform/ops_per_s.
    layer("pipeline.model_push_ns", "ns", Lower),
    layer("ir.interp_instr_per_pkt", "count", Lower),
    layer("net.workload_gen_ns", "ns", Lower),
    layer("conformance.fuzz_shard_ms", "ms", Lower),
    layer("conformance.plan_shards_us", "us", Lower),
    layer("conformance.replay_ms", "ms", Lower),
    layer("conformance.checked_ratio", "ratio", Higher),
    // Standing rows: no end-to-end target.
    layer("pipeline.native_push_ns", "ns", Lower),
    layer("cache.disk_store_ms", "ms", Lower),
    layer("cache.disk_load_ms", "ms", Lower),
    layer("service.unattributed_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("ref.probe_ns_p50", "ns", Lower),
    layer("ref.slow_share", "ratio", Lower),
];

/// How long one run measures, in seconds: what the driver passes as
/// `--seconds`. Four workloads, each run with its set-ups, 92 runs and two
/// builds have to fit the driver's 57 minutes with the host in its slow
/// regime.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"ledger/Cargo.toml\", \"--\"],\n  \"paths\": [\"ledger\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minijson::{self, Value};

    /// `BENCHMARK.json` at the repo root, when the ledger is tested from a
    /// full checkout.
    fn committed_benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        minijson::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or("")
    }

    #[test]
    fn names_are_unique_and_within_the_drivers_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            committed,
            super::benchmark_json(),
            "regenerate with `ledger benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn benchmark_json_says_what_this_table_says() {
        let doc = committed_benchmark_json();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(RUN_SECONDS))
        );
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "why"), why);
        }
        let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(metric.bound)
            );
        }
        let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
        }
    }
}

//! The scenario matrix: every preset pipeline × every property class, and
//! the aggregate machine-readable report a matrix run produces.

use crate::cache::CacheStats;
use crate::codec::to_json;
use crate::json::Json;
use dataplane_pipeline::presets::{
    buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
    middlebox_pipeline,
};
use dataplane_pipeline::Pipeline;
use dataplane_temporal::LtlSpec;
use dataplane_verifier::{Property, Report, Verdict};
use std::fmt;
use std::net::Ipv4Addr;
use std::time::Duration;

/// A named preset-pipeline constructor.
pub type PresetPipeline = (&'static str, fn() -> Pipeline);

/// The preset pipelines, by name. `buggy` is included deliberately: the
/// matrix must demonstrate violation-finding, not only proofs.
pub fn preset_pipelines() -> Vec<PresetPipeline> {
    vec![
        ("ip_router", ip_router_pipeline as fn() -> Pipeline),
        ("linear_router", linear_router_pipeline),
        ("middlebox", middlebox_pipeline),
        ("firewall", || firewall_pipeline(vec![])),
        ("buggy", buggy_pipeline),
    ]
}

/// Per-packet instruction budget used by the matrix's bounded-execution
/// property (comfortably above the ~3.6k instructions the paper reports for
/// the longest pipeline, so a verdict other than `Proven` signals a crash
/// path, not a tight constant).
pub const MATRIX_INSTRUCTION_BOUND: u64 = 1_000_000;

/// The bundled temporal (LTL) spec for `pipeline` — the matrix's fourth
/// property class. Three are liveness/fairness specs expected to prove
/// (`ip_router`, `linear_router`, `middlebox`); two are planted
/// violations (`firewall`'s header checker drops malformed frames, and
/// `buggy` crashes), expected to yield confirmed lassos. All five are
/// header-free so every verdict is decided without a solver `Unknown`.
pub fn preset_temporal_spec(pipeline: &str) -> &'static str {
    match pipeline {
        // Termination: every packet is eventually forwarded or dropped
        // (the crash terminal is the only way to violate this).
        "ip_router" => "F (forwarded | dropped)",
        // Fairness: a packet that clears the header checker is never
        // starved of a disposition.
        "linear_router" => "G (at(chk) -> F (forwarded | dropped))",
        // Liveness through the stateful core: reaching the NAT commits
        // the pipeline to a disposition.
        "middlebox" => "G (at(nat) -> F (forwarded | dropped))",
        // Planted violation: the firewall *does* drop (malformed frames
        // at `chk`), so "never drops" must produce a confirmed lasso.
        "firewall" => "G !dropped",
        // Planted violation: the unchecked options walker crashes, so
        // termination fails with a crash-terminal lasso.
        "buggy" => "F (forwarded | dropped)",
        other => panic!("unknown preset pipeline '{other}'"),
    }
}

/// The four property classes of the paper's evaluation plus the temporal
/// extension, instantiated for `pipeline`. Reachability needs
/// per-pipeline knowledge (who delivers, who may legitimately drop),
/// which is what this table encodes.
pub fn preset_properties(pipeline: &str) -> Vec<Property> {
    let reachability = |dst: Ipv4Addr, deliver_to: &[&str], may_drop: &[&str]| {
        Property::Reachability {
            dst,
            // Every preset ingests Ethernet frames: the IPv4 destination
            // sits at byte 30.
            dst_offset: 30,
            deliver_to: deliver_to.iter().map(|s| s.to_string()).collect(),
            may_drop: may_drop.iter().map(|s| s.to_string()).collect(),
        }
    };
    let reach = match pipeline {
        "ip_router" => reachability(
            Ipv4Addr::new(10, 1, 2, 3),
            &["out0", "out1"],
            &["cls", "strip", "chk", "opts", "ttl0", "ttl1"],
        ),
        "linear_router" => reachability(
            Ipv4Addr::new(10, 1, 2, 3),
            &["sink"],
            &["cls", "strip", "chk", "opts", "ttl"],
        ),
        "middlebox" => reachability(
            Ipv4Addr::new(8, 8, 8, 8),
            &["out"],
            &["strip", "chk", "flow", "nat"],
        ),
        "firewall" => reachability(
            Ipv4Addr::new(10, 1, 2, 3),
            &["out0", "out1"],
            &["strip", "chk", "ttl"],
        ),
        "buggy" => reachability(Ipv4Addr::new(10, 1, 2, 3), &["out"], &["cls", "strip"]),
        other => panic!("unknown preset pipeline '{other}'"),
    };
    let temporal = Property::Temporal(
        LtlSpec::parse(preset_temporal_spec(pipeline)).expect("bundled temporal specs parse"),
    );
    vec![
        Property::CrashFreedom,
        Property::BoundedInstructions {
            max_instructions: MATRIX_INSTRUCTION_BOUND,
        },
        reach,
        temporal,
    ]
}

/// One cell of a verification matrix: a pipeline to verify and the property
/// to verify it against.
pub struct Scenario {
    /// Label of the pipeline (e.g. `"ip_router"`).
    pub pipeline_name: String,
    /// The pipeline itself (consumed by the run).
    pub pipeline: Pipeline,
    /// The property to check.
    pub property: Property,
}

impl Scenario {
    /// Build a scenario.
    pub fn new(pipeline_name: impl Into<String>, pipeline: Pipeline, property: Property) -> Self {
        Scenario {
            pipeline_name: pipeline_name.into(),
            pipeline,
            property,
        }
    }

    /// `pipeline/property` label used in reports and progress events.
    pub fn label(&self) -> String {
        format!("{}/{}", self.pipeline_name, self.property.name())
    }
}

/// The full verification matrix: every preset pipeline under every property
/// class (each scenario owns its own pipeline instance).
pub fn preset_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (name, make) in preset_pipelines() {
        for property in preset_properties(name) {
            scenarios.push(Scenario::new(name, make(), property));
        }
    }
    scenarios
}

/// The result of one scenario within a matrix run.
pub struct ScenarioReport {
    /// `pipeline` label.
    pub pipeline_name: String,
    /// The full verification report (verdict, counterexamples, stats).
    pub report: Report,
}

impl ScenarioReport {
    /// `pipeline/property` label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.pipeline_name, self.report.property.name())
    }
}

/// The aggregate result of a matrix run.
pub struct MatrixReport {
    /// Per-scenario reports, in the order the scenarios were submitted.
    pub scenarios: Vec<ScenarioReport>,
    /// Step-1 explore jobs that actually ran.
    pub explore_jobs: usize,
    /// Distinct element behaviours served by the warm store at plan time
    /// (jobs skipped).
    pub cached_jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// High-water mark of simultaneously working threads on the shared
    /// scheduler during this run (never exceeds `threads`, however many
    /// compositions fanned their shards out).
    pub peak_live_threads: usize,
    /// Summary-store activity during this run.
    pub cache: CacheStats,
    /// Registry/queue statistics when the run executed on a worker fleet
    /// (`None` for purely in-process runs). Operational data — excluded
    /// from the deterministic report form.
    pub stats: Option<crate::exec::DispatchStats>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl MatrixReport {
    /// `(proven, violated, unknown)` counts.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in &self.scenarios {
            match s.report.verdict {
                Verdict::Proven => counts.0 += 1,
                Verdict::Violated => counts.1 += 1,
                Verdict::Unknown => counts.2 += 1,
            }
        }
        counts
    }

    /// The machine-readable (operational) form of the report: everything,
    /// including timings, thread counts, and cache statistics.
    /// Schema-versioned for forward compatibility of persisted reports.
    pub fn to_json(&self) -> Json {
        let scenarios: Vec<Json> = self
            .scenarios
            .iter()
            .map(|s| {
                let report = &s.report;
                Json::obj([
                    ("pipeline", Json::str(&s.pipeline_name)),
                    ("property", Json::str(report.property.name())),
                    ("verdict", to_json(&report.verdict)),
                    (
                        "counterexamples",
                        Json::int(report.counterexamples.len() as u64),
                    ),
                    (
                        "confirmed_counterexamples",
                        Json::int(
                            report
                                .counterexamples
                                .iter()
                                .filter(|c| c.confirmed)
                                .count() as u64,
                        ),
                    ),
                    ("unproven_paths", Json::int(report.unproven.len() as u64)),
                    ("elements", Json::int(report.stats.elements as u64)),
                    (
                        "summaries_reused",
                        Json::int(report.stats.summaries_reused as u64),
                    ),
                    ("suspects", Json::int(report.stats.suspects as u64)),
                    ("discharged", Json::int(report.stats.discharged as u64)),
                    (
                        "composed_paths",
                        Json::int(report.stats.composed_paths as u64),
                    ),
                    ("solver_calls", Json::int(report.stats.solver_calls as u64)),
                    (
                        "fm_budget_aborts",
                        Json::int(report.stats.fm_budget_aborts as u64),
                    ),
                    (
                        "model_search_aborts",
                        Json::int(report.stats.model_search_aborts as u64),
                    ),
                    ("elapsed_micros", to_json(&report.elapsed)),
                ])
            })
            .collect();
        let (proven, violated, unknown) = self.verdict_counts();
        crate::wire::REPORT.stamp(Json::obj([
            ("kind", Json::str("matrix")),
            ("scenarios", Json::Arr(scenarios)),
            ("proven", Json::int(proven as u64)),
            ("violated", Json::int(violated as u64)),
            ("unknown", Json::int(unknown as u64)),
            ("explore_jobs", Json::int(self.explore_jobs as u64)),
            ("cached_jobs", Json::int(self.cached_jobs as u64)),
            ("threads", Json::int(self.threads as u64)),
            (
                "peak_live_threads",
                Json::int(self.peak_live_threads as u64),
            ),
            ("cache", to_json(&self.cache)),
            ("dispatch", to_json(&self.stats)),
            ("elapsed_micros", to_json(&self.elapsed)),
        ]))
    }

    /// The deterministic form of the report: per-scenario verdicts, full
    /// counterexamples, unproven paths, and work statistics — but no
    /// wall-clock times, thread counts, or cache weather. Two runs of the
    /// same scenarios under the same options serialise to byte-identical
    /// text whatever process or executor produced them; this is the
    /// document the cross-process byte-identity tests compare.
    pub fn deterministic_json(&self) -> Json {
        let (proven, violated, unknown) = self.verdict_counts();
        crate::wire::REPORT.stamp(Json::obj([
            ("kind", Json::str("matrix")),
            (
                "scenarios",
                Json::Arr(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("pipeline", Json::str(&s.pipeline_name)),
                                ("report", crate::wire::report_to_json(&s.report)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("proven", Json::int(proven as u64)),
            ("violated", Json::int(violated as u64)),
            ("unknown", Json::int(unknown as u64)),
        ]))
    }
}

impl fmt::Display for MatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (proven, violated, unknown) = self.verdict_counts();
        writeln!(
            f,
            "verification matrix: {} scenarios ({} proven, {} violated, {} unknown) in {:.3}s on {} threads (peak live {})",
            self.scenarios.len(),
            proven,
            violated,
            unknown,
            self.elapsed.as_secs_f64(),
            self.threads,
            self.peak_live_threads
        )?;
        writeln!(
            f,
            "  element jobs: {} explored, {} served warm; cache: {} memory hits, {} disk hits, {} persisted",
            self.explore_jobs,
            self.cached_jobs,
            self.cache.memory_hits,
            self.cache.disk_hits,
            self.cache.persisted
        )?;
        if let Some(d) = &self.stats {
            writeln!(
                f,
                "  fleet: {} workers (capacity {}, {} lost, {} suspect, {} idle), {} dispatched / {} completed / {} requeued ({} explore + {} compose + {} temporal + {} fuzz jobs)",
                d.workers,
                d.capacity,
                d.workers_lost,
                d.workers_suspect,
                d.workers_idle,
                d.jobs_dispatched,
                d.jobs_completed,
                d.jobs_requeued,
                d.explore_jobs,
                d.compose_jobs,
                d.temporal_jobs,
                d.fuzz_jobs
            )?;
            if d.compose_shards > 0 {
                writeln!(f, "  shards: {} compose shards offered", d.compose_shards)?;
            }
            writeln!(
                f,
                "  wire: {} summaries shipped ({} bytes), {} deduped",
                d.summaries_shipped, d.summary_bytes_shipped, d.summaries_deduped
            )?;
        }
        for s in &self.scenarios {
            writeln!(
                f,
                "  {:<44} {:>9} in {:>8.3}s (suspects {}, discharged {}, counterexamples {})",
                s.label(),
                format!("{:?}", s.report.verdict),
                s.report.elapsed.as_secs_f64(),
                s.report.stats.suspects,
                s.report.stats.discharged,
                s.report.counterexamples.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_preset_and_property_class() {
        let scenarios = preset_scenarios();
        let pipelines = preset_pipelines();
        assert_eq!(scenarios.len(), pipelines.len() * 4);
        for (name, _) in pipelines {
            let for_pipeline: Vec<_> = scenarios
                .iter()
                .filter(|s| s.pipeline_name == name)
                .collect();
            assert_eq!(for_pipeline.len(), 4, "{name}");
            assert!(for_pipeline
                .iter()
                .any(|s| matches!(s.property, Property::CrashFreedom)));
            assert!(for_pipeline
                .iter()
                .any(|s| matches!(s.property, Property::BoundedInstructions { .. })));
            assert!(for_pipeline
                .iter()
                .any(|s| matches!(s.property, Property::Reachability { .. })));
            assert!(for_pipeline
                .iter()
                .any(|s| matches!(s.property, Property::Temporal(_))));
        }
    }

    #[test]
    fn temporal_at_atoms_name_real_elements() {
        use dataplane_temporal::Atom;
        for (name, make) in preset_pipelines() {
            let pipeline = make();
            let spec = LtlSpec::parse(preset_temporal_spec(name)).unwrap();
            for atom in spec.formula().atoms() {
                if let Atom::At(instance) = atom {
                    assert!(
                        pipeline.find(&instance).is_some(),
                        "{name}: temporal spec names unknown element '{instance}'"
                    );
                }
            }
        }
    }

    #[test]
    fn reachability_names_refer_to_real_elements() {
        for (name, make) in preset_pipelines() {
            let pipeline = make();
            for property in preset_properties(name) {
                if let Property::Reachability {
                    deliver_to,
                    may_drop,
                    ..
                } = property
                {
                    for instance in deliver_to.iter().chain(may_drop.iter()) {
                        assert!(
                            pipeline.find(instance).is_some(),
                            "{name}: reachability names unknown element '{instance}'"
                        );
                    }
                }
            }
        }
    }
}

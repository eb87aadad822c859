//! The conformance subsystem's report types and their JSON codecs.
//!
//! Everything here obeys the same determinism contract as the matrix
//! report: the *deterministic* document is a pure function of the inputs
//! (scenarios, seed, packet count, pinned options) — no wall-clock, no
//! thread counts, no cache weather — so a fixed seed serialises to
//! byte-identical text whether the fuzz shards ran on the in-process pool
//! or were dispatched over a worker fleet.

use crate::codec::{field, from_json, record, to_json, Hex, Version};
use crate::json::Json;
use crate::wire::WireError;
use std::fmt;
use std::time::Duration;

/// Schema version of every conformance document (shard reports on the
/// wire, and the aggregate report's JSON forms).
pub const CONFORMANCE_SCHEMA: u64 = 1;

const SHARD: Version = Version {
    key: "schema",
    value: CONFORMANCE_SCHEMA,
    what: "conformance shard",
};

const REPORT: Version = Version {
    key: "schema",
    value: CONFORMANCE_SCHEMA,
    what: "conformance report",
};

/// The member of a conformance report holding its replay outcomes.
const REPLAY: &str = "replay";

/// How many contradictions a single fuzz shard records in full (packet
/// bytes, shrunk form, trace). Contradictions beyond the cap are still
/// *counted* — only their bytes are elided, so a pathological run cannot
/// balloon the wire frames.
pub const MAX_RECORDED_CONTRADICTIONS: usize = 8;

/// A fuzzed packet whose concrete model execution contradicted a `Proven`
/// verdict — the fuzzer's equivalent of a soundness bug, reported with
/// everything needed to reproduce it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contradiction {
    /// The offending packet, exactly as pushed.
    pub packet: Vec<u8>,
    /// The greedily minimised packet that still violates the property on a
    /// fresh model runtime (`None` when the contradiction needs the
    /// shard's accumulated element state to reproduce).
    pub shrunk: Option<Vec<u8>>,
    /// Terminal disposition kind (`"exited"`, `"dropped"`, `"crashed"`).
    pub disposition: String,
    /// Instance name of the element where the run terminated.
    pub at: String,
    /// IR instructions the run executed.
    pub instructions: u64,
    /// Zero-based index of the packet within its shard's push order
    /// (model-seeded packets come first).
    pub packet_index: u64,
    /// Whether the violation also reproduces on a *fresh* model runtime
    /// (false means it depended on state earlier shard packets built up).
    pub reproduces_fresh: bool,
}

/// The result of one fuzz shard: counts and contradictions for one slice
/// of one proven scenario's seeded packet stream. This is the unit that
/// travels over the worker wire and the unit the deterministic fold
/// consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzShardReport {
    /// `pipeline/property` label of the fuzzed scenario.
    pub scenario: String,
    /// Index of the scenario in the conformance run.
    pub scenario_index: u32,
    /// Index of this shard within its scenario (the fold key).
    pub shard_index: u32,
    /// Packets pushed (model seeds included).
    pub packets: u64,
    /// Packets the property's violation predicate applied to (for
    /// reachability: packets actually carrying the target address).
    pub checked: u64,
    /// Packets that exited through an unconnected port.
    pub forwarded: u64,
    /// Packets dropped by some element.
    pub dropped: u64,
    /// Packets whose model execution crashed.
    pub crashed: u64,
    /// Highest per-packet instruction count observed.
    pub max_instructions: u64,
    /// Packets materialised from the solver's Sat models (0 unless this
    /// was the scenario's model-seed shard).
    pub model_seeds: u64,
    /// Total contradictions observed (recorded or not).
    pub contradiction_count: u64,
    /// The first [`MAX_RECORDED_CONTRADICTIONS`] contradictions in full.
    pub contradictions: Vec<Contradiction>,
}

record!(Contradiction {
    packet => "packet_hex" as Hex,
    shrunk => "shrunk_hex" as Hex,
    disposition => "disposition",
    at => "at",
    instructions => "instructions",
    packet_index => "packet_index",
    reproduces_fresh => "reproduces_fresh",
});

record!(FuzzShardReport {
    scenario => "scenario",
    scenario_index => "scenario_index",
    shard_index => "shard_index",
    packets => "packets",
    checked => "checked",
    forwarded => "forwarded",
    dropped => "dropped",
    crashed => "crashed",
    max_instructions => "max_instructions",
    model_seeds => "model_seeds",
    contradiction_count => "contradiction_count",
    contradictions => "contradictions",
});

/// Encode a fuzz shard report (the `"fuzz"` result payload of the worker
/// protocol).
pub fn shard_report_to_json(report: &FuzzShardReport) -> Json {
    SHARD.stamp(to_json(report))
}

/// Decode a fuzz shard report.
pub fn shard_report_from_json(json: &Json) -> Result<FuzzShardReport, WireError> {
    SHARD.check(json)?;
    from_json(json)
}

/// The deterministic fold of one scenario's shard reports, in shard-index
/// order: counts summed, instruction maxima maxed, recorded
/// contradictions concatenated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzScenarioReport {
    /// `pipeline/property` label.
    pub scenario: String,
    /// How many shards the scenario's stream was split into.
    pub shards: u32,
    /// Total packets pushed across all shards.
    pub packets: u64,
    /// Packets the violation predicate applied to.
    pub checked: u64,
    /// Packets that exited through an unconnected port.
    pub forwarded: u64,
    /// Packets dropped by some element.
    pub dropped: u64,
    /// Packets whose model execution crashed.
    pub crashed: u64,
    /// Highest per-packet instruction count across all shards.
    pub max_instructions: u64,
    /// Solver-model-seeded packets pushed.
    pub model_seeds: u64,
    /// Total contradictions across all shards.
    pub contradiction_count: u64,
    /// Recorded contradictions, concatenated in shard order.
    pub contradictions: Vec<Contradiction>,
}

record!(FuzzScenarioReport {
    scenario => "scenario",
    shards => "shards",
    packets => "packets",
    checked => "checked",
    forwarded => "forwarded",
    dropped => "dropped",
    crashed => "crashed",
    max_instructions => "max_instructions",
    model_seeds => "model_seeds",
    contradiction_count => "contradiction_count",
    contradictions => "contradictions",
});

/// The concrete re-execution of one symbolic counterexample: what the
/// verifier predicted, what the model runtime did, and whether they agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The pipeline's label.
    pub scenario: String,
    /// The violated property's name.
    pub property: String,
    /// The counterexample's description from the symbolic report.
    pub description: String,
    /// The element path the symbolic verifier predicted.
    pub symbolic_path: Vec<String>,
    /// The counterexample packet that was pushed.
    pub packet: Vec<u8>,
    /// Whether the concrete run violated the property as predicted. A
    /// `false` here is a soundness bug in the verifier or a divergence
    /// between the element models and the composition — it fails the run.
    pub reproduced: bool,
    /// Terminal disposition kind of the concrete run.
    pub disposition: String,
    /// Instance name of the element where the concrete run terminated.
    pub at: String,
    /// IR instructions the concrete run executed.
    pub instructions: u64,
    /// The element path the concrete run actually took.
    pub concrete_path: Vec<String>,
}

record!(ReplayOutcome {
    scenario => "scenario",
    property => "property",
    description => "description",
    symbolic_path => "symbolic_path",
    packet => "packet_hex" as Hex,
    reproduced => "reproduced",
    disposition => "disposition",
    at => "at",
    instructions => "instructions",
    concrete_path => "concrete_path",
});

/// The aggregate result of a conformance run: every counterexample
/// replayed, every proven scenario fuzzed.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The run's base seed.
    pub seed: u64,
    /// Total fuzz packets the run was asked to generate (split across the
    /// proven scenarios; model-seeded packets come on top).
    pub packets_requested: u64,
    /// One entry per replayed counterexample.
    pub replay: Vec<ReplayOutcome>,
    /// One entry per fuzzed (proven) scenario, in scenario order.
    pub fuzz: Vec<FuzzScenarioReport>,
    /// Pool threads the run used (operational only).
    pub threads: usize,
    /// Wall-clock time (operational only).
    pub elapsed: Duration,
}

impl ConformanceReport {
    /// Counterexamples whose concrete replay did *not* reproduce the
    /// symbolic violation.
    pub fn replay_mismatches(&self) -> usize {
        self.replay.iter().filter(|r| !r.reproduced).count()
    }

    /// Total fuzz contradictions across every scenario.
    pub fn contradictions(&self) -> u64 {
        self.fuzz.iter().map(|f| f.contradiction_count).sum()
    }

    /// Total packets actually pushed across every scenario.
    pub fn packets_pushed(&self) -> u64 {
        self.fuzz.iter().map(|f| f.packets).sum()
    }

    /// The run's verdict: every replay reproduced and zero contradictions.
    pub fn ok(&self) -> bool {
        self.replay_mismatches() == 0 && self.contradictions() == 0
    }

    fn body(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("kind", Json::str("conformance")),
            ("seed", to_json(&self.seed)),
            ("packets_requested", to_json(&self.packets_requested)),
            ("packets_pushed", to_json(&self.packets_pushed())),
            (REPLAY, to_json(&self.replay)),
            ("fuzz", to_json(&self.fuzz)),
            ("replay_mismatches", to_json(&self.replay_mismatches())),
            ("contradictions", to_json(&self.contradictions())),
            ("ok", to_json(&self.ok())),
        ]
    }

    /// The machine-readable (operational) document: the deterministic body
    /// plus timings and the thread count.
    pub fn to_json(&self) -> Json {
        let mut body = self.body();
        body.push(("threads", to_json(&self.threads)));
        body.push(("elapsed_micros", to_json(&self.elapsed)));
        REPORT.stamp(Json::obj(body))
    }

    /// The deterministic document: a pure function of scenarios, seed, and
    /// packet count — byte-identical across runs, processes, and executors
    /// (the in-process-vs-fleet byte-identity tests compare this form).
    pub fn deterministic_json(&self) -> Json {
        REPORT.stamp(Json::obj(self.body()))
    }

    /// Decode the deterministic document's replay outcomes (used by tests
    /// and tooling that inspect saved conformance reports).
    pub fn replay_from_json(json: &Json) -> Result<Vec<ReplayOutcome>, WireError> {
        REPORT.check(json)?;
        field(json, REPLAY)
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance: {} counterexamples replayed ({} mismatches), \
             {} packets fuzzed over {} scenarios ({} contradictions) in {:.3}s on {} threads",
            self.replay.len(),
            self.replay_mismatches(),
            self.packets_pushed(),
            self.fuzz.len(),
            self.contradictions(),
            self.elapsed.as_secs_f64(),
            self.threads,
        )?;
        for outcome in &self.replay {
            writeln!(
                f,
                "  replay {}/{}: {} — concrete run {} at {} ({} instr)",
                outcome.scenario,
                outcome.property,
                if outcome.reproduced {
                    "reproduced"
                } else {
                    "MISMATCH"
                },
                outcome.disposition,
                outcome.at,
                outcome.instructions,
            )?;
        }
        for fuzz in &self.fuzz {
            writeln!(
                f,
                "  fuzz {}: {} packets / {} shards, {} checked, max {} instr, {} contradictions",
                fuzz.scenario,
                fuzz.packets,
                fuzz.shards,
                fuzz.checked,
                fuzz.max_instructions,
                fuzz.contradiction_count,
            )?;
        }
        Ok(())
    }
}

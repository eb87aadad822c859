//! Wire codecs for the plan/execute split: everything a verification job
//! needs to cross a process boundary, expressed through the crate's own
//! [`Json`] model (the workspace's `serde` is an offline API stub, so
//! serialisation is explicit).
//!
//! The shapes on the wire:
//!
//! * [`PlanSpec`] — the first-class, serialisable job plan: scenarios (as
//!   config text + property), one [`JobSpec`] per distinct element
//!   behaviour, dependency edges, and the content fingerprints everything is
//!   keyed by. `vericlick plan` writes one; `vericlick exec-plan` (possibly
//!   another process, possibly another machine) executes it.
//! * [`crate::service::VerifyRequest`] — the front-door request, also fully
//!   serialisable ([`request_to_json`] / [`request_from_json`]).
//! * [`VerifierOptions`] — so a plan pins the exact budgets and engine
//!   configuration its fingerprints were computed under.
//! * [`Report`] — the deterministic verification result, byte-stable across
//!   processes ([`report_to_json`]); this is what the byte-identity
//!   acceptance tests compare.
//!
//! Every document carries a `schema` version field so persisted artifacts
//! stay recognisable as the formats evolve.

use crate::diff::{DiffEntry, DiffKind};
use crate::fingerprint::Fingerprint;
use crate::json::{Json, JsonError};
use crate::matrix::Scenario;
use crate::service::{PropertySelect, VerifyRequest};
use dataplane_pipeline::{parse_config, write_config, ConfigError, ConfigWriteError};
use dataplane_symbex::{CheckDiagnostics, EngineConfig, LoopMode, SolverConfig};
use dataplane_temporal::LtlSpec;
use dataplane_verifier::{
    CheckOutcome, CheckRecord, ComposeShardResult, Counterexample, Property, Report, ShardEdge,
    ShardNodeRecord, UnprovenPath, Verdict, VerificationStats, VerifierOptions,
};
use std::fmt;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Schema version of serialised [`PlanSpec`] documents. Version 2 tags
/// each job with its kind (`explore` / `compose`) and adds the optional
/// `bound` section for instruction-bound analyses; version 3 drops the
/// options' budget-retry keys (checks are decided at one budget).
pub const PLAN_SCHEMA: u64 = 3;

/// Schema version of serialised [`crate::service::VerifyRequest`] documents.
pub const REQUEST_SCHEMA: u64 = 1;

/// Schema version of the matrix / diff report JSON documents. Version 2
/// drops the budget-retry counters from each scenario's stats.
pub const REPORT_SCHEMA: u64 = 2;

/// A serialisation or deserialisation failure.
#[derive(Clone, Debug)]
pub enum WireError {
    /// The JSON text does not parse.
    Json(JsonError),
    /// A config string in the document does not parse into a pipeline.
    Config(ConfigError),
    /// A pipeline in the request cannot be rendered to config text.
    Write(ConfigWriteError),
    /// The document parses as JSON but not as the expected shape.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "wire: {e}"),
            WireError::Config(e) => write!(f, "wire: embedded config: {e}"),
            WireError::Write(e) => write!(f, "wire: pipeline not serialisable: {e}"),
            WireError::Malformed(m) => write!(f, "wire: malformed document: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Json(e)
    }
}

impl From<ConfigError> for WireError {
    fn from(e: ConfigError) -> Self {
        WireError::Config(e)
    }
}

impl From<ConfigWriteError> for WireError {
    fn from(e: ConfigWriteError) -> Self {
        WireError::Write(e)
    }
}

pub(crate) fn malformed(message: impl Into<String>) -> WireError {
    WireError::Malformed(message.into())
}

pub(crate) fn get<'a>(json: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    json.get(key)
        .ok_or_else(|| malformed(format!("missing field '{key}'")))
}

pub(crate) fn get_u64(json: &Json, key: &str) -> Result<u64, WireError> {
    get(json, key)?
        .as_u64()
        .ok_or_else(|| malformed(format!("field '{key}' is not an unsigned integer")))
}

pub(crate) fn get_usize(json: &Json, key: &str) -> Result<usize, WireError> {
    usize::try_from(get_u64(json, key)?)
        .map_err(|_| malformed(format!("field '{key}' exceeds usize")))
}

pub(crate) fn get_bool(json: &Json, key: &str) -> Result<bool, WireError> {
    get(json, key)?
        .as_bool()
        .ok_or_else(|| malformed(format!("field '{key}' is not a boolean")))
}

pub(crate) fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, WireError> {
    get(json, key)?
        .as_str()
        .ok_or_else(|| malformed(format!("field '{key}' is not a string")))
}

pub(crate) fn get_arr<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    get(json, key)?
        .as_arr()
        .ok_or_else(|| malformed(format!("field '{key}' is not an array")))
}

pub(crate) fn str_arr(items: &[Json]) -> Result<Vec<String>, WireError> {
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| malformed("expected an array of strings"))
        })
        .collect()
}

pub(crate) fn check_schema(json: &Json, expected: u64, what: &str) -> Result<(), WireError> {
    let schema = get_u64(json, "schema")?;
    if schema != expected {
        return Err(malformed(format!(
            "unsupported {what} schema {schema} (this build reads schema {expected})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Encode a property.
pub fn property_to_json(property: &Property) -> Json {
    match property {
        Property::CrashFreedom => Json::obj([("kind", Json::str("crash-freedom"))]),
        Property::BoundedInstructions { max_instructions } => Json::obj([
            ("kind", Json::str("bounded-instructions")),
            ("max_instructions", Json::int(*max_instructions)),
        ]),
        Property::Reachability {
            dst,
            dst_offset,
            deliver_to,
            may_drop,
        } => Json::obj([
            ("kind", Json::str("reachability")),
            ("dst", Json::str(dst.to_string())),
            ("dst_offset", Json::int(*dst_offset)),
            (
                "deliver_to",
                Json::Arr(deliver_to.iter().map(Json::str).collect()),
            ),
            (
                "may_drop",
                Json::Arr(may_drop.iter().map(Json::str).collect()),
            ),
        ]),
        // The spec travels as its canonical source text and is re-parsed on
        // decode, so the wire form stays readable and version-stable.
        Property::Temporal(spec) => Json::obj([
            ("kind", Json::str("temporal")),
            ("spec", Json::str(spec.source())),
        ]),
    }
}

/// Decode a property.
pub fn property_from_json(json: &Json) -> Result<Property, WireError> {
    match get_str(json, "kind")? {
        "crash-freedom" => Ok(Property::CrashFreedom),
        "bounded-instructions" => Ok(Property::BoundedInstructions {
            max_instructions: get_u64(json, "max_instructions")?,
        }),
        "reachability" => Ok(Property::Reachability {
            dst: get_str(json, "dst")?
                .parse::<Ipv4Addr>()
                .map_err(|_| malformed("reachability dst is not an IPv4 address"))?,
            dst_offset: u32::try_from(get_u64(json, "dst_offset")?)
                .map_err(|_| malformed("dst_offset exceeds u32"))?,
            deliver_to: str_arr(get_arr(json, "deliver_to")?)?,
            may_drop: str_arr(get_arr(json, "may_drop")?)?,
        }),
        "temporal" => Ok(Property::Temporal(
            LtlSpec::parse(get_str(json, "spec")?)
                .map_err(|e| malformed(format!("temporal spec: {e}")))?,
        )),
        other => Err(malformed(format!("unknown property kind '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Options (engine, solver)
// ---------------------------------------------------------------------------

/// Encode an engine configuration.
pub fn engine_to_json(engine: &EngineConfig) -> Json {
    Json::obj([
        ("max_segments", Json::int(engine.max_segments as u64)),
        ("max_branches", Json::int(engine.max_branches)),
        (
            "loop_mode",
            Json::str(match engine.loop_mode {
                LoopMode::Unroll => "unroll",
                LoopMode::Decompose => "decompose",
            }),
        ),
    ])
}

/// Decode an engine configuration.
pub fn engine_from_json(json: &Json) -> Result<EngineConfig, WireError> {
    Ok(EngineConfig {
        max_segments: get_usize(json, "max_segments")?,
        max_branches: get_u64(json, "max_branches")?,
        loop_mode: match get_str(json, "loop_mode")? {
            "unroll" => LoopMode::Unroll,
            "decompose" => LoopMode::Decompose,
            other => return Err(malformed(format!("unknown loop mode '{other}'"))),
        },
    })
}

fn solver_to_json(solver: &SolverConfig) -> Json {
    Json::obj([
        ("model_search_tries", Json::int(solver.model_search_tries)),
        ("max_packet_len", Json::int(solver.max_packet_len)),
        (
            "max_fm_constraints",
            Json::int(solver.max_fm_constraints as u64),
        ),
        ("search_seed", Json::int(solver.search_seed)),
    ])
}

fn solver_from_json(json: &Json) -> Result<SolverConfig, WireError> {
    Ok(SolverConfig {
        model_search_tries: u32::try_from(get_u64(json, "model_search_tries")?)
            .map_err(|_| malformed("model_search_tries exceeds u32"))?,
        max_packet_len: u32::try_from(get_u64(json, "max_packet_len")?)
            .map_err(|_| malformed("max_packet_len exceeds u32"))?,
        max_fm_constraints: get_usize(json, "max_fm_constraints")?,
        search_seed: get_u64(json, "search_seed")?,
    })
}

/// Encode verifier options.
pub fn options_to_json(options: &VerifierOptions) -> Json {
    Json::obj([
        ("prune_prefixes", Json::Bool(options.prune_prefixes)),
        (
            "validate_counterexamples",
            Json::Bool(options.validate_counterexamples),
        ),
        (
            "max_composed_paths",
            Json::int(options.max_composed_paths as u64),
        ),
        ("engine", engine_to_json(&options.engine)),
        ("solver", solver_to_json(&options.solver)),
    ])
}

/// Decode verifier options.
pub fn options_from_json(json: &Json) -> Result<VerifierOptions, WireError> {
    Ok(VerifierOptions {
        prune_prefixes: get_bool(json, "prune_prefixes")?,
        validate_counterexamples: get_bool(json, "validate_counterexamples")?,
        max_composed_paths: get_usize(json, "max_composed_paths")?,
        engine: engine_from_json(get(json, "engine")?)?,
        solver: solver_from_json(get(json, "solver")?)?,
    })
}

/// Content digest of a serialised [`VerifierOptions`] document — 32 hex
/// characters. Worker-protocol v4 hellos send this instead of the full
/// options on every reconnect: a worker that already holds the options
/// under this digest skips the transfer, one that does not asks for the
/// full document (see the `exec::worker` hello exchange).
pub fn options_digest(options: &VerifierOptions) -> String {
    crate::fingerprint::fingerprint_bytes(&options_to_json(options).to_text()).to_string()
}

// ---------------------------------------------------------------------------
// Scenarios and plans
// ---------------------------------------------------------------------------

/// One scenario on the wire: a named pipeline (as config text) and the
/// property to verify it against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The pipeline's label.
    pub name: String,
    /// The pipeline as config text ([`dataplane_pipeline::parse_config`]
    /// syntax).
    pub config: String,
    /// The property to check.
    pub property: Property,
}

impl ScenarioSpec {
    /// Render an in-memory scenario to its wire form (fails if the pipeline
    /// contains an element the config language cannot express).
    pub fn from_scenario(scenario: &Scenario) -> Result<ScenarioSpec, WireError> {
        Ok(ScenarioSpec {
            name: scenario.pipeline_name.clone(),
            config: write_config(&scenario.pipeline)?,
            property: scenario.property.clone(),
        })
    }

    /// Instantiate the scenario (parses the config text).
    pub fn to_scenario(&self) -> Result<Scenario, WireError> {
        Ok(Scenario::new(
            self.name.clone(),
            parse_config(&self.config)?,
            self.property.clone(),
        ))
    }
}

fn scenario_spec_to_json(spec: &ScenarioSpec) -> Json {
    Json::obj([
        ("name", Json::str(&spec.name)),
        ("config", Json::str(&spec.config)),
        ("property", property_to_json(&spec.property)),
    ])
}

fn scenario_spec_from_json(json: &Json) -> Result<ScenarioSpec, WireError> {
    Ok(ScenarioSpec {
        name: get_str(json, "name")?.to_string(),
        config: get_str(json, "config")?.to_string(),
        property: property_from_json(get(json, "property")?)?,
    })
}

/// One element-exploration job on the wire. A worker reconstructs the
/// element from the config factory (`type_name(config_args)`), checks that
/// the reconstruction's fingerprint matches, explores it, and returns the
/// summary — so a stale or mismatched worker build fails loudly instead of
/// silently caching the wrong behaviour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreJob {
    /// Content-addressed identity of the summary this job produces.
    pub fingerprint: Fingerprint,
    /// Element type name (a config-factory type).
    pub type_name: String,
    /// Factory argument string ([`dataplane_pipeline::Element::config_args`]).
    pub config_args: String,
}

/// One Step-2 composition job on the wire: the scenario (as config text +
/// property) and, per pipeline element, the fingerprint of the summary its
/// composition consumes. The summaries themselves travel alongside the job
/// in the dispatch frame (a fingerprint whose exploration exceeded its
/// budget ships no summary — the worker then re-attempts it inline and
/// reports the failure exactly as a local run would).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComposeJob {
    /// The scenario to compose.
    pub scenario: ScenarioSpec,
    /// Per pipeline element: the summary fingerprint the composition
    /// consumes, in pipeline order.
    pub fingerprints: Vec<Fingerprint>,
}

/// One Step-2 composition *shard* on the wire: a [`ComposeJob`]'s scenario
/// and summary fingerprints plus a contiguous `[start, end)` slice of the
/// deterministic *work-unit* enumeration — one unit per surviving suspect
/// check and one per solver-weighted feasibility edge, in the pre-order
/// walk of the interval-pruned prefix tree (see
/// `dataplane_verifier::ComposeOutline::total_weight`). Unit addressing
/// means a shard boundary may fall *inside* one suspect node's subtree; the
/// worker reproduces the enumeration locally, decides only the units in its
/// range (shipping partially-filled records with `null` slots for units
/// outside it), and the coordinator folds all ranges in sequential
/// enumeration order, so the report is byte-identical to an in-process run
/// at any shard size or fleet shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComposeShardJob {
    /// The scenario whose composition is being sharded.
    pub scenario: ScenarioSpec,
    /// Per pipeline element: the summary fingerprint the composition
    /// consumes, in pipeline order.
    pub fingerprints: Vec<Fingerprint>,
    /// Index of the scenario in the run — the sibling-group key: when one
    /// shard of a group reports a violation, the group's outstanding
    /// shards are cancelled.
    pub scenario_index: u32,
    /// First enumeration index this shard decides (inclusive).
    pub start: usize,
    /// One past the last enumeration index this shard decides.
    pub end: usize,
}

/// One conformance fuzz shard on the wire: a scenario (as config text +
/// property) and the slice of the seeded packet stream this shard pushes
/// through a fresh model runtime. The shard is both the determinism unit
/// and the state unit — element state (flow tables, NAT maps) accumulates
/// within a shard and never across shards, so a shard's report is a pure
/// function of this job and the pinned options, wherever it executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzJob {
    /// The proven scenario to fuzz.
    pub scenario: ScenarioSpec,
    /// Index of the scenario in the conformance run (part of the per-shard
    /// stream seed, so scenarios draw independent packet streams).
    pub scenario_index: u32,
    /// Index of this shard within its scenario (the fold key).
    pub shard_index: u32,
    /// The run's base seed (shards derive their stream seeds from it).
    pub seed: u64,
    /// Packets this shard generates and pushes.
    pub packets: u64,
    /// Additionally seed the stream with concrete packets materialised from
    /// the solver's Sat models of every element segment (shard 0 only —
    /// the model-seed set is per scenario, not per shard).
    pub model_seeds: bool,
}

/// One job a worker executes: a Step-1 exploration, a Step-2 composition,
/// or a conformance fuzz shard. This is the unit of the pull-based
/// dispatch protocol — all kinds of work travel over the same wire and
/// drain from the same queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// Explore one element behaviour.
    Explore(ExploreJob),
    /// Decide one scenario's composition from shipped summaries — a
    /// safety property through the suspect walk, a temporal (LTL) one
    /// through the Büchi-product search.
    Compose(ComposeJob),
    /// Decide one contiguous slice of a scenario's composition enumeration.
    ComposeShard(ComposeShardJob),
    /// Push one seeded packet-stream shard through a proven scenario.
    Fuzz(FuzzJob),
}

/// Encode an explore job (tagged with its kind, like every wire job).
pub fn explore_job_to_json(job: &ExploreJob) -> Json {
    Json::obj([
        ("kind", Json::str("explore")),
        ("fingerprint", Json::str(job.fingerprint.to_string())),
        ("type_name", Json::str(&job.type_name)),
        ("config_args", Json::str(&job.config_args)),
    ])
}

/// Decode an explore job.
pub fn explore_job_from_json(json: &Json) -> Result<ExploreJob, WireError> {
    Ok(ExploreJob {
        fingerprint: parse_fingerprint(get_str(json, "fingerprint")?)?,
        type_name: get_str(json, "type_name")?.to_string(),
        config_args: get_str(json, "config_args")?.to_string(),
    })
}

fn fingerprints_to_json(fps: &[Fingerprint]) -> Json {
    Json::Arr(fps.iter().map(|fp| Json::str(fp.to_string())).collect())
}

fn fingerprints_from_json(items: &[Json]) -> Result<Vec<Fingerprint>, WireError> {
    items
        .iter()
        .map(|fp| {
            parse_fingerprint(
                fp.as_str()
                    .ok_or_else(|| malformed("fingerprint is not a string"))?,
            )
        })
        .collect()
}

/// Encode a wire job of either kind.
pub fn job_to_json(job: &JobSpec) -> Json {
    match job {
        JobSpec::Explore(job) => explore_job_to_json(job),
        JobSpec::Compose(job) => Json::obj([
            ("kind", Json::str("compose")),
            ("scenario", scenario_spec_to_json(&job.scenario)),
            ("fingerprints", fingerprints_to_json(&job.fingerprints)),
        ]),
        JobSpec::ComposeShard(job) => Json::obj([
            ("kind", Json::str("compose-shard")),
            ("scenario", scenario_spec_to_json(&job.scenario)),
            ("fingerprints", fingerprints_to_json(&job.fingerprints)),
            ("scenario_index", Json::int(u64::from(job.scenario_index))),
            ("start", Json::int(job.start as u64)),
            ("end", Json::int(job.end as u64)),
        ]),
        JobSpec::Fuzz(job) => Json::obj([
            ("kind", Json::str("fuzz")),
            ("scenario", scenario_spec_to_json(&job.scenario)),
            ("scenario_index", Json::int(u64::from(job.scenario_index))),
            ("shard_index", Json::int(u64::from(job.shard_index))),
            ("seed", Json::int(job.seed)),
            ("packets", Json::int(job.packets)),
            ("model_seeds", Json::Bool(job.model_seeds)),
        ]),
    }
}

/// Decode a wire job of either kind.
pub fn job_from_json(json: &Json) -> Result<JobSpec, WireError> {
    match get_str(json, "kind")? {
        "explore" => Ok(JobSpec::Explore(explore_job_from_json(json)?)),
        "compose" => Ok(JobSpec::Compose(ComposeJob {
            scenario: scenario_spec_from_json(get(json, "scenario")?)?,
            fingerprints: fingerprints_from_json(get_arr(json, "fingerprints")?)?,
        })),
        "compose-shard" => Ok(JobSpec::ComposeShard(ComposeShardJob {
            scenario: scenario_spec_from_json(get(json, "scenario")?)?,
            fingerprints: fingerprints_from_json(get_arr(json, "fingerprints")?)?,
            scenario_index: u32::try_from(get_u64(json, "scenario_index")?)
                .map_err(|_| malformed("scenario_index exceeds u32"))?,
            start: get_usize(json, "start")?,
            end: get_usize(json, "end")?,
        })),
        "fuzz" => {
            let scenario_index = get_u64(json, "scenario_index")?;
            let shard_index = get_u64(json, "shard_index")?;
            Ok(JobSpec::Fuzz(FuzzJob {
                scenario: scenario_spec_from_json(get(json, "scenario")?)?,
                scenario_index: u32::try_from(scenario_index)
                    .map_err(|_| malformed("scenario_index exceeds u32"))?,
                shard_index: u32::try_from(shard_index)
                    .map_err(|_| malformed("shard_index exceeds u32"))?,
                seed: get_u64(json, "seed")?,
                packets: get_u64(json, "packets")?,
                model_seeds: get_bool(json, "model_seeds")?,
            }))
        }
        other => Err(malformed(format!("unknown job kind '{other}'"))),
    }
}

fn parse_fingerprint(text: &str) -> Result<Fingerprint, WireError> {
    Fingerprint::parse(text).ok_or_else(|| malformed(format!("bad fingerprint '{text}'")))
}

/// Diff bookkeeping attached to a plan built from a `Diff` or `Watch`
/// request: what changed, what was skipped — so the executing process can
/// reproduce the full [`crate::diff::DiffReport`], not only the matrix.
#[derive(Clone, Debug)]
pub struct DiffMeta {
    /// Per-config diff verdicts, in new-set order.
    pub entries: Vec<DiffEntry>,
    /// Old config names absent from the new set.
    pub removed_configs: Vec<String>,
    /// Scenarios skipped because their config was identical.
    pub skipped_scenarios: usize,
}

pub(crate) fn diff_kind_name(kind: DiffKind) -> &'static str {
    match kind {
        DiffKind::Identical => "identical",
        DiffKind::WiringOnly => "wiring-only",
        DiffKind::ElementsChanged => "elements-changed",
        DiffKind::Added => "added",
    }
}

fn diff_kind_from(name: &str) -> Result<DiffKind, WireError> {
    Ok(match name {
        "identical" => DiffKind::Identical,
        "wiring-only" => DiffKind::WiringOnly,
        "elements-changed" => DiffKind::ElementsChanged,
        "added" => DiffKind::Added,
        other => return Err(malformed(format!("unknown diff kind '{other}'"))),
    })
}

/// The one JSON shape of a [`DiffEntry`], shared by plan metadata and
/// `DiffReport` documents.
pub(crate) fn diff_entry_to_json(e: &DiffEntry) -> Json {
    Json::obj([
        ("name", Json::str(&e.name)),
        ("kind", Json::str(diff_kind_name(e.kind))),
        (
            "changed_elements",
            Json::Arr(e.changed_elements.iter().map(Json::str).collect()),
        ),
        ("scenarios_planned", Json::int(e.scenarios_planned as u64)),
    ])
}

fn diff_meta_to_json(meta: &DiffMeta) -> Json {
    Json::obj([
        (
            "entries",
            Json::Arr(meta.entries.iter().map(diff_entry_to_json).collect()),
        ),
        (
            "removed_configs",
            Json::Arr(meta.removed_configs.iter().map(Json::str).collect()),
        ),
        (
            "skipped_scenarios",
            Json::int(meta.skipped_scenarios as u64),
        ),
    ])
}

fn diff_meta_from_json(json: &Json) -> Result<DiffMeta, WireError> {
    Ok(DiffMeta {
        entries: get_arr(json, "entries")?
            .iter()
            .map(|e| {
                Ok(DiffEntry {
                    name: get_str(e, "name")?.to_string(),
                    kind: diff_kind_from(get_str(e, "kind")?)?,
                    changed_elements: str_arr(get_arr(e, "changed_elements")?)?,
                    scenarios_planned: get_usize(e, "scenarios_planned")?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?,
        removed_configs: str_arr(get_arr(json, "removed_configs")?)?,
        skipped_scenarios: get_usize(json, "skipped_scenarios")?,
    })
}

/// The first-class, serialisable job plan: everything another process needs
/// to reproduce a verification run bit for bit.
///
/// Scenarios travel as config text (the element factory re-instantiates
/// them), jobs as `type(args)` + content fingerprint, and the options pin
/// the engine/solver budgets the fingerprints were computed under. The
/// dependency edges (`scenario_jobs`) and per-element fingerprints are what
/// a scheduler needs to overlap exploration with composition without
/// re-deriving the decomposition.
#[derive(Clone, Debug)]
pub struct PlanSpec {
    /// The verifier options the plan was built under (and must be executed
    /// under — fingerprints embed the engine configuration).
    pub options: VerifierOptions,
    /// The scenarios to verify, in submission order.
    pub scenarios: Vec<ScenarioSpec>,
    /// One explore job per distinct element behaviour across the whole
    /// batch (regardless of any store's current temperature: the executing
    /// process skips what its own store already holds).
    pub jobs: Vec<ExploreJob>,
    /// Per scenario: indexes into `jobs` its composition depends on.
    pub scenario_jobs: Vec<Vec<usize>>,
    /// Per scenario, per pipeline element: the summary fingerprint its
    /// composition will fetch.
    pub element_fingerprints: Vec<Vec<Fingerprint>>,
    /// Present when the plan was built from a diff/watch request.
    pub diff: Option<DiffMeta>,
    /// Present when the plan was built from an instruction-bound request:
    /// the analysis decided (locally, from the executed summaries) once
    /// the explore jobs have run.
    pub bound: Option<BoundSpec>,
}

/// The instruction-bound analysis section of a plan: which pipeline to
/// bound and the summary fingerprints the analysis consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundSpec {
    /// The pipeline's label.
    pub name: String,
    /// The pipeline as config text.
    pub config: String,
    /// Per pipeline element: the summary fingerprint the analysis reads.
    pub fingerprints: Vec<Fingerprint>,
}

fn bound_spec_to_json(bound: &BoundSpec) -> Json {
    Json::obj([
        ("name", Json::str(&bound.name)),
        ("config", Json::str(&bound.config)),
        ("fingerprints", fingerprints_to_json(&bound.fingerprints)),
    ])
}

fn bound_spec_from_json(json: &Json) -> Result<BoundSpec, WireError> {
    Ok(BoundSpec {
        name: get_str(json, "name")?.to_string(),
        config: get_str(json, "config")?.to_string(),
        fingerprints: fingerprints_from_json(get_arr(json, "fingerprints")?)?,
    })
}

/// Encode a plan.
pub fn plan_to_json(plan: &PlanSpec) -> Json {
    Json::obj([
        ("schema", Json::int(PLAN_SCHEMA)),
        ("options", options_to_json(&plan.options)),
        (
            "scenarios",
            Json::Arr(plan.scenarios.iter().map(scenario_spec_to_json).collect()),
        ),
        (
            "jobs",
            Json::Arr(plan.jobs.iter().map(explore_job_to_json).collect()),
        ),
        (
            "scenario_jobs",
            Json::Arr(
                plan.scenario_jobs
                    .iter()
                    .map(|deps| Json::Arr(deps.iter().map(|&d| Json::int(d as u64)).collect()))
                    .collect(),
            ),
        ),
        (
            "element_fingerprints",
            Json::Arr(
                plan.element_fingerprints
                    .iter()
                    .map(|fps| Json::Arr(fps.iter().map(|fp| Json::str(fp.to_string())).collect()))
                    .collect(),
            ),
        ),
        (
            "diff",
            match &plan.diff {
                Some(meta) => diff_meta_to_json(meta),
                None => Json::Null,
            },
        ),
        (
            "bound",
            match &plan.bound {
                Some(bound) => bound_spec_to_json(bound),
                None => Json::Null,
            },
        ),
    ])
}

/// Decode a plan, validating its internal references (job indexes in range,
/// per-scenario fingerprint lists matching the scenario count).
pub fn plan_from_json(json: &Json) -> Result<PlanSpec, WireError> {
    check_schema(json, PLAN_SCHEMA, "plan")?;
    let scenarios = get_arr(json, "scenarios")?
        .iter()
        .map(scenario_spec_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = get_arr(json, "jobs")?
        .iter()
        .map(explore_job_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let scenario_jobs = get_arr(json, "scenario_jobs")?
        .iter()
        .map(|deps| {
            deps.as_arr()
                .ok_or_else(|| malformed("scenario_jobs entry is not an array"))?
                .iter()
                .map(|d| {
                    let idx = d
                        .as_u64()
                        .and_then(|v| usize::try_from(v).ok())
                        .ok_or_else(|| malformed("bad job index"))?;
                    if idx >= jobs.len() {
                        return Err(malformed(format!("job index {idx} out of range")));
                    }
                    Ok(idx)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let element_fingerprints = get_arr(json, "element_fingerprints")?
        .iter()
        .map(|fps| {
            fps.as_arr()
                .ok_or_else(|| malformed("element_fingerprints entry is not an array"))?
                .iter()
                .map(|fp| {
                    parse_fingerprint(
                        fp.as_str()
                            .ok_or_else(|| malformed("fingerprint is not a string"))?,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    if scenario_jobs.len() != scenarios.len() || element_fingerprints.len() != scenarios.len() {
        return Err(malformed(
            "scenario_jobs / element_fingerprints do not match the scenario count",
        ));
    }
    let diff = match get(json, "diff")? {
        Json::Null => None,
        meta => Some(diff_meta_from_json(meta)?),
    };
    let bound = match get(json, "bound")? {
        Json::Null => None,
        spec => Some(bound_spec_from_json(spec)?),
    };
    Ok(PlanSpec {
        options: options_from_json(get(json, "options")?)?,
        scenarios,
        jobs,
        scenario_jobs,
        element_fingerprints,
        diff,
        bound,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn named_configs_to_json(configs: &[crate::diff::NamedConfig]) -> Json {
    Json::Arr(
        configs
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(&c.name)),
                    ("config", Json::str(&c.config)),
                ])
            })
            .collect(),
    )
}

fn named_configs_from_json(items: &[Json]) -> Result<Vec<crate::diff::NamedConfig>, WireError> {
    items
        .iter()
        .map(|c| {
            Ok(crate::diff::NamedConfig {
                name: get_str(c, "name")?.to_string(),
                config: get_str(c, "config")?.to_string(),
            })
        })
        .collect()
}

fn property_select_to_json(select: &PropertySelect) -> Json {
    match select {
        PropertySelect::Default => Json::obj([("kind", Json::str("default"))]),
        PropertySelect::Preset => Json::obj([("kind", Json::str("preset"))]),
        PropertySelect::Explicit(properties) => Json::obj([
            ("kind", Json::str("explicit")),
            (
                "properties",
                Json::Arr(properties.iter().map(property_to_json).collect()),
            ),
        ]),
    }
}

fn property_select_from_json(json: &Json) -> Result<PropertySelect, WireError> {
    Ok(match get_str(json, "kind")? {
        "default" => PropertySelect::Default,
        "preset" => PropertySelect::Preset,
        "explicit" => PropertySelect::Explicit(
            get_arr(json, "properties")?
                .iter()
                .map(property_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        other => return Err(malformed(format!("unknown property selection '{other}'"))),
    })
}

/// Encode a front-door request. `Single` and `Matrix` requests carry their
/// pipelines as config text, so the encoding fails for pipelines containing
/// elements the config language cannot express.
pub fn request_to_json(request: &VerifyRequest) -> Result<Json, WireError> {
    Ok(match request {
        VerifyRequest::Single {
            name,
            pipeline,
            property,
        } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("single")),
            ("name", Json::str(name)),
            ("config", Json::str(write_config(pipeline)?)),
            ("property", property_to_json(property)),
        ]),
        VerifyRequest::Matrix { scenarios } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("matrix")),
            (
                "scenarios",
                Json::Arr(
                    scenarios
                        .iter()
                        .map(|s| Ok(scenario_spec_to_json(&ScenarioSpec::from_scenario(s)?)))
                        .collect::<Result<Vec<_>, WireError>>()?,
                ),
            ),
        ]),
        VerifyRequest::Diff {
            old,
            new,
            properties,
        } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("diff")),
            ("old", named_configs_to_json(old)),
            ("new", named_configs_to_json(new)),
            ("properties", property_select_to_json(properties)),
        ]),
        VerifyRequest::Watch {
            configs,
            properties,
        } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("watch")),
            ("configs", named_configs_to_json(configs)),
            ("properties", property_select_to_json(properties)),
        ]),
        VerifyRequest::Bound { name, pipeline } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("bound")),
            ("name", Json::str(name)),
            ("config", Json::str(write_config(pipeline)?)),
        ]),
        VerifyRequest::Conformance {
            scenarios,
            seed,
            packets,
        } => Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("conformance")),
            (
                "scenarios",
                Json::Arr(
                    scenarios
                        .iter()
                        .map(|s| Ok(scenario_spec_to_json(&ScenarioSpec::from_scenario(s)?)))
                        .collect::<Result<Vec<_>, WireError>>()?,
                ),
            ),
            ("seed", Json::int(*seed)),
            ("packets", Json::int(*packets)),
        ]),
    })
}

/// Decode a front-door request.
pub fn request_from_json(json: &Json) -> Result<VerifyRequest, WireError> {
    check_schema(json, REQUEST_SCHEMA, "request")?;
    Ok(match get_str(json, "kind")? {
        "single" => VerifyRequest::Single {
            name: get_str(json, "name")?.to_string(),
            pipeline: parse_config(get_str(json, "config")?)?,
            property: property_from_json(get(json, "property")?)?,
        },
        "matrix" => VerifyRequest::Matrix {
            scenarios: get_arr(json, "scenarios")?
                .iter()
                .map(|s| scenario_spec_from_json(s)?.to_scenario())
                .collect::<Result<Vec<_>, _>>()?,
        },
        "diff" => VerifyRequest::Diff {
            old: named_configs_from_json(get_arr(json, "old")?)?,
            new: named_configs_from_json(get_arr(json, "new")?)?,
            properties: property_select_from_json(get(json, "properties")?)?,
        },
        "watch" => VerifyRequest::Watch {
            configs: named_configs_from_json(get_arr(json, "configs")?)?,
            properties: property_select_from_json(get(json, "properties")?)?,
        },
        "bound" => VerifyRequest::Bound {
            name: get_str(json, "name")?.to_string(),
            pipeline: parse_config(get_str(json, "config")?)?,
        },
        "conformance" => VerifyRequest::Conformance {
            scenarios: get_arr(json, "scenarios")?
                .iter()
                .map(|s| scenario_spec_from_json(s)?.to_scenario())
                .collect::<Result<Vec<_>, _>>()?,
            seed: get_u64(json, "seed")?,
            packets: get_u64(json, "packets")?,
        },
        other => return Err(malformed(format!("unknown request kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------------
// Reports (deterministic content only — no wall-clock, no cache weather)
// ---------------------------------------------------------------------------

pub(crate) fn hex_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

pub(crate) fn bytes_from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    // Work on bytes: slicing the &str at fixed offsets would panic on a
    // (malformed) multi-byte character instead of erroring, and
    // `from_str_radix` would accept a sign (`"+f"`).
    if !text.len().is_multiple_of(2) {
        return Err(malformed("odd-length hex string"));
    }
    let digit = |b: u8| {
        (b as char)
            .to_digit(16)
            .ok_or_else(|| malformed("bad hex byte"))
    };
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| Ok((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
        .collect()
}

/// The verdict's wire spelling.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Proven => "proven",
        Verdict::Violated => "violated",
        Verdict::Unknown => "unknown",
    }
}

fn verdict_from_name(name: &str) -> Result<Verdict, WireError> {
    Ok(match name {
        "proven" => Verdict::Proven,
        "violated" => Verdict::Violated,
        "unknown" => Verdict::Unknown,
        other => return Err(malformed(format!("unknown verdict '{other}'"))),
    })
}

fn stats_to_json(stats: &VerificationStats) -> Json {
    Json::obj([
        ("elements", Json::int(stats.elements as u64)),
        (
            "summaries_computed",
            Json::int(stats.summaries_computed as u64),
        ),
        ("summaries_reused", Json::int(stats.summaries_reused as u64)),
        ("total_segments", Json::int(stats.total_segments as u64)),
        ("suspects", Json::int(stats.suspects as u64)),
        ("discharged", Json::int(stats.discharged as u64)),
        ("composed_paths", Json::int(stats.composed_paths as u64)),
        ("solver_calls", Json::int(stats.solver_calls as u64)),
        (
            "prefilter_decided",
            Json::int(stats.prefilter_decided as u64),
        ),
        ("prefilter_passed", Json::int(stats.prefilter_passed as u64)),
        ("fm_budget_aborts", Json::int(stats.fm_budget_aborts as u64)),
        (
            "model_search_aborts",
            Json::int(stats.model_search_aborts as u64),
        ),
        ("buchi_states", Json::int(stats.buchi_states as u64)),
        ("product_states", Json::int(stats.product_states as u64)),
        ("lasso_found", Json::int(stats.lasso_found as u64)),
    ])
}

fn stats_from_json(json: &Json) -> Result<VerificationStats, WireError> {
    Ok(VerificationStats {
        elements: get_usize(json, "elements")?,
        summaries_computed: get_usize(json, "summaries_computed")?,
        summaries_reused: get_usize(json, "summaries_reused")?,
        total_segments: get_usize(json, "total_segments")?,
        suspects: get_usize(json, "suspects")?,
        discharged: get_usize(json, "discharged")?,
        composed_paths: get_usize(json, "composed_paths")?,
        solver_calls: get_usize(json, "solver_calls")?,
        prefilter_decided: get_usize(json, "prefilter_decided")?,
        prefilter_passed: get_usize(json, "prefilter_passed")?,
        fm_budget_aborts: get_usize(json, "fm_budget_aborts")?,
        model_search_aborts: get_usize(json, "model_search_aborts")?,
        buchi_states: get_usize(json, "buchi_states")?,
        product_states: get_usize(json, "product_states")?,
        lasso_found: get_usize(json, "lasso_found")?,
        ..VerificationStats::default()
    })
}

fn counterexample_to_json(ce: &Counterexample) -> Json {
    Json::obj([
        ("packet_hex", Json::str(hex_bytes(&ce.packet))),
        ("path", Json::Arr(ce.path.iter().map(Json::str).collect())),
        ("description", Json::str(&ce.description)),
        ("confirmed", Json::Bool(ce.confirmed)),
    ])
}

fn counterexample_from_json(json: &Json) -> Result<Counterexample, WireError> {
    Ok(Counterexample {
        packet: bytes_from_hex(get_str(json, "packet_hex")?)?,
        path: str_arr(get_arr(json, "path")?)?,
        description: get_str(json, "description")?.to_string(),
        confirmed: get_bool(json, "confirmed")?,
    })
}

fn unproven_to_json(up: &UnprovenPath) -> Json {
    Json::obj([
        ("path", Json::Arr(up.path.iter().map(Json::str).collect())),
        ("reason", Json::str(&up.reason)),
    ])
}

fn unproven_from_json(json: &Json) -> Result<UnprovenPath, WireError> {
    Ok(UnprovenPath {
        path: str_arr(get_arr(json, "path")?)?,
        reason: get_str(json, "reason")?.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Compose-shard results
// ---------------------------------------------------------------------------

fn check_record_to_json(check: &CheckRecord) -> Json {
    let outcome = match &check.outcome {
        CheckOutcome::Discharged => Json::obj([("kind", Json::str("discharged"))]),
        CheckOutcome::Violation(ce) => Json::obj([
            ("kind", Json::str("violation")),
            ("counterexample", counterexample_to_json(ce)),
        ]),
        CheckOutcome::Undecided(up) => Json::obj([
            ("kind", Json::str("undecided")),
            ("unproven", unproven_to_json(up)),
        ]),
    };
    Json::obj([
        ("outcome", outcome),
        ("fm_exhausted", Json::Bool(check.diag.fm_budget_exhausted)),
        (
            "search_exhausted",
            Json::Bool(check.diag.model_search_exhausted),
        ),
        ("prefiltered", Json::Bool(check.prefiltered)),
    ])
}

fn check_record_from_json(json: &Json) -> Result<CheckRecord, WireError> {
    let outcome = get(json, "outcome")?;
    let outcome = match get_str(outcome, "kind")? {
        "discharged" => CheckOutcome::Discharged,
        "violation" => {
            CheckOutcome::Violation(counterexample_from_json(get(outcome, "counterexample")?)?)
        }
        "undecided" => CheckOutcome::Undecided(unproven_from_json(get(outcome, "unproven")?)?),
        other => return Err(malformed(format!("unknown check outcome '{other}'"))),
    };
    Ok(CheckRecord {
        outcome,
        diag: CheckDiagnostics {
            fm_budget_exhausted: get_bool(json, "fm_exhausted")?,
            model_search_exhausted: get_bool(json, "search_exhausted")?,
        },
        prefiltered: get_bool(json, "prefiltered")?,
    })
}

fn shard_edge_to_json(edge: &ShardEdge) -> Json {
    Json::obj([
        ("prefiltered", Json::Bool(edge.prefiltered)),
        ("pruned_call", Json::Bool(edge.pruned_call)),
        ("feasible", Json::Bool(edge.feasible)),
    ])
}

fn shard_edge_from_json(json: &Json) -> Result<ShardEdge, WireError> {
    Ok(ShardEdge {
        prefiltered: get_bool(json, "prefiltered")?,
        pruned_call: get_bool(json, "pruned_call")?,
        feasible: get_bool(json, "feasible")?,
    })
}

/// Encode what one `ComposeShard` job computed: the per-node records (each
/// byte-identical to what the fold would compute inline), whether the shard
/// was cancelled before covering its range, and the per-node solver timings the
/// service feeds into shard-width calibration. A check or edge slot is
/// `null` when the corresponding work unit lies outside the shard's range —
/// the fold computes those slots inline or takes them from another shard.
pub fn shard_result_to_json(result: &ComposeShardResult) -> Json {
    Json::obj([
        (
            "records",
            Json::Arr(
                result
                    .records
                    .iter()
                    .map(|rec| {
                        Json::obj([
                            ("index", Json::int(rec.index as u64)),
                            (
                                "checks",
                                Json::Arr(
                                    rec.checks
                                        .iter()
                                        .map(|slot| match slot {
                                            Some(check) => check_record_to_json(check),
                                            None => Json::Null,
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "edges",
                                Json::Arr(
                                    rec.edges
                                        .iter()
                                        .map(|slot| match slot {
                                            Some(edge) => shard_edge_to_json(edge),
                                            None => Json::Null,
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cancelled", Json::Bool(result.cancelled)),
        (
            "timings",
            Json::Arr(
                result
                    .timings
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("index", Json::int(t.index as u64)),
                            ("units", Json::int(t.units as u64)),
                            ("ns", Json::int(t.ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a `ComposeShard` job result.
pub fn shard_result_from_json(json: &Json) -> Result<ComposeShardResult, WireError> {
    Ok(ComposeShardResult {
        records: get_arr(json, "records")?
            .iter()
            .map(|rec| {
                Ok(ShardNodeRecord {
                    index: get_usize(rec, "index")?,
                    checks: get_arr(rec, "checks")?
                        .iter()
                        .map(|slot| match slot {
                            Json::Null => Ok(None),
                            v => check_record_from_json(v).map(Some),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    edges: get_arr(rec, "edges")?
                        .iter()
                        .map(|slot| match slot {
                            Json::Null => Ok(None),
                            v => shard_edge_from_json(v).map(Some),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?,
        cancelled: get_bool(json, "cancelled")?,
        timings: get_arr(json, "timings")?
            .iter()
            .map(|t| {
                Ok(dataplane_verifier::ShardTiming {
                    index: get_usize(t, "index")?,
                    units: get_usize(t, "units")?,
                    ns: get(t, "ns")?
                        .as_u64()
                        .ok_or_else(|| malformed("timing ns is not an unsigned integer"))?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?,
    })
}

/// Encode everything deterministic about a report: the verdict, the full
/// counterexamples (packet bytes included), the unproven paths, and the
/// work statistics — but no wall-clock times. Two runs of the same
/// scenarios under the same options produce byte-identical documents,
/// whatever process, scheduler, or cache temperature produced them.
pub fn report_to_json(report: &Report) -> Json {
    Json::obj([
        ("property", Json::str(report.property.name())),
        ("verdict", Json::str(verdict_name(&report.verdict))),
        (
            "counterexamples",
            Json::Arr(
                report
                    .counterexamples
                    .iter()
                    .map(counterexample_to_json)
                    .collect(),
            ),
        ),
        (
            "unproven",
            Json::Arr(report.unproven.iter().map(unproven_to_json).collect()),
        ),
        ("stats", stats_to_json(&report.stats)),
    ])
}

/// Decode a report produced by [`report_to_json`]. The wire form carries
/// only the property's *name*, so the full `property` (whose parameters a
/// composition job already knows) is supplied by the caller; `elapsed` is
/// operational data carried outside the deterministic document and is
/// likewise supplied. Re-encoding the result reproduces the input byte for
/// byte — the invariant the remote-composition path rests on.
pub fn report_from_json(
    json: &Json,
    property: Property,
    elapsed: Duration,
) -> Result<Report, WireError> {
    let name = get_str(json, "property")?;
    if name != property.name() {
        return Err(malformed(format!(
            "report is for property '{name}', expected '{}'",
            property.name()
        )));
    }
    Ok(Report {
        property,
        verdict: verdict_from_name(get_str(json, "verdict")?)?,
        counterexamples: get_arr(json, "counterexamples")?
            .iter()
            .map(counterexample_from_json)
            .collect::<Result<Vec<_>, WireError>>()?,
        unproven: get_arr(json, "unproven")?
            .iter()
            .map(unproven_from_json)
            .collect::<Result<Vec<_>, WireError>>()?,
        stats: stats_from_json(get(json, "stats")?)?,
        elapsed,
    })
}

/// Encode everything deterministic about an instruction-bound analysis
/// (the witness packet is a deterministic function of the summaries and
/// solver seed, so it belongs here; wall-clock time does not).
pub fn bound_report_to_json(report: &dataplane_verifier::InstructionBoundReport) -> Json {
    Json::obj([
        ("max_instructions", Json::int(report.max_instructions)),
        (
            "witness_hex",
            match &report.witness {
                Some(bytes) => Json::str(hex_bytes(bytes)),
                None => Json::Null,
            },
        ),
        (
            "path",
            Json::Arr(report.path.iter().map(Json::str).collect()),
        ),
        ("approximate", Json::Bool(report.approximate)),
        (
            "paths_considered",
            Json::int(report.paths_considered as u64),
        ),
        ("feasible_paths", Json::int(report.feasible_paths as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{preset_properties, preset_scenarios};

    #[test]
    fn properties_round_trip() {
        for name in ["ip_router", "middlebox", "buggy"] {
            for property in preset_properties(name) {
                let json = property_to_json(&property);
                let text = json.to_text();
                let back = property_from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, property);
            }
        }
        // Temporal specs travel as canonical source text and re-parse to
        // structurally equal formulas (including header atoms).
        let spec = LtlSpec::parse("G (dst(10.0.0.1) -> F (forwarded | dropped))").unwrap();
        let property = Property::Temporal(spec);
        let text = property_to_json(&property).to_text();
        let back = property_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, property);
        // A malformed spec on the wire is a decode error, not a panic.
        let bad = Json::obj([
            ("kind", Json::str("temporal")),
            ("spec", Json::str("G (forwarded")),
        ]);
        assert!(property_from_json(&bad).is_err());
    }

    #[test]
    fn options_round_trip() {
        let options = VerifierOptions {
            prune_prefixes: false,
            validate_counterexamples: false,
            max_composed_paths: 1234,
            solver: SolverConfig {
                max_fm_constraints: 2000,
                ..SolverConfig::default()
            },
            ..VerifierOptions::default()
        };
        let text = options_to_json(&options).to_text();
        let back = options_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.prune_prefixes, options.prune_prefixes);
        assert_eq!(
            back.validate_counterexamples,
            options.validate_counterexamples
        );
        assert_eq!(back.max_composed_paths, options.max_composed_paths);
        assert_eq!(
            back.solver.max_fm_constraints,
            options.solver.max_fm_constraints
        );
        assert_eq!(back.solver.search_seed, options.solver.search_seed);
        assert_eq!(back.engine.max_segments, options.engine.max_segments);
    }

    #[test]
    fn scenario_specs_round_trip_every_preset_scenario() {
        for scenario in preset_scenarios() {
            let spec = ScenarioSpec::from_scenario(&scenario).unwrap();
            let text = scenario_spec_to_json(&spec).to_text();
            let back = scenario_spec_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
            let rebuilt = back.to_scenario().unwrap();
            assert_eq!(rebuilt.pipeline_name, scenario.pipeline_name);
            assert_eq!(rebuilt.property, scenario.property);
            assert_eq!(rebuilt.pipeline.len(), scenario.pipeline.len());
        }
    }

    #[test]
    fn jobs_round_trip_including_compose() {
        let scenario = preset_scenarios().remove(0);
        let spec = ScenarioSpec::from_scenario(&scenario).unwrap();
        let fp = crate::fingerprint::fingerprint_bytes("some element behaviour");
        for job in [
            JobSpec::Explore(ExploreJob {
                fingerprint: fp,
                type_name: "DecTTL".into(),
                config_args: String::new(),
            }),
            JobSpec::Compose(ComposeJob {
                scenario: spec.clone(),
                fingerprints: vec![fp, fp],
            }),
        ] {
            let text = job_to_json(&job).to_text();
            let back = job_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, job);
            assert_eq!(job_to_json(&back).to_text(), text, "re-encoding is stable");
        }
        assert!(job_from_json(&Json::obj([("kind", Json::str("warp"))])).is_err());
    }

    #[test]
    fn reports_round_trip_byte_for_byte() {
        use dataplane_verifier::{Counterexample, UnprovenPath, VerificationStats};
        let report = Report {
            property: Property::CrashFreedom,
            verdict: Verdict::Violated,
            counterexamples: vec![Counterexample {
                packet: vec![0x00, 0xff, 0x7e, 0x01],
                path: vec!["cls".into(), "opts".into()],
                description: "division by zero".into(),
                confirmed: true,
            }],
            unproven: vec![UnprovenPath {
                path: vec!["cls".into()],
                reason: "model search exhausted".into(),
            }],
            stats: VerificationStats {
                elements: 5,
                suspects: 2,
                buchi_states: 7,
                product_states: 42,
                lasso_found: 1,
                ..Default::default()
            },
            elapsed: Duration::from_millis(5),
        };
        let text = report_to_json(&report).to_text();
        let back = report_from_json(
            &Json::parse(&text).unwrap(),
            Property::CrashFreedom,
            report.elapsed,
        )
        .unwrap();
        assert_eq!(
            report_to_json(&back).to_text(),
            text,
            "decode → re-encode is byte-stable"
        );
        assert_eq!(back.counterexamples, report.counterexamples);
        assert_eq!(back.stats, report.stats);
        // The wire form names the property; decoding under a different one
        // must fail instead of mislabeling the report.
        assert!(report_from_json(
            &Json::parse(&text).unwrap(),
            Property::BoundedInstructions {
                max_instructions: 1
            },
            Duration::ZERO,
        )
        .is_err());
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        assert!(property_from_json(&Json::obj([("kind", Json::str("warp"))])).is_err());
        assert!(plan_from_json(&Json::obj([("schema", Json::int(99))])).is_err());
        assert!(request_from_json(&Json::obj([
            ("schema", Json::int(REQUEST_SCHEMA)),
            ("kind", Json::str("nope")),
        ]))
        .is_err());
        // A plan whose dependency edges point outside the job table must
        // not decode (execution would index out of bounds).
        let bogus = Json::obj([
            ("schema", Json::int(PLAN_SCHEMA)),
            ("options", options_to_json(&VerifierOptions::default())),
            ("scenarios", Json::Arr(vec![])),
            ("jobs", Json::Arr(vec![])),
            (
                "scenario_jobs",
                Json::Arr(vec![Json::Arr(vec![Json::int(7)])]),
            ),
            ("element_fingerprints", Json::Arr(vec![])),
            ("diff", Json::Null),
        ]);
        assert!(plan_from_json(&bogus).is_err());
    }

    #[test]
    fn counterexample_packets_round_trip_losslessly() {
        // Every possible byte value must survive the hex encoding, so a
        // decoded report.json replays the exact packet the solver built.
        let packet: Vec<u8> = (0..=255u8).collect();
        let ce = Counterexample {
            packet: packet.clone(),
            path: vec!["cls".into(), "chk".into()],
            description: "synthetic".into(),
            confirmed: true,
        };
        let json = counterexample_to_json(&ce);
        let text = json.to_text();
        let doc = Json::parse(&text).unwrap();
        let back = bytes_from_hex(get_str(&doc, "packet_hex").unwrap()).unwrap();
        assert_eq!(back, packet);
    }

    #[test]
    fn hex_decode_is_panic_free_on_malformed_input() {
        assert!(bytes_from_hex("0").is_err(), "odd length");
        assert!(bytes_from_hex("zz").is_err(), "non-hex digit");
        assert!(bytes_from_hex("caf\u{e9}").is_err(), "non-ASCII");
        assert!(bytes_from_hex("+f").is_err(), "a sign is no hex digit");
        assert_eq!(bytes_from_hex("").unwrap(), Vec::<u8>::new());
        assert_eq!(bytes_from_hex("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
    }

    #[test]
    fn compose_shard_jobs_round_trip() {
        let scenario = preset_scenarios().remove(0);
        let fp = crate::fingerprint::fingerprint_bytes("behaviour");
        let job = JobSpec::ComposeShard(ComposeShardJob {
            scenario: ScenarioSpec::from_scenario(&scenario).unwrap(),
            fingerprints: vec![fp, fp, fp],
            scenario_index: 7,
            start: 3,
            end: 19,
        });
        let text = job_to_json(&job).to_text();
        let back = job_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, job);
        assert_eq!(job_to_json(&back).to_text(), text, "re-encoding is stable");
    }

    #[test]
    fn shard_results_round_trip_byte_for_byte() {
        let result = ComposeShardResult {
            records: vec![
                ShardNodeRecord {
                    index: 4,
                    checks: vec![
                        Some(CheckRecord {
                            outcome: CheckOutcome::Discharged,
                            diag: CheckDiagnostics::default(),
                            prefiltered: true,
                        }),
                        None,
                        Some(CheckRecord {
                            outcome: CheckOutcome::Violation(Counterexample {
                                packet: vec![0x45, 0x00, 0xff],
                                path: vec!["cls".into(), "chk".into()],
                                description: "division by zero".into(),
                                confirmed: true,
                            }),
                            diag: CheckDiagnostics {
                                fm_budget_exhausted: true,
                                model_search_exhausted: false,
                            },
                            prefiltered: false,
                        }),
                        Some(CheckRecord {
                            outcome: CheckOutcome::Undecided(UnprovenPath {
                                path: vec!["cls".into()],
                                reason: "model search exhausted its tries".into(),
                            }),
                            diag: CheckDiagnostics {
                                fm_budget_exhausted: false,
                                model_search_exhausted: true,
                            },
                            prefiltered: false,
                        }),
                    ],
                    edges: vec![
                        Some(ShardEdge {
                            prefiltered: true,
                            pruned_call: false,
                            feasible: false,
                        }),
                        None,
                        Some(ShardEdge {
                            prefiltered: false,
                            pruned_call: true,
                            feasible: true,
                        }),
                    ],
                },
                ShardNodeRecord {
                    index: 5,
                    checks: vec![],
                    edges: vec![],
                },
            ],
            cancelled: true,
            timings: vec![
                dataplane_verifier::ShardTiming {
                    index: 4,
                    units: 3,
                    ns: 812_500,
                },
                dataplane_verifier::ShardTiming {
                    index: 5,
                    units: 1,
                    ns: 91_000,
                },
            ],
        };
        let text = shard_result_to_json(&result).to_text();
        let back = shard_result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        assert_eq!(
            shard_result_to_json(&back).to_text(),
            text,
            "decode → re-encode is byte-stable"
        );
    }

    #[test]
    fn fuzz_jobs_round_trip() {
        let scenario = preset_scenarios().remove(0);
        let job = JobSpec::Fuzz(FuzzJob {
            scenario: ScenarioSpec::from_scenario(&scenario).unwrap(),
            scenario_index: 3,
            shard_index: 17,
            seed: 0xFEED_5EED,
            packets: 4096,
            model_seeds: true,
        });
        let text = job_to_json(&job).to_text();
        let back = job_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, job);
        assert!(
            job_from_json(&Json::obj([("kind", Json::str("fuzzz"))])).is_err(),
            "unknown job kinds are rejected"
        );
    }
}

//! Wire codecs for the plan/execute split: everything a verification job
//! needs to cross a process boundary, expressed through the crate's own
//! [`Json`] model (the workspace's `serde` is an offline API stub, so
//! serialisation is explicit). Each shape below is one table of the
//! crate's codec, read in both directions.
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

use crate::codec::{
    field, field_in, from_json, record, spellings, text, to_json, with_member, Codec, Hex, Version,
    Via,
};
use crate::diff::{DiffEntry, DiffKind, NamedConfig};
use crate::fingerprint::Fingerprint;
use crate::json::{Json, JsonError};
use crate::matrix::Scenario;
use crate::service::{PropertySelect, VerifyRequest};
use dataplane_pipeline::{parse_config, write_config, ConfigError, ConfigWriteError};
use dataplane_symbex::{CheckDiagnostics, EngineConfig, LoopMode, SolverConfig};
use dataplane_temporal::LtlSpec;
use dataplane_verifier::{
    CheckOutcome, CheckRecord, ComposeShardResult, Counterexample, InstructionBoundReport,
    Property, Report, ShardEdge, ShardNodeRecord, UnprovenPath, Verdict, VerificationStats,
    VerifierOptions,
};
use std::fmt;
use std::time::Duration;

/// Schema version of serialised [`PlanSpec`] documents. Version 2 tags
/// each job with its kind (`explore` / `compose`) and adds the optional
/// `bound` section for instruction-bound analyses; version 3 drops the
/// options' budget-retry keys (checks are decided at one budget).
pub const PLAN_SCHEMA: u64 = 3;

/// Schema version of serialised [`crate::service::VerifyRequest`] documents.
pub const REQUEST_SCHEMA: u64 = 1;

const PLAN: Version = Version {
    key: "schema",
    value: PLAN_SCHEMA,
    what: "plan",
};

/// The stamp of every matrix, diff, single and bound report document.
pub(crate) const REPORT: Version = Version {
    key: "schema",
    value: REPORT_SCHEMA,
    what: "report",
};

const REQUEST: Version = Version {
    key: "schema",
    value: REQUEST_SCHEMA,
    what: "request",
};

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

impl WireError {
    /// The same failure, found inside the member `key`.
    pub(crate) fn within(self, key: &str) -> WireError {
        match self {
            WireError::Malformed(m) => WireError::Malformed(format!("field '{key}': {m}")),
            other => other,
        }
    }
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

// ---------------------------------------------------------------------------
// Properties and options
// ---------------------------------------------------------------------------

/// A property is tagged by `kind`. A temporal spec travels as its
/// canonical source text and is re-parsed on decode, so the wire form
/// stays readable and version-stable.
impl<C> Codec<C> for Property {
    fn encode(&self, cx: &mut C) -> Json {
        let (kind, fields) = match self {
            Property::CrashFreedom => ("crash-freedom", vec![]),
            Property::BoundedInstructions { max_instructions } => (
                "bounded-instructions",
                vec![("max_instructions", max_instructions.encode(cx))],
            ),
            Property::Reachability {
                dst,
                dst_offset,
                deliver_to,
                may_drop,
            } => (
                "reachability",
                vec![
                    ("dst", dst.encode(cx)),
                    ("dst_offset", dst_offset.encode(cx)),
                    ("deliver_to", deliver_to.encode(cx)),
                    ("may_drop", may_drop.encode(cx)),
                ],
            ),
            Property::Temporal(spec) => ("temporal", vec![("spec", Json::str(spec.source()))]),
        };
        with_member("kind", Json::str(kind), Json::obj(fields))
    }

    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        match text(json, "kind")? {
            "crash-freedom" => Ok(Property::CrashFreedom),
            "bounded-instructions" => Ok(Property::BoundedInstructions {
                max_instructions: field_in(json, "max_instructions", cx)?,
            }),
            "reachability" => Ok(Property::Reachability {
                dst: field_in(json, "dst", cx)?,
                dst_offset: field_in(json, "dst_offset", cx)?,
                deliver_to: field_in(json, "deliver_to", cx)?,
                may_drop: field_in(json, "may_drop", cx)?,
            }),
            "temporal" => Ok(Property::Temporal(
                LtlSpec::parse(text(json, "spec")?)
                    .map_err(|e| malformed(format!("temporal spec: {e}")))?,
            )),
            other => Err(malformed(format!("unknown property kind '{other}'"))),
        }
    }
}

spellings!(LoopMode {
    Unroll => "unroll",
    Decompose => "decompose",
});

record!(EngineConfig {
    max_segments => "max_segments",
    max_branches => "max_branches",
    loop_mode => "loop_mode",
});

record!(SolverConfig {
    model_search_tries => "model_search_tries",
    max_packet_len => "max_packet_len",
    max_fm_constraints => "max_fm_constraints",
    search_seed => "search_seed",
});

record!(VerifierOptions {
    prune_prefixes => "prune_prefixes",
    validate_counterexamples => "validate_counterexamples",
    max_composed_paths => "max_composed_paths",
    engine => "engine",
    solver => "solver",
});

/// Encode verifier options.
pub fn options_to_json(options: &VerifierOptions) -> Json {
    to_json(options)
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

record!(ScenarioSpec {
    name => "name",
    config => "config",
    property => "property",
});

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

record!(ExploreJob {
    fingerprint => "fingerprint",
    type_name => "type_name",
    config_args => "config_args",
});

record!(ComposeJob {
    scenario => "scenario",
    fingerprints => "fingerprints",
});

record!(ComposeShardJob {
    scenario => "scenario",
    fingerprints => "fingerprints",
    start => "start",
    end => "end",
});

record!(FuzzJob {
    scenario => "scenario",
    scenario_index => "scenario_index",
    shard_index => "shard_index",
    seed => "seed",
    packets => "packets",
    model_seeds => "model_seeds",
});

/// An explore job as every wire job travels: tagged with its kind (a
/// plan's job table spells its jobs this way too).
struct Tagged;

impl<C> Via<ExploreJob, C> for Tagged {
    fn encode(job: &ExploreJob, cx: &mut C) -> Json {
        with_member("kind", Json::str("explore"), job.encode(cx))
    }
    fn decode(json: &Json, cx: &mut C) -> Result<ExploreJob, WireError> {
        ExploreJob::decode(json, cx)
    }
}

impl<C> Via<Vec<ExploreJob>, C> for Tagged {
    fn encode(jobs: &Vec<ExploreJob>, cx: &mut C) -> Json {
        Json::Arr(jobs.iter().map(|job| Tagged::encode(job, cx)).collect())
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Vec<ExploreJob>, WireError> {
        Vec::decode(json, cx)
    }
}

/// A job is its kind's record, tagged by `kind`.
impl<C> Codec<C> for JobSpec {
    fn encode(&self, cx: &mut C) -> Json {
        let (kind, body) = match self {
            JobSpec::Explore(job) => return Tagged::encode(job, cx),
            JobSpec::Compose(job) => ("compose", job.encode(cx)),
            JobSpec::ComposeShard(job) => ("compose-shard", job.encode(cx)),
            JobSpec::Fuzz(job) => ("fuzz", job.encode(cx)),
        };
        with_member("kind", Json::str(kind), body)
    }

    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        Ok(match text(json, "kind")? {
            "explore" => JobSpec::Explore(Tagged::decode(json, cx)?),
            "compose" => JobSpec::Compose(ComposeJob::decode(json, cx)?),
            "compose-shard" => JobSpec::ComposeShard(ComposeShardJob::decode(json, cx)?),
            "fuzz" => JobSpec::Fuzz(FuzzJob::decode(json, cx)?),
            other => return Err(malformed(format!("unknown job kind '{other}'"))),
        })
    }
}

/// Encode a wire job of any kind.
pub fn job_to_json(job: &JobSpec) -> Json {
    to_json(job)
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

spellings!(DiffKind {
    Identical => "identical",
    WiringOnly => "wiring-only",
    ElementsChanged => "elements-changed",
    Added => "added",
});

// The one shape of a diff entry, shared by plan metadata and `DiffReport`
// documents.
record!(DiffEntry {
    name => "name",
    kind => "kind",
    changed_elements => "changed_elements",
    scenarios_planned => "scenarios_planned",
});

record!(DiffMeta {
    entries => "entries",
    removed_configs => "removed_configs",
    skipped_scenarios => "skipped_scenarios",
});

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

record!(BoundSpec {
    name => "name",
    config => "config",
    fingerprints => "fingerprints",
});

record!(PlanSpec {
    options => "options",
    scenarios => "scenarios",
    jobs => "jobs" as Tagged,
    scenario_jobs => "scenario_jobs",
    element_fingerprints => "element_fingerprints",
    diff => "diff",
    bound => "bound",
});

/// Encode a plan.
pub fn plan_to_json(plan: &PlanSpec) -> Json {
    PLAN.stamp(to_json(plan))
}

/// Decode a plan, validating its internal references (job indexes in range,
/// per-scenario fingerprint lists matching the scenario count).
pub fn plan_from_json(json: &Json) -> Result<PlanSpec, WireError> {
    PLAN.check(json)?;
    let plan: PlanSpec = from_json(json)?;
    if let Some(idx) = plan
        .scenario_jobs
        .iter()
        .flatten()
        .find(|&&idx| idx >= plan.jobs.len())
    {
        return Err(malformed(format!("job index {idx} out of range")));
    }
    let scenarios = plan.scenarios.len();
    if plan.scenario_jobs.len() != scenarios || plan.element_fingerprints.len() != scenarios {
        return Err(malformed(
            "scenario_jobs / element_fingerprints do not match the scenario count",
        ));
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

record!(NamedConfig {
    name => "name",
    config => "config",
});

/// A property selection is tagged by `kind`.
impl<C> Codec<C> for PropertySelect {
    fn encode(&self, cx: &mut C) -> Json {
        let (kind, fields) = match self {
            PropertySelect::Default => ("default", vec![]),
            PropertySelect::Preset => ("preset", vec![]),
            PropertySelect::Explicit(properties) => {
                ("explicit", vec![("properties", properties.encode(cx))])
            }
        };
        with_member("kind", Json::str(kind), Json::obj(fields))
    }

    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        Ok(match text(json, "kind")? {
            "default" => PropertySelect::Default,
            "preset" => PropertySelect::Preset,
            "explicit" => PropertySelect::Explicit(field_in(json, "properties", cx)?),
            other => return Err(malformed(format!("unknown property selection '{other}'"))),
        })
    }
}

/// Encode a front-door request, tagged by its [`VerifyRequest::kind`].
/// `Single`, `Bound`, `Matrix` and `Conformance` requests carry their
/// pipelines as config text, so the encoding fails for pipelines
/// containing elements the config language cannot express.
pub fn request_to_json(request: &VerifyRequest) -> Result<Json, WireError> {
    let scenarios = |scenarios: &[Scenario]| -> Result<Json, WireError> {
        let specs = scenarios.iter().map(ScenarioSpec::from_scenario);
        Ok(to_json(&specs.collect::<Result<Vec<_>, _>>()?))
    };
    let fields = match request {
        VerifyRequest::Single {
            name,
            pipeline,
            property,
        } => vec![
            ("name", to_json(name)),
            ("config", Json::str(write_config(pipeline)?)),
            ("property", to_json(property)),
        ],
        VerifyRequest::Matrix { scenarios: batch } => vec![("scenarios", scenarios(batch)?)],
        VerifyRequest::Diff {
            old,
            new,
            properties,
        } => vec![
            ("old", to_json(old)),
            ("new", to_json(new)),
            ("properties", to_json(properties)),
        ],
        VerifyRequest::Watch {
            configs,
            properties,
        } => vec![
            ("configs", to_json(configs)),
            ("properties", to_json(properties)),
        ],
        VerifyRequest::Bound { name, pipeline } => vec![
            ("name", to_json(name)),
            ("config", Json::str(write_config(pipeline)?)),
        ],
        VerifyRequest::Conformance {
            scenarios: batch,
            seed,
            packets,
        } => vec![
            ("scenarios", scenarios(batch)?),
            ("seed", to_json(seed)),
            ("packets", to_json(packets)),
        ],
    };
    let body = with_member("kind", Json::str(request.kind()), Json::obj(fields));
    Ok(REQUEST.stamp(body))
}

/// Decode a front-door request.
pub fn request_from_json(json: &Json) -> Result<VerifyRequest, WireError> {
    REQUEST.check(json)?;
    let scenarios = || -> Result<Vec<Scenario>, WireError> {
        let specs: Vec<ScenarioSpec> = field(json, "scenarios")?;
        specs.iter().map(ScenarioSpec::to_scenario).collect()
    };
    Ok(match text(json, "kind")? {
        "single" => VerifyRequest::Single {
            name: field(json, "name")?,
            pipeline: parse_config(text(json, "config")?)?,
            property: field(json, "property")?,
        },
        "matrix" => VerifyRequest::Matrix {
            scenarios: scenarios()?,
        },
        "diff" => VerifyRequest::Diff {
            old: field(json, "old")?,
            new: field(json, "new")?,
            properties: field(json, "properties")?,
        },
        "watch" => VerifyRequest::Watch {
            configs: field(json, "configs")?,
            properties: field(json, "properties")?,
        },
        "bound" => VerifyRequest::Bound {
            name: field(json, "name")?,
            pipeline: parse_config(text(json, "config")?)?,
        },
        "conformance" => VerifyRequest::Conformance {
            scenarios: scenarios()?,
            seed: field(json, "seed")?,
            packets: field(json, "packets")?,
        },
        other => return Err(malformed(format!("unknown request kind '{other}'"))),
    })
}

// ---------------------------------------------------------------------------
// Reports (deterministic content only — no wall-clock, no cache weather)
// ---------------------------------------------------------------------------

spellings!(Verdict {
    Proven => "proven",
    Violated => "violated",
    Unknown => "unknown",
});

record!(VerificationStats {
    elements => "elements",
    summaries_computed => "summaries_computed",
    summaries_reused => "summaries_reused",
    total_segments => "total_segments",
    suspects => "suspects",
    discharged => "discharged",
    composed_paths => "composed_paths",
    solver_calls => "solver_calls",
    prefilter_decided => "prefilter_decided",
    prefilter_passed => "prefilter_passed",
    fm_budget_aborts => "fm_budget_aborts",
    model_search_aborts => "model_search_aborts",
    budget_escalations => _,
    buchi_states => "buchi_states",
    product_states => "product_states",
    lasso_found => "lasso_found",
});

record!(Counterexample {
    packet => "packet_hex" as Hex,
    path => "path",
    description => "description",
    confirmed => "confirmed",
});

record!(UnprovenPath {
    path => "path",
    reason => "reason",
});

/// A property by its name only. The decoder is given the property — the
/// context — and checks the name against it, so a report is never
/// relabelled as another property's.
struct ByName;

impl Via<Property, Option<Property>> for ByName {
    fn encode(property: &Property, _: &mut Option<Property>) -> Json {
        Json::str(property.name())
    }
    fn decode(json: &Json, given: &mut Option<Property>) -> Result<Property, WireError> {
        let given = given
            .take()
            .ok_or_else(|| malformed("no property to check"))?;
        let name = json.as_str().ok_or_else(|| malformed("not a name"))?;
        if name != given.name() {
            return Err(malformed(format!(
                "report is for property '{name}', expected '{}'",
                given.name()
            )));
        }
        Ok(given)
    }
}

// Everything deterministic about a report: no wall-clock time.
record!(Report in Option<Property> {
    property => "property" as ByName,
    verdict => "verdict",
    counterexamples => "counterexamples",
    unproven => "unproven",
    stats => "stats",
    elapsed => _,
});

/// Encode everything deterministic about a report: the verdict, the full
/// counterexamples (packet bytes included), the unproven paths, and the
/// work statistics — but no wall-clock times. Two runs of the same
/// scenarios under the same options produce byte-identical documents,
/// whatever process, scheduler, or cache temperature produced them.
pub fn report_to_json(report: &Report) -> Json {
    report.encode(&mut None)
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
    let report = Report::decode(json, &mut Some(property))?;
    Ok(Report { elapsed, ..report })
}

// Everything deterministic about an instruction-bound analysis (the
// witness packet is a deterministic function of the summaries and solver
// seed, so it belongs here; wall-clock time does not).
record!(InstructionBoundReport {
    max_instructions => "max_instructions",
    witness => "witness_hex" as Hex,
    path => "path",
    approximate => "approximate",
    paths_considered => "paths_considered",
    feasible_paths => "feasible_paths",
    elapsed => _,
});

// ---------------------------------------------------------------------------
// Compose-shard results
// ---------------------------------------------------------------------------

/// A check's outcome is tagged by `kind`.
impl<C> Codec<C> for CheckOutcome {
    fn encode(&self, cx: &mut C) -> Json {
        let (kind, fields) = match self {
            CheckOutcome::Discharged => ("discharged", vec![]),
            CheckOutcome::Violation(ce) => ("violation", vec![("counterexample", ce.encode(cx))]),
            CheckOutcome::Undecided(up) => ("undecided", vec![("unproven", up.encode(cx))]),
        };
        with_member("kind", Json::str(kind), Json::obj(fields))
    }

    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        Ok(match text(json, "kind")? {
            "discharged" => CheckOutcome::Discharged,
            "violation" => CheckOutcome::Violation(field_in(json, "counterexample", cx)?),
            "undecided" => CheckOutcome::Undecided(field_in(json, "unproven", cx)?),
            other => return Err(malformed(format!("unknown check outcome '{other}'"))),
        })
    }
}

record!(CheckDiagnostics {
    fm_budget_exhausted => "fm_exhausted",
    model_search_exhausted => "search_exhausted",
});

record!(CheckRecord {
    outcome => "outcome",
    diag => ..,
    prefiltered => "prefiltered",
});

record!(ShardEdge {
    prefiltered => "prefiltered",
    pruned_call => "pruned_call",
    feasible => "feasible",
});

// A check or edge slot is `null` when its work unit lies outside the
// shard's range — the fold computes those slots inline or takes them from
// another shard.
record!(ShardNodeRecord {
    index => "index",
    checks => "checks",
    edges => "edges",
});

// `cancelled` stays off the wire: a worker runs every shard under a fresh
// token that nothing fires, so it could only ever say `false`.
record!(ComposeShardResult {
    records => "records",
    cancelled => _,
});

/// Encode what one `ComposeShard` job computed: the per-node records, each
/// byte-identical to what the fold would compute inline.
pub fn shard_result_to_json(result: &ComposeShardResult) -> Json {
    to_json(result)
}

/// Decode a `ComposeShard` job result.
pub fn shard_result_from_json(json: &Json) -> Result<ComposeShardResult, WireError> {
    from_json(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{preset_properties, preset_scenarios};

    #[test]
    fn properties_round_trip() {
        for name in ["ip_router", "middlebox", "buggy"] {
            for property in preset_properties(name) {
                let text = to_json(&property).to_text();
                let back: Property = from_json(&Json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, property);
            }
        }
        // Temporal specs travel as canonical source text and re-parse to
        // structurally equal formulas (including header atoms).
        let spec = LtlSpec::parse("G (dst(10.0.0.1) -> F (forwarded | dropped))").unwrap();
        let property = Property::Temporal(spec);
        let text = to_json(&property).to_text();
        let back: Property = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, property);
        // A malformed spec on the wire is a decode error, not a panic.
        let bad = Json::obj([
            ("kind", Json::str("temporal")),
            ("spec", Json::str("G (forwarded")),
        ]);
        assert!(from_json::<Property>(&bad).is_err());
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
        let back: VerifierOptions = from_json(&Json::parse(&text).unwrap()).unwrap();
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
            let text = to_json(&spec).to_text();
            let back: ScenarioSpec = from_json(&Json::parse(&text).unwrap()).unwrap();
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
            let back = from_json::<JobSpec>(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, job);
            assert_eq!(job_to_json(&back).to_text(), text, "re-encoding is stable");
        }
        assert!(from_json::<JobSpec>(&Json::obj([("kind", Json::str("warp"))])).is_err());
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
        assert!(from_json::<Property>(&Json::obj([("kind", Json::str("warp"))])).is_err());
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
        let text = to_json(&ce).to_text();
        let back: Counterexample = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.packet, packet);
    }

    #[test]
    fn hex_decode_is_panic_free_on_malformed_input() {
        let bytes_from_hex =
            |text: &str| <Hex as Via<Vec<u8>, ()>>::decode(&Json::str(text), &mut ());
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
            start: 3,
            end: 19,
        });
        let text = job_to_json(&job).to_text();
        let back = from_json::<JobSpec>(&Json::parse(&text).unwrap()).unwrap();
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
            cancelled: false,
        };
        let text = shard_result_to_json(&result).to_text();
        let back = shard_result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, result);
        let cancelled = ComposeShardResult {
            cancelled: true,
            ..result.clone()
        };
        assert_eq!(
            shard_result_to_json(&cancelled).to_text(),
            text,
            "cancellation is not on the wire"
        );
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
        let back = from_json::<JobSpec>(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, job);
        assert!(
            from_json::<JobSpec>(&Json::obj([("kind", Json::str("fuzzz"))])).is_err(),
            "unknown job kinds are rejected"
        );
    }
}

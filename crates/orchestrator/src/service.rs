//! The front door: one typed, serialisable request/response API over every
//! way this crate verifies dataplanes.
//!
//! [`VerifyService`] owns the summary store, the worker-thread budget, and
//! the verifier options, and serves [`VerifyRequest`]s:
//!
//! * [`VerifyRequest::Single`] — one pipeline × one property,
//! * [`VerifyRequest::Matrix`] — a batch of scenarios on the shared
//!   scheduler,
//! * [`VerifyRequest::Diff`] — incremental re-verification of a config
//!   edit,
//! * [`VerifyRequest::Watch`] — diff against the service's *rolling
//!   baseline*: the first watch request verifies everything and records the
//!   configs; every subsequent one re-verifies only what changed since the
//!   last and rolls the baseline forward.
//!
//! Requests and responses are plain data; requests serialise through
//! [`crate::wire`], so the same API shape works in-process, across a pipe,
//! or over a socket.
//!
//! ## One request path: resolve → run
//!
//! Every request takes the same two steps, whichever door it came
//! through ([`VerifyService::serve`] is [`VerifyService::serve_with`] with
//! no executor). **Resolve** turns it into parsed scenarios — its own, or
//! parsed from its config text and narrowed by the diff — plus the shape
//! of the outcome. **Run** verifies them: each step goes through the
//! [`Executor`] where it offers a remote path and onto the shared pool
//! where it does not. Pipelines stay parsed end to end; config text is
//! rendered only where a document leaves the process — a job frame, or the
//! [`PlanSpec`] that [`VerifyService::plan_request`] makes of a resolved
//! request and [`VerifyService::execute_plan`] parses once and runs under
//! the plan's options. A plan serialised by one process and executed by
//! another produces a byte-identical deterministic report.

use crate::cache::{CacheStats, SummaryStore};
use crate::codec::{to_json, with_member};
use crate::diff::{
    config_scenarios, default_properties, DiffEntry, DiffKind, DiffReport, NamedConfig,
};
use crate::exec::{ExecError, Executor};
use crate::executor::{Job, Latch, Pool, ThreadBudget};
use crate::fingerprint::{element_fingerprint, Fingerprint};
use crate::json::Json;
use crate::matrix::{preset_pipelines, preset_properties, MatrixReport, Scenario, ScenarioReport};
use crate::wire::{
    self, BoundSpec, ComposeJob, ComposeShardJob, DiffMeta, ExploreJob, PlanSpec, ScenarioSpec,
    WireError,
};
use dataplane_ir::Program;
use dataplane_pipeline::diff::diff_pipelines;
use dataplane_pipeline::{parse_config, write_config, ConfigError, Element, Pipeline};
use dataplane_symbex::{explore, EngineConfig};
use dataplane_verifier::{
    ComposeOutline, ElementSummary, InstructionBoundReport, Property, RecordTable, Report,
    ShardNodeRecord, Verdict, Verifier, VerifierOptions,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type ProgressFn = Arc<dyn Fn(&ProgressEvent) + Send + Sync>;

/// The fleet shard target per live capacity slot (a fleet worker's
/// advertised slot), once there are two or more: enough
/// over-decomposition that the pull queue load-balances and a straggler
/// costs at most ~1/4 of a slot's share, without drowning the wire in
/// per-job overhead. Shards run exactly as cut: nothing re-splits a
/// running shard, so this is the only balancing there is.
const AUTO_SHARDS_PER_SLOT: usize = 4;

/// An element-exploration job of a [`JobPlan`].
pub struct ExploreSpec {
    /// Content-addressed identity of the summary this job produces.
    pub fingerprint: Fingerprint,
    /// Element type name (the summary-cache key half).
    pub type_name: String,
    /// Element configuration key (the other half).
    pub config_key: String,
    /// The IR program to explore.
    pub program: Program,
}

/// The decomposition of a batch of scenarios into jobs along the paper's
/// seam — Step 1, one exploration per **distinct element behaviour**; Step
/// 2, one composition per scenario — with dependency edges: `explore[i]` are the Step-1 jobs (no dependencies, one per
/// distinct uncached element behaviour across the whole batch);
/// `scenario_deps[s]` lists the explore jobs scenario `s`'s composition job
/// depends on.
pub struct JobPlan {
    /// Step-1 jobs for behaviours missing from the store.
    pub explore: Vec<ExploreSpec>,
    /// Distinct behaviours that were already in the store (no job planned).
    pub cached: usize,
    /// Per scenario: indexes into `explore` its composition depends on.
    pub scenario_deps: Vec<Vec<usize>>,
    /// Per scenario, per pipeline element: the summary fingerprint the
    /// composition job will fetch.
    pub element_fingerprints: Vec<Vec<Fingerprint>>,
}

/// A batch of pipelines cut along the paper's seam: the distinct element
/// behaviours Step 1 explores, and what each pipeline's Step 2 reads.
struct Decomposition<'a> {
    /// One entry per distinct element behaviour across the batch, in
    /// first-seen order.
    behaviours: Vec<(Fingerprint, &'a dyn Element)>,
    /// Per pipeline: the `behaviours` its composition depends on.
    deps: Vec<Vec<usize>>,
    /// Per pipeline, per element: the summary fingerprint its composition
    /// fetches.
    element_fingerprints: Vec<Vec<Fingerprint>>,
}

/// Fingerprint every element of `pipelines`, deduplicating behaviours
/// across the whole batch.
fn decompose<'a>(
    pipelines: impl IntoIterator<Item = &'a Pipeline>,
    engine: &EngineConfig,
) -> Decomposition<'a> {
    let mut decomposition = Decomposition {
        behaviours: Vec::new(),
        deps: Vec::new(),
        element_fingerprints: Vec::new(),
    };
    let mut index_of: HashMap<Fingerprint, usize> = HashMap::new();
    for pipeline in pipelines {
        let mut deps = Vec::new();
        let mut fps = Vec::with_capacity(pipeline.len());
        for (_, node) in pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, engine);
            fps.push(fp);
            let index = *index_of.entry(fp).or_insert_with(|| {
                decomposition.behaviours.push((fp, element));
                decomposition.behaviours.len() - 1
            });
            if !deps.contains(&index) {
                deps.push(index);
            }
        }
        decomposition.deps.push(deps);
        decomposition.element_fingerprints.push(fps);
    }
    decomposition
}

/// For each pipeline, the index of the first pipeline of the batch that is
/// the same pipeline as far as Step 2 and the wire can tell: the same
/// element fingerprints (`fingerprints[i]` is pipeline `i`'s), instance
/// names, wiring and entry. Such pipelines share a record table and a
/// config text.
fn first_alike<'p>(
    pipelines: impl IntoIterator<Item = &'p Pipeline>,
    fingerprints: &[Vec<Fingerprint>],
) -> Vec<usize> {
    type Identity<'f, 'p> = (
        &'f [Fingerprint],
        Vec<(&'p str, &'p [Option<usize>])>,
        usize,
    );
    let mut first: HashMap<Identity<'_, 'p>, usize> = HashMap::new();
    pipelines
        .into_iter()
        .zip(fingerprints)
        .enumerate()
        .map(|(index, (pipeline, fps))| {
            let wiring = pipeline
                .iter()
                .map(|(_, node)| (node.name.as_str(), node.successors.as_slice()))
                .collect();
            *first
                .entry((fps.as_slice(), wiring, pipeline.entry()))
                .or_insert(index)
        })
        .collect()
}

impl Decomposition<'_> {
    /// One Step-2 record table per distinct pipeline of the batch, indexed
    /// like the pipelines: pipelines alike under [`first_alike`] share a
    /// table (see [`RecordTable`]).
    fn record_tables<'p>(
        &self,
        pipelines: impl IntoIterator<Item = &'p Pipeline>,
    ) -> Vec<Arc<RecordTable>> {
        let mut tables: Vec<Arc<RecordTable>> = Vec::new();
        for (index, first) in first_alike(pipelines, &self.element_fingerprints)
            .into_iter()
            .enumerate()
        {
            let table = if first == index {
                Arc::default()
            } else {
                tables[first].clone()
            };
            tables.push(table);
        }
        tables
    }

    /// The behaviours `store` does not hold yet (one lookup each).
    fn missing(&self, store: &SummaryStore) -> Vec<usize> {
        (0..self.behaviours.len())
            .filter(|&index| store.get(self.behaviours[index].0).is_none())
            .collect()
    }

    /// The wire form of behaviour `index`'s exploration: the worker
    /// re-instantiates the element from the config factory.
    fn wire_job(&self, index: usize) -> Result<ExploreJob, WireError> {
        let (fingerprint, element) = self.behaviours[index];
        let config_args = element.config_args().ok_or_else(|| {
            wire::malformed(format!(
                "{} has no config-language form, so its exploration cannot leave the process",
                element.type_name()
            ))
        })?;
        Ok(ExploreJob {
            fingerprint,
            type_name: element.type_name().to_string(),
            config_args,
        })
    }
}

/// Build the job plan for `scenarios` against the current contents of
/// `store`: distinct element behaviours are deduplicated across every
/// scenario, and behaviours the store already holds produce no job.
///
/// (For the *serialisable* plan artifact that crosses process boundaries,
/// see [`VerifyService::plan_request`] and [`crate::wire::PlanSpec`].)
pub fn plan(scenarios: &[Scenario], options: &VerifierOptions, store: &SummaryStore) -> JobPlan {
    let decomposition = decompose(scenarios.iter().map(|s| &s.pipeline), &options.engine);
    let mut job_of = vec![None; decomposition.behaviours.len()];
    let mut explore = Vec::new();
    for index in decomposition.missing(store) {
        let (fingerprint, element) = decomposition.behaviours[index];
        job_of[index] = Some(explore.len());
        explore.push(ExploreSpec {
            fingerprint,
            type_name: element.type_name().to_string(),
            config_key: element.config_key(),
            program: element.model(),
        });
    }
    JobPlan {
        cached: job_of.len() - explore.len(),
        scenario_deps: decomposition
            .deps
            .iter()
            .map(|deps| deps.iter().filter_map(|&index| job_of[index]).collect())
            .collect(),
        element_fingerprints: decomposition.element_fingerprints,
        explore,
    }
}

/// What the service is doing, streamed to an observer as jobs run.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// The plan is built: how much Step-1 work there is and how much the
    /// cache already covers.
    Planned {
        /// Explore jobs to run.
        explore_jobs: usize,
        /// Distinct behaviours served by the warm store.
        cached: usize,
        /// Composition jobs (one per scenario).
        scenarios: usize,
    },
    /// An element exploration started.
    ExploreStarted {
        /// Element type name.
        type_name: String,
    },
    /// An element exploration finished.
    ExploreFinished {
        /// Element type name.
        type_name: String,
        /// Wall-clock exploration time.
        elapsed: Duration,
        /// False if the exploration exceeded its budget (the composition
        /// job will surface this exactly as a sequential run would).
        ok: bool,
    },
    /// A scenario's composition started.
    ComposeStarted {
        /// `pipeline/property` label.
        scenario: String,
    },
    /// A scenario's composition finished.
    ComposeFinished {
        /// `pipeline/property` label.
        scenario: String,
        /// The verdict reached.
        verdict: Verdict,
        /// Wall-clock composition time.
        elapsed: Duration,
    },
}

/// Which properties a diff/watch request verifies for each named config.
/// Serialisable, unlike the old `&dyn Fn(&str) -> Vec<Property>` parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropertySelect {
    /// Crash freedom and bounded per-packet execution — the classes
    /// checkable for any config without per-pipeline knowledge.
    Default,
    /// The preset property table ([`preset_properties`]) for configs named
    /// like a preset pipeline (including reachability); [`Self::Default`]
    /// classes for everything else.
    Preset,
    /// Exactly these properties, for every config.
    Explicit(Vec<Property>),
}

impl PropertySelect {
    /// The properties to verify for the config named `name`.
    pub fn properties_for(&self, name: &str) -> Vec<Property> {
        match self {
            PropertySelect::Default => default_properties(name),
            PropertySelect::Preset => {
                if preset_pipelines().iter().any(|(preset, _)| *preset == name) {
                    preset_properties(name)
                } else {
                    default_properties(name)
                }
            }
            PropertySelect::Explicit(properties) => properties.clone(),
        }
    }
}

/// A verification request — the one front door.
///
/// Serialisable via [`VerifyRequest::to_json`] (pipelines travel as config
/// text), so the same request type is the in-process API and the wire API.
pub enum VerifyRequest {
    /// Verify one pipeline against one property.
    Single {
        /// Label used in reports.
        name: String,
        /// The pipeline (consumed by the run).
        pipeline: Pipeline,
        /// The property to check.
        property: Property,
    },
    /// Verify a batch of scenarios on the shared scheduler.
    Matrix {
        /// The scenarios, each owning its pipeline.
        scenarios: Vec<Scenario>,
    },
    /// Re-verify only what changed between two config sets.
    Diff {
        /// The baseline configs.
        old: Vec<NamedConfig>,
        /// The edited configs.
        new: Vec<NamedConfig>,
        /// Which properties to verify per config.
        properties: PropertySelect,
    },
    /// Diff against the service's rolling baseline (see the module docs);
    /// the incremental shape a file-watcher loop submits on every change.
    Watch {
        /// The current configs.
        configs: Vec<NamedConfig>,
        /// Which properties to verify per config.
        properties: PropertySelect,
    },
    /// Establish the pipeline's per-packet instruction bound and witness
    /// packet ([`Verifier::max_instructions`]) — the paper's second
    /// experiment, as a typed request so the bound analysis rides the
    /// plan/execute split (its element explorations run through any
    /// [`Executor`]).
    Bound {
        /// Label used in reports.
        name: String,
        /// The pipeline to bound.
        pipeline: Pipeline,
    },
    /// Differentially test the scenarios' verdicts against the concrete
    /// model interpreter: verify the matrix, replay every `Violated`
    /// counterexample, and fuzz every `Proven` scenario with `packets`
    /// seeded packets (see [`crate::conformance`]).
    Conformance {
        /// The scenarios, each owning its pipeline.
        scenarios: Vec<Scenario>,
        /// Base seed of the fuzz streams (fixed seed ⇒ byte-identical
        /// deterministic report).
        seed: u64,
        /// Total fuzz packets, split across the proven scenarios.
        packets: u64,
    },
}

impl VerifyRequest {
    /// The request kind's wire name.
    pub fn kind(&self) -> &'static str {
        match self {
            VerifyRequest::Single { .. } => "single",
            VerifyRequest::Matrix { .. } => "matrix",
            VerifyRequest::Diff { .. } => "diff",
            VerifyRequest::Watch { .. } => "watch",
            VerifyRequest::Bound { .. } => "bound",
            VerifyRequest::Conformance { .. } => "conformance",
        }
    }

    /// Serialise (see [`crate::wire::request_to_json`]).
    pub fn to_json(&self) -> Result<Json, WireError> {
        wire::request_to_json(self)
    }

    /// Deserialise (see [`crate::wire::request_from_json`]).
    pub fn from_json(json: &Json) -> Result<VerifyRequest, WireError> {
        wire::request_from_json(json)
    }
}

/// The named result of a [`VerifyRequest::Bound`] analysis.
pub struct BoundOutcome {
    /// The pipeline's label.
    pub pipeline_name: String,
    /// The instruction-bound analysis result.
    pub report: InstructionBoundReport,
}

/// What a served request produced.
pub enum VerifyOutcome {
    /// The report of a [`VerifyRequest::Single`] run.
    Single(Box<ScenarioReport>),
    /// The matrix of a [`VerifyRequest::Matrix`] run (also the first
    /// [`VerifyRequest::Watch`] call, which establishes the baseline).
    Matrix(MatrixReport),
    /// The incremental report of a [`VerifyRequest::Diff`] or follow-up
    /// [`VerifyRequest::Watch`] run.
    Diff(DiffReport),
    /// The instruction bound of a [`VerifyRequest::Bound`] analysis.
    Bound(Box<BoundOutcome>),
    /// The replay + fuzz result of a [`VerifyRequest::Conformance`] run.
    Conformance(Box<crate::conformance::ConformanceReport>),
}

/// The front door's response: the outcome plus which request shape produced
/// it.
pub struct VerifyResponse {
    /// The served request's kind (`"single"`, `"matrix"`, ...).
    pub request: &'static str,
    /// What the run produced.
    pub outcome: VerifyOutcome,
}

impl VerifyResponse {
    /// The matrix report of whatever ran: the outcome itself for matrix
    /// runs, the re-verification matrix for diff runs, a one-scenario view
    /// for single runs.
    pub fn matrix(&self) -> Option<&MatrixReport> {
        match &self.outcome {
            VerifyOutcome::Single(_) | VerifyOutcome::Bound(_) | VerifyOutcome::Conformance(_) => {
                None
            }
            VerifyOutcome::Matrix(m) => Some(m),
            VerifyOutcome::Diff(d) => Some(&d.matrix),
        }
    }

    /// The single report, if this response answered a `Single` request.
    pub fn report(&self) -> Option<&Report> {
        match &self.outcome {
            VerifyOutcome::Single(s) => Some(&s.report),
            _ => None,
        }
    }

    /// `(proven, violated, unknown)` counts across every scenario that ran.
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        match &self.outcome {
            VerifyOutcome::Single(s) => match s.report.verdict {
                Verdict::Proven => (1, 0, 0),
                Verdict::Violated => (0, 1, 0),
                Verdict::Unknown => (0, 0, 1),
            },
            VerifyOutcome::Matrix(m) => m.verdict_counts(),
            VerifyOutcome::Diff(d) => d.matrix.verdict_counts(),
            // Bound analyses and conformance runs carry no verdicts of
            // their own (conformance *consumes* a matrix's verdicts).
            VerifyOutcome::Bound(_) | VerifyOutcome::Conformance(_) => (0, 0, 0),
        }
    }

    /// The machine-readable (operational) document: schema-versioned, with
    /// timings and cache statistics. A single report or bound is its
    /// deterministic document plus `elapsed_micros`.
    pub fn to_json(&self) -> Json {
        let elapsed = match &self.outcome {
            VerifyOutcome::Single(s) => s.report.elapsed,
            VerifyOutcome::Bound(b) => b.report.elapsed,
            VerifyOutcome::Matrix(m) => return m.to_json(),
            VerifyOutcome::Diff(d) => return d.to_json(),
            VerifyOutcome::Conformance(c) => return c.to_json(),
        };
        with_member(
            "elapsed_micros",
            to_json(&elapsed),
            self.deterministic_json(),
        )
    }

    /// The deterministic document: verdicts, counterexamples, unproven
    /// paths, and work statistics only — byte-identical across runs,
    /// processes, schedulers, and cache temperatures.
    pub fn deterministic_json(&self) -> Json {
        let (kind, pipeline, report) = match &self.outcome {
            VerifyOutcome::Single(s) => {
                ("single", &s.pipeline_name, wire::report_to_json(&s.report))
            }
            VerifyOutcome::Bound(b) => ("bound", &b.pipeline_name, to_json(&b.report)),
            VerifyOutcome::Matrix(m) => return m.deterministic_json(),
            VerifyOutcome::Diff(d) => return d.deterministic_json(),
            VerifyOutcome::Conformance(c) => return c.deterministic_json(),
        };
        wire::REPORT.stamp(Json::obj([
            ("kind", Json::str(kind)),
            ("pipeline", Json::str(pipeline)),
            ("report", report),
        ]))
    }
}

impl fmt::Display for VerifyResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            VerifyOutcome::Single(s) => write!(f, "{}", s.report),
            VerifyOutcome::Matrix(m) => write!(f, "{m}"),
            VerifyOutcome::Diff(d) => write!(f, "{d}"),
            VerifyOutcome::Bound(b) => write!(f, "{}: {}", b.pipeline_name, b.report),
            VerifyOutcome::Conformance(c) => write!(f, "{c}"),
        }
    }
}

/// A front-door failure.
#[derive(Debug)]
pub enum ServiceError {
    /// A config string does not parse.
    Config(ConfigError),
    /// A request, plan, or pipeline does not (de)serialise.
    Wire(WireError),
    /// Plan execution failed (worker spawn, protocol, job).
    Exec(ExecError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "service: {e}"),
            ServiceError::Wire(e) => write!(f, "service: {e}"),
            ServiceError::Exec(e) => write!(f, "service: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

/// The verification service: the owner of the summary store, the shared
/// scheduler's thread budget, and the verifier options — serving typed
/// [`VerifyRequest`]s (see the module docs).
pub struct VerifyService {
    options: VerifierOptions,
    threads: usize,
    store: Arc<SummaryStore>,
    progress: Option<ProgressFn>,
    budget: Arc<ThreadBudget>,
    /// The rolling baseline of [`VerifyRequest::Watch`]: the configs the
    /// last watch call verified.
    baseline: Mutex<Option<Vec<NamedConfig>>>,
}

impl Default for VerifyService {
    fn default() -> Self {
        VerifyService::new()
    }
}

impl VerifyService {
    /// A service with default verifier options, an in-memory store, one
    /// worker per available core, and the shared scheduler dispatching both
    /// scenario- and check-level work.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        VerifyService {
            options: VerifierOptions::default(),
            threads,
            store: Arc::new(SummaryStore::in_memory()),
            progress: None,
            budget: ThreadBudget::new(threads),
            baseline: Mutex::new(None),
        }
    }

    /// Replace the summary store (e.g. with a persistent one).
    pub fn with_store(mut self, store: Arc<SummaryStore>) -> Self {
        self.store = store;
        self
    }

    /// Set the worker-thread count — which is also the pool-wide bound on
    /// live solver threads (0 keeps the auto-detected value).
    pub fn with_threads(mut self, threads: usize) -> Self {
        if threads > 0 {
            self.threads = threads;
            self.budget = ThreadBudget::new(threads);
        }
        self
    }

    /// Replace the verifier options (engine and solver budgets).
    pub fn with_options(mut self, options: VerifierOptions) -> Self {
        self.options = options;
        self
    }

    /// Stream progress events to `observer`.
    pub fn with_progress(
        mut self,
        observer: impl Fn(&ProgressEvent) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Arc::new(observer));
        self
    }

    /// The shared summary store.
    pub fn store(&self) -> &Arc<SummaryStore> {
        &self.store
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured verifier options.
    pub fn options(&self) -> &VerifierOptions {
        &self.options
    }

    /// The shared thread budget (exposes the live-thread high-water mark).
    pub fn thread_budget(&self) -> &Arc<ThreadBudget> {
        &self.budget
    }

    fn emit(&self, event: impl FnOnce() -> ProgressEvent) {
        if let Some(observer) = &self.progress {
            observer(&event());
        }
    }

    // -----------------------------------------------------------------------
    // Serving: resolve → run
    // -----------------------------------------------------------------------

    /// Serve one request in this process (see [`VerifyRequest`] for the
    /// shapes).
    pub fn serve(&self, request: VerifyRequest) -> Result<VerifyResponse, ServiceError> {
        self.serve_with(request, None)
    }

    /// Serve one request: resolve it, then run what it resolved to —
    /// through `executor` wherever it offers a remote path (the daemon
    /// passes the fleet of currently joined socket workers), on the shared
    /// pool wherever it does not or there is none. The response is shaped
    /// the same, and its deterministic document is byte-identical,
    /// whichever side ran which step.
    pub fn serve_with(
        &self,
        request: VerifyRequest,
        executor: Option<&dyn Executor>,
    ) -> Result<VerifyResponse, ServiceError> {
        let mut parsed = Vec::new();
        let resolved = self.resolve(&request, &mut parsed)?;
        let baseline = resolved.baseline;
        let outcome = self.run(resolved, &self.options, executor)?;
        // Roll the Watch baseline forward only after the tick verified: a
        // tick that errors (e.g. a config syntax error) must not become
        // the baseline, or the eventual fix would diff as `Identical`
        // against it and skip verification of the edit.
        if let Some(configs) = baseline {
            *self.baseline.lock().expect("watch baseline") = Some(configs.to_vec());
        }
        Ok(VerifyResponse {
            request: request.kind(),
            outcome,
        })
    }

    /// The resolve step, and the one place a request's kind is told apart:
    /// which scenarios it asks for — its own, or parsed into `parsed` from
    /// its config text and narrowed by the diff against the old configs or
    /// the Watch baseline — and how the outcome will be shaped. Nothing
    /// runs and the baseline does not move.
    fn resolve<'a>(
        &self,
        request: &'a VerifyRequest,
        parsed: &'a mut Vec<Scenario>,
    ) -> Result<Resolved<'a>, ConfigError> {
        let mut resolved = Resolved {
            shape: Shape::Matrix,
            scenarios: Vec::new(),
            baseline: None,
        };
        match request {
            VerifyRequest::Single {
                name,
                pipeline,
                property,
            } => {
                resolved.shape = Shape::Single;
                resolved.scenarios.push(ScenarioRef {
                    name,
                    pipeline,
                    property,
                });
            }
            VerifyRequest::Matrix { scenarios } => {
                resolved.scenarios = scenarios.iter().map(ScenarioRef::from).collect();
            }
            VerifyRequest::Conformance {
                scenarios,
                seed,
                packets,
            } => {
                resolved.shape = Shape::Conformance {
                    seed: *seed,
                    packets: *packets,
                };
                resolved.scenarios = scenarios.iter().map(ScenarioRef::from).collect();
            }
            VerifyRequest::Bound { name, pipeline } => {
                resolved.shape = Shape::Bound { name, pipeline };
            }
            VerifyRequest::Diff {
                old,
                new,
                properties,
            } => {
                let (scenarios, meta) =
                    diff_scenarios(old, new, &|name| properties.properties_for(name))?;
                *parsed = scenarios;
                resolved.shape = Shape::Diff(meta);
            }
            VerifyRequest::Watch {
                configs,
                properties,
            } => {
                let select = |name: &str| properties.properties_for(name);
                match self.baseline.lock().expect("watch baseline").as_deref() {
                    // First watch call: verify everything; serving it
                    // establishes the baseline.
                    None => *parsed = config_scenarios(configs, &select)?,
                    // Every later call: only what changed since the
                    // previous configs.
                    Some(old) => {
                        let (scenarios, meta) = diff_scenarios(old, configs, &select)?;
                        *parsed = scenarios;
                        resolved.shape = Shape::Diff(meta);
                    }
                }
                resolved.baseline = Some(configs);
            }
        }
        let parsed: &'a [Scenario] = parsed;
        resolved
            .scenarios
            .extend(parsed.iter().map(ScenarioRef::from));
        Ok(resolved)
    }

    /// The run step: verify what a request resolved to under `options`,
    /// and shape the outcome.
    fn run(
        &self,
        resolved: Resolved<'_>,
        options: &VerifierOptions,
        executor: Option<&dyn Executor>,
    ) -> Result<VerifyOutcome, ServiceError> {
        let scenarios = &resolved.scenarios;
        Ok(match resolved.shape {
            Shape::Conformance { seed, packets } => VerifyOutcome::Conformance(Box::new(
                self.conformance(scenarios, options, seed, packets, executor)?,
            )),
            // An instruction bound is Step 1 of one pipeline, then the
            // analysis decided from the warmed store.
            Shape::Bound { name, pipeline } => {
                let decomposition = decompose([pipeline], &options.engine);
                let missing = decomposition.missing(&self.store);
                let missing = self.explore_remote(&decomposition, missing, options, executor)?;
                self.run_pool(&[], &decomposition, &[], &missing, options);
                let mut verifier = Verifier::with_options(options.clone());
                verifier.seed_summaries(
                    decomposition.element_fingerprints[0]
                        .iter()
                        .filter_map(|fp| self.store.get(*fp)),
                );
                VerifyOutcome::Bound(Box::new(BoundOutcome {
                    pipeline_name: name.to_string(),
                    report: verifier.max_instructions(pipeline),
                }))
            }
            shape => {
                let mut matrix = self.run_scenarios(scenarios, options, executor)?;
                match shape {
                    Shape::Single => VerifyOutcome::Single(Box::new(matrix.scenarios.remove(0))),
                    Shape::Diff(meta) => VerifyOutcome::Diff(DiffReport {
                        entries: meta.entries,
                        removed_configs: meta.removed_configs,
                        skipped_scenarios: meta.skipped_scenarios,
                        matrix,
                    }),
                    _ => VerifyOutcome::Matrix(matrix),
                }
            }
        })
    }

    /// Steps 1 and 2 of a batch of scenarios. With an executor, the
    /// behaviours the store lacks are explored remotely if it explores,
    /// and every scenario is composed remotely if it composes (once Step 1
    /// is complete — shards ship with their summaries). Whatever is left
    /// runs on the shared pool, Step 2 latched on Step 1, so without a
    /// remote path nothing is serialised and nothing waits on a phase
    /// barrier.
    fn run_scenarios(
        &self,
        scenarios: &[ScenarioRef<'_>],
        options: &VerifierOptions,
        executor: Option<&dyn Executor>,
    ) -> Result<MatrixReport, ServiceError> {
        let started = Instant::now();
        let stats_before = self.store.stats();
        self.budget.reset_peak();
        let decomposition = decompose(scenarios.iter().map(|s| s.pipeline), &options.engine);
        let tables = decomposition.record_tables(scenarios.iter().map(|s| s.pipeline));
        let missing = decomposition.missing(&self.store);
        let explore_jobs = missing.len();
        let cached_jobs = decomposition.behaviours.len() - explore_jobs;
        self.emit(|| ProgressEvent::Planned {
            explore_jobs,
            cached: cached_jobs,
            scenarios: scenarios.len(),
        });

        let mut missing = self.explore_remote(&decomposition, missing, options, executor)?;
        let mut reports = None;
        if let Some(executor) = executor {
            let fetch = |fp: Fingerprint| self.store.get(fp);
            if executor.compose_shard_jobs(&[], options, &fetch).is_some()
                || executor.compose_jobs(&[], options, &fetch).is_some()
            {
                self.run_pool(&[], &decomposition, &[], &missing, options);
                missing.clear();
                let fingerprints = &decomposition.element_fingerprints;
                reports =
                    self.compose_remote(scenarios, fingerprints, &tables, options, executor)?;
            }
        }
        let reports = match reports {
            Some(reports) => reports,
            None => self.run_pool(scenarios, &decomposition, &tables, &missing, options),
        };
        // The request's tables end here; their counters outlive them in the
        // store's. Scenarios of one pipeline share a table: count it once.
        for (index, table) in tables.iter().enumerate() {
            if !tables[..index].iter().any(|seen| Arc::ptr_eq(seen, table)) {
                self.store.count_records(table);
            }
        }
        Ok(MatrixReport {
            scenarios: scenarios
                .iter()
                .zip(reports)
                .map(|(scenario, report)| ScenarioReport {
                    pipeline_name: scenario.name.to_string(),
                    report,
                })
                .collect(),
            explore_jobs,
            cached_jobs,
            threads: self.threads,
            // Zero when no step ran in this process.
            peak_live_threads: self.budget.peak_in_use(),
            cache: CacheStats::delta(&stats_before, &self.store.stats()),
            stats: executor.and_then(|executor| executor.dispatch_stats()),
            elapsed: started.elapsed(),
        })
    }

    /// Step 1 through the executor, if there is one and it explores: ship
    /// the `missing` behaviours and publish what comes back. A
    /// budget-exceeded job returns `None` and publishes nothing — the
    /// composition then surfaces the failure exactly as a cold in-process
    /// run would. Returns what is left for the shared pool to explore.
    fn explore_remote(
        &self,
        decomposition: &Decomposition<'_>,
        missing: Vec<usize>,
        options: &VerifierOptions,
        executor: Option<&dyn Executor>,
    ) -> Result<Vec<usize>, ServiceError> {
        let Some(executor) = executor else {
            return Ok(missing);
        };
        let jobs = missing
            .iter()
            .map(|&index| decomposition.wire_job(index))
            .collect::<Result<Vec<_>, _>>()?;
        let Some(summaries) = executor.explore_jobs(&jobs, options) else {
            return Ok(missing);
        };
        for (job, summary) in jobs.iter().zip(summaries?) {
            if let Some(summary) = summary {
                self.store.insert(job.fingerprint, Arc::new(summary));
            }
        }
        Ok(Vec::new())
    }

    /// The shared scheduler: spawn a Step-1 task per `missing` behaviour
    /// and a composition task per scenario (none, when Step 2 runs
    /// remotely), each latched on the explorations it depends on, so every
    /// kind of work competes for one thread budget. `tables` holds
    /// each scenario's record table. Returns the scenarios' reports in
    /// order.
    fn run_pool(
        &self,
        scenarios: &[ScenarioRef<'_>],
        decomposition: &Decomposition<'_>,
        tables: &[Arc<RecordTable>],
        missing: &[usize],
        options: &VerifierOptions,
    ) -> Vec<Report> {
        let slots: Vec<Mutex<Option<Report>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        Pool::run(self.threads, self.budget.clone(), |pool| {
            // `dependents[b]` collects the latches the exploration of
            // behaviour `b` must signal when it completes.
            let mut dependents: Vec<Vec<Arc<Latch<'_>>>> =
                vec![Vec::new(); decomposition.behaviours.len()];
            for (index, (scenario, slot)) in scenarios.iter().zip(&slots).enumerate() {
                let composition = Composition {
                    service: self,
                    options,
                    scenario: *scenario,
                    fingerprints: &decomposition.element_fingerprints[index],
                    table: &tables[index],
                    slot,
                };
                let job: Job<'_> = Box::new(move |_| composition.run());
                let waits = decomposition.deps[index]
                    .iter()
                    .filter(|behaviour| missing.contains(behaviour));
                match waits.clone().count() {
                    0 => pool.spawn(job),
                    count => {
                        let latch = Latch::new(count, job);
                        for &behaviour in waits {
                            dependents[behaviour].push(latch.clone());
                        }
                    }
                }
            }
            for &index in missing {
                let (fingerprint, element) = decomposition.behaviours[index];
                let latches = std::mem::take(&mut dependents[index]);
                pool.spawn(Box::new(move |pool| {
                    self.explore(fingerprint, element, &options.engine);
                    for latch in &latches {
                        latch.ready(pool);
                    }
                }));
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("report slot")
                    .expect("every composition job ran")
            })
            .collect()
    }

    /// One Step-1 task: explore an element behaviour and publish its
    /// summary to the shared store.
    fn explore(&self, fingerprint: Fingerprint, element: &dyn Element, engine: &EngineConfig) {
        let type_name = element.type_name();
        self.emit(|| ProgressEvent::ExploreStarted {
            type_name: type_name.to_string(),
        });
        let program = element.model();
        let start = Instant::now();
        let result = explore(&program, engine);
        let elapsed = start.elapsed();
        let ok = result.is_ok();
        // A budget-exceeded exploration publishes nothing; the composition
        // job then explores inline and reports the failure exactly as the
        // sequential verifier does.
        if let Ok(exploration) = result {
            self.store.insert(
                fingerprint,
                Arc::new(ElementSummary {
                    type_name: type_name.to_string(),
                    config_key: element.config_key(),
                    exploration,
                    explore_time: elapsed,
                }),
            );
        }
        self.emit(|| ProgressEvent::ExploreFinished {
            type_name: type_name.to_string(),
            elapsed,
            ok,
        });
    }

    /// Step 2 through the executor, on a warm store: sharded when the
    /// executor has a shard path and two or more live slots, as whole
    /// compositions otherwise. This is where a scenario becomes config
    /// text — once, for every frame that carries it. `Ok(None)` when the
    /// executor composes nothing remotely after all.
    fn compose_remote(
        &self,
        scenarios: &[ScenarioRef<'_>],
        fingerprints: &[Vec<Fingerprint>],
        tables: &[Arc<RecordTable>],
        options: &VerifierOptions,
        executor: &dyn Executor,
    ) -> Result<Option<Vec<Report>>, ServiceError> {
        let specs = render(scenarios, fingerprints)?;
        if let Some(reports) =
            self.compose_sharded(scenarios, &specs, fingerprints, tables, options, executor)?
        {
            return Ok(Some(reports));
        }
        let jobs: Vec<ComposeJob> = specs
            .into_iter()
            .zip(fingerprints)
            .map(|(scenario, fps)| ComposeJob {
                scenario,
                fingerprints: fps.clone(),
            })
            .collect();
        let fetch = |fp: Fingerprint| self.store.get(fp);
        Ok(executor.compose_jobs(&jobs, options, &fetch).transpose()?)
    }

    /// The sharded form of [`VerifyService::compose_remote`]: cut each
    /// scenario's suspect×prefix enumeration into contiguous
    /// [`ComposeShardJob`]s, dispatch them all as one pull-based batch (so
    /// the fleet load-balances across scenarios, not just within one), and
    /// fold each scenario's shard records back into its report by replaying
    /// the sequential enumeration — byte-identical to an unsharded run.
    ///
    /// Returns `Ok(None)` when nothing was cut (fewer than two live slots,
    /// or nothing shardable in the whole request) or the executor has no
    /// remote shard path; the caller then dispatches whole compositions
    /// instead of idling the fleet. Scenarios with no shardable
    /// enumeration verify in place.
    fn compose_sharded(
        &self,
        scenarios: &[ScenarioRef<'_>],
        specs: &[ScenarioSpec],
        fingerprints: &[Vec<Fingerprint>],
        tables: &[Arc<RecordTable>],
        options: &VerifierOptions,
        executor: &dyn Executor,
    ) -> Result<Option<Vec<Report>>, ServiceError> {
        // On one slot nothing runs beside anything else: every cut would
        // only add its price, so whole compositions go out uncut.
        let slots = executor.live_capacity().unwrap_or(0);
        let fetch = |fp: Fingerprint| self.store.get(fp);
        if slots < 2 || executor.compose_shard_jobs(&[], options, &fetch).is_none() {
            return Ok(None);
        }
        let inputs: Vec<ComposeInput<'_>> = scenarios
            .iter()
            .zip(fingerprints)
            .zip(tables)
            .map(|((scenario, fps), table)| ComposeInput::fetch(*scenario, fps, table, &self.store))
            .collect();
        let cuts = shard_cuts(slots, &inputs, options);

        let mut jobs: Vec<ComposeShardJob> = Vec::new();
        for (cut, (spec, fps)) in cuts.iter().zip(specs.iter().zip(fingerprints)) {
            for &(start, end) in cut.iter().flat_map(|(_, ranges)| ranges) {
                jobs.push(ComposeShardJob {
                    scenario: spec.clone(),
                    fingerprints: fps.clone(),
                    start,
                    end,
                });
            }
        }
        if jobs.is_empty() {
            return Ok(None);
        }
        let results = match executor.compose_shard_jobs(&jobs, options, &fetch) {
            Some(results) => results?,
            None => return Ok(None),
        };

        // Shards were emitted scenario by scenario, so each scenario's
        // results are its cut's next `ranges.len()` slots in order.
        let mut results = results.into_iter();
        let reports = inputs
            .iter()
            .zip(cuts)
            .map(|(input, cut)| {
                // A scenario with nothing to cut folds over no records:
                // it is decided in place.
                let (outline, ranges) = cut.unwrap_or_default();
                let records = results.by_ref().take(ranges.len()).flat_map(|r| r.records);
                input.fold(options, &outline, records.collect())
            })
            .collect();
        Ok(Some(reports))
    }

    // -----------------------------------------------------------------------
    // In-process conveniences over the run step
    // -----------------------------------------------------------------------

    /// Verify one pipeline against one property. Equivalent to (and
    /// verdict-identical with) `Verifier::verify`, with element
    /// explorations on the shared pool and summaries served from the store.
    pub fn verify(&self, pipeline: Pipeline, property: Property) -> Report {
        let name = format!("pipeline[{}]", pipeline.len());
        let mut matrix = self.run_matrix(vec![Scenario::new(name, pipeline, property)]);
        matrix.scenarios.remove(0).report
    }

    /// Run a batch of scenarios on the shared scheduler with the service's
    /// options.
    pub fn run_matrix(&self, scenarios: Vec<Scenario>) -> MatrixReport {
        let scenarios: Vec<ScenarioRef<'_>> = scenarios.iter().map(ScenarioRef::from).collect();
        self.run_scenarios(&scenarios, &self.options, None)
            .expect("only an executor's remote steps can fail")
    }

    /// Incrementally re-verify `new` against `old`: only scenarios of
    /// configs whose element set or wiring changed are re-run. For the
    /// composition-only guarantee on wiring-only diffs the summary store
    /// must be warm with the old configs' element behaviours — run the old
    /// configs first (same process, or a persistent store).
    pub fn verify_diff(
        &self,
        old: &[NamedConfig],
        new: &[NamedConfig],
        properties: &dyn Fn(&str) -> Vec<Property>,
    ) -> Result<DiffReport, ConfigError> {
        let (scenarios, meta) = diff_scenarios(old, new, properties)?;
        let matrix = self.run_matrix(scenarios);
        Ok(DiffReport {
            entries: meta.entries,
            removed_configs: meta.removed_configs,
            skipped_scenarios: meta.skipped_scenarios,
            matrix,
        })
    }

    /// Differentially test the scenarios' verdicts against the concrete
    /// model interpreter (see [`crate::conformance`]): run the matrix on
    /// the shared scheduler, replay every `Violated` counterexample on a
    /// fresh model runtime, and fuzz every `Proven` scenario with
    /// `packets` seeded packets split into [`crate::wire::FuzzJob`]
    /// shards. The shards run through `executor` when it has a remote
    /// fuzz path (a [`crate::exec::WorkerFleet`]) and on the in-process
    /// pool otherwise — the deterministic report is byte-identical either
    /// way under a fixed seed.
    pub fn run_conformance(
        &self,
        scenarios: Vec<Scenario>,
        seed: u64,
        packets: u64,
        executor: Option<&dyn Executor>,
    ) -> Result<crate::conformance::ConformanceReport, ServiceError> {
        let scenarios: Vec<ScenarioRef<'_>> = scenarios.iter().map(ScenarioRef::from).collect();
        self.conformance(&scenarios, &self.options, seed, packets, executor)
    }

    fn conformance(
        &self,
        scenarios: &[ScenarioRef<'_>],
        options: &VerifierOptions,
        seed: u64,
        packets: u64,
        executor: Option<&dyn Executor>,
    ) -> Result<crate::conformance::ConformanceReport, ServiceError> {
        use crate::conformance as conf;
        let started = Instant::now();
        // Fuzz shards travel as config text; replay runs on the pipeline
        // that was verified (each replay builds a fresh model runtime).
        let fingerprints =
            decompose(scenarios.iter().map(|s| s.pipeline), &options.engine).element_fingerprints;
        let specs = render(scenarios, &fingerprints)?;
        let matrix = self.run_scenarios(scenarios, options, None)?;

        let mut replay = Vec::new();
        let mut proven_specs = Vec::new();
        for ((scenario, spec), scenario_report) in
            scenarios.iter().zip(&specs).zip(&matrix.scenarios)
        {
            match scenario_report.report.verdict {
                Verdict::Violated => replay.extend(conf::replay_report(
                    scenario.pipeline,
                    &scenario_report.pipeline_name,
                    &scenario_report.report,
                )),
                Verdict::Proven => proven_specs.push(spec.clone()),
                // An Unknown verdict claims nothing — there is no verdict
                // for concrete execution to contradict.
                Verdict::Unknown => {}
            }
        }

        let jobs = conf::plan_fuzz_shards(&proven_specs, seed, packets);
        let shards = match executor.and_then(|e| e.fuzz_jobs(&jobs, options)) {
            Some(result) => result?,
            None => conf::run_fuzz_jobs(&jobs, options, self.budget.clone())?,
        };
        Ok(conf::ConformanceReport {
            seed,
            packets_requested: packets,
            replay,
            fuzz: conf::fold_fuzz_shards(shards),
            threads: self.threads,
            elapsed: started.elapsed(),
        })
    }

    // -----------------------------------------------------------------------
    // The plan artifact
    // -----------------------------------------------------------------------

    /// Resolve a request and render it as a serialisable [`PlanSpec`]
    /// without running anything: scenarios as config text, one job per
    /// distinct element behaviour (regardless of this service's store
    /// temperature — the *executing* process skips what its own store
    /// holds), dependency edges, fingerprints.
    ///
    /// A `Watch` request plans like its serve would run: a full matrix when
    /// no baseline is recorded, a diff against the rolling baseline
    /// otherwise (planning does **not** roll the baseline forward — only
    /// serving does).
    pub fn plan_request(&self, request: &VerifyRequest) -> Result<PlanSpec, ServiceError> {
        let mut parsed = Vec::new();
        let Resolved {
            shape, scenarios, ..
        } = self.resolve(request, &mut parsed)?;
        let bound = match &shape {
            Shape::Conformance { .. } => {
                return Err(ServiceError::Wire(wire::malformed(
                    "conformance requests are served directly (their fuzz shards dispatch as \
                     wire jobs themselves); there is no plan form",
                )))
            }
            Shape::Bound { pipeline, .. } => Some(*pipeline),
            _ => None,
        };
        let mut decomposition = decompose(
            scenarios.iter().map(|s| s.pipeline).chain(bound),
            &self.options.engine,
        );
        let mut plan = PlanSpec {
            options: self.options.clone(),
            scenarios: render(&scenarios, &decomposition.element_fingerprints)?,
            jobs: (0..decomposition.behaviours.len())
                .map(|index| decomposition.wire_job(index))
                .collect::<Result<_, _>>()?,
            scenario_jobs: Vec::new(),
            element_fingerprints: Vec::new(),
            diff: None,
            bound: None,
        };
        match shape {
            // A bound plan's one pipeline is not a scenario: its
            // fingerprints travel in the bound section.
            Shape::Bound { name, pipeline } => {
                plan.bound = Some(BoundSpec {
                    name: name.to_string(),
                    config: write_config(pipeline).map_err(WireError::Write)?,
                    fingerprints: decomposition.element_fingerprints.remove(0),
                });
            }
            shape => {
                plan.scenario_jobs = decomposition.deps;
                plan.element_fingerprints = decomposition.element_fingerprints;
                if let Shape::Diff(meta) = shape {
                    plan.diff = Some(meta);
                }
            }
        }
        Ok(plan)
    }

    /// Execute a plan — typically one another process serialised: parse
    /// its scenarios once and run them under the *plan's* options, Step 1
    /// and Step 2 through `executor` wherever it offers a remote path and
    /// on the shared scheduler otherwise (see
    /// [`VerifyService::serve_with`]).
    ///
    /// The deterministic report content is byte-identical to serving the
    /// original request in the planning process.
    pub fn execute_plan(
        &self,
        plan_spec: &PlanSpec,
        executor: &dyn Executor,
    ) -> Result<VerifyResponse, ServiceError> {
        let parsed = plan_spec
            .scenarios
            .iter()
            .map(ScenarioSpec::to_scenario)
            .collect::<Result<Vec<_>, _>>()?;
        let bound = match &plan_spec.bound {
            Some(bound) => Some((bound.name.as_str(), parse_config(&bound.config)?)),
            None => None,
        };
        let resolved = Resolved {
            shape: match (&bound, &plan_spec.diff) {
                (Some((name, pipeline)), _) => Shape::Bound { name, pipeline },
                (None, Some(meta)) => Shape::Diff(meta.clone()),
                (None, None) => Shape::Matrix,
            },
            scenarios: parsed.iter().map(ScenarioRef::from).collect(),
            baseline: None,
        };
        Ok(VerifyResponse {
            request: "exec-plan",
            outcome: self.run(resolved, &plan_spec.options, Some(executor))?,
        })
    }
}

/// A scenario by reference: what the run step verifies, wherever the
/// pipeline lives — inside the request, or parsed by the resolve step.
#[derive(Clone, Copy)]
struct ScenarioRef<'a> {
    name: &'a str,
    pipeline: &'a Pipeline,
    property: &'a Property,
}

impl<'a> From<&'a Scenario> for ScenarioRef<'a> {
    fn from(scenario: &'a Scenario) -> Self {
        ScenarioRef {
            name: &scenario.pipeline_name,
            pipeline: &scenario.pipeline,
            property: &scenario.property,
        }
    }
}

/// The scenarios as config text: the one way a pipeline leaves the
/// process, called where a plan document or a frame is built.
/// `fingerprints[i]` is scenario `i`'s element fingerprints. Each distinct
/// pipeline (see [`first_alike`]) is written — and its round trip through
/// the config language checked — once; the scenarios alike share its text.
fn render(
    scenarios: &[ScenarioRef<'_>],
    fingerprints: &[Vec<Fingerprint>],
) -> Result<Vec<ScenarioSpec>, WireError> {
    let firsts = first_alike(scenarios.iter().map(|s| s.pipeline), fingerprints);
    let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(scenarios.len());
    for (index, (scenario, first)) in scenarios.iter().zip(firsts).enumerate() {
        let config = if first == index {
            write_config(scenario.pipeline)?
        } else {
            specs[first].config.clone()
        };
        specs.push(ScenarioSpec {
            name: scenario.name.to_string(),
            config,
            property: scenario.property.clone(),
        });
    }
    Ok(specs)
}

/// What the resolve step makes of a request.
struct Resolved<'a> {
    /// How the outcome is shaped.
    shape: Shape<'a>,
    /// The scenarios to verify.
    scenarios: Vec<ScenarioRef<'a>>,
    /// The configs a Watch tick becomes the baseline of, once served.
    baseline: Option<&'a [NamedConfig]>,
}

/// The outcome a resolved request produces.
enum Shape<'a> {
    /// The one scenario's own report.
    Single,
    /// The matrix of every scenario.
    Matrix,
    /// The matrix of the re-verified scenarios under the diff decision.
    Diff(DiffMeta),
    /// No scenario: the instruction bound of this pipeline.
    Bound {
        name: &'a str,
        pipeline: &'a Pipeline,
    },
    /// The scenarios' matrix, consumed by replay and seeded fuzzing.
    Conformance { seed: u64, packets: u64 },
}

/// What one scenario's Step 2 reads, on the shared pool and on the
/// coordinator side of a fleet alike: the scenario, the summaries of its
/// elements (fetched once), and the record table of its pipeline.
struct ComposeInput<'a> {
    scenario: ScenarioRef<'a>,
    summaries: Vec<Arc<ElementSummary>>,
    table: &'a Arc<RecordTable>,
}

impl<'a> ComposeInput<'a> {
    fn fetch(
        scenario: ScenarioRef<'a>,
        fingerprints: &'a [Fingerprint],
        table: &'a Arc<RecordTable>,
        store: &SummaryStore,
    ) -> Self {
        ComposeInput {
            scenario,
            table,
            summaries: fingerprints
                .iter()
                .filter_map(|fp| store.get(*fp))
                .collect(),
        }
    }

    /// Fold shard records into the scenario's report; over the empty
    /// outline and no records, that decides the scenario in place. What
    /// the fold computes inline goes through the pipeline's record table.
    fn fold(
        &self,
        options: &VerifierOptions,
        outline: &ComposeOutline,
        records: Vec<ShardNodeRecord>,
    ) -> Report {
        Verifier::with_options(options.clone())
            .with_records(self.table.clone())
            .fold_composition_shards(
                self.scenario.pipeline,
                self.scenario.property,
                self.summaries.iter().cloned(),
                outline,
                records,
            )
    }
}

/// A scenario's outlined Step-2 enumeration and the shard ranges it is cut
/// into.
type Cut = (ComposeOutline, Vec<(usize, usize)>);

/// Cut each input's Step-2 enumeration into shard ranges for a fleet's
/// `slots` live capacity slots (two or more — on one slot nothing runs
/// beside anything else, so [`VerifyService::compose_sharded`] cuts
/// nothing): outline → target → ranges. `None` where there is nothing to
/// cut: no suspects, or a Step-1 failure the composition must surface.
fn shard_cuts(
    slots: usize,
    inputs: &[ComposeInput<'_>],
    options: &VerifierOptions,
) -> Vec<Option<Cut>> {
    let outlines: Vec<Option<ComposeOutline>> = inputs
        .iter()
        .map(|input| {
            Verifier::with_options(options.clone()).outline_composition(
                input.scenario.pipeline,
                input.scenario.property,
                input.summaries.iter().cloned(),
            )
        })
        .collect();
    // One batch-wide target, a few shards per slot to keep the pull queue
    // balanced, shared out in proportion to unit weight: a cheap scenario
    // does not get the heavy one's fan-out. Workers advertise their own
    // capacity, so `slots` can be any `usize`: products saturate.
    let batch_target = slots.saturating_mul(AUTO_SHARDS_PER_SLOT);
    let batch_weight: usize = outlines.iter().flatten().map(|o| o.total_weight()).sum();
    outlines
        .into_iter()
        .map(|outline| {
            let outline = outline?;
            let total = outline.total_weight();
            let target = (batch_target.saturating_mul(total) / batch_weight.max(1)).max(1);
            let ranges = outline.shards(total.div_ceil(target));
            Some((outline, ranges))
        })
        .collect()
}

/// One scenario's composition task on the shared pool.
struct Composition<'a> {
    service: &'a VerifyService,
    options: &'a VerifierOptions,
    scenario: ScenarioRef<'a>,
    fingerprints: &'a [Fingerprint],
    table: &'a Arc<RecordTable>,
    slot: &'a Mutex<Option<Report>>,
}

impl Composition<'_> {
    /// Decide the scenario: Step 2 is one fold over no shard records, each
    /// inline check and edge decision going through the pipeline's record
    /// table.
    fn run(self) {
        let service = self.service;
        service.emit(|| ProgressEvent::ComposeStarted {
            scenario: self.label(),
        });
        let started = Instant::now();
        let input =
            ComposeInput::fetch(self.scenario, self.fingerprints, self.table, &service.store);
        let report = input.fold(self.options, &ComposeOutline::default(), Vec::new());
        service.emit(|| ProgressEvent::ComposeFinished {
            scenario: self.label(),
            verdict: report.verdict.clone(),
            elapsed: started.elapsed(),
        });
        *self.slot.lock().expect("report slot") = Some(report);
    }

    /// `pipeline/property`, as reports and progress events label it.
    fn label(&self) -> String {
        format!("{}/{}", self.scenario.name, self.scenario.property.name())
    }
}

/// The diff decision: which scenarios to re-verify and the per-config
/// bookkeeping, shared by serving and planning.
fn diff_scenarios(
    old: &[NamedConfig],
    new: &[NamedConfig],
    properties: &dyn Fn(&str) -> Vec<Property>,
) -> Result<(Vec<Scenario>, DiffMeta), ConfigError> {
    let mut old_pipelines: BTreeMap<&str, Pipeline> = BTreeMap::new();
    for config in old {
        old_pipelines.insert(&config.name, parse_config(&config.config)?);
    }

    let mut entries = Vec::with_capacity(new.len());
    let mut scenarios = Vec::new();
    let mut skipped_scenarios = 0usize;
    for config in new {
        let new_pipeline = parse_config(&config.config)?;
        let scenario_properties = properties(&config.name);
        let (kind, changed_elements) = match old_pipelines.get(config.name.as_str()) {
            None => (DiffKind::Added, Vec::new()),
            Some(old_pipeline) => {
                let diff = diff_pipelines(old_pipeline, &new_pipeline);
                if diff.is_identical() {
                    (DiffKind::Identical, Vec::new())
                } else if diff.is_wiring_only() {
                    (DiffKind::WiringOnly, Vec::new())
                } else {
                    let mut changed = diff.changed;
                    changed.extend(diff.added);
                    changed.extend(diff.removed);
                    changed.sort();
                    (DiffKind::ElementsChanged, changed)
                }
            }
        };
        let before = scenarios.len();
        if kind == DiffKind::Identical {
            skipped_scenarios += scenario_properties.len();
        } else {
            for property in scenario_properties {
                // Each scenario owns its pipeline instance.
                scenarios.push(Scenario::new(
                    config.name.clone(),
                    parse_config(&config.config)?,
                    property,
                ));
            }
        }
        let scenarios_planned = scenarios.len() - before;
        entries.push(DiffEntry {
            name: config.name.clone(),
            kind,
            changed_elements,
            scenarios_planned,
        });
    }
    let removed_configs = old
        .iter()
        .map(|c| c.name.clone())
        .filter(|name| !new.iter().any(|c| &c.name == name))
        .collect();
    Ok((
        scenarios,
        DiffMeta {
            entries,
            removed_configs,
            skipped_scenarios,
        },
    ))
}

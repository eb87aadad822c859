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
//! ## The plan/execute split
//!
//! [`VerifyService::plan_request`] turns a request into a first-class
//! [`PlanSpec`] — scenarios as config text, one [`crate::wire::JobSpec`]
//! per distinct element behaviour, dependency edges, fingerprints — which
//! round-trips through JSON. [`VerifyService::execute_plan`] runs one,
//! computing the missing element summaries through any [`Executor`]
//! (in-process pool, or subprocess workers over stdio) and composing on the
//! shared scheduler. A plan serialised by one process and executed by
//! another produces a byte-identical deterministic report — the remote
//! worker path, proven end to end by the `plan`/`exec-plan` round-trip
//! tests and CI smoke.

use crate::cache::{CacheStats, SummaryStore};
use crate::diff::{
    config_scenarios, default_properties, DiffEntry, DiffKind, DiffReport, NamedConfig,
};
use crate::exec::{ExecError, Executor, InProcessExecutor};
use crate::executor::{Latch, Pool, ThreadBudget};
use crate::fingerprint::{element_fingerprint, Fingerprint};
use crate::json::Json;
use crate::matrix::{preset_pipelines, preset_properties, MatrixReport, Scenario, ScenarioReport};
use crate::wire::{
    self, BoundSpec, ComposeJob, ComposeShardJob, DiffMeta, ExploreJob, PlanSpec, ScenarioSpec,
    WireError,
};
use dataplane_ir::Program;
use dataplane_pipeline::diff::diff_pipelines;
use dataplane_pipeline::{parse_config, ConfigError, Pipeline};
use dataplane_symbex::{explore_with_cancel, CancelToken, EngineConfig};
use dataplane_verifier::{
    ComposeOutline, ElementSummary, InstructionBoundReport, Property, Report, ShardNodeRecord,
    ShardTiming, Verdict, Verifier, VerifierOptions,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type ProgressFn = Arc<dyn Fn(&ProgressEvent) + Send + Sync>;

/// `--compose-shard auto`'s shard target per live capacity slot (a fleet
/// worker's advertised slot, or a parked worker of the in-process pool):
/// enough over-decomposition that the pull queue load-balances and a
/// straggler costs at most ~1/4 of a slot's share, without drowning the
/// wire in per-job overhead (stealing splits whatever this still gets
/// wrong).
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

/// Build the job plan for `scenarios` against the current contents of
/// `store`: distinct element behaviours are deduplicated across every
/// scenario, and behaviours the store already holds produce no job.
///
/// (For the *serialisable* plan artifact that crosses process boundaries,
/// see [`VerifyService::plan_request`] and [`crate::wire::PlanSpec`].)
pub fn plan(scenarios: &[Scenario], options: &VerifierOptions, store: &SummaryStore) -> JobPlan {
    let mut explore: Vec<ExploreSpec> = Vec::new();
    let mut job_of: std::collections::HashMap<Fingerprint, Option<usize>> =
        std::collections::HashMap::new();
    let mut cached = 0usize;
    let mut scenario_deps = Vec::with_capacity(scenarios.len());
    let mut element_fingerprints = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let mut deps = Vec::new();
        let mut fps = Vec::with_capacity(scenario.pipeline.len());
        for (_, node) in scenario.pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, &options.engine);
            fps.push(fp);
            let entry = job_of.entry(fp).or_insert_with(|| {
                if store.get(fp).is_some() {
                    cached += 1;
                    None
                } else {
                    explore.push(ExploreSpec {
                        fingerprint: fp,
                        type_name: element.type_name().to_string(),
                        config_key: element.config_key(),
                        program: element.model(),
                    });
                    Some(explore.len() - 1)
                }
            });
            if let Some(job) = *entry {
                if !deps.contains(&job) {
                    deps.push(job);
                }
            }
        }
        scenario_deps.push(deps);
        element_fingerprints.push(fps);
    }
    JobPlan {
        explore,
        cached,
        scenario_deps,
        element_fingerprints,
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
    /// timings and cache statistics.
    pub fn to_json(&self) -> Json {
        match &self.outcome {
            VerifyOutcome::Single(s) => Json::obj([
                ("schema", Json::int(wire::REPORT_SCHEMA)),
                ("kind", Json::str("single")),
                ("pipeline", Json::str(&s.pipeline_name)),
                ("report", wire::report_to_json(&s.report)),
                (
                    "elapsed_micros",
                    Json::int(s.report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
                ),
            ]),
            VerifyOutcome::Matrix(m) => m.to_json(),
            VerifyOutcome::Diff(d) => d.to_json(),
            VerifyOutcome::Bound(b) => Json::obj([
                ("schema", Json::int(wire::REPORT_SCHEMA)),
                ("kind", Json::str("bound")),
                ("pipeline", Json::str(&b.pipeline_name)),
                ("report", wire::bound_report_to_json(&b.report)),
                (
                    "elapsed_micros",
                    Json::int(b.report.elapsed.as_micros().min(u128::from(u64::MAX)) as u64),
                ),
            ]),
            VerifyOutcome::Conformance(c) => c.to_json(),
        }
    }

    /// The deterministic document: verdicts, counterexamples, unproven
    /// paths, and work statistics only — byte-identical across runs,
    /// processes, schedulers, and cache temperatures.
    pub fn deterministic_json(&self) -> Json {
        match &self.outcome {
            VerifyOutcome::Single(s) => Json::obj([
                ("schema", Json::int(wire::REPORT_SCHEMA)),
                ("kind", Json::str("single")),
                ("pipeline", Json::str(&s.pipeline_name)),
                ("report", wire::report_to_json(&s.report)),
            ]),
            VerifyOutcome::Matrix(m) => m.deterministic_json(),
            VerifyOutcome::Diff(d) => d.deterministic_json(),
            VerifyOutcome::Bound(b) => Json::obj([
                ("schema", Json::int(wire::REPORT_SCHEMA)),
                ("kind", Json::str("bound")),
                ("pipeline", Json::str(&b.pipeline_name)),
                ("report", wire::bound_report_to_json(&b.report)),
            ]),
            VerifyOutcome::Conformance(c) => c.deterministic_json(),
        }
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

/// How each scenario's Step-2 enumeration splits into shards: wire jobs
/// when a plan executes on a fleet with a remote shard path, tasks for the
/// parked workers of the shared pool when it composes in process. Whatever
/// the mode, the fold replays the sequential enumeration, so deterministic
/// reports are byte-identical across all of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ComposeShardMode {
    /// Whole compositions: single [`ComposeJob`]s on the wire, the fold
    /// with no shard records in process.
    Off,
    /// A fixed per-scenario target shard count.
    Fixed(usize),
    /// Derive the shard count from the capacity live right now (the
    /// executor's fleet per request, the pool's parked workers per
    /// composition), and place the cuts by calibrated outline weights (the
    /// warm store's observed per-element solver costs) instead of raw
    /// unit counts.
    #[default]
    Auto,
}

impl ComposeShardMode {
    /// Parse the `--compose-shard` argument: `auto`, `off` (or `0`), or a
    /// fixed per-scenario shard count.
    pub fn parse(text: &str) -> Option<ComposeShardMode> {
        match text {
            "auto" => Some(ComposeShardMode::Auto),
            "off" => Some(ComposeShardMode::Off),
            n => n.parse().ok().map(|n: usize| {
                if n == 0 {
                    ComposeShardMode::Off
                } else {
                    ComposeShardMode::Fixed(n)
                }
            }),
        }
    }
}

impl std::fmt::Display for ComposeShardMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeShardMode::Off => f.write_str("off"),
            ComposeShardMode::Fixed(n) => write!(f, "{n}"),
            ComposeShardMode::Auto => f.write_str("auto"),
        }
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
    compose_shard: ComposeShardMode,
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
            compose_shard: ComposeShardMode::Auto,
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

    /// Replace the verifier options (engine budgets, solver budgets,
    /// escalation ladder).
    pub fn with_options(mut self, options: VerifierOptions) -> Self {
        self.options = options;
        self
    }

    /// Split each scenario's Step-2 suspect×prefix enumeration into about
    /// `shards` contiguous shards (0 = whole compositions). Shorthand for [`VerifyService::with_compose_shard_mode`]
    /// with [`ComposeShardMode::Fixed`] / [`ComposeShardMode::Off`].
    pub fn with_compose_shard(self, shards: usize) -> Self {
        self.with_compose_shard_mode(if shards == 0 {
            ComposeShardMode::Off
        } else {
            ComposeShardMode::Fixed(shards)
        })
    }

    /// Choose how Step-2 work shards onto a fleet or the pool's parked
    /// workers (the default is [`ComposeShardMode::Auto`]: counts from live
    /// capacity, cuts placed by calibrated weights).
    pub fn with_compose_shard_mode(mut self, mode: ComposeShardMode) -> Self {
        self.compose_shard = mode;
        self
    }

    /// The configured compose-shard mode.
    pub fn compose_shard(&self) -> ComposeShardMode {
        self.compose_shard
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

    fn emit(&self, event: ProgressEvent) {
        if let Some(observer) = &self.progress {
            observer(&event);
        }
    }

    // -----------------------------------------------------------------------
    // Serving
    // -----------------------------------------------------------------------

    /// Serve one request (see [`VerifyRequest`] for the shapes).
    pub fn serve(&self, request: VerifyRequest) -> Result<VerifyResponse, ServiceError> {
        let kind = request.kind();
        let outcome = match request {
            VerifyRequest::Single {
                name,
                pipeline,
                property,
            } => {
                let mut matrix = self.run_matrix(vec![Scenario::new(name, pipeline, property)]);
                VerifyOutcome::Single(Box::new(matrix.scenarios.remove(0)))
            }
            VerifyRequest::Matrix { scenarios } => {
                VerifyOutcome::Matrix(self.run_matrix(scenarios))
            }
            VerifyRequest::Diff {
                old,
                new,
                properties,
            } => VerifyOutcome::Diff(
                self.verify_diff(&old, &new, &|name| properties.properties_for(name))?,
            ),
            VerifyRequest::Watch {
                configs,
                properties,
            } => {
                let previous = self.baseline.lock().expect("watch baseline").clone();
                let outcome = match previous {
                    // First watch call: verify everything, establish the
                    // baseline.
                    None => {
                        let scenarios =
                            config_scenarios(&configs, &|name| properties.properties_for(name))?;
                        VerifyOutcome::Matrix(self.run_matrix(scenarios))
                    }
                    // Every later call: re-verify only what changed since
                    // the previous configs.
                    Some(old) => VerifyOutcome::Diff(self.verify_diff(
                        &old,
                        &configs,
                        &|name| properties.properties_for(name),
                    )?),
                };
                // Roll the baseline forward only after the tick verified:
                // a tick that errors (e.g. a config syntax error) must not
                // become the baseline, or the eventual fix would diff as
                // `Identical` against it and skip verification of the edit.
                *self.baseline.lock().expect("watch baseline") = Some(configs);
                outcome
            }
            VerifyRequest::Conformance {
                scenarios,
                seed,
                packets,
            } => VerifyOutcome::Conformance(Box::new(
                self.run_conformance(scenarios, seed, packets, None)?,
            )),
            request @ VerifyRequest::Bound { .. } => {
                // Serve through the same plan/execute machinery the remote
                // path uses: element explorations on the in-process pool,
                // the bound analysis decided from the warmed store.
                let plan = self.plan_request(&request)?;
                self.execute_plan(&plan, &InProcessExecutor::new(self.threads))?
                    .outcome
            }
        };
        Ok(VerifyResponse {
            request: kind,
            outcome,
        })
    }

    /// Serve one request, running its jobs on `executor` where the
    /// request has a plannable form — the daemon's serving path, where
    /// the executor is the fleet of currently joined socket workers.
    ///
    /// With `None` this is exactly [`VerifyService::serve`]. With an
    /// executor, plannable requests (single, matrix, diff, bound, watch)
    /// go through [`VerifyService::plan_request`] /
    /// [`VerifyService::execute_plan`] — a `Watch` additionally rolls the
    /// service's baseline forward after the tick, exactly as `serve`
    /// would — and a conformance request fuzzes its shards on the
    /// executor. Deterministic report content is byte-identical to
    /// serving in-process either way.
    pub fn serve_with(
        &self,
        request: VerifyRequest,
        executor: Option<&dyn Executor>,
    ) -> Result<VerifyResponse, ServiceError> {
        let Some(executor) = executor else {
            return self.serve(request);
        };
        let kind = request.kind();
        let mut response = match request {
            VerifyRequest::Conformance {
                scenarios,
                seed,
                packets,
            } => VerifyResponse {
                request: kind,
                outcome: VerifyOutcome::Conformance(Box::new(self.run_conformance(
                    scenarios,
                    seed,
                    packets,
                    Some(executor),
                )?)),
            },
            VerifyRequest::Watch {
                configs,
                properties,
            } => {
                let plan = self.plan_request(&VerifyRequest::Watch {
                    configs: configs.clone(),
                    properties,
                })?;
                let response = self.execute_plan(&plan, executor)?;
                // Roll the baseline exactly as `serve` would (see there
                // for why this happens only after a successful tick).
                *self.baseline.lock().expect("watch baseline") = Some(configs);
                response
            }
            request => {
                let plan = self.plan_request(&request)?;
                self.execute_plan(&plan, executor)?
            }
        };
        // `execute_plan` reports as "exec-plan"; keep the caller's kind.
        response.request = kind;
        Ok(response)
    }

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
        let options = self.options.clone();
        self.run_matrix_with(scenarios, &options)
    }

    /// Run a batch of scenarios on the shared scheduler: plan, spawn Step-1
    /// explore tasks, and let each completed dependency set dynamically
    /// spawn its composition task onto the *same* pool — which in turn
    /// spawns shard tasks for whatever workers are parked, so every kind of
    /// work competes for one thread budget.
    fn run_matrix_with(
        &self,
        scenarios: Vec<Scenario>,
        base_options: &VerifierOptions,
    ) -> MatrixReport {
        let started = Instant::now();
        let stats_before = self.store.stats();
        self.budget.reset_peak();
        let job_plan = plan(&scenarios, base_options, &self.store);
        self.emit(ProgressEvent::Planned {
            explore_jobs: job_plan.explore.len(),
            cached: job_plan.cached,
            scenarios: scenarios.len(),
        });

        let explore_jobs = job_plan.explore.len();
        let cached_jobs = job_plan.cached;
        let cancel = CancelToken::new();
        let mut slots: Vec<Arc<Mutex<Option<ScenarioReport>>>> = Vec::new();

        Pool::run(self.threads, self.budget.clone(), |pool| {
            // Composition tasks, latched on their element explorations.
            // `dependents[j]` collects the latches explore job `j` must
            // signal when it completes.
            let mut dependents: Vec<Vec<Arc<Latch<'_>>>> = vec![Vec::new(); explore_jobs];
            for (scenario, (deps, fingerprints)) in scenarios.into_iter().zip(
                job_plan
                    .scenario_deps
                    .into_iter()
                    .zip(job_plan.element_fingerprints),
            ) {
                let slot = Arc::new(Mutex::new(None));
                slots.push(slot.clone());
                let composition = Composition {
                    scenario,
                    fingerprints,
                    options: base_options.clone(),
                    shard_mode: self.compose_shard,
                    store: self.store.clone(),
                    progress: self.progress.clone(),
                    slot,
                };
                let job = Box::new(move |pool: &Pool<'_>| composition.run(pool));
                if deps.is_empty() {
                    pool.spawn(job);
                } else {
                    let latch = Latch::new(deps.len(), job);
                    for dep in deps {
                        dependents[dep].push(latch.clone());
                    }
                }
            }

            // Step-1 tasks: explore one element behaviour each, publish to
            // the shared store, then release whatever compositions were
            // waiting on it.
            for (idx, spec) in job_plan.explore.into_iter().enumerate() {
                let store = self.store.clone();
                let progress = self.progress.clone();
                let engine = base_options.engine.clone();
                let cancel = cancel.clone();
                let latches = std::mem::take(&mut dependents[idx]);
                pool.spawn(Box::new(move |pool| {
                    if let Some(observer) = &progress {
                        observer(&ProgressEvent::ExploreStarted {
                            type_name: spec.type_name.clone(),
                        });
                    }
                    let start = Instant::now();
                    let result = explore_with_cancel(&spec.program, &engine, &cancel);
                    let elapsed = start.elapsed();
                    let ok = result.is_ok();
                    if let Ok(exploration) = result {
                        store.insert(
                            spec.fingerprint,
                            Arc::new(ElementSummary {
                                type_name: spec.type_name.clone(),
                                config_key: spec.config_key.clone(),
                                exploration,
                                explore_time: elapsed,
                            }),
                        );
                    }
                    // A budget-exceeded exploration publishes nothing; the
                    // composition job then explores inline and reports the
                    // failure exactly as the sequential verifier does.
                    if let Some(observer) = &progress {
                        observer(&ProgressEvent::ExploreFinished {
                            type_name: spec.type_name.clone(),
                            elapsed,
                            ok,
                        });
                    }
                    for latch in &latches {
                        latch.ready(pool);
                    }
                }));
            }
        });

        let scenario_reports: Vec<ScenarioReport> = slots
            .into_iter()
            .map(|slot| {
                slot.lock()
                    .expect("report slot")
                    .take()
                    .expect("every composition job ran")
            })
            .collect();
        let stats_after = self.store.stats();
        MatrixReport {
            scenarios: scenario_reports,
            explore_jobs,
            cached_jobs,
            threads: self.threads,
            peak_live_threads: self.budget.peak_in_use(),
            cache: CacheStats::delta(&stats_before, &stats_after),
            stats: None,
            elapsed: started.elapsed(),
        }
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
        use crate::conformance as conf;
        let started = Instant::now();
        // Render the wire specs before the matrix run consumes the
        // scenarios — fuzz shards travel as config text, and replay
        // rebuilds each violated pipeline from the same text the shards
        // see.
        let specs = scenarios
            .iter()
            .map(ScenarioSpec::from_scenario)
            .collect::<Result<Vec<_>, _>>()?;
        let matrix = self.run_matrix(scenarios);

        let mut replay = Vec::new();
        let mut proven_specs = Vec::new();
        for (spec, scenario_report) in specs.iter().zip(&matrix.scenarios) {
            match scenario_report.report.verdict {
                Verdict::Violated => {
                    let pipeline = parse_config(&spec.config)?;
                    replay.extend(conf::replay_report(
                        &pipeline,
                        &scenario_report.pipeline_name,
                        &scenario_report.report,
                    ));
                }
                Verdict::Proven => proven_specs.push(spec.clone()),
                // An Unknown verdict claims nothing — there is no verdict
                // for concrete execution to contradict.
                Verdict::Unknown => {}
            }
        }

        let jobs = conf::plan_fuzz_shards(&proven_specs, seed, packets);
        let shards = match executor.and_then(|e| e.fuzz_jobs(&jobs, &self.options)) {
            Some(result) => result?,
            None => conf::run_fuzz_jobs(&jobs, &self.options, self.threads)?,
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
    // The plan/execute split
    // -----------------------------------------------------------------------

    /// Turn a request into a serialisable [`PlanSpec`] without running
    /// anything: scenarios as config text, one job per distinct element
    /// behaviour (regardless of this service's store temperature — the
    /// *executing* process skips what its own store holds), dependency
    /// edges, fingerprints.
    ///
    /// A `Watch` request plans like its serve would run: a full matrix when
    /// no baseline is recorded, a diff against the rolling baseline
    /// otherwise (planning does **not** roll the baseline forward — only
    /// serving does).
    pub fn plan_request(&self, request: &VerifyRequest) -> Result<PlanSpec, ServiceError> {
        match request {
            VerifyRequest::Single {
                name,
                pipeline,
                property,
            } => {
                let spec = ScenarioSpec {
                    name: name.clone(),
                    config: dataplane_pipeline::write_config(pipeline).map_err(WireError::Write)?,
                    property: property.clone(),
                };
                self.plan_scenario_specs(vec![spec], None)
            }
            VerifyRequest::Matrix { scenarios } => {
                let specs = scenarios
                    .iter()
                    .map(ScenarioSpec::from_scenario)
                    .collect::<Result<Vec<_>, _>>()?;
                self.plan_scenario_specs(specs, None)
            }
            VerifyRequest::Diff {
                old,
                new,
                properties,
            } => {
                let (scenarios, meta) =
                    diff_scenarios(old, new, &|name| properties.properties_for(name))?;
                let specs = scenarios
                    .iter()
                    .map(ScenarioSpec::from_scenario)
                    .collect::<Result<Vec<_>, _>>()?;
                self.plan_scenario_specs(specs, Some(meta))
            }
            VerifyRequest::Watch {
                configs,
                properties,
            } => {
                let baseline = self.baseline.lock().expect("watch baseline").clone();
                match baseline {
                    None => {
                        let scenarios =
                            config_scenarios(configs, &|name| properties.properties_for(name))?;
                        let specs = scenarios
                            .iter()
                            .map(ScenarioSpec::from_scenario)
                            .collect::<Result<Vec<_>, _>>()?;
                        self.plan_scenario_specs(specs, None)
                    }
                    Some(old) => {
                        let (scenarios, meta) =
                            diff_scenarios(&old, configs, &|name| properties.properties_for(name))?;
                        let specs = scenarios
                            .iter()
                            .map(ScenarioSpec::from_scenario)
                            .collect::<Result<Vec<_>, _>>()?;
                        self.plan_scenario_specs(specs, Some(meta))
                    }
                }
            }
            VerifyRequest::Bound { name, pipeline } => {
                let config =
                    dataplane_pipeline::write_config(pipeline).map_err(WireError::Write)?;
                let parsed = parse_config(&config)?;
                let mut table = JobTable::new(&self.options.engine);
                let fingerprints = table.add_pipeline(&parsed);
                Ok(PlanSpec {
                    options: self.options.clone(),
                    scenarios: Vec::new(),
                    jobs: table.jobs,
                    scenario_jobs: Vec::new(),
                    element_fingerprints: Vec::new(),
                    diff: None,
                    bound: Some(BoundSpec {
                        name: name.clone(),
                        config,
                        fingerprints,
                    }),
                })
            }
            VerifyRequest::Conformance { .. } => Err(ServiceError::Wire(wire::malformed(
                "conformance requests are served directly (their fuzz shards dispatch as \
                 wire jobs themselves); there is no plan form",
            ))),
        }
    }

    /// Build the plan document for already-rendered scenario specs.
    fn plan_scenario_specs(
        &self,
        specs: Vec<ScenarioSpec>,
        diff: Option<DiffMeta>,
    ) -> Result<PlanSpec, ServiceError> {
        let mut table = JobTable::new(&self.options.engine);
        let mut scenario_jobs = Vec::with_capacity(specs.len());
        let mut element_fingerprints = Vec::with_capacity(specs.len());
        for spec in &specs {
            let pipeline = parse_config(&spec.config)?;
            let fps = table.add_pipeline(&pipeline);
            let mut deps = Vec::new();
            for fp in &fps {
                let job = table.job_of[fp];
                if !deps.contains(&job) {
                    deps.push(job);
                }
            }
            scenario_jobs.push(deps);
            element_fingerprints.push(fps);
        }
        Ok(PlanSpec {
            options: self.options.clone(),
            scenarios: specs,
            jobs: table.jobs,
            scenario_jobs,
            element_fingerprints,
            diff,
            bound: None,
        })
    }

    /// Execute a plan — typically one another process serialised: compute
    /// the element summaries this service's store does not already hold
    /// through `executor` (in-process pool or subprocess workers), fold
    /// them into the store in job order, then compose every scenario on the
    /// shared scheduler under the *plan's* options.
    ///
    /// The deterministic report content is byte-identical to serving the
    /// original request in the planning process.
    pub fn execute_plan(
        &self,
        plan_spec: &PlanSpec,
        executor: &dyn Executor,
    ) -> Result<VerifyResponse, ServiceError> {
        let started = Instant::now();
        let stats_before = self.store.stats();
        // Step 1 through the pluggable executor: only behaviours the local
        // store is missing.
        let missing: Vec<ExploreJob> = plan_spec
            .jobs
            .iter()
            .filter(|job| self.store.get(job.fingerprint).is_none())
            .cloned()
            .collect();
        let summaries = executor.explore_jobs(&missing, &plan_spec.options)?;
        // Explorations that produced a summary. A budget-exceeded job
        // returns `None` and publishes nothing — the composition phase then
        // surfaces the failure exactly as a cold in-process run would, and
        // only *its* attempt is counted, so the job is not counted twice.
        let mut published = 0usize;
        for (job, summary) in missing.iter().zip(summaries) {
            if let Some(summary) = summary {
                self.store.insert(job.fingerprint, Arc::new(summary));
                published += 1;
            }
        }

        // An instruction-bound plan: decide the analysis from the (now
        // warm) store under the plan's pinned options.
        if let Some(bound) = &plan_spec.bound {
            let pipeline = parse_config(&bound.config)?;
            let mut verifier = Verifier::with_options(plan_spec.options.clone());
            verifier.seed_summaries(
                bound
                    .fingerprints
                    .iter()
                    .filter_map(|fp| self.store.get(*fp)),
            );
            let report = verifier.max_instructions(&pipeline);
            return Ok(VerifyResponse {
                request: "exec-plan",
                outcome: VerifyOutcome::Bound(Box::new(BoundOutcome {
                    pipeline_name: bound.name.clone(),
                    report,
                })),
            });
        }

        // Step 2: through the executor too if it has a remote composition
        // path (sockets, subprocess workers), on the shared scheduler
        // otherwise — both under the plan's pinned options, both
        // byte-identical.
        let compose_specs: Vec<ComposeJob> = plan_spec
            .scenarios
            .iter()
            .zip(&plan_spec.element_fingerprints)
            .map(|(spec, fps)| ComposeJob {
                scenario: spec.clone(),
                fingerprints: fps.clone(),
            })
            .collect();
        let fetch = |fp: Fingerprint| self.store.get(fp);
        // Sharded Step-2 takes precedence when configured and the executor
        // has a remote shard path; otherwise whole-composition jobs, then
        // the in-process scheduler.
        let remote_reports: Option<Vec<Report>> = match self.compose_sharded(plan_spec, executor)? {
            Some(reports) => Some(reports),
            None => match executor.compose_jobs(&compose_specs, &plan_spec.options, &fetch) {
                Some(reports) => Some(reports?),
                None => None,
            },
        };
        let mut matrix = match remote_reports {
            Some(reports) => {
                let stats_after = self.store.stats();
                MatrixReport {
                    scenarios: plan_spec
                        .scenarios
                        .iter()
                        .zip(reports)
                        .map(|(spec, report)| ScenarioReport {
                            pipeline_name: spec.name.clone(),
                            report,
                        })
                        .collect(),
                    explore_jobs: missing.len(),
                    cached_jobs: plan_spec.jobs.len() - missing.len(),
                    threads: self.threads,
                    // No composition ran in this process.
                    peak_live_threads: 0,
                    cache: CacheStats::delta(&stats_before, &stats_after),
                    stats: None,
                    elapsed: started.elapsed(),
                }
            }
            None => {
                let scenarios = plan_spec
                    .scenarios
                    .iter()
                    .map(|spec| spec.to_scenario())
                    .collect::<Result<Vec<_>, _>>()?;
                let mut matrix = self.run_matrix_with(scenarios, &plan_spec.options);
                // Operational bookkeeping: the executor phase explored
                // `published` behaviours, which the inner planner then found
                // warm — move them from its cached count to the explore
                // count. What the store held before the executor ran stays
                // "cached".
                matrix.explore_jobs += published;
                matrix.cached_jobs = matrix.cached_jobs.saturating_sub(published);
                matrix
            }
        };
        matrix.stats = executor.dispatch_stats();

        let outcome = match &plan_spec.diff {
            Some(meta) => VerifyOutcome::Diff(DiffReport {
                entries: meta.entries.clone(),
                removed_configs: meta.removed_configs.clone(),
                skipped_scenarios: meta.skipped_scenarios,
                matrix,
            }),
            None => VerifyOutcome::Matrix(matrix),
        };
        Ok(VerifyResponse {
            request: "exec-plan",
            outcome,
        })
    }

    /// The sharded Step-2 path of [`VerifyService::execute_plan`]: outline
    /// each scenario's suspect×prefix enumeration from the (warm) store,
    /// split it into about [`VerifyService::compose_shard`] contiguous
    /// [`ComposeShardJob`]s, dispatch them all as one pull-based batch (so
    /// the fleet load-balances across scenarios, not just within one), and
    /// fold each scenario's shard records back into its report by replaying
    /// the sequential enumeration — byte-identical to an unsharded run.
    ///
    /// Returns `Ok(None)` when sharding is off (`compose_shard == 0`) or
    /// the executor has no remote shard path; the caller then falls back to
    /// whole-composition jobs. Scenarios with no shardable enumeration (no
    /// suspects, or a Step-1 failure the composition must surface) verify
    /// in place.
    fn compose_sharded(
        &self,
        plan_spec: &PlanSpec,
        executor: &dyn Executor,
    ) -> Result<Option<Vec<Report>>, ServiceError> {
        if self.compose_shard == ComposeShardMode::Off {
            return Ok(None);
        }
        let fetch = |fp: Fingerprint| self.store.get(fp);
        // Capability probe: an executor without a remote shard path answers
        // `None` even for an empty batch.
        if executor
            .compose_shard_jobs(&[], &plan_spec.options, &fetch)
            .is_none()
        {
            return Ok(None);
        }

        // Outline every scenario first; with `auto`, per-scenario shard
        // counts are then allocated out of one fleet-wide target, so a
        // cheap scenario does not get the same fan-out as the heavy one.
        let mut outlines = Vec::with_capacity(plan_spec.scenarios.len());
        let mut costs_of: Vec<Vec<u64>> = Vec::with_capacity(plan_spec.scenarios.len());
        for (spec, fps) in plan_spec
            .scenarios
            .iter()
            .zip(&plan_spec.element_fingerprints)
        {
            let scenario = spec.to_scenario()?;
            let outline = Verifier::with_options(plan_spec.options.clone()).outline_composition(
                &scenario.pipeline,
                &scenario.property,
                fps.iter().filter_map(|fp| self.store.get(*fp)),
            );
            let costs = outline
                .as_ref()
                .map(|outline| node_costs(&self.store, outline, fps))
                .unwrap_or_default();
            costs_of.push(costs);
            outlines.push(outline);
        }

        // Resolve each scenario's target shard count.
        let targets: Vec<usize> = match self.compose_shard {
            ComposeShardMode::Off => unreachable!("handled above"),
            ComposeShardMode::Fixed(n) => outlines.iter().map(|_| n.max(1)).collect(),
            ComposeShardMode::Auto => {
                // One fleet-wide target — a few shards per live capacity
                // slot keeps the pull queue balanced, and stealing absorbs
                // whatever the calibration still mispredicts — allocated
                // to scenarios in proportion to their calibrated cost.
                let capacity = executor.live_capacity().unwrap_or(self.threads).max(1);
                let fleet_target = capacity * AUTO_SHARDS_PER_SLOT;
                let scenario_cost: Vec<u64> = costs_of
                    .iter()
                    .map(|costs| costs.iter().sum::<u64>())
                    .collect();
                let total_cost: u64 = scenario_cost.iter().sum();
                scenario_cost
                    .iter()
                    .map(|&cost| {
                        if total_cost == 0 {
                            return 1;
                        }
                        ((fleet_target as u64).saturating_mul(cost) / total_cost).max(1) as usize
                    })
                    .collect()
            }
        };

        let mut jobs: Vec<ComposeShardJob> = Vec::new();
        let mut shard_counts = Vec::with_capacity(plan_spec.scenarios.len());
        for (index, ((spec, fps), ((outline, costs), target))) in plan_spec
            .scenarios
            .iter()
            .zip(&plan_spec.element_fingerprints)
            .zip(outlines.iter().zip(&costs_of).zip(&targets))
            .enumerate()
        {
            let before = jobs.len();
            if let Some(outline) = outline {
                let ranges = shard_ranges(self.compose_shard, outline, costs, *target);
                for (start, end) in ranges {
                    jobs.push(ComposeShardJob {
                        scenario: spec.clone(),
                        fingerprints: fps.clone(),
                        scenario_index: index as u32,
                        start,
                        end,
                    });
                }
            }
            shard_counts.push(jobs.len() - before);
        }
        if jobs.is_empty() {
            // Nothing shardable in the whole request: let the caller
            // dispatch whole compositions instead of idling the fleet.
            return Ok(None);
        }

        let results = match executor.compose_shard_jobs(&jobs, &plan_spec.options, &fetch) {
            Some(results) => results?,
            None => return Ok(None),
        };

        // Feed observed per-node solver times back into the warm store, so
        // the next request's `auto` cuts weigh nodes by real cost.
        for (result, job) in results.iter().zip(&jobs) {
            let index = job.scenario_index as usize;
            let (Some(outline), Some(fps)) = (
                outlines.get(index).and_then(Option::as_ref),
                plan_spec.element_fingerprints.get(index),
            ) else {
                continue;
            };
            record_timings(&self.store, outline, fps, &result.timings);
        }
        self.store.flush_calibration();

        // Shards were emitted scenario-by-scenario, so each scenario's
        // results are the next `shard_counts[i]` slots in order.
        let mut results = results.into_iter();
        let mut reports = Vec::with_capacity(plan_spec.scenarios.len());
        for ((spec, fps), (outline, count)) in plan_spec
            .scenarios
            .iter()
            .zip(&plan_spec.element_fingerprints)
            .zip(outlines.into_iter().zip(shard_counts))
        {
            let scenario = spec.to_scenario()?;
            let records = results
                .by_ref()
                .take(count)
                .flat_map(|result| result.records);
            let report = match outline {
                Some(outline) => Verifier::with_options(plan_spec.options.clone())
                    .fold_composition_shards(
                        &scenario.pipeline,
                        &scenario.property,
                        fps.iter().filter_map(|fp| self.store.get(*fp)),
                        &outline,
                        records,
                    ),
                // No shardable enumeration: verify in place, exactly as
                // the unsharded in-process path would.
                None => {
                    let mut verifier = Verifier::with_options(plan_spec.options.clone());
                    verifier.seed_summaries(fps.iter().filter_map(|fp| self.store.get(*fp)));
                    verifier.verify(&scenario.pipeline, &scenario.property)
                }
            };
            reports.push(report);
        }
        Ok(Some(reports))
    }
}

/// Calibrated cost of each outline node's unit block: the warm store's
/// observed per-unit solver time for the node's element (1 ns per unit
/// before any observation — uniform cuts).
fn node_costs(store: &SummaryStore, outline: &ComposeOutline, fps: &[Fingerprint]) -> Vec<u64> {
    outline
        .nodes
        .iter()
        .map(|node| {
            let per_unit = fps
                .get(node.element)
                .and_then(|fp| store.unit_cost_ns(*fp))
                .unwrap_or(1);
            per_unit.saturating_mul(node.weight as u64)
        })
        .collect()
}

/// Cut `outline`'s unit space into about `target` (≥ 1) shard ranges: by
/// calibrated cost under `auto`, by unit count otherwise. The target is a
/// goal, not a contract — the splitters pack whole units, so the actual
/// count can differ by one or two.
fn shard_ranges(
    mode: ComposeShardMode,
    outline: &ComposeOutline,
    costs: &[u64],
    target: usize,
) -> Vec<(usize, usize)> {
    match mode {
        ComposeShardMode::Auto => outline.shards_by_cost(costs, target),
        _ => outline.shards(outline.total_weight().div_ceil(target).max(1)),
    }
}

/// Feed a shard's observed per-node solver times back into the warm store,
/// so the next `auto` cuts weigh nodes by real cost.
fn record_timings(
    store: &SummaryStore,
    outline: &ComposeOutline,
    fps: &[Fingerprint],
    timings: &[ShardTiming],
) {
    for timing in timings {
        if let Some(fp) = outline
            .nodes
            .get(timing.index)
            .and_then(|node| fps.get(node.element))
        {
            store.record_unit_cost(*fp, timing.units as u64, timing.ns);
        }
    }
}

/// One scenario's composition task on the shared pool.
struct Composition {
    scenario: Scenario,
    fingerprints: Vec<Fingerprint>,
    options: VerifierOptions,
    shard_mode: ComposeShardMode,
    store: Arc<SummaryStore>,
    progress: Option<ProgressFn>,
    slot: Arc<Mutex<Option<ScenarioReport>>>,
}

/// A composition cut into shard tasks: what the shards share and what the
/// latched fold consumes.
struct FanOut {
    composition: Composition,
    summaries: Vec<Arc<ElementSummary>>,
    outline: ComposeOutline,
    records: Mutex<Vec<ShardNodeRecord>>,
    started: Instant,
}

impl Composition {
    /// Decide the scenario: Step 2 is one fold, and shards are its only
    /// precomputation. Shards cost a prefix re-walk each, so they pay only
    /// when a parked worker can take them — then the enumeration is
    /// outlined, cut under the service's [`ComposeShardMode`], spawned as
    /// tasks on `pool`, and folded on a [`Latch`]. With none parked (always,
    /// on one thread) or sharding off, the fold computes every slot itself
    /// and the outline pass never runs.
    fn run(self, pool: &Pool<'_>) {
        if let Some(observer) = &self.progress {
            observer(&ProgressEvent::ComposeStarted {
                scenario: self.scenario.label(),
            });
        }
        let started = Instant::now();
        let summaries: Vec<Arc<ElementSummary>> = self
            .fingerprints
            .iter()
            .filter_map(|fp| self.store.get(*fp))
            .collect();
        let Scenario {
            pipeline, property, ..
        } = &self.scenario;

        let parked = pool.parked();
        let target = match self.shard_mode {
            ComposeShardMode::Off => 0,
            _ if parked == 0 => 0,
            ComposeShardMode::Fixed(n) => n,
            ComposeShardMode::Auto => parked * AUTO_SHARDS_PER_SLOT,
        };
        let cut = (target > 1)
            .then(|| {
                Verifier::with_options(self.options.clone()).outline_composition(
                    pipeline,
                    property,
                    summaries.iter().cloned(),
                )
            })
            .flatten()
            .map(|outline| {
                let costs = node_costs(&self.store, &outline, &self.fingerprints);
                let ranges = shard_ranges(self.shard_mode, &outline, &costs, target);
                (outline, ranges)
            })
            .filter(|(_, ranges)| ranges.len() > 1);
        let Some((outline, ranges)) = cut else {
            let mut verifier = Verifier::with_options(self.options.clone());
            verifier.seed_summaries(summaries);
            let report = verifier.verify(pipeline, property);
            return self.finish(report, started);
        };

        let fan = Arc::new(FanOut {
            composition: self,
            summaries,
            outline,
            records: Mutex::new(Vec::new()),
            started,
        });
        let fold = Latch::new(ranges.len(), {
            let fan = fan.clone();
            Box::new(move |_| fan.fold())
        });
        for (start, end) in ranges {
            let (fan, fold) = (fan.clone(), fold.clone());
            pool.spawn(Box::new(move |pool| {
                fan.shard(start, end);
                fold.ready(pool);
            }));
        }
    }

    /// Publish the scenario's report.
    fn finish(&self, report: Report, started: Instant) {
        if let Some(observer) = &self.progress {
            observer(&ProgressEvent::ComposeFinished {
                scenario: self.scenario.label(),
                verdict: report.verdict.clone(),
                elapsed: started.elapsed(),
            });
        }
        *self.slot.lock().expect("report slot") = Some(ScenarioReport {
            pipeline_name: self.scenario.pipeline_name.clone(),
            report,
        });
    }
}

impl FanOut {
    /// Compute the solver units in `[start, end)` and bank their records.
    fn shard(&self, start: usize, end: usize) {
        let Composition {
            scenario,
            fingerprints,
            options,
            store,
            ..
        } = &self.composition;
        let result = Verifier::with_options(options.clone()).decide_composition_shard(
            &scenario.pipeline,
            &scenario.property,
            self.summaries.iter().cloned(),
            start,
            end,
            &CancelToken::new(),
        );
        record_timings(store, &self.outline, fingerprints, &result.timings);
        self.records
            .lock()
            .expect("shard records")
            .extend(result.records);
    }

    /// Fold the banked records into the scenario's report.
    fn fold(&self) {
        let Composition {
            scenario, options, ..
        } = &self.composition;
        let records = std::mem::take(&mut *self.records.lock().expect("shard records"));
        let mut report = Verifier::with_options(options.clone()).fold_composition_shards(
            &scenario.pipeline,
            &scenario.property,
            self.summaries.iter().cloned(),
            &self.outline,
            records,
        );
        // The fold's own clock misses the outline and the shards.
        report.elapsed = self.started.elapsed();
        self.composition.finish(report, self.started);
    }
}

/// Deduplicating explore-job table shared by scenario and bound planning:
/// one [`ExploreJob`] per distinct element behaviour across everything
/// added.
struct JobTable<'a> {
    engine: &'a EngineConfig,
    jobs: Vec<ExploreJob>,
    job_of: BTreeMap<Fingerprint, usize>,
}

impl<'a> JobTable<'a> {
    fn new(engine: &'a EngineConfig) -> Self {
        JobTable {
            engine,
            jobs: Vec::new(),
            job_of: BTreeMap::new(),
        }
    }

    /// Add every element of `pipeline`; returns its per-element summary
    /// fingerprints in pipeline order.
    fn add_pipeline(&mut self, pipeline: &Pipeline) -> Vec<Fingerprint> {
        let JobTable {
            engine,
            jobs,
            job_of,
        } = self;
        let mut fps = Vec::with_capacity(pipeline.len());
        for (_, node) in pipeline.iter() {
            let element = node.element.as_ref();
            let fp = element_fingerprint(element, engine);
            fps.push(fp);
            job_of.entry(fp).or_insert_with(|| {
                jobs.push(ExploreJob {
                    fingerprint: fp,
                    type_name: element.type_name().to_string(),
                    // Elements of a parsed config always render back.
                    config_args: element
                        .config_args()
                        .expect("factory-built elements have config args"),
                });
                jobs.len() - 1
            });
        }
        fps
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

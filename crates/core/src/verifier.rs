//! The compositional verifier: Step 1 (per-element summaries and suspect
//! tagging) followed by Step 2 (composition of suspects into pipeline paths
//! and feasibility checking), as described in §3 of the paper.

use crate::compose::{bind_packet_bytes, depth_of_id};
use crate::property::Property;
use crate::records::{Confirm, Context, RecordTable};
use crate::report::{
    Counterexample, InstructionBoundReport, Report, UnprovenPath, Verdict, VerificationStats,
};
use crate::summary::{ElementSummary, SummaryCache};
use crate::tree::{PrefixTree, Step, Visitor, WalkInput};
use dataplane_ir::{DsClass, DsId, Program};
use dataplane_net::Packet;
use dataplane_pipeline::element::DsContents;
use dataplane_pipeline::pipeline::Disposition;
use dataplane_pipeline::{ElementIdx, Pipeline};
use dataplane_symbex::term::{self, Term, TermRef};
use dataplane_symbex::{
    interval_infeasible, CancelToken, CheckDiagnostics, Decision, EngineConfig, Segment,
    SegmentOutcome, Solver, SolverConfig, SolverResult, SolverStage,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Options controlling the verifier's behaviour and budgets.
#[derive(Clone, Debug)]
pub struct VerifierOptions {
    /// Check the feasibility of every prefix while composing and prune
    /// infeasible ones (recommended; the ablation bench switches it off).
    pub prune_prefixes: bool,
    /// Replay counterexample packets on the concrete pipeline to confirm
    /// them.
    pub validate_counterexamples: bool,
    /// Maximum number of composed paths to examine before giving up.
    pub max_composed_paths: usize,
    /// Symbolic-execution configuration used for element summaries.
    pub engine: EngineConfig,
    /// Solver limits for feasibility checks, used as given: no check is
    /// retried at raised budgets.
    pub solver: SolverConfig,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            prune_prefixes: true,
            validate_counterexamples: true,
            max_composed_paths: 100_000,
            engine: EngineConfig::decomposed(),
            solver: SolverConfig::default(),
        }
    }
}

/// Step 1's product: per-element summaries plus, per element, the indices
/// of its suspect segments.
type Step1Product = (Vec<Arc<ElementSummary>>, Vec<Vec<usize>>);

/// The compositional dataplane verifier.
pub struct Verifier {
    /// Verification options.
    pub options: VerifierOptions,
    pub(crate) solver: Solver,
    pub(crate) cache: SummaryCache,
    /// The record table the inline fold consults, if any.
    table: Option<Arc<RecordTable>>,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

impl Verifier {
    /// A verifier with default options.
    pub fn new() -> Self {
        Verifier::with_options(VerifierOptions::default())
    }

    /// A verifier with explicit options.
    pub fn with_options(options: VerifierOptions) -> Self {
        let solver = Solver::with_config(options.solver.clone());
        Verifier {
            options,
            solver,
            cache: SummaryCache::new(),
            table: None,
        }
    }

    /// Answer the fold's inline questions from `records` first, and store
    /// what the fold computes there: each suspect check and each edge
    /// decision is then computed once per table, whichever property asks.
    /// Reports are byte-identical with or without a table. Every fold
    /// answered from one table must be over the same pipeline (element
    /// behaviours, instance names, wiring) under the same options — the
    /// service keeps one table per distinct pipeline of a request.
    pub fn with_records(mut self, records: Arc<RecordTable>) -> Self {
        self.table = Some(records);
        self
    }

    /// Statistics of the summary cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Pre-load element summaries computed elsewhere (the parallel
    /// orchestrator's Step-1 workers). Every seeded element behaviour is
    /// then served from the cache during [`Verifier::verify`], so Step 1
    /// performs no exploration of its own and the verdict is exactly what a
    /// sequential run would produce.
    pub fn seed_summaries(&mut self, summaries: impl IntoIterator<Item = Arc<ElementSummary>>) {
        for summary in summaries {
            self.cache.insert(summary);
        }
    }

    /// Step 1: summaries and suspect tagging, with the stats bookkeeping of
    /// a full run. `Err` carries the exploration-budget failure message.
    fn step1(
        &mut self,
        pipeline: &Pipeline,
        property: &Property,
        stats: &mut VerificationStats,
    ) -> Result<Step1Product, String> {
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let summaries = self
            .summarise(pipeline)
            .map_err(|e| format!("element exploration exceeded its budget: {e}"))?;
        stats.summaries_computed = (self.cache.misses() - misses_before) as usize;
        stats.summaries_reused = (self.cache.hits() - hits_before) as usize;
        stats.total_segments = summaries.iter().map(|s| s.segment_count()).sum();

        let mut suspects: Vec<Vec<usize>> = Vec::with_capacity(pipeline.len());
        for (idx, summary) in summaries.iter().enumerate() {
            let node = pipeline.node(idx);
            let mut element_suspects = Vec::new();
            for (seg_idx, segment) in summary.exploration.segments.iter().enumerate() {
                if !self.is_suspect(property, &node.name, segment) {
                    continue;
                }
                // Local feasibility pre-check: a segment that is infeasible
                // even in isolation cannot be violated in any pipeline.
                // The table answers it once per pipeline, whichever
                // property asks.
                stats.solver_calls += 1;
                let refuted = || self.solver.refutes(&segment.constraint).is_some();
                let refuted = match &self.table {
                    Some(table) => table.precheck(idx, seg_idx, refuted),
                    None => refuted(),
                };
                if refuted {
                    continue;
                }
                element_suspects.push(seg_idx);
            }
            stats.suspects += element_suspects.len();
            suspects.push(element_suspects);
        }
        Ok((summaries, suspects))
    }

    /// The shared context of a Step-2 walk over Step 1's product. `hints`
    /// seed the solver's model search; the solver-free outline pass passes
    /// none.
    fn walk_ctx<'a>(
        &'a self,
        pipeline: &'a Pipeline,
        property: &'a Property,
        (summaries, suspects): &'a Step1Product,
        hints: Vec<dataplane_symbex::Assignment>,
    ) -> WalkCtx<'a> {
        WalkCtx {
            tree: PrefixTree {
                pipeline,
                summaries,
            },
            models: WalkModels::new(pipeline),
            property,
            suspects,
            hints,
            options: &self.options,
            solver: &self.solver,
        }
    }

    /// Verify `property` over `pipeline`: the Step-2 fold with no shard
    /// records, so every node of the walk is computed inline.
    pub fn verify(&mut self, pipeline: &Pipeline, property: &Property) -> Report {
        self.fold(
            pipeline,
            property,
            &ComposeOutline::default(),
            BTreeMap::new(),
        )
    }

    /// Step 1, then the one Step-2 walk: a depth-first fold over the
    /// pipeline's prefix tree that consumes whatever `records` shards
    /// precomputed (matched to nodes through `outline`'s pre-order indices)
    /// and computes every other solver unit inline. All composed terms use
    /// depth-indexed namespaces, so what a node computes is a pure function
    /// of its path — the report is byte-identical whatever the records
    /// cover.
    fn fold(
        &mut self,
        pipeline: &Pipeline,
        property: &Property,
        outline: &ComposeOutline,
        mut records: BTreeMap<usize, ShardNodeRecord>,
    ) -> Report {
        let start = Instant::now();
        let mut stats = VerificationStats {
            elements: pipeline.len(),
            ..Default::default()
        };

        // ---------------- Step 1: summaries and suspects -------------------
        let step1 = match self.step1(pipeline, property, &mut stats) {
            Ok(s) => s,
            Err(reason) => {
                return Report {
                    property: property.clone(),
                    verdict: Verdict::Unknown,
                    counterexamples: vec![],
                    unproven: vec![UnprovenPath {
                        path: vec![],
                        reason,
                    }],
                    stats,
                    elapsed: start.elapsed(),
                }
            }
        };

        // Temporal properties tag no suspects; they are decided by the
        // Büchi-product search over the same Step-1 summaries instead of
        // the suspect × prefix walk.
        if let Property::Temporal(spec) = property {
            return self.verify_temporal(pipeline, spec, &step1.0, stats, start);
        }

        if stats.suspects == 0 {
            return Report {
                property: property.clone(),
                verdict: Verdict::Proven,
                counterexamples: vec![],
                unproven: vec![],
                stats,
                elapsed: start.elapsed(),
            };
        }

        // ---------------- Step 2: composition ------------------------------
        let ctx = self.walk_ctx(pipeline, property, &step1, build_hints(property));
        let mut fold = FoldState {
            ctx: &ctx,
            stats: &mut stats,
            outline,
            records: &mut records,
            table: self.table.as_deref(),
            counterexamples: Vec::new(),
            unproven: Vec::new(),
            budget_exhausted: false,
        };
        let root = FoldNode {
            index: Some(0),
            route: Vec::new(),
        };
        ctx.tree.walk(&ctx.tree.root(), root, &mut fold);
        let budget_exhausted = fold.budget_exhausted;
        let counterexamples = fold.counterexamples;
        let mut unproven = fold.unproven;
        if budget_exhausted {
            unproven.push(UnprovenPath {
                path: vec![],
                reason: format!(
                    "composed-path budget of {} exhausted",
                    self.options.max_composed_paths
                ),
            });
        }

        let verdict = if counterexamples.iter().any(|c| c.confirmed)
            || (!counterexamples.is_empty() && !self.options.validate_counterexamples)
        {
            Verdict::Violated
        } else if !counterexamples.is_empty() || !unproven.is_empty() {
            Verdict::Unknown
        } else {
            Verdict::Proven
        };

        Report {
            property: property.clone(),
            verdict,
            counterexamples,
            unproven,
            stats,
            elapsed: start.elapsed(),
        }
    }

    /// Establish the pipeline's per-packet instruction bound and a witness
    /// packet (the paper's second experiment: "the longest pipeline executes
    /// up to about 3600 instructions per packet, and we also identified the
    /// packet that yields this maximum").
    pub fn max_instructions(&mut self, pipeline: &Pipeline) -> InstructionBoundReport {
        let start = Instant::now();
        let Ok(summaries) = self.summarise(pipeline) else {
            return InstructionBoundReport {
                approximate: true,
                elapsed: start.elapsed(),
                ..InstructionBoundReport::default()
            };
        };
        let tree = PrefixTree {
            pipeline,
            summaries: &summaries,
        };
        let mut bound = InstructionBound {
            tree,
            solver: &self.solver,
            max_paths: self.options.max_composed_paths,
            report: InstructionBoundReport::default(),
        };
        tree.walk(&tree.root(), false, &mut bound);
        InstructionBoundReport {
            elapsed: start.elapsed(),
            ..bound.report
        }
    }

    /// Build the shard enumeration of one composition: Step 1 plus a
    /// pre-order walk of the interval-pruned prefix tree (capped at the
    /// composed-path budget). Returns `None` when there is nothing to shard
    /// — Step 1 failed (the ordinary verify path reports that) or no
    /// segment is suspect (the composition is decided without Step 2).
    pub fn outline_composition(
        &mut self,
        pipeline: &Pipeline,
        property: &Property,
        summaries: impl IntoIterator<Item = Arc<ElementSummary>>,
    ) -> Option<ComposeOutline> {
        self.seed_summaries(summaries);
        let mut stats = VerificationStats::default();
        let step1 = self.step1(pipeline, property, &mut stats).ok()?;
        if stats.suspects == 0 {
            return None;
        }
        let ctx = self.walk_ctx(pipeline, property, &step1, Vec::new());
        let mut outline = ComposeOutline::default();
        outline_walk(
            &ctx,
            ctx.tree.root(),
            self.options.max_composed_paths,
            &mut outline,
        );
        Some(outline)
    }

    /// Compute one `ComposeShard` job: the solver units in `[start, end)`
    /// of this composition's shard enumeration (the worker side of compose
    /// sharding). The shipped slots are exactly what the fold would compute
    /// inline for those units, so folding them back yields a byte-identical
    /// report. A fired `cancel` token stops the walk at the next node
    /// boundary — finished slots stay valid and ship back.
    pub fn decide_composition_shard(
        &mut self,
        pipeline: &Pipeline,
        property: &Property,
        summaries: impl IntoIterator<Item = Arc<ElementSummary>>,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> ComposeShardResult {
        self.seed_summaries(summaries);
        let mut stats = VerificationStats::default();
        let Ok(step1) = self.step1(pipeline, property, &mut stats) else {
            return ComposeShardResult::default();
        };
        if stats.suspects == 0 {
            return ComposeShardResult::default();
        }
        let ctx = self.walk_ctx(pipeline, property, &step1, build_hints(property));
        let mut result = ComposeShardResult::default();
        let mut st = ShardWalkState {
            start,
            end,
            unit: 0,
            node: 0,
            cap: self.options.max_composed_paths,
            cancel,
        };
        shard_walk(&ctx, ctx.tree.root(), true, &mut st, &mut result);
        result
    }

    /// Fold shard records back into the composition's report, replaying the
    /// sequential walk order: every node with a shipped record consumes it
    /// (several partial records of one node — unit cuts inside the node —
    /// are merged slot-wise first), and every slot or node nothing shipped
    /// (sparse shards, a cancelled sibling, the enumeration cap, a dead
    /// worker) is computed inline. The result is byte-identical to
    /// [`Verifier::verify`] under the same options, whatever the shard
    /// boundaries or fleet shape were.
    pub fn fold_composition_shards(
        &mut self,
        pipeline: &Pipeline,
        property: &Property,
        summaries: impl IntoIterator<Item = Arc<ElementSummary>>,
        outline: &ComposeOutline,
        records: impl IntoIterator<Item = ShardNodeRecord>,
    ) -> Report {
        self.seed_summaries(summaries);
        let mut merged: BTreeMap<usize, ShardNodeRecord> = BTreeMap::new();
        let mut poisoned: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for rec in records {
            if poisoned.contains(&rec.index) {
                continue;
            }
            match merged.entry(rec.index) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(rec);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let have = e.get_mut();
                    if have.checks.len() != rec.checks.len() || have.edges.len() != rec.edges.len()
                    {
                        // Records of one node that disagree on shape cannot
                        // be trusted; drop them all and compute inline.
                        poisoned.insert(rec.index);
                        e.remove();
                        continue;
                    }
                    for (slot, extra) in have.checks.iter_mut().zip(rec.checks) {
                        if slot.is_none() {
                            *slot = extra;
                        }
                    }
                    for (slot, extra) in have.edges.iter_mut().zip(rec.edges) {
                        if slot.is_none() {
                            *slot = extra;
                        }
                    }
                }
            }
        }
        self.fold(pipeline, property, outline, merged)
    }

    fn summarise(
        &mut self,
        pipeline: &Pipeline,
    ) -> Result<Vec<Arc<ElementSummary>>, dataplane_symbex::ExploreError> {
        let mut summaries = Vec::with_capacity(pipeline.len());
        for (_, node) in pipeline.iter() {
            summaries.push(
                self.cache
                    .get_or_explore(node.element.as_ref(), &self.options.engine)?,
            );
        }
        Ok(summaries)
    }

    fn is_suspect(&self, property: &Property, instance_name: &str, segment: &Segment) -> bool {
        match property {
            Property::Reachability {
                deliver_to,
                may_drop,
                ..
            } => {
                if segment.outcome.is_crash() {
                    return true;
                }
                if matches!(segment.outcome, SegmentOutcome::Dropped) {
                    let name = instance_name.to_string();
                    return !deliver_to.contains(&name) && !may_drop.contains(&name);
                }
                false
            }
            _ => property.is_suspect_segment(segment),
        }
    }
}

/// Build concrete packet bytes from a solver model: the bytes the model
/// mentions, zero-extended to the model's packet length (capped at a sane
/// frame size).
pub fn materialise_packet(model: &dataplane_symbex::Assignment) -> Vec<u8> {
    // The model's packet length is authoritative: the concrete packet must
    // have exactly that many bytes (capped at a sane jumbo-frame size), with
    // any bytes the model did not pin set to zero.
    model.concrete_packet()
}

/// Judge whether a finished concrete execution violates `property` — the
/// replay predicate of the differential-conformance subsystem, and the
/// segment-free generalisation of the verifier's own counterexample
/// confirmation. Crash-freedom is violated by any crash; the instruction
/// bound by a crash or an over-budget run; reachability by a crash, a drop
/// at an element that is neither a delivery target nor a licensed dropper,
/// or an exit anywhere but a delivery target. For reachability the caller
/// is responsible for only judging packets that actually carry the
/// property's destination address (the property says nothing about others).
/// Temporal properties are violated when the run's trace word — `packet`
/// resolves the header atoms — fails the LTL formula.
pub fn run_violates_property(
    pipeline: &Pipeline,
    property: &Property,
    packet: &[u8],
    run: &dataplane_pipeline::ModelRun,
) -> bool {
    match property {
        Property::CrashFreedom => matches!(run.disposition, Disposition::Crashed { .. }),
        Property::BoundedInstructions { max_instructions } => {
            matches!(run.disposition, Disposition::Crashed { .. })
                || run.instructions > *max_instructions
        }
        Property::Reachability {
            deliver_to,
            may_drop,
            ..
        } => match &run.disposition {
            Disposition::Crashed { .. } => true,
            // A drop at a licensed dropper means the packet was judged
            // malformed, which the property explicitly permits.
            Disposition::Dropped { at } => {
                let name = &pipeline.node(*at).name;
                !deliver_to.contains(name) && !may_drop.contains(name)
            }
            Disposition::Exited { at, .. } => {
                let name = &pipeline.node(*at).name;
                !deliver_to.contains(name)
            }
        },
        Property::Temporal(spec) => {
            crate::temporal::run_violates_temporal(pipeline, spec, packet, run)
        }
    }
}

/// What one feasibility check established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Infeasible (directly, or via the stateful-element second chance).
    Discharged,
    /// Feasible: a concrete (possibly replay-confirmed) counterexample.
    Violation(Counterexample),
    /// The solver gave up; the reason names the stage that aborted.
    Undecided(UnprovenPath),
}

/// One decided suspect × prefix check, with the bookkeeping the fold turns
/// into `Report.stats`. Because node computation is a pure function of the
/// node's walk input (its prefix path and composed constraint set), a
/// `CheckRecord` computed on a remote worker (as part of a
/// [`ShardNodeRecord`]) is byte-identical to what the fold would have
/// computed inline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckRecord {
    /// What the check established.
    pub outcome: CheckOutcome,
    /// Which solver stages gave up within their budgets.
    pub diag: CheckDiagnostics,
    /// The interval-only pre-filter decided the check (always `Discharged`)
    /// before any budgeted solver stage ran.
    pub prefiltered: bool,
}

/// One forwarding edge as the outline and shard walks see it: the child
/// node's input and the contextualised prefix constraint the pruning check
/// (and its interval pre-filter) decides.
struct EdgeChild {
    child: WalkInput,
    contextual: Vec<TermRef>,
    /// The interval-only pre-filter proved the prefix infeasible (only
    /// evaluated when pruning is on).
    prefiltered: bool,
}

/// The serialisable form of one forwarding edge's pruning outcome, as a
/// `ComposeShard` job reports it over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardEdge {
    /// The interval-only pre-filter pruned the edge without a solver call.
    pub prefiltered: bool,
    /// A full prefix-feasibility solver call was made.
    pub pruned_call: bool,
    /// The composed prefix through this edge is (possibly) feasible.
    pub feasible: bool,
}

/// Everything one enumerated walk node decided (or the part of it a shard's
/// unit range covered), in the serialisable form a `ComposeShard` job
/// returns, keyed by the node's pre-order index in the [`ComposeOutline`]
/// enumeration. Since shard ranges are *unit* ranges that may cut inside a
/// node's block, both vectors are slot vectors: `None` marks a solver unit
/// this shard's range did not cover (another shard — or the fold itself —
/// supplies it). Free slots (pre-filtered edges, edges with pruning off) are
/// always `Some` when the node was touched at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardNodeRecord {
    /// The node's pre-order index in the shard enumeration.
    pub index: usize,
    /// Decided suspect × prefix checks, in suspect-enumeration order (one
    /// slot per check surviving the instruction-bound skip).
    pub checks: Vec<Option<CheckRecord>>,
    /// Forwarding-edge pruning outcomes, in segment-enumeration order (one
    /// slot per forwarding edge).
    pub edges: Vec<Option<ShardEdge>>,
}

/// Per-node compute time of one shard visit — operational calibration data
/// (never part of the deterministic report): the coordinator feeds it back
/// into the warm store so future shard cuts weigh nodes by observed solver
/// cost instead of unit count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// The node's pre-order index in the shard enumeration.
    pub index: usize,
    /// Solver units actually computed during this visit.
    pub units: usize,
    /// Wall-clock nanoseconds spent computing them.
    pub ns: u64,
}

/// What one `ComposeShard` job computed: records for every enumerated node
/// in the shard's `[start, end)` unit range that the worker reached (a
/// cancelled shard returns the records it finished; the fold computes the
/// rest inline, so cancellation never changes the report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComposeShardResult {
    /// Per-node records, in enumeration order.
    pub records: Vec<ShardNodeRecord>,
    /// The shard was cancelled before covering its whole range.
    pub cancelled: bool,
    /// Per-node compute times (operational; excluded from deterministic
    /// report documents).
    pub timings: Vec<ShardTiming>,
}

/// One node of the shard enumeration: its estimated solver weight and the
/// pre-order indices of its enumerated children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutlineNode {
    /// Estimated full-solver calls at this node: suspect checks that survive
    /// the instruction-bound skip, plus one pruning call per enumerated
    /// (non-pre-filtered) edge when pruning is on.
    pub weight: usize,
    /// The pipeline element this node instantiates — the key the
    /// coordinator uses to calibrate unit costs from observed solver times.
    pub element: ElementIdx,
    /// Child pre-order index per forwarding edge, in segment-enumeration
    /// order. `None` where the interval pre-filter pruned the edge (the
    /// child was never enumerated) or where the enumeration cap cut it off.
    pub children: Vec<Option<usize>>,
}

/// The deterministic pre-order enumeration of a composition's Step-2 prefix
/// tree after interval-only pruning — the shared coordinate system of
/// compose sharding. The coordinator builds it to split the tree's *solver
/// units* (each node's surviving suspect checks followed by its weighted
/// pruning calls, in pre-order block order) into contiguous `[start, end)`
/// unit ranges, every worker reproduces the same enumeration to locate its
/// range, and the fold uses the recorded child indices to match worker
/// records back to the nodes of its sequential replay. The enumeration
/// never makes a budgeted solver call, so it is a deterministic function of
/// the scenario alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComposeOutline {
    /// Enumerated nodes, indexed by pre-order position.
    pub nodes: Vec<OutlineNode>,
    /// The enumeration hit the composed-path cap; nodes past it carry no
    /// index and are always computed inline by the fold.
    pub truncated: bool,
}

impl ComposeOutline {
    /// Total estimated solver weight of the enumerated tree — also the
    /// length of the shard *unit* space: every node's units (checks first,
    /// then weighted edges) sit consecutively at its pre-order position,
    /// before its descendants' units, so unit `u` of the enumeration is a
    /// deterministic address every worker resolves identically.
    pub fn total_weight(&self) -> usize {
        self.nodes.iter().map(|n| n.weight).sum()
    }

    /// The first unit of each node's block, by pre-order index (the prefix
    /// sums of the node weights).
    pub fn unit_offsets(&self) -> Vec<usize> {
        let mut off = Vec::with_capacity(self.nodes.len());
        let mut acc = 0usize;
        for node in &self.nodes {
            off.push(acc);
            acc += node.weight;
        }
        off
    }

    /// Split the unit space `[0, total_weight())` into contiguous
    /// `[start, end)` ranges of at most `max_weight` solver units each.
    /// Cuts may land *inside* a node's block (intra-suspect splits), so one
    /// pathological suspect subtree no longer pins a whole shard; workers
    /// ship partial slot records for straddled nodes and the fold merges
    /// them. Returns no ranges when the enumeration has no units (the fold
    /// then computes the pure traversal inline).
    pub fn shards(&self, max_weight: usize) -> Vec<(usize, usize)> {
        let max_weight = max_weight.max(1);
        let total = self.total_weight();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < total {
            let end = (start + max_weight).min(total);
            out.push((start, end));
            start = end;
        }
        out
    }

    /// Split the unit space into at most `shard_count` ranges balanced by
    /// *observed cost* instead of unit count: `node_costs[i]` is the
    /// calibrated cost of node `i`'s whole block (any scale — nanoseconds
    /// in practice), spread uniformly over the block's units. Falls back to
    /// uniform [`ComposeOutline::shards`] when no calibration is available
    /// (`node_costs` empty, mis-sized, or all zero). The returned ranges
    /// are plain unit addresses, so workers need no knowledge of the
    /// calibration that placed the cuts.
    pub fn shards_by_cost(&self, node_costs: &[u64], shard_count: usize) -> Vec<(usize, usize)> {
        let total = self.total_weight();
        let shard_count = shard_count.max(1);
        if total == 0 {
            return Vec::new();
        }
        let uniform_width = total.div_ceil(shard_count).max(1);
        if node_costs.len() != self.nodes.len() || node_costs.iter().all(|&c| c == 0) {
            return self.shards(uniform_width);
        }
        // Flatten to per-unit costs in enumeration order.
        let mut unit_cost = Vec::with_capacity(total);
        for (node, &cost) in self.nodes.iter().zip(node_costs) {
            if node.weight == 0 {
                continue;
            }
            let per = (cost / node.weight as u64).max(1);
            unit_cost.extend(std::iter::repeat_n(per, node.weight));
        }
        // Observed costs can be any `u64`: sums saturate.
        let total_cost = unit_cost.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
        let budget = total_cost.div_ceil(shard_count as u64).max(1);
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut acc = 0u64;
        for (u, &c) in unit_cost.iter().enumerate() {
            if u > start && acc.saturating_add(c) > budget && out.len() + 1 < shard_count {
                out.push((start, u));
                start = u;
                acc = 0;
            }
            acc = acc.saturating_add(c);
        }
        out.push((start, total));
        out
    }

    /// The pre-order index of `node`'s `edge`-th forwarding edge's child,
    /// if it was enumerated.
    pub fn child_index(&self, node: usize, edge: usize) -> Option<usize> {
        self.nodes.get(node)?.children.get(edge).copied().flatten()
    }
}

/// Immutable context shared by the whole Step-2 walk (fold, outline, and
/// shard walks alike).
struct WalkCtx<'a> {
    tree: PrefixTree<'a>,
    models: WalkModels<'a>,
    property: &'a Property,
    suspects: &'a [Vec<usize>],
    hints: Vec<dataplane_symbex::Assignment>,
    options: &'a VerifierOptions,
    solver: &'a Solver,
}

/// Build hint assignments for the solver's model search: structurally valid
/// packets (correct version, IHL, lengths, checksums) of the classes the
/// paper's workloads contain. The generic constraint search is unlikely to
/// stumble on a packet whose Internet checksum verifies; these templates give
/// it realistic starting points, and every returned model is still verified
/// against the constraints before being reported.
fn build_hints(property: &Property) -> Vec<dataplane_symbex::Assignment> {
    use dataplane_net::workload::{PacketClass, WorkloadConfig, WorkloadGen, WorkloadMix};
    let mut packets: Vec<Vec<u8>> = Vec::new();
    // A spread of well-formed and adversarial frames.
    packets.extend(
        WorkloadGen::adversarial(0x7E57)
            .batch(24)
            .into_iter()
            .map(|p| p.into_bytes()),
    );
    for class in [
        PacketClass::Udp,
        PacketClass::WithIpOptions,
        PacketClass::ExpiringTtl,
        PacketClass::TcpSyn,
    ] {
        packets.extend(
            WorkloadGen::new(WorkloadConfig {
                seed: 0x7E58,
                mix: WorkloadMix::only(class),
                ..WorkloadConfig::default()
            })
            .batch(6)
            .into_iter()
            .map(|p| p.into_bytes()),
        );
    }
    // For reachability the destination is pinned, so provide templates that
    // carry exactly that destination (their checksums are then consistent
    // with the bound bytes).
    if let Property::Reachability {
        dst, dst_offset, ..
    } = property
    {
        let extra: Vec<Vec<u8>> = packets
            .iter()
            .take(16)
            .map(|bytes| pin_destination(bytes, *dst, *dst_offset))
            .collect();
        packets.extend(extra);
    }
    packets
        .into_iter()
        .map(|bytes| dataplane_symbex::Assignment::from_packet(&bytes))
        .collect()
}

/// A reachability hint made from template `bytes`: `dst` written at
/// `dst_offset`, and the IPv4 header's checksum made consistent with it.
fn pin_destination(bytes: &[u8], dst: std::net::Ipv4Addr, dst_offset: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    let off = dst_offset as usize;
    if b.len() >= off + 4 {
        b[off..off + 4].copy_from_slice(&dst.octets());
        rewrite_ipv4_checksum(&mut b, off);
    }
    b
}

/// Recompute the checksum of the IPv4 header whose destination field sits
/// at `dst_offset` of `packet`, if a plausible header is there. The
/// destination is byte 16 of the IPv4 header, so the header starts at
/// `dst_offset - 16` whatever the link layer in front of it (14 bytes of
/// Ethernet, 18 with a VLAN tag, none for a bare IP packet).
fn rewrite_ipv4_checksum(packet: &mut [u8], dst_offset: usize) {
    let ip_start = dst_offset.saturating_sub(16);
    if packet.len() >= ip_start + 20 {
        let mut hdr = packet[ip_start..].to_vec();
        if dataplane_net::Ipv4Header::rewrite_checksum(&mut hdr) {
            let hl = (((hdr[0] & 0x0f) as usize) * 4).min(hdr.len());
            packet[ip_start..ip_start + hl].copy_from_slice(&hdr[..hl]);
        }
    }
}

/// What Step 2 reads of one element's model: the program's data-structure
/// declarations and the static tables its configuration installs.
struct ElementModel {
    program: Program,
    tables: BTreeMap<DsId, DsContents>,
}

impl ElementModel {
    /// The configured contents of data structure `ds` (empty if none).
    fn table(&self, ds: DsId) -> &[(u64, u64)] {
        self.tables.get(&ds).map_or(&[], Vec::as_slice)
    }
}

/// The element models of one Step-2 walk: each is built the first time the
/// walk needs it and borrowed from then on, so a walk builds an element's
/// model (and scans its tables) at most once however many checks read it.
struct WalkModels<'a> {
    pipeline: &'a Pipeline,
    built: Vec<OnceLock<ElementModel>>,
}

impl<'a> WalkModels<'a> {
    fn new(pipeline: &'a Pipeline) -> Self {
        WalkModels {
            pipeline,
            built: (0..pipeline.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, element: ElementIdx) -> &ElementModel {
        self.built[element].get_or_init(|| {
            let element = self.pipeline.node(element).element.as_ref();
            ElementModel {
                program: element.model(),
                tables: element.model_state(),
            }
        })
    }
}

/// Replace reads of *static* data structures with the values installed by
/// the element's configuration (the paper's "certain properties can only
/// be proved for a specific configuration"): reads with a concrete key
/// are looked up directly; reads of small tables with a symbolic key
/// become a select chain over the table's populated entries.
fn concretise_static_reads(
    models: &WalkModels<'_>,
    elements: &[ElementIdx],
    mut terms: Vec<TermRef>,
) -> Vec<TermRef> {
    // The select-chain expansion is only worthwhile (and only bounded)
    // for small tables.
    const MAX_CHAIN: usize = 32;
    // The path's models, by depth, resolved before any substitution.
    let path: Vec<&ElementModel> = elements.iter().map(|&e| models.get(e)).collect();
    // Concretising one read can make another read's key concrete, so run
    // a few passes until the terms stop changing.
    for _ in 0..3 {
        let next: Vec<TermRef> = terms
            .iter()
            .map(|t| {
                term::substitute(t, &|leaf| {
                    if let Term::DsRead {
                        ds,
                        key,
                        seq,
                        width,
                    } = leaf
                    {
                        let model = path.get(depth_of_id(*seq)?)?;
                        let decl = model.program.ds(*ds)?;
                        if decl.class != DsClass::Static {
                            return None;
                        }
                        let contents = model.table(*ds);
                        if let Some(k) = key.as_const() {
                            let value = contents
                                .iter()
                                .find(|(ck, _)| *ck == k.as_u64())
                                .map(|(_, v)| *v)
                                .unwrap_or(decl.default);
                            return Some(term::constant(dataplane_ir::BitVec::new(*width, value)));
                        }
                        if contents.len() <= MAX_CHAIN {
                            // Symbolic key over a small table: expand to
                            // select(key == k1, v1, select(key == k2, ...)).
                            let mut chain =
                                term::constant(dataplane_ir::BitVec::new(*width, decl.default));
                            for (k, v) in contents {
                                chain = term::select(
                                    term::binary(
                                        dataplane_ir::BinOp::Eq,
                                        key.clone(),
                                        term::constant(dataplane_ir::BitVec::new(
                                            decl.key_width,
                                            *k,
                                        )),
                                    ),
                                    term::constant(dataplane_ir::BitVec::new(*width, *v)),
                                    chain,
                                );
                            }
                            return Some(chain);
                        }
                        None
                    } else {
                        None
                    }
                })
            })
            .collect();
        let changed = next != terms;
        terms = next;
        if !changed {
            break;
        }
    }
    terms
}

impl<'a> WalkCtx<'a> {
    /// The forwarding edges of `input` for the outline and shard walks, in
    /// segment-enumeration order: the child, the contextualised prefix
    /// constraint its pruning check decides, and (with pruning on) whether
    /// the interval-only pre-filter already refutes that prefix.
    fn edge_children(&self, input: &WalkInput) -> Vec<EdgeChild> {
        self.tree
            .children(input)
            .map(|child| {
                let contextual = self
                    .contextual(&child.constraint, &input.elements)
                    .into_owned();
                let prefiltered = self.options.prune_prefixes && interval_infeasible(&contextual);
                EdgeChild {
                    child,
                    contextual,
                    prefiltered,
                }
            })
            .collect()
    }

    /// The suspect segments of `input` that will actually be checked (after
    /// the instruction-bound skip), in suspect-enumeration order — the
    /// check units of the node's shard block.
    fn surviving_suspects(&self, input: &WalkInput) -> Vec<usize> {
        let summary = &self.tree.summaries[input.element];
        self.suspects[input.element]
            .iter()
            .copied()
            .filter(|&seg_idx| {
                let segment = &summary.exploration.segments[seg_idx];
                // For the instruction-bound property, only paths whose
                // cumulative count exceeds the bound matter.
                if let Property::BoundedInstructions { max_instructions } = self.property {
                    segment.outcome.is_crash()
                        || input.instructions + segment.instructions > *max_instructions
                } else {
                    true
                }
            })
            .collect()
    }

    /// Decide suspect segment `seg_idx` of `input` on its fully
    /// contextualised constraint.
    fn check_suspect(
        &self,
        input: &WalkInput,
        seg_idx: usize,
        cancel: &CancelToken,
    ) -> CheckRecord {
        let segment = &self.tree.summaries[input.element].exploration.segments[seg_idx];
        let composed = self.tree.compose(input, segment);
        let constraint = self.contextual(&composed, &input.elements);
        self.run_check(input.element, seg_idx, &constraint, &input.path, cancel)
    }

    /// Decide one forwarding edge's pruning outcome — the one edge decision
    /// of every Step-2 walk (the fold for slots no shard covered, the shard
    /// walk for the units in its range): is the contextualised prefix
    /// refuted, and by which half of the solver? The analytic prefix is the
    /// free pre-filter; Fourier–Motzkin is the counted pruning call. No
    /// model is searched for — a prefix is kept unless it is *proved*
    /// infeasible.
    fn decide_edge(&self, contextual: &[TermRef]) -> ShardEdge {
        if !self.options.prune_prefixes {
            return ShardEdge {
                prefiltered: false,
                pruned_call: false,
                feasible: true,
            };
        }
        let refuted = self.solver.refutes(contextual);
        let prefiltered = refuted == Some(SolverStage::Prefix);
        ShardEdge {
            prefiltered,
            pruned_call: !prefiltered,
            feasible: refuted.is_none(),
        }
    }

    /// Add the property's input assumptions (e.g. the reachability
    /// destination binding) and concretise static state — a copy only for
    /// the property that has any.
    fn contextual<'c>(
        &self,
        constraint: &'c [TermRef],
        elements: &[ElementIdx],
    ) -> Cow<'c, [TermRef]> {
        match self.property {
            Property::Reachability {
                dst, dst_offset, ..
            } => {
                let octets = dst.octets();
                let bindings: Vec<(i64, u8)> = octets
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (*dst_offset as i64 + i as i64, *b))
                    .collect();
                let bound = bind_packet_bytes(constraint, &bindings);
                Cow::Owned(concretise_static_reads(&self.models, elements, bound))
            }
            _ => Cow::Borrowed(constraint),
        }
    }

    /// Decide one suspect × prefix feasibility check: one solver decision,
    /// then the stateful-element second chance for an `Unknown`. Sound to
    /// discharge on the analytic prefix alone because it is the first half
    /// of the refuting procedure (`prefiltered` records that it decided).
    fn run_check(
        &self,
        element: ElementIdx,
        seg_idx: usize,
        constraint: &[TermRef],
        path: &[String],
        cancel: &CancelToken,
    ) -> CheckRecord {
        let node = self.tree.pipeline.node(element);
        let segment = &self.tree.summaries[element].exploration.segments[seg_idx];
        // A prefix the budget-free analytic stages already refute is
        // discharged without touching the hint-repair, Fourier–Motzkin, or
        // model-search machinery; the stage says so.
        let Decision {
            result,
            diag,
            stage,
        } = self.solver.decide(constraint, &self.hints, cancel);
        let outcome = match result {
            SolverResult::Unsat => CheckOutcome::Discharged,
            SolverResult::Sat(model) => {
                let packet = self.materialise_counterexample(&model);
                let confirmed = self.options.validate_counterexamples
                    && self.confirm(&packet, element, segment);
                CheckOutcome::Violation(Counterexample {
                    packet,
                    path: path.to_vec(),
                    description: format!(
                        "{} at element '{}'",
                        describe_outcome(&segment.outcome),
                        node.name
                    ),
                    confirmed,
                })
            }
            // Second chance: the stateful-element analysis (reads of
            // never-written private state can be replaced by the default
            // value).
            SolverResult::Unknown if self.discharged_by_ds_analysis(constraint, element) => {
                CheckOutcome::Discharged
            }
            SolverResult::Unknown => {
                let stages = diag.describe();
                let why = if stages.is_empty() {
                    String::new()
                } else {
                    format!(" ({stages})")
                };
                CheckOutcome::Undecided(UnprovenPath {
                    path: path.to_vec(),
                    reason: format!(
                        "could not decide feasibility of {} at '{}'{why}",
                        describe_outcome(&segment.outcome),
                        node.name
                    ),
                })
            }
        };
        CheckRecord {
            outcome,
            diag,
            prefiltered: stage == SolverStage::Prefix,
        }
    }

    /// Turn a solver model into the packet reported to the user. For the
    /// reachability property the destination bytes were substituted away
    /// before solving, so they are restored here (and the IPv4 header
    /// checksum recomputed) to keep the witness a well-formed packet with the
    /// destination the property talks about.
    fn materialise_counterexample(&self, model: &dataplane_symbex::Assignment) -> Vec<u8> {
        let mut packet = materialise_packet(model);
        if let Property::Reachability {
            dst, dst_offset, ..
        } = self.property
        {
            let off = *dst_offset as usize;
            if packet.len() < off + 4 {
                packet.resize(off + 4, 0);
            }
            packet[off..off + 4].copy_from_slice(&dst.octets());
            rewrite_ipv4_checksum(&mut packet, off);
        }
        packet
    }

    /// Try to discharge a constraint the solver could not decide by replacing
    /// reads of private data structures that the element never writes with
    /// their default values.
    fn discharged_by_ds_analysis(&self, constraint: &[TermRef], element: ElementIdx) -> bool {
        let program = &self.models.get(element).program;
        let summary = &self.tree.summaries[element];
        // Data structures this element ever writes (on any segment).
        let written: Vec<DsId> = summary
            .exploration
            .segments
            .iter()
            .flat_map(|s| s.ds_writes.iter().map(|w| w.ds))
            .collect();
        let substituted: Vec<TermRef> = constraint
            .iter()
            .map(|t| {
                term::substitute(t, &|leaf| {
                    if let Term::DsRead { ds, width, .. } = leaf {
                        let decl = program.ds(*ds)?;
                        if decl.class == DsClass::Private && !written.contains(ds) {
                            return Some(term::constant(dataplane_ir::BitVec::new(
                                *width,
                                decl.default,
                            )));
                        }
                    }
                    None
                })
            })
            .collect();
        self.solver.refutes(&substituted).is_some()
    }

    /// Replay a counterexample packet on a fresh concrete pipeline and check
    /// that the predicted violation really occurs.
    fn confirm(&self, packet: &[u8], element: ElementIdx, segment: &Segment) -> bool {
        // Rebuild the pipeline via its model runtime so private state starts
        // fresh; a single packet suffices for the properties we check.
        let mut runtime = dataplane_pipeline::ModelRuntime::new(self.tree.pipeline);
        let run = runtime.push(Packet::from_bytes(packet.to_vec()));
        match (self.property, &segment.outcome) {
            (Property::CrashFreedom, _) => {
                matches!(run.disposition, Disposition::Crashed { .. })
            }
            (Property::BoundedInstructions { max_instructions }, outcome) => {
                if outcome.is_crash() {
                    matches!(run.disposition, Disposition::Crashed { .. })
                } else {
                    run.instructions > *max_instructions
                }
            }
            (
                Property::Reachability {
                    deliver_to,
                    may_drop,
                    ..
                },
                _,
            ) => {
                let last = *run.hops.last().unwrap_or(&element);
                let last_name = self.tree.pipeline.node(last).name.clone();
                match run.disposition {
                    Disposition::Crashed { .. } => true,
                    // A drop at a header checker means the witness was
                    // malformed, which the property explicitly permits — that
                    // is not a confirmation.
                    Disposition::Dropped { .. } => {
                        !deliver_to.contains(&last_name) && !may_drop.contains(&last_name)
                    }
                    Disposition::Exited { .. } => !deliver_to.contains(&last_name),
                }
            }
            // Temporal counterexamples are confirmed by the Büchi-product
            // search itself (the trace evaluator); suspect-walk checks
            // never see a temporal property.
            (Property::Temporal(spec), _) => {
                crate::temporal::run_violates_temporal(self.tree.pipeline, spec, packet, &run)
            }
        }
    }
}

/// The safety fold: a visitor that folds shard records in exact
/// sequential-walk (depth-first enumeration) order, producing outcomes,
/// statistics, and budget accounting identical to a one-thread walk —
/// whatever the shards computed, over-computed, or skipped. Missing slots
/// are computed inline, so the fold with no records at all *is* the
/// sequential walk.
struct FoldState<'f, 'a> {
    ctx: &'f WalkCtx<'a>,
    stats: &'f mut VerificationStats,
    outline: &'f ComposeOutline,
    records: &'f mut BTreeMap<usize, ShardNodeRecord>,
    /// Records earlier folds over the same pipeline computed, consulted
    /// after the shard records and before computing.
    table: Option<&'f RecordTable>,
    counterexamples: Vec<Counterexample>,
    unproven: Vec<UnprovenPath>,
    budget_exhausted: bool,
}

/// Where the fold stands in the prefix tree.
struct FoldNode {
    /// The node's pre-order position in the shard enumeration (`None` once
    /// the walk leaves the enumerated tree — past the cap, or with no
    /// outline at all).
    index: Option<usize>,
    /// The node's forwarding-edge indices from the root: its key in the
    /// record table.
    route: Vec<u32>,
}

impl FoldState<'_, '_> {
    /// Decide suspect segment `seg_idx` of `input` inline — from the record
    /// table when an earlier fold over the pipeline asked the same question.
    fn check_inline(&self, input: &WalkInput, route: &[u32], seg_idx: usize) -> CheckRecord {
        let compute = || self.ctx.check_suspect(input, seg_idx, &CancelToken::new());
        let Some(table) = self.table else {
            return compute();
        };
        let property = self.ctx.property;
        let segment = &self.ctx.tree.summaries[input.element].exploration.segments[seg_idx];
        let class = (
            Context::of(property),
            Confirm::of(property, segment.outcome.is_crash()),
        );
        table.check(class, route, seg_idx, compute)
    }

    /// Decide forwarding edge `edge` of `input` to `child` inline — from the
    /// record table when an earlier fold over the pipeline decided it.
    fn edge_inline(
        &self,
        input: &WalkInput,
        route: &[u32],
        edge: usize,
        child: &WalkInput,
    ) -> ShardEdge {
        let compute = || {
            self.ctx
                .decide_edge(&self.ctx.contextual(&child.constraint, &input.elements))
        };
        match self.table {
            Some(table) => table.edge(Context::of(self.ctx.property), route, edge, compute),
            None => compute(),
        }
    }

    /// Stats and outcome bookkeeping of one decided check.
    fn tally_check(&mut self, check: CheckRecord) {
        if check.prefiltered {
            self.stats.prefilter_decided += 1;
        } else {
            self.stats.solver_calls += 1;
            self.stats.prefilter_passed += 1;
        }
        self.stats.fm_budget_aborts += usize::from(check.diag.fm_budget_exhausted);
        self.stats.model_search_aborts += usize::from(check.diag.model_search_exhausted);
        match check.outcome {
            CheckOutcome::Discharged => self.stats.discharged += 1,
            CheckOutcome::Violation(ce) => self.counterexamples.push(ce),
            CheckOutcome::Undecided(up) => self.unproven.push(up),
        }
    }

    /// Stats bookkeeping of one forwarding edge's pruning outcome.
    fn tally_edge(&mut self, prefiltered: bool, pruned_call: bool) {
        if prefiltered {
            self.stats.prefilter_decided += 1;
        } else if pruned_call {
            self.stats.solver_calls += 1;
            self.stats.prefilter_passed += 1;
        }
    }
}

/// Each check and edge slot of a node is taken from the shipped record if a
/// shard covered it and computed inline otherwise (no record at all, a
/// record whose shape disagrees with this build, unit cuts inside the node,
/// a cancelled shard, a dead worker mid-block).
impl Visitor for FoldState<'_, '_> {
    type Node = FoldNode;

    /// The node-entry bookkeeping (budget, then count), then the node's
    /// suspect checks in enumeration order.
    fn enter(&mut self, input: &WalkInput, node: FoldNode) -> Option<FoldNode> {
        if self.stats.composed_paths >= self.ctx.options.max_composed_paths {
            self.budget_exhausted = true;
            return None;
        }
        self.stats.composed_paths += 1;
        let suspects = self.ctx.surviving_suspects(input);
        let edges = self.ctx.tree.edge_count(input.element);
        let index = node.index;
        let checks = match index.and_then(|i| self.records.get_mut(&i)) {
            Some(rec) if rec.checks.len() == suspects.len() && rec.edges.len() == edges => {
                std::mem::take(&mut rec.checks)
            }
            _ => {
                // A record of the wrong shape is dropped whole, edges too.
                if let Some(i) = index {
                    self.records.remove(&i);
                }
                vec![None; suspects.len()]
            }
        };
        for (slot, seg_idx) in checks.into_iter().zip(suspects) {
            let check = slot.unwrap_or_else(|| self.check_inline(input, &node.route, seg_idx));
            self.tally_check(check);
        }
        Some(node)
    }

    /// The edge's pruning outcome; a feasible edge is descended.
    fn edge(
        &mut self,
        input: &WalkInput,
        node: &FoldNode,
        edge: usize,
        _segment: &Segment,
        child: &WalkInput,
    ) -> Option<FoldNode> {
        let shipped = node
            .index
            .and_then(|i| self.records.get(&i))
            .and_then(|rec| rec.edges[edge]);
        let decided = shipped.unwrap_or_else(|| self.edge_inline(input, &node.route, edge, child));
        self.tally_edge(decided.prefiltered, decided.pruned_call);
        decided.feasible.then(|| {
            let mut route = node.route.clone();
            route.push(edge as u32);
            FoldNode {
                index: node.index.and_then(|i| self.outline.child_index(i, edge)),
                route,
            }
        })
    }

    /// Terminals carry no suspect check of their own.
    fn terminal(&mut self, _: &WalkInput, _: &FoldNode, _: &Segment) -> Step {
        Step::Continue
    }
}

/// The instruction bound: a visitor keeping the running maximum over the
/// feasible terminals of the prefix tree, with the solver's model of the
/// maximal path as its witness.
struct InstructionBound<'a> {
    tree: PrefixTree<'a>,
    solver: &'a Solver,
    /// Stop entering nodes once this many terminals were considered.
    max_paths: usize,
    report: InstructionBoundReport,
}

impl Visitor for InstructionBound<'_> {
    /// Whether any segment on the path to the node over-approximates.
    type Node = bool;

    fn enter(&mut self, _: &WalkInput, approximate: bool) -> Option<bool> {
        (self.report.paths_considered < self.max_paths).then_some(approximate)
    }

    fn edge(
        &mut self,
        _: &WalkInput,
        approximate: &bool,
        _: usize,
        segment: &Segment,
        _: &WalkInput,
    ) -> Option<bool> {
        Some(*approximate || segment.approximate)
    }

    /// The packet leaves the pipeline here (or the path crashes / drops).
    fn terminal(&mut self, input: &WalkInput, approximate: &bool, segment: &Segment) -> Step {
        let report = &mut self.report;
        report.paths_considered += 1;
        let result = self.solver.check(&self.tree.compose(input, segment));
        if matches!(result, SolverResult::Unsat) {
            return Step::Continue;
        }
        report.feasible_paths += 1;
        let instructions = input.instructions + segment.instructions;
        if instructions > report.max_instructions {
            report.max_instructions = instructions;
            report.approximate = *approximate || segment.approximate;
            report.path = input.path.clone();
            report.witness = match result {
                SolverResult::Sat(model) => Some(materialise_packet(&model)),
                _ => None,
            };
        }
        Step::Continue
    }
}

/// Pre-order enumeration of the interval-pruned prefix tree, recording each
/// node's estimated solver weight and its children's indices. Returns the
/// node's index, or `None` when the cap cut the subtree off.
fn outline_walk(
    ctx: &WalkCtx<'_>,
    input: WalkInput,
    cap: usize,
    out: &mut ComposeOutline,
) -> Option<usize> {
    if out.nodes.len() >= cap {
        out.truncated = true;
        return None;
    }
    let idx = out.nodes.len();
    let element = input.element;
    out.nodes.push(OutlineNode {
        weight: 0,
        element,
        children: Vec::new(),
    });
    let mut weight = ctx.surviving_suspects(&input).len();
    let mut children = Vec::new();
    for ec in ctx.edge_children(&input) {
        if ec.prefiltered {
            // Interval-pruned: the child is never enumerated (every walk —
            // outline, shard, fold — prunes it the same way without a
            // budgeted solver call).
            children.push(None);
        } else {
            if ctx.options.prune_prefixes {
                weight += 1;
            }
            children.push(outline_walk(ctx, ec.child, cap, out));
        }
    }
    out.nodes[idx] = OutlineNode {
        weight,
        element,
        children,
    };
    Some(idx)
}

/// Mutable state threaded through one shard's worker walk.
struct ShardWalkState<'s> {
    /// The shard's `[start, end)` unit range.
    start: usize,
    end: usize,
    /// Next unclaimed unit (units of visited node blocks are claimed at
    /// node entry, so this grows in pre-order block order).
    unit: usize,
    /// Next pre-order node index.
    node: usize,
    /// The enumeration's node cap (the composed-path budget); nodes past
    /// it were never outlined and always fold inline.
    cap: usize,
    /// Sibling shard found a violation: stop and ship what is finished.
    cancel: &'s CancelToken,
}

/// The worker side of one shard: replay the enumeration, computing the
/// solver units inside the `[start, end)` unit range (while the subtree is
/// still live — not behind an edge this shard itself proved infeasible) and
/// traversing shape-only outside it. A node whose unit block straddles the
/// range boundary yields a partial slot record; units behind an edge whose
/// feasibility this shard did not itself decide are computed optimistically
/// (the fold ignores records behind edges it prunes). Returns `false` once
/// the walk is past `end` or cancelled, unwinding the recursion.
fn shard_walk(
    ctx: &WalkCtx<'_>,
    input: WalkInput,
    live: bool,
    st: &mut ShardWalkState<'_>,
    out: &mut ComposeShardResult,
) -> bool {
    if st.unit >= st.end || st.node >= st.cap {
        // Unit blocks grow in pre-order, so nothing at or below this point
        // can intersect the range any more.
        return false;
    }
    if st.cancel.is_cancelled() {
        out.cancelled = true;
        return false;
    }
    let idx = st.node;
    st.node += 1;
    let suspects = ctx.surviving_suspects(&input);
    let edges = ctx.edge_children(&input);
    let prune = ctx.options.prune_prefixes;
    let weighted = if prune {
        edges.iter().filter(|e| !e.prefiltered).count()
    } else {
        0
    };
    let weight = suspects.len() + weighted;
    let u0 = st.unit;
    st.unit += weight;

    let covered = live && weight > 0 && u0 < st.end && u0 + weight > st.start;
    if !covered {
        // Out of range (or already dead): advance the enumeration counters
        // through the subtree without any budgeted solver call.
        for ec in edges {
            if ec.prefiltered {
                continue;
            }
            if !shard_walk(ctx, ec.child, live, st, out) {
                return false;
            }
        }
        return true;
    }

    // In range (at least partly): decide the covered units for real. The
    // node gets a fresh token so a cancellation between nodes never
    // truncates a solver call mid-flight — shipped slots are always exact.
    let started = Instant::now();
    let mut units_done = 0usize;
    let token = CancelToken::new();

    let mut checks: Vec<Option<CheckRecord>> = Vec::with_capacity(suspects.len());
    for (k, &seg_idx) in suspects.iter().enumerate() {
        let u = u0 + k;
        if u >= st.start && u < st.end {
            checks.push(Some(ctx.check_suspect(&input, seg_idx, &token)));
            units_done += 1;
        } else {
            checks.push(None);
        }
    }

    let mut edge_slots: Vec<Option<ShardEdge>> = Vec::with_capacity(edges.len());
    let mut recurse: Vec<(WalkInput, bool)> = Vec::new();
    let mut wu = u0 + suspects.len();
    for ec in edges {
        if ec.prefiltered {
            // Free slot: the pre-filter already decided it, no unit spent.
            edge_slots.push(Some(ShardEdge {
                prefiltered: true,
                pruned_call: false,
                feasible: false,
            }));
            continue; // not enumerated
        }
        if !prune {
            // Free slot too: with pruning off the edge decision is constant.
            edge_slots.push(Some(ctx.decide_edge(&ec.contextual)));
            recurse.push((ec.child, live));
            continue;
        }
        let u = wu;
        wu += 1;
        if u >= st.start && u < st.end {
            let edge = ctx.decide_edge(&ec.contextual);
            edge_slots.push(Some(edge));
            recurse.push((ec.child, edge.feasible));
            units_done += 1;
        } else {
            // Feasibility unknown to this shard: recurse optimistically —
            // wasted work at worst, never a wrong report (the fold skips
            // records behind edges it prunes).
            edge_slots.push(None);
            recurse.push((ec.child, live));
        }
    }

    out.records.push(ShardNodeRecord {
        index: idx,
        checks,
        edges: edge_slots,
    });
    if units_done > 0 {
        out.timings.push(ShardTiming {
            index: idx,
            units: units_done,
            ns: started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        });
    }
    for (child, child_live) in recurse {
        if !shard_walk(ctx, child, child_live, st, out) {
            return false;
        }
    }
    true
}

fn describe_outcome(outcome: &SegmentOutcome) -> String {
    match outcome {
        SegmentOutcome::Emitted(p) => format!("emission on port {p}"),
        SegmentOutcome::Dropped => "packet drop".to_string(),
        SegmentOutcome::Crashed(kind) => format!("crash ({kind})"),
    }
}

/// Convenience map view of a pipeline's suspect counts per element, used by
/// examples and benches to show Step-1 results.
pub fn suspect_overview(report: &Report) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    m.insert("suspects", report.stats.suspects);
    m.insert("discharged", report.stats.discharged);
    m.insert("counterexamples", report.counterexamples.len());
    m.insert("unproven", report.unproven.len());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataplane_pipeline::presets::{
        buggy_pipeline, ip_router_pipeline, linear_pipeline, router_element_chain,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Shard the composition at `max_weight`, compute every shard on a
    /// fresh "worker" verifier, fold on a fresh "coordinator" verifier, and
    /// require the result to match an unsharded run field for field.
    fn assert_shard_identity(pipeline: &Pipeline, property: &Property, max_weight: usize) {
        let mut baseline = Verifier::new();
        let base = baseline.verify(pipeline, property);

        let mut outliner = Verifier::new();
        let Some(outline) = outliner.outline_composition(pipeline, property, Vec::new()) else {
            // No suspects: the sharded path is never taken for this scenario.
            return;
        };
        let ranges = outline.shards(max_weight);
        // The ranges tile the unit space: contiguous, disjoint, complete.
        let mut expected_start = 0usize;
        for &(start, end) in &ranges {
            assert_eq!(start, expected_start);
            assert!(end > start);
            assert!(end - start <= max_weight);
            expected_start = end;
        }
        assert_eq!(expected_start, outline.total_weight());

        let offsets = outline.unit_offsets();
        let mut records = Vec::new();
        for (start, end) in ranges {
            let mut worker = Verifier::new();
            let shard = worker.decide_composition_shard(
                pipeline,
                property,
                Vec::new(),
                start,
                end,
                &CancelToken::new(),
            );
            assert!(!shard.cancelled);
            for rec in &shard.records {
                // Every record names an enumerated node whose unit block
                // intersects the shard's range, with build-matching shape.
                let node = &outline.nodes[rec.index];
                let u0 = offsets[rec.index];
                assert!(u0 < end && u0 + node.weight > start);
                assert_eq!(rec.edges.len(), node.children.len());
            }
            records.extend(shard.records);
        }

        let mut folder = Verifier::new();
        let folded =
            folder.fold_composition_shards(pipeline, property, Vec::new(), &outline, records);
        assert_eq!(folded.verdict, base.verdict, "{property:?}");
        assert_eq!(folded.counterexamples, base.counterexamples);
        assert_eq!(folded.unproven, base.unproven);
        assert_eq!(folded.stats, base.stats);
    }

    #[test]
    fn sharded_compose_matches_in_process_ip_router() {
        let pipeline = ip_router_pipeline();
        for max_weight in [1, 4] {
            assert_shard_identity(&pipeline, &Property::CrashFreedom, max_weight);
        }
    }

    #[test]
    fn sharded_compose_matches_in_process_buggy_violation() {
        let pipeline = buggy_pipeline();
        for max_weight in [1, 8] {
            assert_shard_identity(&pipeline, &Property::CrashFreedom, max_weight);
        }
    }

    #[test]
    fn fold_without_records_computes_everything_inline() {
        // A fully cancelled fleet ships no records at all; the fold must
        // still reproduce the unsharded report exactly.
        let pipeline = buggy_pipeline();
        let property = Property::CrashFreedom;
        let mut baseline = Verifier::new();
        let base = baseline.verify(&pipeline, &property);
        let mut outliner = Verifier::new();
        let outline = outliner
            .outline_composition(&pipeline, &property, Vec::new())
            .expect("buggy pipeline has suspects");
        let mut folder = Verifier::new();
        let folded =
            folder.fold_composition_shards(&pipeline, &property, Vec::new(), &outline, Vec::new());
        assert_eq!(folded.verdict, base.verdict);
        assert_eq!(folded.counterexamples, base.counterexamples);
        assert_eq!(folded.stats, base.stats);
    }

    #[test]
    fn unit_shards_cut_inside_a_node() {
        // With one unit per shard, any node worth more than one solver unit
        // is split across shards; each shard ships a partial slot record
        // for it and the fold merges them back (identity is asserted by
        // `sharded_compose_matches_in_process_*`; here we check a split
        // really happens).
        let pipeline = ip_router_pipeline();
        let property = Property::CrashFreedom;
        let mut outliner = Verifier::new();
        let outline = outliner
            .outline_composition(&pipeline, &property, Vec::new())
            .expect("ip router has suspects");
        assert!(
            outline.nodes.iter().any(|n| n.weight > 1),
            "preset should have a multi-unit node"
        );
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for (start, end) in outline.shards(1) {
            let mut worker = Verifier::new();
            let shard = worker.decide_composition_shard(
                &pipeline,
                &property,
                Vec::new(),
                start,
                end,
                &CancelToken::new(),
            );
            for rec in &shard.records {
                *seen.entry(rec.index).or_default() += 1;
            }
        }
        assert!(
            seen.values().any(|&n| n > 1),
            "no node was split across unit shards: {seen:?}"
        );
    }

    #[test]
    fn cost_calibrated_shards_rebalance_a_skewed_tree() {
        // A synthetic outline whose first node dominates observed cost:
        // uniform unit cuts leave one shard carrying nearly everything,
        // cost-calibrated cuts split inside that node's block and the
        // heaviest-shard cost ratio drops.
        let outline = ComposeOutline {
            nodes: vec![
                OutlineNode {
                    weight: 4,
                    element: 0,
                    children: vec![Some(1), Some(2)],
                },
                OutlineNode {
                    weight: 4,
                    element: 1,
                    children: vec![],
                },
                OutlineNode {
                    weight: 4,
                    element: 2,
                    children: vec![],
                },
            ],
            truncated: false,
        };
        let node_costs = vec![120_000u64, 1_200, 1_200];
        let total = outline.total_weight();
        let shard_count = 3;

        let unit_costs: Vec<u64> = outline
            .nodes
            .iter()
            .zip(&node_costs)
            .flat_map(|(n, &c)| std::iter::repeat_n(c / n.weight as u64, n.weight))
            .collect();
        let shard_cost =
            |&(s, e): &(usize, usize)| -> u64 { unit_costs[s..e].iter().copied().sum() };
        let total_cost: u64 = unit_costs.iter().sum();

        let uniform = outline.shards(total.div_ceil(shard_count).max(1));
        let calibrated = outline.shards_by_cost(&node_costs, shard_count);

        // The calibrated ranges still tile the unit space.
        let mut expected_start = 0usize;
        for &(s, e) in &calibrated {
            assert_eq!(s, expected_start);
            assert!(e > s);
            expected_start = e;
        }
        assert_eq!(expected_start, total);
        assert!(calibrated.len() <= shard_count);

        let heaviest_uniform = uniform.iter().map(shard_cost).max().unwrap();
        let heaviest_calibrated = calibrated.iter().map(shard_cost).max().unwrap();
        assert!(
            heaviest_calibrated < heaviest_uniform,
            "calibration should shrink the heaviest shard: {heaviest_calibrated} vs {heaviest_uniform}"
        );
        // Ratio of the heaviest shard to the whole tree drops well below
        // the uniform split's near-total share.
        assert!(heaviest_uniform * 2 > total_cost);
        assert!(heaviest_calibrated * 2 < total_cost + heaviest_uniform);
    }

    #[test]
    fn shard_costs_near_u64_max_saturate_instead_of_overflowing() {
        let leaf = |element| OutlineNode {
            weight: 1,
            element,
            children: vec![],
        };
        let outline = ComposeOutline {
            nodes: vec![leaf(0), leaf(1)],
            truncated: false,
        };
        let ranges = outline.shards_by_cost(&[u64::MAX, u64::MAX], 2);
        assert_eq!(ranges.first().map(|r| r.0), Some(0));
        assert_eq!(ranges.last().map(|r| r.1), Some(2));
        assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0), "{ranges:?}");
    }

    #[test]
    fn reachability_hints_fix_the_checksum_of_a_vlan_tagged_header() {
        use dataplane_net::workload::{PacketClass, WorkloadConfig, WorkloadGen, WorkloadMix};
        // A well-formed UDP frame with an 802.1Q tag after the MAC
        // addresses: the IPv4 header moves to 18, its destination to 34.
        let frame = WorkloadGen::new(WorkloadConfig {
            mix: WorkloadMix::only(PacketClass::Udp),
            ..WorkloadConfig::default()
        })
        .batch(1)
        .remove(0)
        .into_bytes();
        let mut tagged = frame[..12].to_vec();
        tagged.extend([0x81, 0x00, 0x00, 0x05]);
        tagged.extend(&frame[12..]);
        let ihl = usize::from(tagged[18] & 0x0f) * 4;
        assert!(dataplane_net::checksum::verify(&tagged[18..18 + ihl]));

        let dst = std::net::Ipv4Addr::new(10, 9, 8, 7);
        let hint = pin_destination(&tagged, dst, 34);
        assert_eq!(hint[34..38], dst.octets());
        assert!(
            dataplane_net::checksum::verify(&hint[18..18 + ihl]),
            "the hint's IPv4 header checksum must verify"
        );
        // The untagged layouts the presets use keep working.
        for (bytes, offset, ip_start) in [(&frame, 30, 14), (&frame[14..].to_vec(), 16, 0)] {
            let hint = pin_destination(bytes, dst, offset);
            assert!(dataplane_net::checksum::verify(
                &hint[ip_start..ip_start + ihl]
            ));
        }
    }

    #[test]
    fn cancelled_shard_keeps_complete_records_only() {
        let pipeline = buggy_pipeline();
        let property = Property::CrashFreedom;
        let mut outliner = Verifier::new();
        let outline = outliner
            .outline_composition(&pipeline, &property, Vec::new())
            .expect("buggy pipeline has suspects");
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut worker = Verifier::new();
        let shard = worker.decide_composition_shard(
            &pipeline,
            &property,
            Vec::new(),
            0,
            outline.total_weight(),
            &cancel,
        );
        assert!(shard.cancelled);
        assert!(shard.records.is_empty());
    }

    /// Wraps an element and counts how often its model program and its
    /// model tables are built.
    struct Counted {
        inner: Box<dyn dataplane_pipeline::Element>,
        models: Arc<AtomicUsize>,
        tables: Arc<AtomicUsize>,
    }

    impl dataplane_pipeline::Element for Counted {
        fn type_name(&self) -> &'static str {
            self.inner.type_name()
        }
        fn config_key(&self) -> String {
            self.inner.config_key()
        }
        fn output_ports(&self) -> usize {
            self.inner.output_ports()
        }
        fn process(&mut self, packet: Packet) -> dataplane_pipeline::Action {
            self.inner.process(packet)
        }
        fn model(&self) -> Program {
            self.models.fetch_add(1, Ordering::Relaxed);
            self.inner.model()
        }
        fn model_state(&self) -> BTreeMap<DsId, DsContents> {
            self.tables.fetch_add(1, Ordering::Relaxed);
            self.inner.model_state()
        }
    }

    #[test]
    fn a_reachability_walk_builds_each_static_table_once() {
        // The linear router with its route table counted: every suspect ×
        // prefix check over the lookup reads that table.
        let models = Arc::new(AtomicUsize::new(0));
        let tables = Arc::new(AtomicUsize::new(0));
        let chain = router_element_chain()
            .into_iter()
            .map(|(name, inner)| {
                if name != "rt" {
                    return (name, inner);
                }
                let counted = Counted {
                    inner,
                    models: models.clone(),
                    tables: tables.clone(),
                };
                (
                    name,
                    Box::new(counted) as Box<dyn dataplane_pipeline::Element>,
                )
            })
            .collect();
        let pipeline = linear_pipeline(chain);
        let property = Property::Reachability {
            dst: std::net::Ipv4Addr::new(10, 1, 2, 3),
            dst_offset: 30,
            deliver_to: vec!["sink".to_string()],
            may_drop: ["cls", "strip", "chk", "opts", "ttl"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        let mut verifier = Verifier::new();
        for walks in 1..=2 {
            let report = verifier.verify(&pipeline, &property);
            assert_eq!(report.verdict, Verdict::Proven, "{report}");
            assert!(
                report.stats.solver_calls > 10,
                "the walk must run many checks: {:?}",
                report.stats
            );
            assert_eq!(tables.load(Ordering::Relaxed), walks);
        }
        // Step 1 explores the lookup once; each walk builds its model once.
        assert_eq!(models.load(Ordering::Relaxed), 3);
    }
}

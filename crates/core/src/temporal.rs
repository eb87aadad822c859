//! Temporal (LTL) properties, decided compositionally against the
//! per-element summaries.
//!
//! A packet's trace is the sequence of element instances it visits,
//! extended to an infinite word by repeating its final disposition forever
//! (the terminal self-loop). Verification is classic automata-theoretic
//! model checking, kept compositional exactly like Step 2:
//!
//! 1. The *negated* spec is compiled to a Büchi automaton (`crates/
//!    temporal`: NNF → VWAA → GBA → degeneralized BA).
//! 2. An **emptiness pre-check** runs nested DFS over the product of that
//!    automaton with the summary transition system — the over-approximate
//!    graph whose states are pipeline positions plus the three terminals
//!    and whose edges come from the summaries' segment outcomes. An empty
//!    product proves the property with zero solver calls.
//! 3. If the product has an accepting lasso, a depth-first **stem
//!    enumeration** walks concrete segment paths — it is a visitor of the
//!    Step-2 prefix tree, so its paths are composed exactly as the safety
//!    fold composes them — tracks the Büchi subset reached, and at each
//!    terminal asks whether that subset intersects the terminal's *fatal*
//!    states (states from which the fixed terminal letter read forever
//!    admits an accepting run). Each such candidate lasso's composed path
//!    constraint goes to the solver: `Unsat` discharges it, `Sat`
//!    materialises a concrete packet whose replay through the model runtime
//!    is judged by the direct trace evaluator.
//!
//! Header atoms (`dst(a.b.c.d)`) hold either at every position of a trace
//! or none, so they are handled by a case split: each truth assignment
//! contributes packet-byte constraints to the composed path and fixes the
//! atom inside the automaton's letters.

use crate::property::Property;
use crate::report::{Counterexample, Report, UnprovenPath, Verdict, VerificationStats};
use crate::summary::ElementSummary;
use crate::tree::{PrefixTree, Step, Visitor, WalkInput};
use crate::verifier::Verifier;
use dataplane_ir::value::BitVec;
use dataplane_ir::BinOp;
use dataplane_net::Packet;
use dataplane_pipeline::pipeline::Disposition;
use dataplane_pipeline::{model_run_fresh, ModelRun, Pipeline};
use dataplane_symbex::term::{self, Term, TermRef};
use dataplane_symbex::{CancelToken, Segment, SegmentOutcome, SolverResult, SolverStage};
use dataplane_temporal::{self as temporal, Atom, Buchi, Ltl, LtlSpec};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Frame offset of the IPv4 destination address the `dst(...)` atom reads
/// (Ethernet header 14 bytes + IPv4 destination at offset 16), matching the
/// reachability property's default layout.
const DST_OFFSET: i64 = 30;

/// The three trace terminals; index them after the pipeline elements in the
/// summary transition system.
const TERMINALS: [(Atom, &str); 3] = [
    (Atom::Forwarded, "forwarded"),
    (Atom::Dropped, "dropped"),
    (Atom::Crashed, "crashed"),
];

/// True if `packet`'s destination bytes equal `addr` (short packets have no
/// destination, so every `dst` atom is false on them).
fn packet_has_dst(packet: &[u8], addr: &[u8; 4]) -> bool {
    packet.len() >= (DST_OFFSET as usize) + 4
        && packet[DST_OFFSET as usize..DST_OFFSET as usize + 4] == addr[..]
}

/// The `dst` atoms of `spec` that hold for `packet`.
fn true_dst_atoms(spec: &LtlSpec, packet: &[u8]) -> Vec<Atom> {
    spec.formula()
        .atoms()
        .into_iter()
        .filter(|a| match a {
            Atom::Dst(addr) => packet_has_dst(packet, addr),
            _ => false,
        })
        .collect()
}

/// Decode a finished concrete run into the lasso word its trace denotes:
/// one letter per visited element, then the terminal letter (the cycle).
/// Header atoms are resolved against `packet` and hold at every position.
pub(crate) fn trace_letters(
    pipeline: &Pipeline,
    spec: &LtlSpec,
    packet: &[u8],
    run: &ModelRun,
) -> (Vec<BTreeSet<Atom>>, Vec<BTreeSet<Atom>>) {
    let constant: Vec<Atom> = true_dst_atoms(spec, packet);
    let stem: Vec<BTreeSet<Atom>> = run
        .hops
        .iter()
        .map(|&idx| {
            let mut letter: BTreeSet<Atom> = constant.iter().cloned().collect();
            letter.insert(Atom::At(pipeline.node(idx).name.clone()));
            letter
        })
        .collect();
    let terminal = match run.disposition {
        Disposition::Exited { .. } => Atom::Forwarded,
        Disposition::Dropped { .. } => Atom::Dropped,
        Disposition::Crashed { .. } => Atom::Crashed,
    };
    let mut cycle_letter: BTreeSet<Atom> = constant.into_iter().collect();
    cycle_letter.insert(terminal);
    (stem, vec![cycle_letter])
}

/// Judge a finished concrete run against a temporal spec: the run violates
/// the property iff its trace word fails the formula.
pub(crate) fn run_violates_temporal(
    pipeline: &Pipeline,
    spec: &LtlSpec,
    packet: &[u8],
    run: &ModelRun,
) -> bool {
    let (stem, cycle) = trace_letters(pipeline, spec, packet, run);
    !temporal::holds(spec.formula(), &stem, &cycle)
}

/// One truth assignment to the spec's `dst` atoms: the fixed atoms it adds
/// to every letter and the packet-byte constraints it imposes.
struct DstCase {
    atoms: Vec<Atom>,
    constraints: Vec<TermRef>,
}

/// Enumerate the feasible truth assignments over the distinct `dst` atoms.
/// Two distinct addresses can never hold together (same four bytes), so
/// only the all-false case and each singleton-true case exist.
fn dst_cases(spec: &LtlSpec) -> Vec<DstCase> {
    let addrs: Vec<[u8; 4]> = spec
        .formula()
        .atoms()
        .into_iter()
        .filter_map(|a| match a {
            Atom::Dst(addr) => Some(addr),
            _ => None,
        })
        .collect();
    let byte = |k: i64| -> TermRef { Arc::new(Term::PacketByte(DST_OFFSET + k)) };
    let eq_addr = |addr: &[u8; 4]| -> Vec<TermRef> {
        (0..4)
            .map(|k| {
                term::binary(
                    BinOp::Eq,
                    byte(k as i64),
                    term::constant(BitVec::new(8, addr[k] as u64)),
                )
            })
            .collect()
    };
    let ne_addr = |addr: &[u8; 4]| -> TermRef {
        // At least one destination byte differs.
        let mut t: Option<TermRef> = None;
        for (k, &octet) in addr.iter().enumerate() {
            let ne = term::binary(
                BinOp::Ne,
                byte(k as i64),
                term::constant(BitVec::new(8, octet as u64)),
            );
            t = Some(match t {
                None => ne,
                Some(prev) => term::binary(BinOp::Or, prev, ne),
            });
        }
        t.unwrap()
    };
    if addrs.is_empty() {
        return vec![DstCase {
            atoms: vec![],
            constraints: vec![],
        }];
    }
    let mut cases = Vec::new();
    // All false.
    cases.push(DstCase {
        atoms: vec![],
        constraints: addrs.iter().map(&ne_addr).collect(),
    });
    // Exactly one true.
    for (i, addr) in addrs.iter().enumerate() {
        let mut constraints = eq_addr(addr);
        for (j, other) in addrs.iter().enumerate() {
            if j != i {
                constraints.push(ne_addr(other));
            }
        }
        cases.push(DstCase {
            atoms: vec![Atom::Dst(*addr)],
            constraints,
        });
    }
    cases
}

/// The summary transition system: per-element successor sets (elements or
/// terminals) derived from segment outcomes, with self-looping terminals.
fn summary_transitions(pipeline: &Pipeline, summaries: &[Arc<ElementSummary>]) -> Vec<Vec<usize>> {
    let n = pipeline.len();
    let mut succ: Vec<Vec<usize>> = Vec::with_capacity(n + 3);
    for (idx, summary) in summaries.iter().enumerate() {
        let node = pipeline.node(idx);
        let mut out: Vec<usize> = summary
            .exploration
            .segments
            .iter()
            .map(|segment| match &segment.outcome {
                SegmentOutcome::Emitted(p) => node
                    .successors
                    .get(*p as usize)
                    .copied()
                    .flatten()
                    .unwrap_or(n), // exits the pipeline: Forwarded
                SegmentOutcome::Dropped => n + 1,
                SegmentOutcome::Crashed(_) => n + 2,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        succ.push(out);
    }
    for t in 0..3 {
        succ.push(vec![n + t]);
    }
    succ
}

/// The lasso hunt: a visitor of the prefix tree that tracks the Büchi
/// subset reached along each path and decides candidate lassos at its
/// terminals.
struct LassoHunt<'a> {
    verifier: &'a Verifier,
    tree: PrefixTree<'a>,
    spec: &'a LtlSpec,
    buchi: &'a Buchi,
    /// Valuation (atom-id set) of each transition-system state under the
    /// `dst` case being hunted.
    vals: Vec<BTreeSet<usize>>,
    /// Per terminal kind, the automaton's fatal states under that letter.
    fatal: [Vec<bool>; 3],
    stats: VerificationStats,
    counterexamples: Vec<Counterexample>,
    unproven: Vec<UnprovenPath>,
    budget_exhausted: bool,
    confirmed: bool,
}

impl Verifier {
    /// Decide a temporal property. `summaries` is Step 1's output; `stats`
    /// already carries the Step-1 bookkeeping.
    pub(crate) fn verify_temporal(
        &self,
        pipeline: &Pipeline,
        spec: &LtlSpec,
        summaries: &[Arc<ElementSummary>],
        mut stats: VerificationStats,
        start: Instant,
    ) -> Report {
        let property = Property::Temporal(spec.clone());
        let negated = Ltl::Not(Box::new(spec.formula().clone()));
        let buchi = temporal::buchi::compile(&negated);
        stats.buchi_states = buchi.len();

        let n = pipeline.len();
        let ts_succ = summary_transitions(pipeline, summaries);
        let cases = dst_cases(spec);

        // Valuations per case are needed both by the pre-check and the
        // enumeration; compute them lazily per case.
        let case_vals = |case: &DstCase| -> Vec<BTreeSet<usize>> {
            let fixed: BTreeSet<usize> =
                case.atoms.iter().filter_map(|a| buchi.atom_id(a)).collect();
            let mut vals: Vec<BTreeSet<usize>> = Vec::with_capacity(n + 3);
            for idx in 0..n {
                let mut v = fixed.clone();
                if let Some(id) = buchi.atom_id(&Atom::At(pipeline.node(idx).name.clone())) {
                    v.insert(id);
                }
                vals.push(v);
            }
            for (atom, _) in TERMINALS.iter() {
                let mut v = fixed.clone();
                if let Some(id) = buchi.atom_id(atom) {
                    v.insert(id);
                }
                vals.push(v);
            }
            vals
        };

        // ---- Emptiness pre-check over the explicit product -----------------
        let mut live_cases: Vec<(usize, Vec<BTreeSet<usize>>)> = Vec::new();
        let m = buchi.len();
        for (case_idx, case) in cases.iter().enumerate() {
            let vals = case_vals(case);
            let total = (n + 3) * m;
            let initials: Vec<usize> = buchi
                .initial
                .iter()
                .map(|&q| pipeline.entry() * m + q)
                .collect();
            let accepting: Vec<bool> = (0..total).map(|s| buchi.accepting[s % m]).collect();
            let mut reached: Vec<bool> = vec![false; total];
            for &i in &initials {
                reached[i] = true;
            }
            let mut succ = |s: usize| -> Vec<usize> {
                let (ts, q) = (s / m, s % m);
                let mut out = Vec::new();
                for q2 in buchi.successors(q, &vals[ts]) {
                    for &ts2 in &ts_succ[ts] {
                        out.push(ts2 * m + q2);
                    }
                }
                out.sort_unstable();
                out.dedup();
                for &t in &out {
                    reached[t] = true;
                }
                out
            };
            let lasso = temporal::find_accepting_lasso(total, &initials, &accepting, &mut succ);
            stats.product_states += reached.iter().filter(|r| **r).count();
            if lasso.is_some() {
                live_cases.push((case_idx, vals));
            }
        }

        if live_cases.is_empty() {
            // The over-approximate product is empty: no trace of any packet
            // can satisfy the negated spec.
            return Report {
                property,
                verdict: Verdict::Proven,
                counterexamples: vec![],
                unproven: vec![],
                stats,
                elapsed: start.elapsed(),
            };
        }

        // ---- Exact stem enumeration for the live cases ---------------------
        let tree = PrefixTree {
            pipeline,
            summaries,
        };
        let mut hunt = LassoHunt {
            verifier: self,
            tree,
            spec,
            buchi: &buchi,
            vals: Vec::new(),
            fatal: Default::default(),
            stats,
            counterexamples: Vec::new(),
            unproven: Vec::new(),
            budget_exhausted: false,
            confirmed: false,
        };
        let initial: BTreeSet<usize> = buchi.initial.iter().copied().collect();
        for (case_idx, vals) in live_cases {
            hunt.fatal = [
                temporal::fatal_states(&buchi, &vals[n]),
                temporal::fatal_states(&buchi, &vals[n + 1]),
                temporal::fatal_states(&buchi, &vals[n + 2]),
            ];
            hunt.vals = vals;
            let mut root = tree.root();
            root.constraint = cases[case_idx].constraints.clone();
            if tree.walk(&root, initial.clone(), &mut hunt) == Step::Finished {
                break;
            }
        }

        let LassoHunt {
            stats,
            counterexamples,
            mut unproven,
            budget_exhausted,
            ..
        } = hunt;
        if budget_exhausted {
            let max = self.options.max_composed_paths;
            unproven.push(UnprovenPath {
                path: vec![],
                reason: format!("composed-path budget of {max} exhausted"),
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
            property,
            verdict,
            counterexamples,
            unproven,
            stats,
            elapsed: start.elapsed(),
        }
    }
}

impl Visitor for LassoHunt<'_> {
    /// The Büchi subset reached: before the node's letter on entry, after
    /// it once entered.
    type Node = BTreeSet<usize>;

    /// Read the element's letter. A dead negated-spec automaton prunes the
    /// node: no extension of this prefix can violate the property.
    fn enter(&mut self, input: &WalkInput, subset: BTreeSet<usize>) -> Option<BTreeSet<usize>> {
        let after = self.buchi.subset_step(&subset, &self.vals[input.element]);
        (!after.is_empty()).then_some(after)
    }

    fn edge(
        &mut self,
        _: &WalkInput,
        after: &BTreeSet<usize>,
        _: usize,
        _: &Segment,
        _: &WalkInput,
    ) -> Option<BTreeSet<usize>> {
        Some(after.clone())
    }

    /// Which of the three terminals, and is the reached subset fatal under
    /// its letter? A fatal one is a candidate lasso for the solver.
    fn terminal(&mut self, input: &WalkInput, after: &BTreeSet<usize>, segment: &Segment) -> Step {
        let terminal = match &segment.outcome {
            SegmentOutcome::Dropped => 1,
            SegmentOutcome::Crashed(_) => 2,
            SegmentOutcome::Emitted(_) => 0,
        };
        self.stats.composed_paths += 1;
        if self.stats.composed_paths > self.verifier.options.max_composed_paths {
            self.budget_exhausted = true;
            return Step::Finished;
        }
        let fatal = &self.fatal[terminal];
        if !after.iter().any(|&q| fatal[q]) {
            return Step::Continue;
        }
        let constraint = self.tree.compose(input, segment);
        self.decide_lasso(&constraint, &input.path, TERMINALS[terminal].1);
        if self.confirmed {
            Step::Finished
        } else {
            Step::Continue
        }
    }
}

impl LassoHunt<'_> {
    /// One candidate lasso: the composed stem constraint is checked for
    /// feasibility; a satisfiable one materialises a packet whose concrete
    /// replay is judged by the direct trace evaluator.
    fn decide_lasso(&mut self, constraint: &[TermRef], path: &[String], terminal_label: &str) {
        let options = &self.verifier.options;
        let decision = self
            .verifier
            .solver
            .decide(constraint, &[], &CancelToken::new());
        if decision.stage == SolverStage::Prefix {
            self.stats.prefilter_decided += 1;
        } else {
            self.stats.prefilter_passed += 1;
            self.stats.solver_calls += 1;
        }
        match decision.result {
            SolverResult::Unsat => {
                self.stats.discharged += 1;
            }
            SolverResult::Sat(model) => {
                self.stats.lasso_found += 1;
                let packet = model.concrete_packet();
                let description = format!(
                    "accepting lasso: stem [{}] then ({})^w violates {}",
                    path.join(" -> "),
                    terminal_label,
                    self.spec
                );
                let confirmed = options.validate_counterexamples && {
                    let pipeline = self.tree.pipeline;
                    let run = model_run_fresh(pipeline, Packet::from_bytes(packet.clone()));
                    run_violates_temporal(pipeline, self.spec, &packet, &run)
                };
                self.confirmed |= confirmed;
                self.counterexamples.push(Counterexample {
                    packet,
                    path: path.to_vec(),
                    description,
                    confirmed,
                });
            }
            SolverResult::Unknown => {
                self.stats.model_search_aborts += 1;
                self.unproven.push(UnprovenPath {
                    path: path.to_vec(),
                    reason: format!(
                        "temporal feasibility check undecided for lasso ending ({terminal_label})^w"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
    use crate::verifier::Verifier;
    use dataplane_pipeline::presets::{
        buggy_pipeline, firewall_pipeline, ip_router_pipeline, linear_router_pipeline,
        middlebox_pipeline,
    };

    fn decide(pipeline: &Pipeline, spec: &str) -> Report {
        let spec = LtlSpec::parse(spec).unwrap();
        let mut verifier = Verifier::new();
        verifier.verify(pipeline, &Property::Temporal(spec))
    }

    #[test]
    fn router_termination_is_proven() {
        let report = decide(&ip_router_pipeline(), "F (forwarded | dropped)");
        assert_eq!(report.verdict, Verdict::Proven, "{report}");
        assert!(report.stats.buchi_states > 0);
        assert!(report.stats.product_states > 0);
    }

    #[test]
    fn linear_router_fairness_is_proven() {
        let report = decide(
            &linear_router_pipeline(),
            "G (at(chk) -> F (forwarded | dropped))",
        );
        assert_eq!(report.verdict, Verdict::Proven, "{report}");
    }

    #[test]
    fn middlebox_nat_liveness_is_proven() {
        let report = decide(
            &middlebox_pipeline(),
            "G (at(nat) -> F (forwarded | dropped))",
        );
        assert_eq!(report.verdict, Verdict::Proven, "{report}");
    }

    #[test]
    fn firewall_never_drops_is_violated_with_confirmed_lasso() {
        let report = decide(&firewall_pipeline(vec![]), "G !dropped");
        assert_eq!(report.verdict, Verdict::Violated, "{report}");
        assert!(report.stats.lasso_found > 0);
        let ce = report
            .counterexamples
            .iter()
            .find(|c| c.confirmed)
            .expect("a confirmed lasso counterexample");
        // The reported lasso replays to a genuine violation.
        let pipeline = firewall_pipeline(vec![]);
        let spec = LtlSpec::parse("G !dropped").unwrap();
        let run = model_run_fresh(&pipeline, Packet::from_bytes(ce.packet.clone()));
        assert!(run_violates_temporal(&pipeline, &spec, &ce.packet, &run));
    }

    #[test]
    fn buggy_pipeline_termination_is_violated_by_crash() {
        let report = decide(&buggy_pipeline(), "F (forwarded | dropped)");
        assert_eq!(report.verdict, Verdict::Violated, "{report}");
        assert!(report.counterexamples.iter().any(|c| c.confirmed));
    }

    #[test]
    fn dst_atoms_case_split_decides() {
        // Packets to 10.0.0.1 eventually terminate — trivially true of all
        // packets, but forces the dst case split through the solver path.
        let report = decide(
            &ip_router_pipeline(),
            "G (dst(10.0.0.1) -> F (forwarded | dropped | crashed))",
        );
        assert_eq!(report.verdict, Verdict::Proven, "{report}");
    }

    #[test]
    fn vacuous_at_atom_is_proven_via_empty_product() {
        // No element named `ghost` exists, so the antecedent is false on
        // every trace: the negated-spec product is empty and the property
        // is proven without a single solver call.
        let report = decide(&ip_router_pipeline(), "G (at(ghost) -> F crashed)");
        assert_eq!(report.verdict, Verdict::Proven, "{report}");
        assert_eq!(report.stats.solver_calls, 0);
    }
}

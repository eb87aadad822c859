//! A decision procedure for path constraints.
//!
//! The solver answers whether a conjunction of 1-bit terms is satisfiable.
//! It is one procedure with two halves that never trade places:
//!
//! * **`Unsat` is a proof**, and only the analytic stages produce it: (in
//!   order) constant simplification, syntactic contradiction pairs, unsigned
//!   interval propagation, an arithmetic pass (known-bits/congruence
//!   propagation and difference bounds over the no-wrap linear fragment) —
//!   the budget-free *prefix*, [`interval_infeasible`] on its own — and then
//!   Fourier–Motzkin elimination over the linear fragment of the
//!   constraints. Every rule is conservative, so `Unsat` answers are
//!   sound — this is the direction the verifier relies on when it discharges
//!   suspect paths ("this violation cannot occur in the composed pipeline").
//!   [`Solver::refutes`] runs exactly this half.
//! * **`Sat` is a witness**, and only the caller's hints and the model search
//!   produce it: the model is *verified* by concretely evaluating every
//!   constraint under it before it is returned, so `Sat` answers are sound
//!   by construction — this is what makes counterexample packets
//!   trustworthy.
//! * When neither side can be established within budget the solver returns
//!   **`Unknown`**, which the verifier treats pessimistically (a potential
//!   violation it could not rule out is reported, never dropped).
//!
//! [`Solver::decide`] is the whole procedure — prefix, Fourier–Motzkin,
//! hints, model search, in that order, each conjunction analysed once: the
//! refuting half first, so its first half is exactly [`Solver::refutes`],
//! then the witnessing half. [`Solver::check`] is `decide` with no hints. A
//! caller that only reads "refuted or not" asks [`Solver::refutes`] and
//! never pays for a hint or a model search whose answer it would discard.
//!
//! Fourier–Motzkin works over integer variable ids: each check interns its
//! opaque nodes by term structure, keeps every expression as a sorted
//! `(id, coefficient)` list, and eliminates the variables in the order of
//! their printed terms — printed once each, for that order alone, because
//! where the budget aborts depends on it. Its arithmetic is checked: an
//! `i128` overflow ends elimination with no verdict, never `Unsat`.
//!
//! The analytic stages' term-keyed scratch maps live for one analysis and
//! hash with `TermHasher`, a small deterministic multiply-rotate hash:
//! nothing persisted or shared is keyed by it, and no answer depends on
//! their iteration order.

use crate::term::{eval, Assignment, Term, TermRef};
use dataplane_ir::{BinOp, UnOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverResult {
    /// The constraints are satisfiable; the model makes every conjunct true.
    Sat(Assignment),
    /// The constraints are contradictory.
    Unsat,
    /// Neither satisfiability nor unsatisfiability could be established
    /// within budget.
    Unknown,
}

/// Which analytic stage gave up within budget during a check. Both flags stay
/// `false` when the prefix, Fourier–Motzkin or a hint decides — even when a
/// hint decides after Fourier–Motzkin aborted; an `Unknown` result always
/// has at least `model_search_exhausted` set, and `fm_budget_exhausted`
/// additionally says that Fourier–Motzkin aborted mid-elimination (so a
/// larger `max_fm_constraints` budget might have decided the system).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckDiagnostics {
    /// Fourier–Motzkin hit `max_fm_constraints` and returned no verdict from
    /// that stage.
    pub fm_budget_exhausted: bool,
    /// The randomized model search ran through `model_search_tries` without
    /// finding a model.
    pub model_search_exhausted: bool,
}

impl CheckDiagnostics {
    /// Human-readable description of the stages that gave up, for `Unknown`
    /// reports (empty when nothing aborted).
    pub fn describe(&self) -> String {
        match (self.fm_budget_exhausted, self.model_search_exhausted) {
            (true, true) => {
                "fourier-motzkin aborted at its constraint budget, model search exhausted its tries"
                    .to_string()
            }
            (true, false) => "fourier-motzkin aborted at its constraint budget".to_string(),
            (false, true) => "model search exhausted its tries".to_string(),
            (false, false) => String::new(),
        }
    }
}

/// A stage of the decision procedure, named by the answers it can give, in
/// the order [`Solver::decide`] runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverStage {
    /// The budget-free analytic prefix — flattening, contradiction pairs,
    /// interval propagation, the arithmetic pass. Refutes only.
    Prefix,
    /// Fourier–Motzkin elimination over the linear fragment. Refutes only.
    FourierMotzkin,
    /// A caller-provided hint (possibly repaired) satisfied every conjunct.
    /// Witnesses only.
    Hint,
    /// The randomized model search: a verified witness, or `Unknown` when
    /// it ran out of tries.
    Search,
}

/// What [`Solver::decide`] established, and how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The verdict.
    pub result: SolverResult,
    /// Which budgeted stages gave up on the way to it: empty when the
    /// prefix, Fourier–Motzkin or a hint decides, so only a model search
    /// carries a Fourier–Motzkin abort with it.
    pub diag: CheckDiagnostics,
    /// The stage that produced `result` (for `Unknown`, the stage that gave
    /// up last).
    pub stage: SolverStage,
}

impl SolverResult {
    /// True if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }

    /// True if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }
}

/// Tunable solver limits.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Attempts of the randomized model search before giving up.
    pub model_search_tries: u32,
    /// Maximum packet length considered when synthesising models.
    pub max_packet_len: u32,
    /// Cap on the number of inequalities Fourier–Motzkin may generate before
    /// it aborts (returning no verdict from that stage). The default,
    /// 128 000, is 2 000 × 8²: the highest budget that the former ×8 and
    /// ×64 retries of an aborted check reached. Every check those retries
    /// decided, this one budget decides in a single pass.
    pub max_fm_constraints: usize,
    /// Seed for the deterministic pseudo-random model search.
    pub search_seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            model_search_tries: 4000,
            max_packet_len: 2048,
            max_fm_constraints: 128_000,
            search_seed: 0x5EED_0001,
        }
    }
}

/// The constraint solver.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    config: SolverConfig,
}

/// Normalised comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Cmp {
    Eq,
    Ne,
    ULt,
    ULe,
    SLt,
    SLe,
}

/// A normalised atom `lhs <op> rhs`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Atom {
    op: Cmp,
    lhs: TermRef,
    rhs: TermRef,
}

impl Solver {
    /// A solver with default limits.
    pub fn new() -> Self {
        Solver::default()
    }

    /// A solver with explicit limits.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Check satisfiability of the conjunction of `constraints`:
    /// [`Solver::decide`] with no hints and no cancellation.
    pub fn check(&self, constraints: &[TermRef]) -> SolverResult {
        self.decide(constraints, &[], &crate::CancelToken::new())
            .result
    }

    /// The refuting half of the procedure: the analytic prefix, then
    /// Fourier–Motzkin under this solver's constraint budget. `Some` names
    /// the stage that proved the conjunction unsatisfiable
    /// ([`SolverStage::Prefix`] exactly when [`interval_infeasible`] holds);
    /// `None` means "not refuted" — [`Solver::check`] would answer `Sat` or
    /// `Unknown`. No hint is tried and no model is searched for, so this is
    /// the question for callers that prune on the answer and read nothing
    /// else.
    pub fn refutes(&self, constraints: &[TermRef]) -> Option<SolverStage> {
        let Some(analysis) = analyse(constraints) else {
            return Some(SolverStage::Prefix);
        };
        let fm = fourier_motzkin(
            &analysis.atoms,
            &analysis.intervals,
            self.config.max_fm_constraints,
        );
        (fm == FmOutcome::Unsat).then_some(SolverStage::FourierMotzkin)
    }

    /// The whole procedure, analysing the conjunction once: the analytic
    /// prefix; then Fourier–Motzkin; then the caller-provided `hints` (and
    /// lightly repaired variants of them); then the model search. The
    /// refuting half runs first, so everything up to and including
    /// Fourier–Motzkin is exactly what [`Solver::refutes`] runs.
    ///
    /// Hints let the caller inject domain knowledge — e.g. structurally
    /// valid packets with correct checksums — that the generic search would
    /// be unlikely to synthesise; a hint that satisfies every conjunct is
    /// returned as a verified `Sat` model. The diagnostics are empty when
    /// the prefix, Fourier–Motzkin or a hint decides: a Fourier–Motzkin
    /// budget abort is reported only when the model search runs after it.
    ///
    /// The hint loop and the model search poll `cancel` and give up early
    /// once it fires. A cancelled check returns `Unknown` (or `Unsat`, when
    /// a refuting stage finished first); callers that cancel are discarding
    /// the result anyway, so the early exit only reclaims the wasted work.
    pub fn decide(
        &self,
        constraints: &[TermRef],
        hints: &[Assignment],
        cancel: &crate::CancelToken,
    ) -> Decision {
        // No stage has given up at its budget when the prefix,
        // Fourier–Motzkin, or a hint decides: the diagnostics are empty.
        let decided = |result, stage| Decision {
            result,
            diag: CheckDiagnostics::default(),
            stage,
        };

        // 1–5. The budget-free analytic prefix.
        let Some(Analysis {
            conjuncts,
            atoms,
            intervals,
        }) = analyse(constraints)
        else {
            return decided(SolverResult::Unsat, SolverStage::Prefix);
        };

        // 6. Fourier–Motzkin over the linear fragment.
        let mut diag = CheckDiagnostics::default();
        match fourier_motzkin(&atoms, &intervals, self.config.max_fm_constraints) {
            FmOutcome::Unsat => {
                // A hint is a verified model, so one that satisfies a
                // refuted conjunction would expose an unsound refutation.
                debug_assert!(
                    !matches!(
                        try_hints(&conjuncts, &atoms, hints, cancel),
                        Some(SolverResult::Sat(_))
                    ),
                    "a hint satisfies a conjunction Fourier–Motzkin refuted"
                );
                return decided(SolverResult::Unsat, SolverStage::FourierMotzkin);
            }
            FmOutcome::NoVerdict => {}
            FmOutcome::BudgetExhausted => diag.fm_budget_exhausted = true,
        }

        // 7. Hints.
        if let Some(result) = try_hints(&conjuncts, &atoms, hints, cancel) {
            return decided(result, SolverStage::Hint);
        }

        // 8. Model search.
        let result = match self.search_model(&conjuncts, &atoms, &intervals, cancel) {
            Some(model) => SolverResult::Sat(model),
            None => {
                diag.model_search_exhausted = true;
                SolverResult::Unknown
            }
        };
        Decision {
            result,
            diag,
            stage: SolverStage::Search,
        }
    }

    // --- model search ------------------------------------------------------

    fn search_model(
        &self,
        conjuncts: &[TermRef],
        atoms: &[Atom],
        intervals: &IntervalMap,
        cancel: &crate::CancelToken,
    ) -> Option<Assignment> {
        // Gather leaves.
        let mut leaves = Vec::new();
        for c in conjuncts {
            c.collect_leaves(&mut leaves);
        }
        leaves.sort_by_cached_key(|t| format!("{t}"));
        leaves.dedup();

        let max_byte_index = leaves
            .iter()
            .filter_map(|t| match t.as_ref() {
                Term::PacketByte(i) => Some(*i),
                _ => None,
            })
            .max()
            .unwrap_or(-1);

        // Interesting constants mentioned anywhere in the constraints.
        let mut interesting: Vec<u64> = vec![0, 1];
        for c in conjuncts {
            collect_constants(c, &mut interesting);
        }
        interesting.sort_unstable();
        interesting.dedup();

        // Candidate packet lengths: enough to cover every referenced byte,
        // plus interesting constants, plus a few common sizes.
        let needed = (max_byte_index + 1).max(0) as u32;
        let mut lengths: Vec<u32> = vec![needed, 0, 20, 34, 60, 64, 1500];
        for v in &interesting {
            if *v <= self.config.max_packet_len as u64 {
                lengths.push(*v as u32);
            }
        }
        lengths.retain(|l| *l <= self.config.max_packet_len);
        lengths.sort_unstable();
        lengths.dedup();

        let mut rng = XorShift::new(self.config.search_seed);

        for &len in &lengths {
            let mut a = Assignment {
                packet: vec![0u8; len.max(needed) as usize],
                packet_len: len,
                vars: BTreeMap::new(),
                ds_reads: BTreeMap::new(),
            };
            // Leaves start at their interval lower bound (or zero); the
            // packet length keeps the candidate value chosen above.
            for leaf in &leaves {
                if matches!(leaf.as_ref(), Term::PacketLen) {
                    continue;
                }
                let lo = intervals.get(leaf).map(|iv| iv.lo).unwrap_or(0);
                assign_leaf(&mut a, leaf, lo);
            }
            // Repair pass: force equalities and inequalities that mention one
            // leaf and one constant.
            for _ in 0..3 {
                for atom in atoms {
                    repair(&mut a, atom, true);
                }
            }
            if check_all(conjuncts, &a) {
                return Some(a);
            }
            // Randomised hill climbing.
            let mut best_score = score(conjuncts, &a);
            let tries = self.config.model_search_tries / lengths.len().max(1) as u32;
            for attempt in 0..tries {
                // Poll coarsely: the atomic walk is cheap next to an
                // evaluation pass, but not free.
                if attempt % 64 == 0 && cancel.is_cancelled() {
                    return None;
                }
                let mut candidate = a.clone();
                let pick = rng.next() as usize % leaves.len().max(1);
                if let Some(leaf) = leaves.get(pick) {
                    let value = match rng.next() % 4 {
                        0 => *interesting
                            .get(rng.next() as usize % interesting.len().max(1))
                            .unwrap_or(&0),
                        1 => rng.next(),
                        2 => intervals.get(leaf).map(|iv| iv.hi).unwrap_or(u64::MAX),
                        _ => rng.next() % 256,
                    };
                    assign_leaf(&mut candidate, leaf, value);
                }
                let s = score(conjuncts, &candidate);
                // Accept improvements and sideways moves (plateau walking
                // escapes coupled constraints that no single-leaf change can
                // improve monotonically).
                if s >= best_score {
                    best_score = s;
                    a = candidate;
                    if s == conjuncts.len() && check_all(conjuncts, &a) {
                        return Some(a);
                    }
                }
            }
            if check_all(conjuncts, &a) {
                return Some(a);
            }
        }
        None
    }
}

/// Flatten a 1-bit term into conjuncts. Returns `false` if a conjunct is the
/// literal constant `false`.
fn flatten(term: &TermRef, out: &mut Vec<TermRef>) -> bool {
    if term.is_true() {
        return true;
    }
    if term.is_false() {
        return false;
    }
    match term.as_ref() {
        Term::Binary {
            op: BinOp::BoolAnd,
            a,
            b,
        } => flatten(a, out) && flatten(b, out),
        Term::Unary {
            op: UnOp::LogicalNot,
            a,
        } => {
            // ¬(x ∨ y) = ¬x ∧ ¬y
            if let Term::Binary {
                op: BinOp::BoolOr,
                a: x,
                b: y,
            } = a.as_ref()
            {
                return flatten(&crate::term::negate(x.clone()), out)
                    && flatten(&crate::term::negate(y.clone()), out);
            }
            out.push(term.clone());
            true
        }
        _ => {
            out.push(term.clone());
            true
        }
    }
}

/// Normalise a conjunct into a comparison atom if possible. Negated
/// comparisons become their complements, `UGt`/`UGe` are swapped into
/// `ULt`/`ULe`.
fn normalize_atom(term: &TermRef) -> Option<Atom> {
    match term.as_ref() {
        Term::Binary { op, a, b } => {
            let (op, lhs, rhs) = match op {
                BinOp::Eq => (Cmp::Eq, a.clone(), b.clone()),
                BinOp::Ne => (Cmp::Ne, a.clone(), b.clone()),
                BinOp::ULt => (Cmp::ULt, a.clone(), b.clone()),
                BinOp::ULe => (Cmp::ULe, a.clone(), b.clone()),
                BinOp::UGt => (Cmp::ULt, b.clone(), a.clone()),
                BinOp::UGe => (Cmp::ULe, b.clone(), a.clone()),
                BinOp::SLt => (Cmp::SLt, a.clone(), b.clone()),
                BinOp::SLe => (Cmp::SLe, a.clone(), b.clone()),
                _ => return None,
            };
            Some(Atom { op, lhs, rhs })
        }
        Term::Unary {
            op: UnOp::LogicalNot,
            a,
        } => {
            let inner = normalize_atom(a)?;
            // Complement.
            let (op, lhs, rhs) = match inner.op {
                Cmp::Eq => (Cmp::Ne, inner.lhs, inner.rhs),
                Cmp::Ne => (Cmp::Eq, inner.lhs, inner.rhs),
                Cmp::ULt => (Cmp::ULe, inner.rhs, inner.lhs),
                Cmp::ULe => (Cmp::ULt, inner.rhs, inner.lhs),
                Cmp::SLt => (Cmp::SLe, inner.rhs, inner.lhs),
                Cmp::SLe => (Cmp::SLt, inner.rhs, inner.lhs),
            };
            Some(Atom { op, lhs, rhs })
        }
        _ => None,
    }
}

/// Detect pairs of atoms that directly contradict each other.
fn has_contradiction_pair(atoms: &[Atom]) -> bool {
    let set: HashSet<&Atom, BuildHasherDefault<TermHasher>> = atoms.iter().collect();
    for a in atoms {
        let contradictions: Vec<Atom> = match a.op {
            Cmp::Eq => vec![Atom {
                op: Cmp::Ne,
                lhs: a.lhs.clone(),
                rhs: a.rhs.clone(),
            }],
            Cmp::Ne => vec![Atom {
                op: Cmp::Eq,
                lhs: a.lhs.clone(),
                rhs: a.rhs.clone(),
            }],
            Cmp::ULt => vec![
                Atom {
                    op: Cmp::ULe,
                    lhs: a.rhs.clone(),
                    rhs: a.lhs.clone(),
                },
                Atom {
                    op: Cmp::ULt,
                    lhs: a.rhs.clone(),
                    rhs: a.lhs.clone(),
                },
                Atom {
                    op: Cmp::Eq,
                    lhs: a.lhs.clone(),
                    rhs: a.rhs.clone(),
                },
            ],
            Cmp::SLt => vec![
                Atom {
                    op: Cmp::SLe,
                    lhs: a.rhs.clone(),
                    rhs: a.lhs.clone(),
                },
                Atom {
                    op: Cmp::SLt,
                    lhs: a.rhs.clone(),
                    rhs: a.lhs.clone(),
                },
            ],
            Cmp::ULe | Cmp::SLe => vec![],
        };
        if contradictions.iter().any(|c| set.contains(c)) {
            return true;
        }
    }
    false
}

fn collect_constants(term: &TermRef, out: &mut Vec<u64>) {
    match term.as_ref() {
        Term::Const(v) => {
            out.push(v.as_u64());
            if v.as_u64() > 0 {
                out.push(v.as_u64() - 1);
            }
            out.push(v.as_u64().wrapping_add(1));
        }
        Term::Unary { a, .. } | Term::Cast { a, .. } => collect_constants(a, out),
        Term::Binary { a, b, .. } => {
            collect_constants(a, out);
            collect_constants(b, out);
        }
        Term::Select { c, t, e } => {
            collect_constants(c, out);
            collect_constants(t, out);
            collect_constants(e, out);
        }
        Term::PacketByteAt { index } => collect_constants(index, out),
        Term::DsRead { key, .. } => collect_constants(key, out),
        _ => {}
    }
}

fn assign_leaf(a: &mut Assignment, leaf: &TermRef, value: u64) {
    match leaf.as_ref() {
        Term::PacketByte(i) if *i >= 0 => {
            let idx = *i as usize;
            if idx >= a.packet.len() {
                a.packet.resize(idx + 1, 0);
            }
            a.packet[idx] = (value & 0xff) as u8;
        }
        Term::PacketByte(_) => {}
        Term::PacketLen => a.packet_len = value.min(u32::MAX as u64) as u32,
        Term::Var { id, .. } => {
            a.vars.insert(*id, value);
        }
        Term::DsRead { ds, seq, .. } => {
            a.ds_reads.insert((ds.0, *seq), value);
        }
        Term::PacketByteAt { .. } => {}
        _ => {}
    }
}

/// Try to make `atom` true by assigning one of its sides when the other side
/// evaluates to a constant and the assignable side is a (possibly zero-
/// extended) single leaf. When `allow_packet` is false, packet bytes and the
/// packet length are left untouched (only auxiliary variables and
/// data-structure reads are adjusted).
fn repair(a: &mut Assignment, atom: &Atom, allow_packet: bool) {
    let assignable = |t: &TermRef| -> bool {
        allow_packet
            || !matches!(
                t.as_ref(),
                Term::PacketByte(_) | Term::PacketLen | Term::PacketByteAt { .. }
            )
    };
    fn leaf_of(t: &TermRef) -> Option<TermRef> {
        match t.as_ref() {
            Term::PacketByte(_) | Term::PacketLen | Term::Var { .. } | Term::DsRead { .. } => {
                Some(t.clone())
            }
            Term::Cast { a, .. } => leaf_of(a),
            _ => None,
        }
    }
    let lhs_val = eval(&atom.lhs, a);
    let rhs_val = eval(&atom.rhs, a);
    let (lhs_val, rhs_val) = match (lhs_val, rhs_val) {
        (Some(x), Some(y)) => (x, y),
        _ => return,
    };
    let satisfied = match atom.op {
        Cmp::Eq => lhs_val.as_u64() == rhs_val.as_u64(),
        Cmp::Ne => lhs_val.as_u64() != rhs_val.as_u64(),
        Cmp::ULt => lhs_val.as_u64() < rhs_val.as_u64(),
        Cmp::ULe => lhs_val.as_u64() <= rhs_val.as_u64(),
        Cmp::SLt => lhs_val.as_i64() < rhs_val.as_i64(),
        Cmp::SLe => lhs_val.as_i64() <= rhs_val.as_i64(),
    };
    if satisfied {
        return;
    }
    // If one side is an arbitrary expression over a single leaf and the other
    // side currently evaluates to a constant, speculatively try the constant
    // (and neighbours) as the leaf value — this covers folded-checksum shapes
    // like `fold(fold(v)) == 0xffff` where `v := 0xffff` works.
    let speculate = |a: &mut Assignment, expr_side: &TermRef, target: u64| -> bool {
        let mut leaves = Vec::new();
        expr_side.collect_leaves(&mut leaves);
        leaves.dedup();
        if leaves.len() != 1 {
            return false;
        }
        let leaf = leaves[0].clone();
        let saved = a.clone();
        for candidate in [target, target.wrapping_sub(1), target.wrapping_add(1), 0] {
            assign_leaf(a, &leaf, candidate);
            if eval(expr_side, a).map(|v| v.as_u64()) == Some(target) {
                return true;
            }
        }
        *a = saved;
        false
    };
    let side_assignable = |side: &TermRef| -> bool {
        let mut leaves = Vec::new();
        side.collect_leaves(&mut leaves);
        leaves.iter().all(&assignable)
    };
    if atom.op == Cmp::Eq
        && ((side_assignable(&atom.lhs) && speculate(a, &atom.lhs, rhs_val.as_u64()))
            || (side_assignable(&atom.rhs) && speculate(a, &atom.rhs, lhs_val.as_u64())))
    {
        return;
    }
    // Try assigning the left leaf to a value that satisfies the relation with
    // the current right value, then vice versa.
    if let Some(leaf) = leaf_of(&atom.lhs).filter(|l| assignable(l)) {
        let target = match atom.op {
            Cmp::Eq => Some(rhs_val.as_u64()),
            Cmp::Ne => Some(rhs_val.as_u64().wrapping_add(1)),
            Cmp::ULt => rhs_val.as_u64().checked_sub(1),
            Cmp::ULe => Some(rhs_val.as_u64()),
            Cmp::SLt | Cmp::SLe => Some(0),
        };
        if let Some(v) = target {
            assign_leaf(a, &leaf, v);
            return;
        }
    }
    if let Some(leaf) = leaf_of(&atom.rhs).filter(|l| assignable(l)) {
        let target = match atom.op {
            Cmp::Eq => Some(lhs_val.as_u64()),
            Cmp::Ne => Some(lhs_val.as_u64().wrapping_add(1)),
            Cmp::ULt | Cmp::ULe => Some(lhs_val.as_u64().wrapping_add(1)),
            Cmp::SLt | Cmp::SLe => Some(lhs_val.as_u64().wrapping_add(1)),
        };
        if let Some(v) = target {
            assign_leaf(a, &leaf, v);
        }
    }
}

/// The hint stage: each hint, lightly repaired, checked against every
/// conjunct. Round one keeps the hint packets' bytes intact (only auxiliary
/// variables are adjusted), so a satisfying model stays a realistic packet;
/// round two may also rewrite packet bytes. `Sat` with the first hint that
/// satisfies the conjunction, `Unknown` once `cancel` fires, `None` when no
/// hint does.
fn try_hints(
    conjuncts: &[TermRef],
    atoms: &[Atom],
    hints: &[Assignment],
    cancel: &crate::CancelToken,
) -> Option<SolverResult> {
    for allow_packet in [false, true] {
        for hint in hints {
            if cancel.is_cancelled() {
                return Some(SolverResult::Unknown);
            }
            let mut candidate = hint.clone();
            for _ in 0..4 {
                if check_all(conjuncts, &candidate) {
                    return Some(SolverResult::Sat(candidate));
                }
                for atom in atoms {
                    repair(&mut candidate, atom, allow_packet);
                }
            }
            if check_all(conjuncts, &candidate) {
                return Some(SolverResult::Sat(candidate));
            }
        }
    }
    None
}

fn check_all(conjuncts: &[TermRef], a: &Assignment) -> bool {
    conjuncts
        .iter()
        .all(|c| eval(c, a).map(|v| v.is_true()).unwrap_or(false))
}

fn score(conjuncts: &[TermRef], a: &Assignment) -> usize {
    conjuncts
        .iter()
        .filter(|c| eval(c, a).map(|v| v.is_true()).unwrap_or(false))
        .count()
}

// --- intervals --------------------------------------------------------------

/// Unsigned interval of a term's possible values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u64,
    /// Largest possible value.
    pub hi: u64,
}

impl Interval {
    fn full(width: u8) -> Interval {
        Interval {
            lo: 0,
            hi: dataplane_ir::value::mask(width),
        }
    }
    fn point(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }
    fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
    fn intersect(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }
}

/// Sound unsigned bounds of `term` under the conjunction of `constraints`.
///
/// This runs the solver's interval-propagation stage (bottom-up computation
/// plus atom-driven refinement) and reads the resulting bounds back out
/// compositionally, so refinements recorded against sub-terms (e.g. a loop
/// counter bounded by the loop condition, or an invariant the engine seeded)
/// reach the bounds of composite expressions built from them. Used by the
/// engine to bound symbolic packet-store offsets. When the constraints are
/// contradictory any answer is sound; the degenerate `[0, 0]` point is
/// returned.
pub fn term_bounds(constraints: &[TermRef], term: &TermRef) -> Interval {
    let Some((conjuncts, atoms)) = normalise(constraints) else {
        return Interval::point(0);
    };
    let Some(intervals) = IntervalMap::propagate(&conjuncts, &atoms, Some(term)) else {
        return Interval::point(0);
    };
    let bounds = intervals.bounds_bottom_up(term);
    if bounds.is_empty() {
        Interval::point(0)
    } else {
        bounds
    }
}

/// What the analytic prefix hands the budgeted stages when it does not
/// refute the conjunction.
struct Analysis {
    /// The flattened conjuncts (every one is checked against a model).
    conjuncts: Vec<TermRef>,
    /// The conjuncts that normalise to comparisons; opaque conjuncts take no
    /// part in the analytic stages.
    atoms: Vec<Atom>,
    /// The refined interval of every term the conjuncts mention.
    intervals: IntervalMap,
}

/// Stages 1–2: flatten the conjunction and normalise its comparisons into
/// atoms. `None` when a conjunct is the literal `false`.
fn normalise(constraints: &[TermRef]) -> Option<(Vec<TermRef>, Vec<Atom>)> {
    let mut conjuncts = Vec::new();
    for c in constraints {
        if !flatten(c, &mut conjuncts) {
            return None;
        }
    }
    let atoms = conjuncts.iter().filter_map(normalize_atom).collect();
    Some((conjuncts, atoms))
}

/// Stages 1–5, the budget-free analytic prefix every entry point starts
/// with: flattening, atom normalisation, syntactic contradiction pairs,
/// interval propagation, and the arithmetic pass (known-bits/congruence
/// propagation plus difference bounds over the no-wrap `base ± const`
/// fragment). `None` is a refutation — some stage proved the conjunction
/// unsatisfiable; every rule is conservative, so it is sound.
fn analyse(constraints: &[TermRef]) -> Option<Analysis> {
    let (conjuncts, atoms) = normalise(constraints)?;
    if has_contradiction_pair(&atoms) {
        return None;
    }
    let intervals = IntervalMap::propagate(&conjuncts, &atoms, None)?;
    if arithmetic_infeasible(&atoms, &intervals) {
        return None;
    }
    Some(Analysis {
        conjuncts,
        atoms,
        intervals,
    })
}

/// A small deterministic multiply-rotate hasher for the analytic stages'
/// term-keyed scratch maps. A term's derived `Hash` walks its whole subterm,
/// so the per-word cost is what a lookup pays; this one is a rotate, a xor
/// and a multiply. The maps live for one analysis: nothing persisted or
/// shared is keyed by it, and no answer depends on their iteration order.
#[derive(Clone, Copy, Default)]
struct TermHasher(u64);

impl Hasher for TermHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A scratch map keyed by term structure, hashed with [`TermHasher`].
type TermMap<V> = HashMap<TermRef, V, BuildHasherDefault<TermHasher>>;

/// Analytic infeasibility pre-check: whether the budget-free prefix of the
/// decision procedure already proves the conjunction unsatisfiable.
///
/// Sound by construction: this is literally the first half of
/// [`Solver::refutes`], so `true` implies [`Solver::check`] returns `Unsat`
/// (never `Sat`). `false` says nothing — the conjunction may still be
/// infeasible for reasons only Fourier–Motzkin can establish. Because no
/// stage with a tunable budget runs, the answer is a deterministic function
/// of the constraints alone, independent of [`SolverConfig`].
pub fn interval_infeasible(constraints: &[TermRef]) -> bool {
    analyse(constraints).is_none()
}

/// Map of computed intervals keyed by term structure.
#[derive(Default)]
struct IntervalMap {
    map: TermMap<Interval>,
    contradiction: bool,
}

impl IntervalMap {
    /// Stage 4, interval propagation: the bottom-up interval of every
    /// conjunct (and of `extra`, the term [`term_bounds`] reads back, before
    /// any refinement so its cached composites match the conjuncts'), then
    /// up to four rounds of atom-driven refinement. `None` when refinement
    /// empties an interval — the conjunction is contradictory.
    fn propagate(
        conjuncts: &[TermRef],
        atoms: &[Atom],
        extra: Option<&TermRef>,
    ) -> Option<IntervalMap> {
        let mut intervals = IntervalMap::default();
        for c in conjuncts.iter().chain(extra) {
            intervals.compute(c);
        }
        for _ in 0..4 {
            let mut changed = false;
            for a in atoms {
                changed |= intervals.refine(a);
            }
            if intervals.contradiction {
                return None;
            }
            if !changed {
                break;
            }
        }
        Some(intervals)
    }

    fn get(&self, t: &TermRef) -> Option<Interval> {
        self.map.get(t).copied()
    }

    /// Bottom-up interval computation.
    fn compute(&mut self, t: &TermRef) -> Interval {
        if let Some(iv) = self.map.get(t) {
            return *iv;
        }
        let iv = {
            let mut children = |c: &TermRef| self.compute(c);
            node_interval(t, &mut children)
        };
        self.map.insert(t.clone(), iv);
        iv
    }

    /// Sound bounds of `t` recomputed bottom-up against the *refined* map
    /// entries. [`IntervalMap::compute`] caches a composite node's interval
    /// before any refinement happens, so a plain map lookup of a composite
    /// can be stale; this walk re-derives every node from its children and
    /// intersects with whatever (refined) knowledge the map holds about the
    /// node itself. Memoized per call: terms are DAGs (subterms shared via
    /// `Arc`), so an unmemoized walk would be exponential in chain depth.
    fn bounds_bottom_up(&self, t: &TermRef) -> Interval {
        Bounds {
            intervals: self,
            memo: TermMap::default(),
        }
        .of(t)
    }

    /// Refine intervals using one atom. Returns true if anything changed.
    fn refine(&mut self, atom: &Atom) -> bool {
        let lhs = self.compute(&atom.lhs);
        let rhs = self.compute(&atom.rhs);
        let mut new_lhs = lhs;
        let mut new_rhs = rhs;
        match atom.op {
            Cmp::Eq => {
                new_lhs.lo = lhs.lo.max(rhs.lo);
                new_lhs.hi = lhs.hi.min(rhs.hi);
                new_rhs = new_lhs;
            }
            Cmp::ULt => {
                if rhs.hi == 0 {
                    self.contradiction = true;
                    return false;
                }
                new_lhs.hi = lhs.hi.min(rhs.hi - 1);
                new_rhs.lo = rhs.lo.max(lhs.lo.saturating_add(1));
            }
            Cmp::ULe => {
                new_lhs.hi = lhs.hi.min(rhs.hi);
                new_rhs.lo = rhs.lo.max(lhs.lo);
            }
            // Signed comparisons are refined only when both sides are known
            // non-negative in the signed sense (top bit clear), in which case
            // they coincide with the unsigned comparisons.
            Cmp::SLt => {
                let w = atom.lhs.width();
                let top = 1u64 << (w - 1);
                if lhs.hi < top && rhs.hi < top {
                    if rhs.hi == 0 {
                        self.contradiction = true;
                        return false;
                    }
                    new_lhs.hi = lhs.hi.min(rhs.hi - 1);
                    new_rhs.lo = rhs.lo.max(lhs.lo.saturating_add(1));
                }
            }
            Cmp::SLe => {
                let w = atom.lhs.width();
                let top = 1u64 << (w - 1);
                if lhs.hi < top && rhs.hi < top {
                    new_lhs.hi = lhs.hi.min(rhs.hi);
                    new_rhs.lo = rhs.lo.max(lhs.lo);
                }
            }
            Cmp::Ne => {}
        }
        if new_lhs.is_empty() || new_rhs.is_empty() {
            self.contradiction = true;
            return false;
        }
        let mut changed = false;
        if new_lhs != lhs {
            self.map.insert(atom.lhs.clone(), new_lhs);
            changed = true;
        }
        if new_rhs != rhs {
            self.map.insert(atom.rhs.clone(), new_rhs);
            changed = true;
        }
        changed
    }
}

// --- arithmetic pre-filter (known bits + difference bounds) ------------------

/// Bit-level knowledge about a term's value: `zeros` has a 1 for every bit
/// known to be 0, `ones` for every bit known to be 1. The sets are disjoint
/// on consistent facts; an overlap means the constraints force a bit to be
/// both, i.e. a contradiction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KnownBits {
    zeros: u64,
    ones: u64,
}

impl KnownBits {
    /// No information beyond the width: bits at and above `width` are zero.
    fn unknown(width: u8) -> KnownBits {
        KnownBits {
            zeros: !dataplane_ir::value::mask(width),
            ones: 0,
        }
    }

    /// A fully-determined value at `width`.
    fn constant(v: u64, width: u8) -> KnownBits {
        let m = dataplane_ir::value::mask(width);
        KnownBits {
            zeros: !(v & m),
            ones: v & m,
        }
    }

    fn known(&self) -> u64 {
        self.zeros | self.ones
    }

    fn conflict(&self) -> bool {
        self.zeros & self.ones != 0
    }

    /// Union of two fact sets about the same value (may conflict).
    fn union(self, o: KnownBits) -> KnownBits {
        KnownBits {
            zeros: self.zeros | o.zeros,
            ones: self.ones | o.ones,
        }
    }

    /// Sound lower bound: every known-one bit is set in the value.
    fn min_value(&self) -> u64 {
        self.ones
    }

    /// Sound upper bound: unknown bits at most all-ones within the width.
    fn max_value(&self, width: u8) -> u64 {
        self.ones | (dataplane_ir::value::mask(width) & !self.zeros)
    }
}

/// Known bits of `a + b + carry_in` over `width` bits: ripple the carry
/// through bit positions, keeping the sum bit whenever both addend bits and
/// the incoming carry are determined, and tracking the carry through the
/// recoverable partial cases (a known-zero addend with no carry cannot
/// generate one; two known-one addend bits always do).
fn add_known_bits(x: KnownBits, y: KnownBits, carry_in: u64, width: u8) -> KnownBits {
    let m = dataplane_ir::value::mask(width);
    let mut zeros = !m;
    let mut ones = 0u64;
    let mut carry: Option<u64> = Some(carry_in);
    let bit_of = |kb: KnownBits, i: u32| -> Option<u64> {
        let bit = 1u64 << i;
        if kb.zeros & bit != 0 {
            Some(0)
        } else if kb.ones & bit != 0 {
            Some(1)
        } else {
            None
        }
    };
    for i in 0..u32::from(width).min(64) {
        let bit = 1u64 << i;
        match (bit_of(x, i), bit_of(y, i), carry) {
            (Some(xv), Some(yv), Some(c)) => {
                let s = xv + yv + c;
                if s & 1 == 1 {
                    ones |= bit;
                } else {
                    zeros |= bit;
                }
                carry = Some(s >> 1);
            }
            // The sum bit is lost, but the carry out is still determined.
            (Some(0), Some(0), _) | (Some(0), _, Some(0)) | (_, Some(0), Some(0)) => {
                carry = Some(0);
            }
            (Some(1), Some(1), _) | (Some(1), _, Some(1)) | (_, Some(1), Some(1)) => {
                carry = Some(1);
            }
            _ => carry = None,
        }
    }
    KnownBits { zeros, ones }
}

/// Length of the known-zero low-bit run (number of trailing bits provably 0).
fn low_zero_run(kb: KnownBits) -> u32 {
    (!kb.zeros).trailing_zeros()
}

/// Known bits of one term node as a function of its children's known bits.
/// Every rule is conservative: a bit is reported known only when it takes
/// that value for all values the children can take.
fn known_bits_node(t: &TermRef, children: &mut dyn FnMut(&TermRef) -> KnownBits) -> KnownBits {
    let width = t.width();
    let m = dataplane_ir::value::mask(width);
    let unknown = KnownBits::unknown(width);
    match t.as_ref() {
        Term::Const(v) => KnownBits::constant(v.as_u64(), width),
        Term::Unary { op: UnOp::Not, a } => {
            let x = children(a);
            KnownBits {
                zeros: (x.ones & m) | !m,
                ones: x.zeros & m,
            }
        }
        Term::Unary { .. } => unknown,
        Term::Cast { kind, width: w, a } => {
            let inner = children(a);
            match kind {
                // Widening zero extension keeps every fact: the inner facts
                // already mark the bits above the inner width as zero.
                dataplane_ir::CastKind::ZExt | dataplane_ir::CastKind::Resize
                    if *w >= a.width() =>
                {
                    inner
                }
                dataplane_ir::CastKind::Trunc | dataplane_ir::CastKind::Resize => KnownBits {
                    zeros: (inner.zeros & m) | !m,
                    ones: inner.ones & m,
                },
                // Sign extension propagates only when the sign bit is known.
                dataplane_ir::CastKind::SExt if *w >= a.width() && a.width() > 0 => {
                    let sign = top_bit(a.width());
                    let ext = m & !dataplane_ir::value::mask(a.width());
                    if inner.zeros & sign != 0 {
                        inner
                    } else if inner.ones & sign != 0 {
                        KnownBits {
                            zeros: (inner.zeros & dataplane_ir::value::mask(a.width())) | !m,
                            ones: inner.ones | ext,
                        }
                    } else {
                        unknown
                    }
                }
                _ => unknown,
            }
        }
        Term::Select { t: tt, e, .. } => {
            let x = children(tt);
            let y = children(e);
            KnownBits {
                zeros: (x.zeros & y.zeros) | !m,
                ones: x.ones & y.ones & m,
            }
        }
        Term::Binary { op, a, b } => {
            let x = children(a);
            let y = children(b);
            match op {
                BinOp::And => KnownBits {
                    zeros: x.zeros | y.zeros | !m,
                    ones: x.ones & y.ones & m,
                },
                BinOp::Or => KnownBits {
                    zeros: (x.zeros & y.zeros) | !m,
                    ones: (x.ones | y.ones) & m,
                },
                BinOp::Xor => {
                    let k = x.known() & y.known();
                    let v = (x.ones ^ y.ones) & k & m;
                    KnownBits {
                        zeros: (k & !v) | !m,
                        ones: v,
                    }
                }
                BinOp::Add => add_known_bits(x, y, 0, width),
                // a - b = a + !b + 1 over `width` bits.
                BinOp::Sub => add_known_bits(
                    x,
                    KnownBits {
                        zeros: y.ones & m,
                        ones: y.zeros & m,
                    },
                    1,
                    width,
                ),
                // Congruence only: the product is divisible by 2^(tz(a)+tz(b)).
                BinOp::Mul => {
                    let tz = (low_zero_run(x) + low_zero_run(y)).min(64);
                    let low = if tz >= 64 { u64::MAX } else { (1u64 << tz) - 1 };
                    KnownBits {
                        zeros: low | !m,
                        ones: 0,
                    }
                }
                BinOp::Shl => match b.as_ref() {
                    Term::Const(c) if c.as_u64() < u64::from(width) => {
                        let s = c.as_u64() as u32;
                        let ones = (x.ones << s) & m;
                        let unknown_out = ((!x.known() & m) << s) & m;
                        KnownBits {
                            zeros: !(ones | unknown_out),
                            ones,
                        }
                    }
                    _ => unknown,
                },
                BinOp::LShr => match b.as_ref() {
                    Term::Const(c) if c.as_u64() < u64::from(width) => {
                        let s = c.as_u64() as u32;
                        let ones = (x.ones & m) >> s;
                        let unknown_out = (!x.known() & m) >> s;
                        KnownBits {
                            zeros: !(ones | unknown_out),
                            ones,
                        }
                    }
                    _ => unknown,
                },
                _ => unknown,
            }
        }
        _ => unknown,
    }
}

/// Downward-propagation recursion limit for [`KnownBitsMap::narrow`].
const NARROW_DEPTH: u32 = 8;

/// Map of known-bit facts keyed by term structure, refined from equality
/// atoms the way [`IntervalMap`] is refined from comparisons. This is the
/// congruence half of the arithmetic pre-filter: facts learned about a
/// composite (`x & 1 == 0`) are pushed down through masks, xors, shifts by
/// constants, and add/sub of constants, so parity- and alignment-style
/// contradictions surface without a model search.
#[derive(Default)]
struct KnownBitsMap {
    map: TermMap<KnownBits>,
    contradiction: bool,
}

impl KnownBitsMap {
    /// Bottom-up known-bits computation (memoized; refined entries win).
    fn compute(&mut self, t: &TermRef) -> KnownBits {
        if let Some(kb) = self.map.get(t) {
            return *kb;
        }
        let kb = {
            let mut children = |c: &TermRef| self.compute(c);
            known_bits_node(t, &mut children)
        };
        self.map.insert(t.clone(), kb);
        kb
    }

    /// Record that `t` also satisfies `kb` and push the new facts down
    /// through invertible structure. Returns true if anything changed.
    fn narrow(&mut self, t: &TermRef, kb: KnownBits, depth: u32) -> bool {
        let cur = self.compute(t);
        let merged = cur.union(kb);
        if merged.conflict() {
            self.contradiction = true;
            return false;
        }
        if merged == cur {
            return false;
        }
        self.map.insert(t.clone(), merged);
        if depth == 0 {
            return true;
        }
        let width = t.width();
        let m = dataplane_ir::value::mask(width);
        match t.as_ref() {
            Term::Unary { op: UnOp::Not, a } => {
                self.narrow(
                    a,
                    KnownBits {
                        zeros: merged.ones & m,
                        ones: merged.zeros & m,
                    },
                    depth - 1,
                );
            }
            Term::Cast { kind, width: w, a }
                if matches!(
                    kind,
                    dataplane_ir::CastKind::ZExt | dataplane_ir::CastKind::Resize
                ) && *w >= a.width() =>
            {
                // The inner value equals the outer one; ones above the inner
                // width conflict with the inner facts and flag Unsat.
                self.narrow(
                    a,
                    KnownBits {
                        zeros: merged.zeros & dataplane_ir::value::mask(a.width()),
                        ones: merged.ones,
                    },
                    depth - 1,
                );
            }
            Term::Binary { op, a, b } => {
                let (sub, c) = match (a.as_ref(), b.as_ref()) {
                    (_, Term::Const(c)) => (a, c.as_u64() & m),
                    (Term::Const(c), _) => (b, c.as_u64() & m),
                    _ => return true,
                };
                let const_on_left = matches!(a.as_ref(), Term::Const(_));
                match op {
                    // Where the mask bit is 1 the operand bit equals ours.
                    BinOp::And => {
                        self.narrow(
                            sub,
                            KnownBits {
                                zeros: merged.zeros & c,
                                ones: merged.ones & c,
                            },
                            depth - 1,
                        );
                    }
                    // Where the mask bit is 0 the operand bit equals ours.
                    BinOp::Or => {
                        self.narrow(
                            sub,
                            KnownBits {
                                zeros: merged.zeros & !c & m,
                                ones: merged.ones & !c & m,
                            },
                            depth - 1,
                        );
                    }
                    // operand = t ^ c, bit for bit where t is known.
                    BinOp::Xor => {
                        let k = merged.known() & m;
                        let v = (merged.ones ^ c) & k;
                        self.narrow(
                            sub,
                            KnownBits {
                                zeros: k & !v,
                                ones: v,
                            },
                            depth - 1,
                        );
                    }
                    // operand = t - c: ripple-subtract through t's known run.
                    BinOp::Add => {
                        let neg = KnownBits::constant(!c & m, width);
                        self.narrow(sub, add_known_bits(merged, neg, 1, width), depth - 1);
                    }
                    BinOp::Sub => {
                        let derived = if const_on_left {
                            // t = c - x  ⇒  x = c - t.
                            add_known_bits(
                                KnownBits::constant(c, width),
                                KnownBits {
                                    zeros: merged.ones & m,
                                    ones: merged.zeros & m,
                                },
                                1,
                                width,
                            )
                        } else {
                            // t = x - c  ⇒  x = t + c.
                            add_known_bits(merged, KnownBits::constant(c, width), 0, width)
                        };
                        self.narrow(sub, derived, depth - 1);
                    }
                    // t = x << s: x bit j (j < width - s) equals t bit j + s.
                    BinOp::Shl if !const_on_left && c < u64::from(width) => {
                        let s = c as u32;
                        let keep = m >> s;
                        self.narrow(
                            sub,
                            KnownBits {
                                zeros: (merged.zeros >> s) & keep,
                                ones: (merged.ones >> s) & keep,
                            },
                            depth - 1,
                        );
                    }
                    // t = x >> s: x bit j + s equals t bit j.
                    BinOp::LShr if !const_on_left && c < u64::from(width) => {
                        let s = c as u32;
                        let keep = m >> s;
                        self.narrow(
                            sub,
                            KnownBits {
                                zeros: (merged.zeros & keep) << s,
                                ones: (merged.ones & keep) << s,
                            },
                            depth - 1,
                        );
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        true
    }

    /// Refine known bits from one atom. Returns true if anything changed.
    fn refine(&mut self, atom: &Atom) -> bool {
        let l = self.compute(&atom.lhs);
        let r = self.compute(&atom.rhs);
        match atom.op {
            Cmp::Eq => {
                let merged = l.union(r);
                if merged.conflict() {
                    self.contradiction = true;
                    return false;
                }
                let mut changed = false;
                if merged != l {
                    changed |= self.narrow(&atom.lhs, merged, NARROW_DEPTH);
                }
                if merged != r {
                    changed |= self.narrow(&atom.rhs, merged, NARROW_DEPTH);
                }
                changed
            }
            Cmp::Ne => {
                // Both sides fully determined and equal is a contradiction.
                if l.known() == u64::MAX && r.known() == u64::MAX && l.ones == r.ones {
                    self.contradiction = true;
                }
                false
            }
            _ => false,
        }
    }
}

/// [`IntervalMap::bounds_bottom_up`] with a memo that outlives one call.
/// Its entries are a pure function of the (unchanging) map, so one memo
/// serves every question of a pass.
struct Bounds<'a> {
    intervals: &'a IntervalMap,
    memo: TermMap<Interval>,
}

impl Bounds<'_> {
    fn of(&mut self, t: &TermRef) -> Interval {
        if let Some(iv) = self.memo.get(t) {
            return *iv;
        }
        let computed = node_interval(t, &mut |c: &TermRef| self.of(c));
        let result = match self.intervals.get(t) {
            Some(iv) => computed.intersect(iv),
            None => computed,
        };
        self.memo.insert(t.clone(), result);
        result
    }
}

/// View an atom side as `base + offset` over the integers: peel `base ± c`
/// layers whose wrap-around the interval bounds rule out, so the resulting
/// equation is exact integer arithmetic, not merely modulo 2^width.
fn offset_view(t: &TermRef, bounds: &mut Bounds<'_>) -> (TermRef, i128) {
    if let Term::Binary { op, a, b } = t.as_ref() {
        let width = t.width();
        let m = dataplane_ir::value::mask(width);
        match (op, a.as_ref(), b.as_ref()) {
            (BinOp::Add, _, Term::Const(c)) => {
                let c = c.as_u64() & m;
                if u128::from(bounds.of(a).hi) + u128::from(c) <= u128::from(m) {
                    let (root, off) = offset_view(a, bounds);
                    return (root, off + i128::from(c));
                }
            }
            (BinOp::Add, Term::Const(c), _) => {
                let c = c.as_u64() & m;
                if u128::from(bounds.of(b).hi) + u128::from(c) <= u128::from(m) {
                    let (root, off) = offset_view(b, bounds);
                    return (root, off + i128::from(c));
                }
            }
            (BinOp::Sub, _, Term::Const(c)) => {
                let c = c.as_u64() & m;
                if bounds.of(a).lo >= c {
                    let (root, off) = offset_view(a, bounds);
                    return (root, off - i128::from(c));
                }
            }
            _ => {}
        }
    }
    (t.clone(), 0)
}

/// Difference-bound infeasibility: collect integer constraints of the form
/// `u - v <= w` from atoms whose sides decompose as no-wrap `base ± const`
/// (plus interval range edges against a virtual zero node) and look for a
/// negative cycle with Bellman–Ford. A negative cycle certifies the
/// conjunction unsatisfiable over the integers, hence unsatisfiable. This
/// catches transitive-chain contradictions (`x + 1 <= y`, `y + 1 <= x`)
/// that per-term intervals cannot see.
fn difference_infeasible(atoms: &[Atom], intervals: &IntervalMap) -> bool {
    // Edge (v, u, w) encodes `u - v <= w`. Node 0 is the virtual zero.
    let mut ids: TermMap<usize> = TermMap::default();
    let mut edges: Vec<(usize, usize, i128)> = Vec::new();
    let mut bounds = Bounds {
        intervals,
        memo: TermMap::default(),
    };
    fn intern(
        t: &TermRef,
        ids: &mut TermMap<usize>,
        edges: &mut Vec<(usize, usize, i128)>,
        bounds: &mut Bounds<'_>,
    ) -> usize {
        if let Some(&i) = ids.get(t) {
            return i;
        }
        let i = ids.len() + 1;
        ids.insert(t.clone(), i);
        let iv = bounds.of(t);
        edges.push((0, i, i128::from(iv.hi)));
        edges.push((i, 0, -i128::from(iv.lo)));
        i
    }
    fn nonneg(t: &TermRef, bounds: &mut Bounds<'_>) -> bool {
        let w = t.width();
        w > 0 && bounds.of(t).hi < top_bit(w)
    }
    let mut cmp_edges = 0usize;
    for atom in atoms {
        let op = match atom.op {
            Cmp::SLt | Cmp::SLe
                if nonneg(&atom.lhs, &mut bounds) && nonneg(&atom.rhs, &mut bounds) =>
            {
                if atom.op == Cmp::SLt {
                    Cmp::ULt
                } else {
                    Cmp::ULe
                }
            }
            Cmp::Ne | Cmp::SLt | Cmp::SLe => continue,
            op => op,
        };
        let (bl, cl) = offset_view(&atom.lhs, &mut bounds);
        let (br, cr) = offset_view(&atom.rhs, &mut bounds);
        if op != Cmp::Eq && cl == 0 && cr == 0 && bl == br {
            continue;
        }
        let u = intern(&bl, &mut ids, &mut edges, &mut bounds);
        let v = intern(&br, &mut ids, &mut edges, &mut bounds);
        // lhs <= rhs  ⇔  bl + cl <= br + cr  ⇔  bl - br <= cr - cl.
        match op {
            Cmp::Eq => {
                edges.push((v, u, cr - cl));
                edges.push((u, v, cl - cr));
            }
            Cmp::ULe => edges.push((v, u, cr - cl)),
            Cmp::ULt => edges.push((v, u, cr - cl - 1)),
            _ => unreachable!(),
        }
        cmp_edges += 1;
    }
    if cmp_edges == 0 {
        return false;
    }
    // Bellman–Ford from an implicit all-zero source; a relaxation that still
    // fires after n rounds witnesses a negative cycle.
    let n = ids.len() + 1;
    let mut dist = vec![0i128; n];
    for round in 0..=n {
        let mut changed = false;
        for &(v, u, w) in &edges {
            if dist[v] + w < dist[u] {
                if round == n {
                    return true;
                }
                dist[u] = dist[v] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    false
}

/// Stage 5 of [`analyse`], the arithmetic pass: a known-bits/congruence
/// pass over the mask, shift,
/// xor, and add/sub relations in the atoms (cross-checked against the
/// refined intervals), followed by a difference-bound negative-cycle pass
/// over the no-wrap `base ± const` fragment. `true` is sound (the
/// conjunction is unsatisfiable); both passes are budget-free and
/// deterministic, so the answer depends only on the constraints.
fn arithmetic_infeasible(atoms: &[Atom], intervals: &IntervalMap) -> bool {
    let mut known = KnownBitsMap::default();
    for a in atoms {
        known.compute(&a.lhs);
        known.compute(&a.rhs);
    }
    for _ in 0..4 {
        let mut changed = false;
        for a in atoms {
            changed |= known.refine(a);
        }
        if known.contradiction {
            return true;
        }
        if !changed {
            break;
        }
    }
    if known.contradiction {
        return true;
    }
    // Bit knowledge and interval knowledge must overlap on every atom side.
    for a in atoms {
        for side in [&a.lhs, &a.rhs] {
            let kb = known.compute(side);
            if let Some(iv) = intervals.get(side) {
                if kb.min_value() > iv.hi || kb.max_value(side.width()) < iv.lo {
                    return true;
                }
            }
        }
    }
    difference_infeasible(atoms, intervals)
}

/// The interval of one term node as a function of its children's intervals
/// (supplied by `children`, which may recurse with or without caching). Every
/// rule is conservative: the returned range always encloses every value the
/// node can take when each child stays within its reported range.
fn node_interval(t: &TermRef, children: &mut dyn FnMut(&TermRef) -> Interval) -> Interval {
    let width = t.width();
    let full = Interval::full(width);
    match t.as_ref() {
        Term::Const(v) => Interval::point(v.as_u64()),
        Term::PacketByte(_) | Term::PacketByteAt { .. } => Interval { lo: 0, hi: 255 },
        Term::PacketLen => Interval { lo: 0, hi: 65535 },
        Term::Var { .. } | Term::DsRead { .. } => full,
        Term::Unary { op, a } => {
            let x = children(a);
            match op {
                // Bitwise complement reverses the order of values.
                UnOp::Not => {
                    let mask = dataplane_ir::value::mask(width);
                    Interval {
                        lo: mask - x.hi.min(mask),
                        hi: mask - x.lo.min(mask),
                    }
                }
                UnOp::LogicalNot => Interval { lo: 0, hi: 1 },
                UnOp::Neg => full,
            }
        }
        Term::Cast { kind, width, a } => {
            let inner = children(a);
            match kind {
                dataplane_ir::CastKind::ZExt | dataplane_ir::CastKind::Resize
                    if *width >= a.width() =>
                {
                    inner
                }
                // A narrowing truncation (or resize) preserves the value
                // whenever the value provably fits in the target width.
                dataplane_ir::CastKind::Trunc | dataplane_ir::CastKind::Resize
                    if inner.hi <= dataplane_ir::value::mask(*width) =>
                {
                    inner
                }
                // Sign extension of a provably non-negative value is a zero
                // extension.
                dataplane_ir::CastKind::SExt
                    if *width >= a.width() && a.width() > 0 && inner.hi < top_bit(a.width()) =>
                {
                    inner
                }
                _ => full,
            }
        }
        Term::Select { t: tt, e, .. } => {
            let a = children(tt);
            let b = children(e);
            Interval {
                lo: a.lo.min(b.lo),
                hi: a.hi.max(b.hi),
            }
        }
        Term::Binary { op, a, b } => {
            let x = children(a);
            let y = children(b);
            let mask = dataplane_ir::value::mask(width);
            match op {
                BinOp::Add => match (x.hi.checked_add(y.hi), x.lo.checked_add(y.lo)) {
                    (Some(hi), Some(lo)) if hi <= mask => Interval { lo, hi },
                    _ => full,
                },
                BinOp::Sub => {
                    if x.lo >= y.hi {
                        Interval {
                            lo: x.lo - y.hi,
                            hi: x.hi - y.lo,
                        }
                    } else {
                        full
                    }
                }
                BinOp::Mul => match (x.hi.checked_mul(y.hi), x.lo.checked_mul(y.lo)) {
                    (Some(hi), Some(lo)) if hi <= mask => Interval { lo, hi },
                    _ => full,
                },
                BinOp::And => Interval {
                    lo: 0,
                    hi: x.hi.min(y.hi),
                },
                // Every set bit of `x | y` is bounded by the highest set bit
                // either side can contribute, and neither side can lower the
                // other's value.
                BinOp::Or => Interval {
                    lo: x.lo.max(y.lo),
                    hi: bit_ceiling(x.hi | y.hi).min(mask),
                },
                BinOp::Xor => Interval {
                    lo: 0,
                    hi: bit_ceiling(x.hi | y.hi).min(mask),
                },
                BinOp::Shl => {
                    // Only bounded when the largest shifted value provably
                    // stays in range (no bits shifted out for any operand
                    // values).
                    if y.hi < 64 {
                        match x.hi.checked_shl(y.hi as u32) {
                            Some(hi) if hi <= mask => Interval {
                                lo: x.lo << y.lo.min(63),
                                hi,
                            },
                            _ => full,
                        }
                    } else {
                        full
                    }
                }
                BinOp::UDiv => match x.hi.checked_div(y.lo) {
                    // y.lo > 0 bounds the quotient; a zero divisor may
                    // crash instead of producing a value, so no bound.
                    Some(hi) => Interval {
                        lo: x.lo / y.hi.max(1),
                        hi,
                    },
                    None => full,
                },
                BinOp::URem => {
                    if y.lo > 0 && x.hi < y.lo {
                        // The dividend is provably smaller than every
                        // possible divisor: the remainder is the dividend.
                        x
                    } else {
                        Interval {
                            lo: 0,
                            hi: if y.hi > 0 {
                                x.hi.min(y.hi - 1)
                            } else {
                                full.hi
                            },
                        }
                    }
                }
                // A shift of >= 64 produces 0 (not shift-by-63), so the
                // lower bound collapses once the amount can reach 64; the
                // upper bound may stay, as `x.hi >> 63` over-approximates 0.
                BinOp::LShr => Interval {
                    lo: if y.hi >= 64 { 0 } else { x.lo >> y.hi },
                    hi: x.hi >> y.lo.min(63),
                },
                // An arithmetic shift of a provably non-negative value is a
                // logical shift.
                BinOp::AShr if width > 0 && x.hi < top_bit(width) => Interval {
                    lo: if y.hi >= 64 { 0 } else { x.lo >> y.hi },
                    hi: x.hi >> y.lo.min(63),
                },
                _ if op.is_comparison() || op.is_boolean() => Interval { lo: 0, hi: 1 },
                _ => full,
            }
        }
    }
}

/// `2^(width-1)`, the value of the sign bit at `width`.
fn top_bit(width: u8) -> u64 {
    1u64 << (width - 1).min(63)
}

/// The smallest all-ones value `>= v` (`0b0110 -> 0b0111`): the tightest
/// power-of-two-minus-one upper bound for bitwise combinations.
fn bit_ceiling(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

// --- linear fragment / Fourier–Motzkin ---------------------------------------

/// The variables of one Fourier–Motzkin call: its opaque term nodes (leaves
/// or non-linear sub-terms), interned by term structure, so two `Arc`s of
/// one term are one variable.
#[derive(Default)]
struct LinVars {
    ids: TermMap<u32>,
    terms: Vec<TermRef>,
}

impl LinVars {
    fn intern(&mut self, t: &TermRef) -> u32 {
        if let Some(&id) = self.ids.get(t) {
            return id;
        }
        let id = self.terms.len() as u32;
        self.ids.insert(t.clone(), id);
        self.terms.push(t.clone());
        id
    }
}

/// A linear expression: `constant + Σ coeff·var` over [`LinVars`] ids.
/// `coeffs` is sorted by id and holds no zero coefficient. Every operation
/// is checked: `None` means an `i128` overflow, and the caller gives up
/// rather than reason with a wrapped value.
#[derive(Clone, Debug, Default)]
struct LinExpr {
    constant: i128,
    coeffs: Vec<(u32, i128)>,
}

impl LinExpr {
    fn constant(v: i128) -> LinExpr {
        LinExpr {
            constant: v,
            coeffs: Vec::new(),
        }
    }

    fn var(id: u32) -> LinExpr {
        LinExpr {
            constant: 0,
            coeffs: vec![(id, 1)],
        }
    }

    /// The coefficient of `var` (zero when absent).
    fn coeff(&self, var: u32) -> i128 {
        self.coeffs
            .binary_search_by_key(&var, |&(id, _)| id)
            .map_or(0, |i| self.coeffs[i].1)
    }

    /// `ka·self + kb·other`, in one merge of the two sorted coefficient
    /// lists.
    fn combine(&self, ka: i128, other: &LinExpr, kb: i128) -> Option<LinExpr> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + other.coeffs.len());
        let (mut a, mut b) = (
            self.coeffs.iter().peekable(),
            other.coeffs.iter().peekable(),
        );
        loop {
            let (id, c) = match (a.peek(), b.peek()) {
                (Some(&&(x, ca)), Some(&&(y, cb))) if x == y => {
                    a.next();
                    b.next();
                    (x, ca.checked_mul(ka)?.checked_add(cb.checked_mul(kb)?)?)
                }
                (Some(&&(x, ca)), Some(&&(y, _))) if x < y => {
                    a.next();
                    (x, ca.checked_mul(ka)?)
                }
                (Some(&&(x, ca)), None) => {
                    a.next();
                    (x, ca.checked_mul(ka)?)
                }
                (_, Some(&&(y, cb))) => {
                    b.next();
                    (y, cb.checked_mul(kb)?)
                }
                (None, None) => break,
            };
            if c != 0 {
                coeffs.push((id, c));
            }
        }
        let constant = self
            .constant
            .checked_mul(ka)?
            .checked_add(other.constant.checked_mul(kb)?)?;
        Some(LinExpr { constant, coeffs })
    }

    fn scale(&self, k: i128) -> Option<LinExpr> {
        self.combine(k, &LinExpr::default(), 0)
    }
}

/// Linearise a term, treating non-linear nodes as opaque variables. Each
/// result carries mathematical bounds derived from the (refined) intervals of
/// its opaque variables; a node whose mathematical value could wrap at its
/// bit width — or whose coefficients or bounds overflow `i128` — is kept
/// opaque instead, so the mathematical reading stays sound.
fn linearize(t: &TermRef, intervals: &IntervalMap, vars: &mut LinVars) -> Option<LinExpr> {
    linearize_bounded(t, intervals, vars).map(|(e, _, _)| e)
}

/// An opaque node: one variable, bounded by its (possibly refined) interval.
fn opaque(t: &TermRef, intervals: &IntervalMap, vars: &mut LinVars) -> (LinExpr, i128, i128) {
    let iv = intervals
        .get(t)
        .unwrap_or_else(|| Interval::full(t.width()));
    (LinExpr::var(vars.intern(t)), iv.lo as i128, iv.hi as i128)
}

/// Linearise with bounds: returns `(expr, lo, hi)` where `lo..=hi` encloses
/// the mathematical value of `expr` given the interval of every opaque
/// variable in it.
fn linearize_bounded(
    t: &TermRef,
    intervals: &IntervalMap,
    vars: &mut LinVars,
) -> Option<(LinExpr, i128, i128)> {
    match t.as_ref() {
        Term::Const(v) => {
            let c = v.as_u64() as i128;
            Some((LinExpr::constant(c), c, c))
        }
        Term::Binary { op, a, b } => match op {
            // A left shift by a constant is multiplication by a power of two
            // — linear, provided the mathematical value cannot wrap (checked
            // below like every other arithmetic node). This is the shape
            // shifted header reads (`x << 2`-style scaling) take.
            BinOp::Shl => {
                // A variable shift amount is not linear, but the node is
                // still a bounded value — keep it opaque rather than
                // dropping every atom that mentions it from the fragment.
                let Some(k) = b.as_const().map(|v| v.as_u64()) else {
                    return Some(opaque(t, intervals, vars));
                };
                if k >= 64 {
                    return Some(opaque(t, intervals, vars));
                }
                let factor = 1i128 << k;
                let (la, alo, ahi) = linearize_bounded(a, intervals, vars)?;
                let mask = dataplane_ir::value::mask(t.width()) as i128;
                let scaled = match (alo.checked_mul(factor), ahi.checked_mul(factor)) {
                    (Some(lo), Some(hi)) if lo >= 0 && hi <= mask => {
                        la.scale(factor).map(|e| (e, lo, hi))
                    }
                    _ => None,
                };
                Some(scaled.unwrap_or_else(|| opaque(t, intervals, vars)))
            }
            // Masking with a low bit mask (`x & 0x0f`, `x & 0xff`, …) is the
            // identity whenever the operand provably fits in the mask — the
            // masked header reads the router elements emit then join the
            // linear fragment instead of opacifying every constraint that
            // mentions them.
            BinOp::And => {
                let (value, mask_const) = if let Some(m) = b.as_const() {
                    (a, m.as_u64())
                } else if let Some(m) = a.as_const() {
                    (b, m.as_u64())
                } else {
                    return Some(opaque(t, intervals, vars));
                };
                if mask_const.wrapping_add(1).is_power_of_two() || mask_const == u64::MAX {
                    let (lv, lo, hi) = linearize_bounded(value, intervals, vars)?;
                    if lo >= 0 && hi <= mask_const as i128 {
                        // Tighten with any refinement recorded on the masked
                        // node itself, mirroring the cast pass-through.
                        let (mut lo, mut hi) = (lo, hi);
                        if let Some(iv) = intervals.get(t) {
                            lo = lo.max(iv.lo as i128);
                            hi = hi.min(iv.hi as i128);
                        }
                        return Some((lv, lo, hi));
                    }
                }
                Some(opaque(t, intervals, vars))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let (la, alo, ahi) = linearize_bounded(a, intervals, vars)?;
                let (lb, blo, bhi) = linearize_bounded(b, intervals, vars)?;
                let mask = dataplane_ir::value::mask(t.width()) as i128;
                let linear = linear_arith(*op, (la, alo, ahi), (lb, blo, bhi));
                // If the mathematical value can leave [0, mask], modular
                // wrap-around could occur and the linear reading is unsound;
                // fall back to an opaque variable for this node.
                match linear {
                    Some((expr, lo, hi)) if lo >= 0 && hi <= mask => Some((expr, lo, hi)),
                    _ => Some(opaque(t, intervals, vars)),
                }
            }
            _ => Some(opaque(t, intervals, vars)),
        },
        Term::Cast { kind, width, a } => match kind {
            dataplane_ir::CastKind::ZExt | dataplane_ir::CastKind::Resize
                if *width >= a.width() =>
            {
                // Value-preserving widening: pass through, but tighten the
                // bounds with any refinement recorded against the cast node
                // itself (atoms usually mention the widened form, e.g.
                // `zext32(v) >= 4`, and that knowledge must reach the bounds
                // used for wrap checking higher up).
                let (e, mut lo, mut hi) = linearize_bounded(a, intervals, vars)?;
                if let Some(iv) = intervals.get(t) {
                    lo = lo.max(iv.lo as i128);
                    hi = hi.min(iv.hi as i128);
                }
                Some((e, lo, hi))
            }
            _ => Some(opaque(t, intervals, vars)),
        },
        _ => Some(opaque(t, intervals, vars)),
    }
}

/// `a op b` for `op` one of `Add`, `Sub`, `Mul`, over linearised operands
/// with their bounds. `None` when the node is not linear (a product of two
/// non-constant expressions) or its coefficients or bounds overflow `i128`.
fn linear_arith(
    op: BinOp,
    (la, alo, ahi): (LinExpr, i128, i128),
    (lb, blo, bhi): (LinExpr, i128, i128),
) -> Option<(LinExpr, i128, i128)> {
    match op {
        BinOp::Add => Some((
            la.combine(1, &lb, 1)?,
            alo.checked_add(blo)?,
            ahi.checked_add(bhi)?,
        )),
        BinOp::Sub => Some((
            la.combine(1, &lb, -1)?,
            alo.checked_sub(bhi)?,
            ahi.checked_sub(blo)?,
        )),
        _ => {
            let (scaled, k) = if lb.coeffs.is_empty() {
                (&la, lb.constant)
            } else if la.coeffs.is_empty() {
                (&lb, la.constant)
            } else {
                return None;
            };
            Some((
                scaled.scale(k)?,
                alo.checked_mul(blo)?,
                ahi.checked_mul(bhi)?,
            ))
        }
    }
}

/// What the Fourier–Motzkin stage established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FmOutcome {
    /// The linear fragment is infeasible (sound: the whole system is Unsat).
    Unsat,
    /// Elimination completed without deriving a contradiction, or an
    /// `i128` overflow ended it.
    NoVerdict,
    /// Elimination aborted at `max_fm_constraints`; no verdict from this
    /// stage, and a larger budget might have decided the system.
    BudgetExhausted,
}

/// Decide unsatisfiability of the linear fragment by Fourier–Motzkin
/// elimination (sound for `Unsat` because rational infeasibility implies
/// integer infeasibility). Each inequality is an expression `<= 0`.
/// Variables are eliminated in the order of their printed terms — each used
/// variable is printed once, for that order alone — since where the budget
/// aborts depends on it.
fn fourier_motzkin(atoms: &[Atom], intervals: &IntervalMap, max_constraints: usize) -> FmOutcome {
    let mut vars = LinVars::default();
    let mut inequalities: Vec<LinExpr> = Vec::new();

    for atom in atoms {
        // Signed atoms participate only when both sides are provably
        // non-negative (then they agree with the unsigned reading).
        if matches!(atom.op, Cmp::SLt | Cmp::SLe) {
            let w = atom.lhs.width();
            let top = 1u64 << (w - 1);
            let lok = intervals
                .get(&atom.lhs)
                .map(|iv| iv.hi < top)
                .unwrap_or(false);
            let rok = intervals
                .get(&atom.rhs)
                .map(|iv| iv.hi < top)
                .unwrap_or(false);
            if !lok || !rok {
                continue;
            }
        }
        if matches!(atom.op, Cmp::Ne) {
            continue;
        }
        let (Some(l), Some(r)) = (
            linearize(&atom.lhs, intervals, &mut vars),
            linearize(&atom.rhs, intervals, &mut vars),
        ) else {
            continue;
        };
        let Some(diff) = l.combine(1, &r, -1) else {
            return FmOutcome::NoVerdict;
        }; // lhs - rhs
        match atom.op {
            Cmp::ULe | Cmp::SLe => inequalities.push(diff),
            // lhs - rhs + 1 <= 0
            Cmp::ULt | Cmp::SLt => {
                let Some(constant) = diff.constant.checked_add(1) else {
                    return FmOutcome::NoVerdict;
                };
                inequalities.push(LinExpr { constant, ..diff })
            }
            Cmp::Eq => {
                let Some(negated) = diff.scale(-1) else {
                    return FmOutcome::NoVerdict;
                };
                inequalities.push(diff);
                inequalities.push(negated);
            }
            Cmp::Ne => {}
        }
    }

    // Range constraints for every used variable, in id order: lo <= v <= hi.
    let mut used = vec![false; vars.terms.len()];
    for ineq in &inequalities {
        for &(id, _) in &ineq.coeffs {
            used[id as usize] = true;
        }
    }
    let used: Vec<u32> = (0..vars.terms.len() as u32)
        .filter(|&id| used[id as usize])
        .collect();
    for &id in &used {
        let t = &vars.terms[id as usize];
        let hi = intervals
            .get(t)
            .map(|iv| iv.hi)
            .unwrap_or_else(|| dataplane_ir::value::mask(t.width()));
        let lo = intervals.get(t).map(|iv| iv.lo).unwrap_or(0);
        // -v + lo <= 0
        inequalities.push(LinExpr {
            constant: lo as i128,
            coeffs: vec![(id, -1)],
        });
        // v - hi <= 0
        inequalities.push(LinExpr {
            constant: -(hi as i128),
            coeffs: vec![(id, 1)],
        });
    }

    // Eliminate variables one at a time.
    let mut order: Vec<(String, u32)> = used
        .into_iter()
        .map(|id| (format!("{}", vars.terms[id as usize]), id))
        .collect();
    order.sort_unstable();
    let contradiction = |i: &LinExpr| i.coeffs.is_empty() && i.constant > 0;
    for (_, var) in order {
        if inequalities.len() > max_constraints {
            return FmOutcome::BudgetExhausted;
        }
        let mut next = Vec::with_capacity(inequalities.len());
        let mut uppers = Vec::new(); // c*v <= rest  (c > 0)
        let mut lowers = Vec::new(); // rest <= c*v  (coefficient < 0 in <=0 form)
        for ineq in inequalities {
            match ineq.coeff(var) {
                0 => next.push(ineq),
                c if c > 0 => uppers.push((c, ineq)),
                c => lowers.push((c.checked_neg(), ineq)),
            }
        }
        for (cu, u) in &uppers {
            for (cl, l) in &lowers {
                // cu*v + U <= 0  and  -cl*v + L <= 0
                // => cl*U + cu*L <= 0 after eliminating v.
                let Some(combined) = cl.and_then(|cl| u.combine(cl, l, *cu)) else {
                    return FmOutcome::NoVerdict;
                };
                if combined.coeffs.is_empty() {
                    if combined.constant > 0 {
                        return FmOutcome::Unsat; // 0 < constant <= 0 is impossible
                    }
                } else {
                    next.push(combined);
                }
            }
        }
        inequalities = next;
        // A pure-constant contradiction may also already be present.
        if inequalities.iter().any(contradiction) {
            return FmOutcome::Unsat;
        }
    }
    if inequalities.iter().any(contradiction) {
        FmOutcome::Unsat
    } else {
        FmOutcome::NoVerdict
    }
}

// --- deterministic RNG -------------------------------------------------------

/// A small xorshift generator so the model search is deterministic and does
/// not pull in `rand` for the library crate.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift { state: seed.max(1) }
    }
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{binary, cast, constant, negate, VarId};
    use dataplane_ir::{BitVec, CastKind};
    use std::sync::Arc;

    fn pkt_byte(i: i64) -> TermRef {
        Arc::new(Term::PacketByte(i))
    }

    #[test]
    fn oversized_shift_collapses_the_lower_bound() {
        // `x >> y` with x = 2^63 and an unconstrained 64-bit y: any y >= 64
        // yields 0, so the only sound lower bound is 0 (a clamp-to-63 model
        // would wrongly claim >= 1 — and an unsound store-offset lower bound
        // lets a clobber range exclude bytes a store can really reach).
        let x = constant(BitVec::new(64, 1u64 << 63));
        let y = Arc::new(Term::Var {
            id: VarId(0),
            width: 64,
        });
        let t = binary(BinOp::LShr, x, y.clone());
        let bounds = term_bounds(&[], &t);
        assert_eq!(bounds.lo, 0, "shift by >= 64 can produce 0");
        // With y provably small, the tight bound comes back.
        let small = binary(BinOp::ULe, y.clone(), constant(BitVec::new(64, 3)));
        let t = binary(BinOp::LShr, constant(BitVec::new(64, 1u64 << 63)), y);
        let bounds = term_bounds(&[small], &t);
        assert!(bounds.lo >= 1u64 << 60, "bounded shift keeps precision");
    }
    fn pkt_len() -> TermRef {
        Arc::new(Term::PacketLen)
    }
    fn c32(v: u32) -> TermRef {
        constant(BitVec::u32(v))
    }
    fn b32(i: i64) -> TermRef {
        cast(CastKind::ZExt, 32, pkt_byte(i))
    }

    #[test]
    fn empty_and_trivial_constraints() {
        let s = Solver::new();
        assert!(s.check(&[]).is_sat());
        assert!(s.check(&[crate::term::tt()]).is_sat());
        assert!(s.check(&[crate::term::ff()]).is_unsat());
    }

    #[test]
    fn simple_equality_is_sat_with_correct_model() {
        let s = Solver::new();
        // pkt[0] == 0x45
        let c = binary(BinOp::Eq, pkt_byte(0), constant(BitVec::u8(0x45)));
        match s.check(&[c]) {
            SolverResult::Sat(m) => assert_eq!(m.packet[0], 0x45),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_equalities_are_unsat() {
        let s = Solver::new();
        let a = binary(BinOp::Eq, pkt_byte(0), constant(BitVec::u8(1)));
        let b = binary(BinOp::Eq, pkt_byte(0), constant(BitVec::u8(2)));
        assert!(s.check(&[a, b]).is_unsat());
    }

    #[test]
    fn complementary_comparisons_are_unsat() {
        let s = Solver::new();
        let x = b32(0);
        let lt = binary(BinOp::ULt, x.clone(), c32(10));
        let ge = binary(BinOp::UGe, x.clone(), c32(10));
        assert!(s.check(&[lt.clone(), ge]).is_unsat());
        // x < 10 && x == 10 is also a contradiction.
        let eq = binary(BinOp::Eq, x.clone(), c32(10));
        assert!(s.check(&[lt, eq]).is_unsat());
    }

    #[test]
    fn negated_atom_contradiction() {
        let s = Solver::new();
        let x = b32(0);
        let lt = binary(BinOp::ULt, x.clone(), c32(10));
        assert!(s.check(&[lt.clone(), negate(lt)]).is_unsat());
    }

    #[test]
    fn interval_contradiction_detected() {
        let s = Solver::new();
        // A single byte cannot exceed 300.
        let gt = binary(BinOp::UGt, b32(0), c32(300));
        assert!(s.check(&[gt]).is_unsat());
        // But it can exceed 200.
        let gt = binary(BinOp::UGt, b32(0), c32(200));
        match s.check(&[gt]) {
            SolverResult::Sat(m) => assert!(m.packet[0] > 200),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn transitive_chain_is_unsat() {
        // The Figure-2-style composition check:
        //   hl <= total, total <= len, i < hl, len < i + 1  — impossible.
        let s = Solver::new();
        let hl = binary(
            BinOp::Mul,
            cast(
                CastKind::ZExt,
                32,
                binary(BinOp::And, pkt_byte(0), constant(BitVec::u8(0x0f))),
            ),
            c32(4),
        );
        let total = cast(
            CastKind::ZExt,
            32,
            Arc::new(Term::Var {
                id: VarId(1),
                width: 16,
            }),
        );
        let i = binary(
            BinOp::Add,
            c32(20),
            cast(
                CastKind::ZExt,
                32,
                Arc::new(Term::Var {
                    id: VarId(2),
                    width: 8,
                }),
            ),
        );
        let len = pkt_len();

        let cs = vec![
            binary(BinOp::ULe, hl.clone(), total.clone()),
            binary(BinOp::ULe, total, len.clone()),
            binary(BinOp::ULt, i.clone(), hl),
            binary(BinOp::ULt, len, binary(BinOp::Add, i, c32(1))),
        ];
        assert!(s.check(&cs).is_unsat());
    }

    #[test]
    fn monotone_sum_chain_is_unsat() {
        // ptr + 3 <= optlen, i + optlen <= hl, hl <= len, and the crash
        // condition i + ptr + 3 > len — the record-route write case.
        let s = Solver::new();
        let ptr = cast(
            CastKind::ZExt,
            32,
            Arc::new(Term::Var {
                id: VarId(1),
                width: 8,
            }),
        );
        let optlen = cast(
            CastKind::ZExt,
            32,
            Arc::new(Term::Var {
                id: VarId(2),
                width: 8,
            }),
        );
        let i = binary(
            BinOp::Add,
            c32(20),
            cast(
                CastKind::ZExt,
                32,
                Arc::new(Term::Var {
                    id: VarId(3),
                    width: 8,
                }),
            ),
        );
        let hl = binary(
            BinOp::Mul,
            cast(
                CastKind::ZExt,
                32,
                binary(BinOp::And, pkt_byte(0), constant(BitVec::u8(0x0f))),
            ),
            c32(4),
        );
        let len = pkt_len();
        let cs = vec![
            binary(
                BinOp::ULe,
                binary(BinOp::Add, ptr.clone(), c32(3)),
                optlen.clone(),
            ),
            binary(
                BinOp::ULe,
                binary(BinOp::Add, i.clone(), optlen),
                hl.clone(),
            ),
            binary(BinOp::ULe, hl, len.clone()),
            binary(
                BinOp::UGt,
                binary(BinOp::Add, binary(BinOp::Add, i, ptr), c32(3)),
                len,
            ),
        ];
        assert!(s.check(&cs).is_unsat());
    }

    #[test]
    fn satisfiable_chain_produces_model() {
        // i < hl with hl derived from packet byte 0: needs byte0's low nibble
        // large enough. The solver must find such a packet.
        let s = Solver::new();
        let hl = binary(
            BinOp::Mul,
            cast(
                CastKind::ZExt,
                32,
                binary(BinOp::And, pkt_byte(0), constant(BitVec::u8(0x0f))),
            ),
            c32(4),
        );
        let cs = vec![
            binary(BinOp::ULt, c32(20), hl.clone()),
            binary(BinOp::ULe, hl, pkt_len()),
        ];
        match s.check(&cs) {
            SolverResult::Sat(m) => {
                let ihl = (m.packet[0] & 0x0f) as u32;
                assert!(ihl * 4 > 20);
                assert!(m.packet_len >= ihl * 4);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn havocked_counter_chain_is_unsat() {
        // The shape produced by loop decomposition: a 32-bit havocked loop
        // counter bounded only by the loop condition. This is the
        // CheckIPHeader checksum-loop discharge:
        //   idx < ihl*2, hl = ihl*4 <= len, crash: 2*idx + 2 > len.
        let s = Solver::new();
        let idx: TermRef = Arc::new(Term::Var {
            id: VarId(9),
            width: 32,
        });
        let ihl = cast(
            CastKind::ZExt,
            32,
            binary(BinOp::And, pkt_byte(0), constant(BitVec::u8(0x0f))),
        );
        let len = pkt_len();
        let cs = vec![
            binary(
                BinOp::ULt,
                idx.clone(),
                binary(BinOp::Mul, ihl.clone(), c32(2)),
            ),
            binary(BinOp::ULe, binary(BinOp::Mul, ihl, c32(4)), len.clone()),
            binary(
                BinOp::UGt,
                binary(BinOp::Add, binary(BinOp::Mul, idx, c32(2)), c32(2)),
                len,
            ),
        ];
        assert!(s.check(&cs).is_unsat());
    }

    #[test]
    fn signed_contradiction_from_figure_one() {
        // in >= 0 (signed) && in < 0 (signed) over a 32-bit packet field.
        let s = Solver::new();
        let field = {
            // Build (pkt[0]<<24 | ... ) as the engine would; a single byte is
            // enough to exercise the signed logic here.
            cast(CastKind::ZExt, 32, pkt_byte(0))
        };
        let nonneg = binary(BinOp::SLe, c32(0), field.clone());
        let neg = binary(BinOp::SLt, field, c32(0));
        assert!(s.check(&[nonneg, neg]).is_unsat());
    }

    #[test]
    fn models_satisfy_packet_length_constraints() {
        let s = Solver::new();
        let cs = vec![
            binary(BinOp::UGe, pkt_len(), c32(34)),
            binary(BinOp::Eq, pkt_byte(12), constant(BitVec::u8(0x08))),
            binary(BinOp::Eq, pkt_byte(13), constant(BitVec::u8(0x00))),
        ];
        match s.check(&cs) {
            SolverResult::Sat(m) => {
                assert!(m.packet_len >= 34);
                assert_eq!(m.packet[12], 0x08);
                assert_eq!(m.packet[13], 0x00);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn ds_read_constraints_can_be_satisfied() {
        let s = Solver::new();
        let read = Arc::new(Term::DsRead {
            ds: dataplane_ir::DsId(0),
            key: c32(5),
            seq: 0,
            width: 8,
        });
        let c = binary(BinOp::Eq, read, constant(BitVec::u8(3)));
        match s.check(&[c]) {
            SolverResult::Sat(m) => assert_eq!(m.ds_reads.get(&(0, 0)), Some(&3)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_dominates_even_with_many_conjuncts() {
        let s = Solver::new();
        let mut cs = Vec::new();
        for i in 0..10 {
            cs.push(binary(BinOp::ULe, b32(i), c32(200)));
        }
        cs.push(binary(BinOp::Eq, pkt_byte(3), constant(BitVec::u8(7))));
        cs.push(binary(BinOp::Eq, pkt_byte(3), constant(BitVec::u8(8))));
        assert!(s.check(&cs).is_unsat());
    }

    #[test]
    fn sat_results_verify_under_evaluation() {
        // Whatever model the solver returns must make every constraint true.
        let s = Solver::new();
        let cs = vec![
            binary(BinOp::UGt, b32(8), c32(1)),
            binary(BinOp::ULt, b32(8), c32(5)),
            binary(BinOp::UGe, pkt_len(), c32(9)),
        ];
        match s.check(&cs) {
            SolverResult::Sat(m) => {
                for c in &cs {
                    assert!(eval(c, &m).unwrap().is_true());
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn var(id: u32, width: u8) -> TermRef {
        Arc::new(Term::Var {
            id: VarId(id),
            width,
        })
    }

    #[test]
    fn two_arcs_of_one_term_are_one_fourier_motzkin_variable() {
        // a + b <= c, c <= a, 1 <= b: only a linear combination refutes it,
        // and only when both mentions of `a` are the same variable.
        let x = |id| cast(CastKind::ZExt, 32, var(id, 8));
        let (a, a_again) = (x(0), x(0));
        assert!(!Arc::ptr_eq(&a, &a_again));
        let cs = vec![
            binary(BinOp::ULe, binary(BinOp::Add, a, x(1)), x(2)),
            binary(BinOp::ULe, x(2), a_again),
            binary(BinOp::ULe, c32(1), x(1)),
        ];
        assert!(!interval_infeasible(&cs));
        let decision = Solver::new().decide(&cs, &[], &crate::CancelToken::new());
        assert_eq!(decision.result, SolverResult::Unsat);
        assert_eq!(decision.stage, SolverStage::FourierMotzkin);
    }

    /// Pairwise sums of five 8-bit variables bounded against each other,
    /// every term built from fresh `Arc`s: an elimination that grows.
    fn growing_system() -> Vec<TermRef> {
        let x = |id| cast(CastKind::ZExt, 32, var(id, 8));
        let mut cs = Vec::new();
        for i in 0..5u32 {
            for j in (0..5u32).filter(|&j| j != i) {
                let lhs = binary(BinOp::Add, x(i), x(j));
                let rhs = binary(BinOp::Add, x((i + j + 1) % 5), c32(3 + i));
                cs.push(binary(BinOp::ULe, lhs, rhs));
            }
        }
        cs
    }

    #[test]
    fn fourier_motzkin_aborts_where_the_printed_term_order_says() {
        // The outcome at each budget, up to the first budget that lets the
        // elimination finish. Where it aborts depends on the elimination
        // order (printed terms, sorted).
        let analysis = analyse(&growing_system()).expect("the prefix does not refute it");
        let outcomes: Vec<_> = (0..)
            .map(|budget| fourier_motzkin(&analysis.atoms, &analysis.intervals, budget))
            .scan(false, |done, outcome| {
                (!std::mem::replace(done, outcome != FmOutcome::BudgetExhausted)).then_some(outcome)
            })
            .collect();
        // 702 inequalities: the first budget the sorted order finishes
        // within (reversed, it needs 1070; rotated by two, 598).
        assert_eq!(outcomes.len(), 703);
        assert_eq!(outcomes.last(), Some(&FmOutcome::NoVerdict));
    }

    #[test]
    fn an_overflowing_elimination_gives_no_verdict() {
        // (v_i << 30) + v_j <=u (v_j << 30) + v_((i+j) mod 6) for i != j,
        // every v_k <= 2^30 - 1: all-zero satisfies it, but eliminating
        // its variables multiplies coefficients past i128.
        let c64 = |v: u64| constant(BitVec::new(64, v));
        let side = |a, b| {
            binary(
                BinOp::Add,
                binary(BinOp::Shl, var(a, 64), c64(30)),
                var(b, 64),
            )
        };
        let mut cs: Vec<TermRef> = (0..6)
            .map(|k| binary(BinOp::ULe, var(k, 64), c64((1 << 30) - 1)))
            .collect();
        for i in 0..6u32 {
            for j in (0..6u32).filter(|&j| j != i) {
                cs.push(binary(BinOp::ULe, side(i, j), side(j, (i + j) % 6)));
            }
        }
        let zero = Assignment::default();
        assert!(cs.iter().all(|c| eval(c, &zero).unwrap().is_true()));
        let s = Solver::new();
        assert_eq!(s.refutes(&cs), None);
        let decision = s.decide(&cs, &[], &crate::CancelToken::new());
        assert!(!decision.result.is_unsat(), "{decision:?}");
    }
}

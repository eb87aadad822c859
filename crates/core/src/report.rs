//! Verification reports: verdicts, counterexamples, and statistics.

use crate::property::Property;
use std::fmt;
use std::time::Duration;

/// A concrete packet that demonstrates a property violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The packet bytes to inject at the pipeline entry.
    pub packet: Vec<u8>,
    /// The instance names of the elements along the violating path, ending at
    /// the element where the violation happens.
    pub path: Vec<String>,
    /// Human-readable description of the violation.
    pub description: String,
    /// True if replaying the packet on the concrete pipeline confirmed the
    /// violation (counterexamples are validated whenever the verifier is
    /// configured to do so).
    pub confirmed: bool,
}

/// A potential violation the verifier could neither discharge nor confirm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnprovenPath {
    /// The instance names of the elements along the path.
    pub path: Vec<String>,
    /// Why the verifier is unsure.
    pub reason: String,
}

/// The verdict of a verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for every packet sequence.
    Proven,
    /// The property is violated; at least one counterexample is attached.
    Violated,
    /// The verifier ran out of budget or precision before reaching a verdict;
    /// the unproven paths say where.
    Unknown,
}

/// Work statistics for a verification run (these are the quantities the
/// paper's evaluation compares between the decomposed and monolithic
/// approaches).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerificationStats {
    /// Number of element instances in the pipeline.
    pub elements: usize,
    /// Number of distinct element summaries computed (cache misses).
    pub summaries_computed: usize,
    /// Number of summaries served from the cache.
    pub summaries_reused: usize,
    /// Total segments across all summaries.
    pub total_segments: usize,
    /// Segments tagged suspect in Step 1.
    pub suspects: usize,
    /// Suspect/prefix combinations discharged as infeasible in Step 2.
    pub discharged: usize,
    /// Composed pipeline paths examined in Step 2.
    pub composed_paths: usize,
    /// Solver invocations.
    pub solver_calls: usize,
    /// Step-2 checks (suspect × prefix feasibility checks and prefix
    /// pruning checks) decided by the interval-only pre-filter alone —
    /// provably infeasible before the Fourier–Motzkin or model-search
    /// stages ever ran. These do **not** count as `solver_calls`.
    pub prefilter_decided: usize,
    /// Step-2 checks the interval-only pre-filter could not decide, which
    /// therefore went on to the full staged solver (each of these is also a
    /// `solver_calls` entry).
    pub prefilter_passed: usize,
    /// Step-2 feasibility checks whose Fourier–Motzkin stage aborted at its
    /// `max_fm_constraints` budget (the check may still have been decided by
    /// a later stage).
    pub fm_budget_aborts: usize,
    /// Step-2 feasibility checks whose randomized model search ran through
    /// all its tries without finding a model. Every `Unknown` feasibility
    /// verdict has this set, so `unknown = Unknown` causes are diagnosable
    /// from the stats alone.
    pub model_search_aborts: usize,
    /// Always 0: nothing writes this field and no encoder emits it. It is
    /// kept only because the perf ledger's cold layer (`ledger/`) still
    /// reads it; it goes with the ledger's next version.
    pub budget_escalations: usize,
    /// States of the Büchi automaton compiled from the negated temporal
    /// spec (zero for non-temporal properties).
    pub buchi_states: usize,
    /// Reachable states of the product of that automaton with the summary
    /// transition system explored by the emptiness pre-check.
    pub product_states: usize,
    /// Accepting lassos whose composed path constraint was satisfiable
    /// (each yields a temporal counterexample).
    pub lasso_found: usize,
}

/// The full result of verifying one property of one pipeline.
#[derive(Clone, Debug)]
pub struct Report {
    /// The property that was checked.
    pub property: Property,
    /// The verdict.
    pub verdict: Verdict,
    /// Counterexamples (non-empty exactly when the verdict is `Violated`).
    pub counterexamples: Vec<Counterexample>,
    /// Paths the verifier could not decide (non-empty only when `Unknown`).
    pub unproven: Vec<UnprovenPath>,
    /// Work statistics.
    pub stats: VerificationStats,
    /// Wall-clock verification time.
    pub elapsed: Duration,
}

impl Report {
    /// True if the property was proven.
    pub fn is_proven(&self) -> bool {
        self.verdict == Verdict::Proven
    }

    /// True if a confirmed violation was found.
    pub fn is_violated(&self) -> bool {
        self.verdict == Verdict::Violated
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property {} — {:?} in {:.3}s",
            self.property.name(),
            self.verdict,
            self.elapsed.as_secs_f64()
        )?;
        writeln!(
            f,
            "  elements {}, summaries computed {} (reused {}), segments {}, suspects {}, discharged {}, composed paths {}, solver calls {}",
            self.stats.elements,
            self.stats.summaries_computed,
            self.stats.summaries_reused,
            self.stats.total_segments,
            self.stats.suspects,
            self.stats.discharged,
            self.stats.composed_paths,
            self.stats.solver_calls
        )?;
        if self.stats.buchi_states > 0 {
            writeln!(
                f,
                "  temporal: buchi states {}, product states {}, lassos found {}",
                self.stats.buchi_states, self.stats.product_states, self.stats.lasso_found
            )?;
        }
        if self.stats.prefilter_decided > 0 || self.stats.prefilter_passed > 0 {
            writeln!(
                f,
                "  interval pre-filter: decided {}, passed {} to the full solver",
                self.stats.prefilter_decided, self.stats.prefilter_passed
            )?;
        }
        if self.stats.fm_budget_aborts > 0 || self.stats.model_search_aborts > 0 {
            writeln!(
                f,
                "  stage aborts: fourier-motzkin budget {}, model search exhausted {}",
                self.stats.fm_budget_aborts, self.stats.model_search_aborts
            )?;
        }
        for ce in &self.counterexamples {
            writeln!(
                f,
                "  counterexample ({}confirmed): {} — {} bytes via [{}]",
                if ce.confirmed { "" } else { "un" },
                ce.description,
                ce.packet.len(),
                ce.path.join(" -> ")
            )?;
        }
        for up in &self.unproven {
            writeln!(
                f,
                "  unproven: {} via [{}]",
                up.reason,
                up.path.join(" -> ")
            )?;
        }
        Ok(())
    }
}

/// The result of the bounded-instruction analysis (the paper's "maximum
/// number of instructions a pipeline may ever execute, and which input causes
/// it").
#[derive(Clone, Debug, Default)]
pub struct InstructionBoundReport {
    /// The per-packet instruction bound established for the pipeline (an
    /// upper bound when loops were decomposed).
    pub max_instructions: u64,
    /// A packet that drives the pipeline to (or near, when the bound is
    /// approximate) its maximum, if the solver produced one.
    pub witness: Option<Vec<u8>>,
    /// The instance names along the most expensive path.
    pub path: Vec<String>,
    /// True if loop decomposition made the bound an over-approximation.
    pub approximate: bool,
    /// Number of composed paths considered.
    pub paths_considered: usize,
    /// Number of those that were feasible.
    pub feasible_paths: usize,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

impl fmt::Display for InstructionBoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {} instructions per packet ({}), along [{}], {} / {} composed paths feasible, {:.3}s",
            self.max_instructions,
            if self.approximate { "upper bound" } else { "exact" },
            self.path.join(" -> "),
            self.feasible_paths,
            self.paths_considered,
            self.elapsed.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_includes_key_facts() {
        let report = Report {
            property: Property::CrashFreedom,
            verdict: Verdict::Violated,
            counterexamples: vec![Counterexample {
                packet: vec![0u8; 60],
                path: vec!["cls".into(), "opts".into()],
                description: "division by zero".into(),
                confirmed: true,
            }],
            unproven: vec![UnprovenPath {
                path: vec!["cls".into()],
                reason: "solver returned unknown".into(),
            }],
            stats: VerificationStats {
                elements: 5,
                suspects: 2,
                ..Default::default()
            },
            elapsed: Duration::from_millis(125),
        };
        let s = report.to_string();
        assert!(s.contains("crash-freedom"));
        assert!(s.contains("Violated"));
        assert!(s.contains("division by zero"));
        assert!(s.contains("cls -> opts"));
        assert!(s.contains("unknown"));
        assert!(report.is_violated());
        assert!(!report.is_proven());
    }

    #[test]
    fn instruction_report_display() {
        let r = InstructionBoundReport {
            max_instructions: 3600,
            witness: Some(vec![0; 64]),
            path: vec!["cls".into(), "chk".into()],
            approximate: true,
            paths_considered: 12,
            feasible_paths: 4,
            elapsed: Duration::from_secs(1),
        };
        let s = r.to_string();
        assert!(s.contains("3600"));
        assert!(s.contains("upper bound"));
        assert!(s.contains("4 / 12"));
    }
}

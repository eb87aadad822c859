//! The instruction cost model: how many instructions one run of a program
//! charges — the count behind the paper's per-packet instruction bound.
//!
//! # The rule
//!
//! Every executed node charges one: each statement run and each expression
//! node evaluated. A `Loop` statement charges once, on entry; its
//! condition's nodes charge themselves at every check, and the check
//! itself charges nothing. An `If` charges itself, its condition and the
//! branch it takes; a `Select` charges itself, its condition and the arm
//! it takes. A crash reports the pre-order count: every node *entered*,
//! the unfinished ancestors of the crashing node included.
//!
//! The lowered interpreter ([`crate::lower`]) implements the rule exactly
//! and is its reference. The symbolic engine derives every count it keeps
//! from the functions here: a path that knows which nodes it runs counts
//! exactly, and a path that stands for several concrete runs (both arms of
//! a `Select`, every iteration of a summarised loop) charges the costliest
//! of them, an upper bound.

/// Charge one executed node — a statement or an evaluated expression
/// node — to `count`.
pub fn charge(count: &mut u64) {
    *count += 1;
}

/// The count after a `Select` whose arms were each evaluated from the same
/// start and reached `then_count` and `else_count`: the costlier arm, and
/// whether that is exact (the arms cost the same).
pub fn select(then_count: u64, else_count: u64) -> (u64, bool) {
    (then_count.max(else_count), then_count == else_count)
}

/// A loop summarised by one generic iteration that stands for all of them:
/// at most `max_iters` iterations, each a condition check and the body,
/// none costlier than the costliest path through the generic one.
#[derive(Clone, Copy, Debug)]
pub struct LoopBound {
    entry: u64,
    max_iters: u64,
    iteration: u64,
}

impl LoopBound {
    /// `entry` is the count once the `Loop` has charged itself; `ends` are
    /// the counts at which the paths of the generic iteration, started
    /// from `entry`, fell through or ended.
    pub fn new(entry: u64, max_iters: u32, ends: impl IntoIterator<Item = u64>) -> LoopBound {
        LoopBound {
            entry,
            max_iters: max_iters as u64,
            iteration: ends.into_iter().map(|end| end - entry).max().unwrap_or(0),
        }
    }

    /// The count before the exit check's condition: every iteration run,
    /// each at the costliest.
    pub fn exit(&self) -> u64 {
        self.entry + self.max_iters * self.iteration
    }

    /// A count reached inside the generic iteration, as though in the
    /// first, raised to bound the same point in any iteration: up to
    /// `max_iters - 1` costliest iterations may run before it.
    pub fn inside(&self, count: u64) -> u64 {
        count + self.max_iters.saturating_sub(1) * self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_select_charges_the_costlier_arm_and_is_exact_only_when_they_agree() {
        assert_eq!(select(7, 10), (10, false));
        assert_eq!(select(10, 7), (10, false));
        assert_eq!(select(9, 9), (9, true));
    }

    #[test]
    fn a_loop_bound_charges_every_iteration_at_the_costliest() {
        // Entered at 5; the generic iteration fell through at 12 or 15 and
        // dropped at 9.
        let bound = LoopBound::new(5, 10, [12, 15, 9]);
        assert_eq!(bound.exit(), 5 + 10 * 10);
        assert_eq!(bound.inside(9), 9 + 9 * 10);
        // A loop whose body never ran adds nothing.
        let empty = LoopBound::new(5, 10, []);
        assert_eq!((empty.exit(), empty.inside(6)), (5, 6));
    }
}

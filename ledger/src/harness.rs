//! The measuring loop: one thread, closed loop, one client.
//!
//! A run sets the workload up [`Workload::SET_UPS`] times (the last one stays),
//! then executes whole rounds of the workload's fixed op list, timing each
//! op between two reference probes and checking its output outside the
//! timed region.

use crate::clock::{Meter, TimeSource, Timed};
use crate::stats;

/// Times the steps of a set-up, each between its own probes, so a speed
/// flip in the middle of a two-second set-up is corrected where it
/// happened.
pub struct Steps<'m, T: TimeSource> {
    meter: &'m mut Meter<T>,
    pub timed: Vec<(&'static str, Timed)>,
}

impl<'m, T: TimeSource> Steps<'m, T> {
    pub fn new(meter: &'m mut Meter<T>) -> Self {
        meter.break_chain();
        Steps {
            meter,
            timed: Vec::new(),
        }
    }

    pub fn step<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let (result, timed) = self.meter.time(call);
        self.timed.push((name, timed));
        result
    }

    /// `(step name, calls, raw seconds)` in first-call order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64)> {
        let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
        for (name, timed) in &self.timed {
            let seconds = timed.raw_ns as f64 / 1e9;
            match rows.iter_mut().find(|row| row.0 == *name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += seconds;
                }
                None => rows.push((name, 1, seconds)),
            }
        }
        rows
    }

    pub fn raw_s(&self) -> f64 {
        self.timed.iter().map(|(_, t)| t.raw_ns as f64).sum::<f64>() / 1e9
    }

    pub fn corrected_s(&self) -> f64 {
        self.timed
            .iter()
            .map(|(_, t)| t.corrected_ns())
            .sum::<f64>()
            / 1e9
    }
}

/// One of the benchmark's workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops in one round of the fixed op list; windows are whole rounds.
    const ROUND_LEN: usize;
    /// What one op takes on the code this benchmark was written against,
    /// at nominal host speed. It only sizes the window: the op count of a
    /// run is a function of `--seconds` alone, so counts and memory repeat
    /// exactly from run to run and from commit to commit.
    const NOMINAL_OP_MS: f64;
    /// Set-ups per run; `setup_s` is their median. Several, because a
    /// two-second set-up timed once is at the mercy of whatever else the
    /// host did in those two seconds.
    const SET_UPS: usize = 3;
    /// Whether op and set-up times are speed-corrected. Not so for a
    /// workload that spans processes and waits on kernel timers.
    const CORRECTED: bool;
    /// What an op hands to its check.
    type Out;

    /// Generate the inputs for `ops` ops from `seed`, compute the
    /// reference answers, start whatever the ops talk to, and warm up.
    /// An input that breaks the verdict table is an `Err`: it fails the
    /// run, not an op. Whatever is started here is stopped, and waited
    /// for, when the workload is dropped.
    fn set_up<T: TimeSource>(seed: u64, ops: usize, steps: &mut Steps<T>) -> Result<Self, String>;

    /// Op `index` of the window — the timed region.
    fn op(&mut self, index: usize) -> Self::Out;

    /// Whether op `index` produced the right output — untimed.
    fn check(&mut self, index: usize, out: Self::Out) -> Result<(), String>;

    /// Peak resident memory of every process the workload ran in, MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::rss::peak_rss_mb(std::process::id()).unwrap_or(0.0)
    }
}

/// Ops in a window of `seconds`: whole rounds, at least one.
pub fn window_ops<W: Workload>(seconds: f64) -> usize {
    let ops = seconds * 1000.0 / W::NOMINAL_OP_MS;
    let rounds = (ops / W::ROUND_LEN as f64).round().max(1.0) as usize;
    rounds * W::ROUND_LEN
}

/// What a window measured.
pub struct Window {
    pub timed: Vec<Timed>,
    /// `(op index, why)` of every failed op.
    pub failures: Vec<(usize, String)>,
}

impl Window {
    pub fn attempted(&self) -> usize {
        self.timed.len()
    }

    /// Durations of the ops that passed their check, in ms.
    fn ok_ms(&self, corrected: bool) -> Vec<f64> {
        self.timed
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.failures.iter().any(|(failed, _)| failed == i))
            .map(|(_, t)| {
                if corrected {
                    t.corrected_ns() / 1e6
                } else {
                    t.raw_ns as f64 / 1e6
                }
            })
            .collect()
    }

    pub fn summary(&self, corrected: bool) -> OpSummary {
        let ms = self.ok_ms(corrected);
        if ms.is_empty() {
            return OpSummary::default();
        }
        let sorted = stats::sorted(&ms);
        let tail = stats::supported_tail(sorted.len());
        OpSummary {
            samples: sorted.len(),
            ops_per_s: sorted.len() as f64 / (sorted.iter().sum::<f64>() / 1e3),
            p50_ms: stats::quantile(&sorted, 0.5),
            p90_ms: stats::quantile(&sorted, 0.9),
            tail: tail.map(|p| (p, stats::quantile(&sorted, p / 100.0))),
            max_ms: sorted[sorted.len() - 1],
        }
    }
}

/// The op statistics of a window, over the ops that passed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpSummary {
    pub samples: usize,
    /// Ok ops ÷ the sum of their durations (not ÷ wall time: probes and
    /// checks sit between ops).
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// The highest percentile with ≥ 10 samples beyond, and its value.
    pub tail: Option<(f64, f64)>,
    pub max_ms: f64,
}

/// Run `ops` ops of `workload`, each timed between probes and checked
/// outside the timed region.
pub fn run_window<W: Workload, T: TimeSource>(
    workload: &mut W,
    meter: &mut Meter<T>,
    ops: usize,
) -> Window {
    assert_eq!(ops % W::ROUND_LEN, 0, "windows are whole rounds");
    let mut window = Window {
        timed: Vec::with_capacity(ops),
        failures: Vec::new(),
    };
    meter.break_chain();
    for index in 0..ops {
        let (out, timed) = meter.time(|| workload.op(index));
        window.timed.push(timed);
        if let Err(why) = workload.check(index, out) {
            window.failures.push((index, why));
        }
    }
    window
}

/// `ref.slow_share`: the share of probes more than 1.1× the fastest
/// decile — how much of the run the host spent in its slow regime.
pub fn slow_share(probes: &[u64]) -> f64 {
    if probes.is_empty() {
        return 0.0;
    }
    let as_f64: Vec<f64> = probes.iter().map(|&p| p as f64).collect();
    let fast = stats::quantile(&stats::sorted(&as_f64), 0.1);
    as_f64.iter().filter(|&&p| p > fast * 1.1).count() as f64 / as_f64.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::fake::FakeTime;

    /// Ops cost `cost(index)` nominal ns; op 3 of every round fails.
    struct Scripted {
        clock: FakeTime,
    }

    fn cost(index: usize) -> u64 {
        5_000_000 + 1_000_000 * (index % 4) as u64
    }

    impl Workload for Scripted {
        const NAME: &'static str = "scripted";
        const ROUND_LEN: usize = 4;
        const NOMINAL_OP_MS: f64 = 6.5;
        const CORRECTED: bool = true;
        type Out = usize;

        fn set_up<T: TimeSource>(_: u64, _: usize, _: &mut Steps<T>) -> Result<Self, String> {
            unreachable!("tests build the workload around their clock")
        }

        fn op(&mut self, index: usize) -> usize {
            self.clock.work(cost(index));
            index
        }

        fn check(&mut self, index: usize, out: usize) -> Result<(), String> {
            assert_eq!(index, out);
            if index % 4 == 3 {
                Err("planted".into())
            } else {
                Ok(())
            }
        }
    }

    fn summary_at(scale: f64, ops: usize) -> (OpSummary, usize) {
        let clock = FakeTime::new(scale);
        let mut meter = Meter::new(clock.clone());
        let mut workload = Scripted { clock };
        let window = run_window(&mut workload, &mut meter, ops);
        (window.summary(true), window.failures.len())
    }

    #[test]
    fn windows_are_whole_rounds_sized_by_seconds_alone() {
        assert_eq!(window_ops::<Scripted>(1.0), 152);
        assert_eq!(window_ops::<Scripted>(0.001), 4);
        assert_eq!(window_ops::<Scripted>(30.0) % 4, 0);
    }

    #[test]
    fn a_slower_host_reports_the_same_named_metrics() {
        let (fast, failed_fast) = summary_at(1.0, 400);
        let (slow, failed_slow) = summary_at(1.25, 400);
        assert_eq!(failed_fast, 100);
        assert_eq!(failed_slow, 100);
        assert_eq!(fast.samples, 300);
        assert_eq!(fast.p50_ms, 6.0);
        assert_eq!(fast.p90_ms, 7.0);
        assert_eq!(fast.tail, Some((95.0, 7.0)));
        assert!((fast.ops_per_s - 1000.0 / 6.0).abs() < 1e-9);
        let close = |a: f64, b: f64| (a - b).abs() / a < 1e-6;
        assert!(close(fast.p50_ms, slow.p50_ms));
        assert!(close(fast.p90_ms, slow.p90_ms));
        assert!(close(fast.ops_per_s, slow.ops_per_s));
    }

    #[test]
    fn failed_ops_are_counted_but_not_timed_into_the_summary() {
        let (summary, failed) = summary_at(1.0, 8);
        assert_eq!(failed, 2);
        assert_eq!(summary.samples, 6);
        assert_eq!(summary.max_ms, 7.0);
        assert_eq!(summary.tail, None);
    }

    #[test]
    fn set_up_steps_are_corrected_one_by_one() {
        let clock = FakeTime::new(1.0);
        let mut meter = Meter::new(clock.clone());
        let mut steps = Steps::new(&mut meter);
        steps.step("generate", || clock.work(1_000_000_000));
        *clock.scale.borrow_mut() = 1.25;
        // The probe shared with the first step still ran at full speed,
        // so this step is bracketed by one fast and one slow probe.
        steps.step("warm up", || clock.work(1_000_000_000));
        steps.step("reference", || clock.work(1_000_000_000));
        assert!((steps.raw_s() - 3.5).abs() < 1e-9);
        let expected = 1.0 + 1.25 / 1.125 + 1.0;
        assert!((steps.corrected_s() - expected).abs() < 1e-6);
    }

    #[test]
    fn slow_share_counts_probes_above_the_fast_decile() {
        let mut probes = vec![250_000u64; 80];
        probes.extend(vec![310_000u64; 20]);
        assert_eq!(slow_share(&probes), 0.2);
        assert_eq!(slow_share(&[250_000; 10]), 0.0);
        assert_eq!(slow_share(&[]), 0.0);
    }
}

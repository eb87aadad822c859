//! Speed-corrected timing.
//!
//! The benchmark host flips between speed regimes that each last seconds
//! to minutes (README, "What was wrong"), so a raw duration says as much
//! about the host as about the code. Every timed call is therefore
//! bracketed by a fixed reference kernel, and the duration is rescaled to
//! what it would have been had the kernel taken its nominal time:
//! `corrected = raw × REF_NOMINAL_NS / mean(probe_before, probe_after)`.
//!
//! Time comes through [`TimeSource`] so the arithmetic is testable against
//! a scripted clock.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one probe is *defined* to take. The kernel's round count is sized
/// so that this is about what it really takes in the host's fast regime;
/// the value only fixes the unit of corrected time.
pub const REF_NOMINAL_NS: u64 = 250_000;

/// Rounds of one half of a probe (≈ 0.52 µs per round in the fast regime
/// of the reference host).
pub const REF_HALF_ROUNDS: usize = 240;

/// The reference kernel: allocate eight small strings, format a number
/// into each, index them in a `BTreeMap`, drop everything — `rounds`
/// times over. Standard library only, so no commit of this repository
/// changes it.
///
/// Why not a pure-ALU loop, which is what the first version used: the
/// slow regime slows code that touches memory more than it slows a
/// register-only dependent chain, and every workload here touches memory.
/// Over 400 s of `packet_conform` and of `reverify_warm` with all
/// candidate probes interleaved, the spread of 15-second median op times
/// was 9.9 % / 3.9 % raw, 8.3 % / 3.4 % corrected by a splitmix64 chain,
/// 5.7 % / 2.6 % by an ALU-plus-L1-table mix, and 2.9 % / 2.1 % by this
/// kernel (90th percentiles: 19.5 % / 19.5 % raw, 16.9 % / 17.0 % by the
/// chain, 9.3 % / 5.3 % by this kernel).
pub fn reference_kernel(rounds: usize) -> usize {
    let mut total = 0;
    for round in 0..rounds {
        let names: Vec<String> = (0..8).map(|k| format!("{round}-{k}")).collect();
        let index: BTreeMap<&str, usize> = names.iter().map(|n| (n.as_str(), n.len())).collect();
        total += index.len() + index.values().sum::<usize>();
    }
    total
}

/// Where durations come from: the host clock, or a script in tests.
pub trait TimeSource {
    /// Nanoseconds since an arbitrary origin.
    fn now_ns(&mut self) -> u64;
    /// Run the reference kernel once and return how long it took.
    fn probe_ns(&mut self) -> u64;
}

/// The host's monotonic clock and the real reference kernel.
pub struct HostTime {
    origin: Instant,
}

impl HostTime {
    pub fn new() -> Self {
        HostTime {
            origin: Instant::now(),
        }
    }
}

impl Default for HostTime {
    fn default() -> Self {
        HostTime::new()
    }
}

impl TimeSource for HostTime {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Two half-length kernels, twice the faster one: an interrupt that
    /// lands in one half does not pass for a slow host.
    fn probe_ns(&mut self) -> u64 {
        let half = || {
            let start = Instant::now();
            black_box(reference_kernel(black_box(REF_HALF_ROUNDS)));
            start.elapsed().as_nanos() as u64
        };
        (2 * half().min(half())).max(1)
    }
}

/// One timed call: when it started, how long it took, and the two probes
/// around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    pub start_ns: u64,
    pub raw_ns: u64,
    pub probe_before_ns: u64,
    pub probe_after_ns: u64,
}

impl Timed {
    /// The factor that rescales a raw duration measured between the two
    /// probes to nominal host speed.
    pub fn factor(&self) -> f64 {
        let mean = (self.probe_before_ns as f64 + self.probe_after_ns as f64) / 2.0;
        REF_NOMINAL_NS as f64 / mean
    }

    pub fn corrected_ns(&self) -> f64 {
        self.raw_ns as f64 * self.factor()
    }
}

/// Times calls on the measuring thread. Consecutive calls share a probe:
/// the probe after call *i* is the probe before call *i + 1*, so a window
/// of *n* ops costs *n + 1* probes.
pub struct Meter<T: TimeSource> {
    time: T,
    carried: Option<u64>,
    probes: Vec<u64>,
}

impl<T: TimeSource> Meter<T> {
    pub fn new(time: T) -> Self {
        Meter {
            time,
            carried: None,
            probes: Vec::new(),
        }
    }

    fn probe(&mut self) -> u64 {
        let ns = self.time.probe_ns();
        self.probes.push(ns);
        ns
    }

    /// Forget the carried probe: the next call probes afresh. Call after
    /// untimed work long enough for the host to have changed speed.
    pub fn break_chain(&mut self) {
        self.carried = None;
    }

    /// Time one call between two probes.
    pub fn time<R>(&mut self, call: impl FnOnce() -> R) -> (R, Timed) {
        let probe_before_ns = match self.carried.take() {
            Some(ns) => ns,
            None => self.probe(),
        };
        let start_ns = self.time.now_ns();
        let result = call();
        let raw_ns = self.time.now_ns() - start_ns;
        let probe_after_ns = self.probe();
        self.carried = Some(probe_after_ns);
        (
            result,
            Timed {
                start_ns,
                raw_ns,
                probe_before_ns,
                probe_after_ns,
            },
        )
    }

    /// Every probe taken so far, in order.
    pub fn probes(&self) -> &[u64] {
        &self.probes
    }
}

#[cfg(test)]
pub mod fake {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A scripted clock: the test advances it by the nominal cost of the
    /// work it pretends to do, and the clock stretches every advance —
    /// probes included — by the host-speed `scale` in force.
    #[derive(Clone)]
    pub struct FakeTime {
        pub now: Rc<RefCell<u64>>,
        pub scale: Rc<RefCell<f64>>,
    }

    impl FakeTime {
        pub fn new(scale: f64) -> Self {
            FakeTime {
                now: Rc::new(RefCell::new(0)),
                scale: Rc::new(RefCell::new(scale)),
            }
        }

        /// Pretend to do `nominal_ns` of work.
        pub fn work(&self, nominal_ns: u64) {
            let scaled = (nominal_ns as f64 * *self.scale.borrow()).round() as u64;
            *self.now.borrow_mut() += scaled;
        }
    }

    impl TimeSource for FakeTime {
        fn now_ns(&mut self) -> u64 {
            *self.now.borrow()
        }

        fn probe_ns(&mut self) -> u64 {
            let before = *self.now.borrow();
            self.work(REF_NOMINAL_NS);
            *self.now.borrow() - before
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fake::FakeTime;
    use super::*;

    fn corrected_ops(scale: f64, costs: &[u64]) -> Vec<f64> {
        let clock = FakeTime::new(scale);
        let mut meter = Meter::new(clock.clone());
        costs
            .iter()
            .map(|&cost| meter.time(|| clock.work(cost)).1.corrected_ns())
            .collect()
    }

    #[test]
    fn a_uniformly_slower_host_leaves_corrected_time_unchanged() {
        let costs = [8_000_000, 17_000_000, 260_000_000, 90_000_000];
        let fast = corrected_ops(1.0, &costs);
        let slow = corrected_ops(1.25, &costs);
        for ((fast, slow), cost) in fast.iter().zip(&slow).zip(costs) {
            assert!((fast - cost as f64).abs() < 1.0, "{fast} vs {cost}");
            assert!((slow - fast).abs() / fast < 1e-6, "{slow} vs {fast}");
        }
    }

    #[test]
    fn a_regime_flip_mid_op_is_corrected_by_the_mean_of_both_probes() {
        let clock = FakeTime::new(1.0);
        let mut meter = Meter::new(clock.clone());
        let (_, timed) = meter.time(|| {
            clock.work(1_000_000);
            *clock.scale.borrow_mut() = 1.5;
            clock.work(1_000_000);
        });
        assert_eq!(timed.raw_ns, 2_500_000);
        assert_eq!(timed.probe_before_ns, REF_NOMINAL_NS);
        assert_eq!(timed.probe_after_ns, REF_NOMINAL_NS * 3 / 2);
        assert!((timed.corrected_ns() - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn consecutive_calls_share_a_probe() {
        let clock = FakeTime::new(1.0);
        let mut meter = Meter::new(clock.clone());
        for _ in 0..5 {
            meter.time(|| clock.work(1_000));
        }
        assert_eq!(meter.probes().len(), 6);
        meter.break_chain();
        meter.time(|| clock.work(1_000));
        assert_eq!(meter.probes().len(), 8);
    }

    #[test]
    fn the_reference_kernel_does_work_proportional_to_its_round_count() {
        // Eight entries a round, plus the length of "r-k" for each.
        assert_eq!(reference_kernel(10), 10 * (8 + 8 * 3));
        assert_eq!(reference_kernel(100), 10 * 32 + 90 * (8 + 8 * 4));
    }
}

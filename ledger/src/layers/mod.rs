//! The traced run: per-layer metrics, measured from outside.
//!
//! End-to-end numbers always come from the untraced run. A traced run of
//! workload W opens a quarter-length window of W twice: once exactly as
//! the untraced run does, and once with every op followed by its *staged
//! replica* — the same request rebuilt from public calls into each layer,
//! each call under a span. A replica is valid only if the deterministic
//! report it arrives at is byte-identical to the served one. The other
//! three workloads then run a few traced ops each, so that every
//! per-layer metric has a value whichever workload was asked for.
//!
//! * `service.unattributed_ms` = op − Σ staged spans, on W;
//! * `trace.overhead_pct` = how much slower W's median op is when replicas
//!   run between ops (the spans themselves are two clock reads).

use crate::clock::{Meter, TimeSource};
use crate::harness::{run_window, slow_share, window_ops, Steps, Workload};
use crate::metrics::PER_LAYER;
use crate::run::{Metric, RunResult};
use crate::stats;
use crate::trace::Trace;
use std::time::Duration;
use vericlick::orchestrator::{
    CacheStats, MatrixReport, ScenarioReport, ServiceError, VerifyResponse,
};

pub mod cold;
pub mod conform;
pub mod fleet;
pub mod warm;

/// A workload whose op can be rebuilt from public calls.
pub trait Traced: Workload {
    /// Traced ops this workload runs when another workload was asked for.
    const SIDE_OPS: usize;

    /// Layer probes that are not stages of an op, and whatever state the
    /// replica needs. Runs once, before the traced window.
    fn prepare<T: TimeSource>(
        &mut self,
        meter: &mut Meter<T>,
        trace: &mut Trace,
    ) -> Result<(), String>;

    /// Record what only the served op's output shows (a fleet's dispatch
    /// counters ride the reply).
    fn observe(&self, _out: &Self::Out, _trace: &mut Trace) {}

    /// The text a served op and its replica must agree on byte for byte.
    fn served_text(&self, out: &Self::Out) -> Result<String, String>;

    /// The staged replica of op `index`: every layer call under a span,
    /// returning the text it arrives at.
    fn replica(&mut self, index: usize, trace: &mut Trace) -> Result<String, String>;
}

/// A matrix report around staged `reports`. Only the scenario reports
/// reach the deterministic text a replica is judged by; the operational
/// fields are placeholders.
pub fn staged_matrix(reports: Vec<ScenarioReport>) -> MatrixReport {
    MatrixReport {
        scenarios: reports,
        explore_jobs: 0,
        cached_jobs: 0,
        threads: 1,
        peak_live_threads: 0,
        cache: CacheStats::default(),
        stats: None,
        elapsed: Duration::ZERO,
    }
}

/// The deterministic text of an in-process response.
pub fn response_text(out: &Result<VerifyResponse, ServiceError>) -> Result<String, String> {
    out.as_ref()
        .map(|response| response.deterministic_json().to_text())
        .map_err(|e| e.to_string())
}

/// What a traced window found.
struct TracedWindow {
    /// Duration of each traced op, ms (corrected where the workload is).
    op_ms: Vec<f64>,
    /// Op minus the sum of its replica's staged spans, ms.
    unattributed_ms: Vec<f64>,
    failures: Vec<(usize, String)>,
}

/// Traced ops `first .. first + ops` of `workload`: op, check, replica,
/// compare.
fn traced_window<W: Traced, T: TimeSource>(
    workload: &mut W,
    meter: &mut Meter<T>,
    trace: &mut Trace,
    first: usize,
    ops: usize,
) -> Result<TracedWindow, String> {
    let mut window = TracedWindow {
        op_ms: Vec::with_capacity(ops),
        unattributed_ms: Vec::with_capacity(ops),
        failures: Vec::new(),
    };
    meter.break_chain();
    for index in first..first + ops {
        let request = trace.begin_request();
        let (out, op_timed) = meter.time(|| trace.span("op", |_| workload.op(index)));
        let served = workload.served_text(&out);
        workload.observe(&out, trace);
        if let Err(why) = workload.check(index, out) {
            window.failures.push((index, why));
        }
        let (replica, replica_timed) =
            meter.time(|| trace.span("replica", |t| workload.replica(index, t)));
        trace.set_factor(request, replica_timed.factor());
        let replica = replica.map_err(|why| format!("{} replica of op {index}: {why}", W::NAME))?;
        // An op that failed to produce a report has already failed its
        // check; there is nothing to hold the replica against.
        if served.is_ok_and(|served| served != replica) {
            return Err(format!(
                "{}: the staged replica of op {index} is not byte-identical to the served report",
                W::NAME
            ));
        }
        let op_ns = if W::CORRECTED {
            op_timed.corrected_ns()
        } else {
            op_timed.raw_ns as f64
        };
        window.op_ms.push(op_ns / 1e6);
        window
            .unattributed_ms
            .push((op_ns - trace.staged_ns(request, "replica")) / 1e6);
    }
    Ok(window)
}

/// Set `W` up once, run its layer probes, and trace some of its ops: a
/// quarter-length window if it is the workload that was `asked` for —
/// after the same window untraced, to tell what tracing costs — and
/// [`Traced::SIDE_OPS`] otherwise. Adds to the `(attempted, failed)`
/// totals.
fn trace_workload<W: Traced, T: TimeSource>(
    asked: &str,
    seed: u64,
    seconds: f64,
    meter: &mut Meter<T>,
    trace: &mut Trace,
    totals: &mut (usize, usize),
) -> Result<(), String> {
    let main = asked == W::NAME;
    let ops = if main {
        window_ops::<W>(seconds / 4.0)
    } else {
        W::SIDE_OPS
    };
    let mut steps = Steps::new(meter);
    let mut workload = W::set_up(seed, ops * 2, &mut steps)?;
    let untraced = main.then(|| run_window(&mut workload, meter, ops));
    workload.prepare(meter, trace)?;
    // The traced ops continue where the untraced ones stopped, so a
    // workload whose ops consume a script never sees a tick twice.
    let first = if main { ops } else { 0 };
    let traced = traced_window(&mut workload, meter, trace, first, ops)?;
    let busy = stats::median(&traced.op_ms);
    trace.value(W::NAME, busy);
    let mut failures = traced.failures;
    totals.0 += ops;
    if let Some(untraced) = untraced {
        let quiet = untraced.summary(W::CORRECTED).p50_ms;
        let unattributed = stats::median(&traced.unattributed_ms);
        trace.value("trace.overhead_pct", (busy - quiet) / quiet * 100.0);
        trace.value("service.unattributed_ms", unattributed);
        println!(
            "  {}: op_ms p50 untraced {quiet:.3}, traced {busy:.3}; staged spans cover {:.1} % of the op",
            W::NAME,
            100.0 - unattributed / busy * 100.0
        );
        failures.extend(untraced.failures);
        totals.0 += ops;
    }
    for (index, why) in failures.iter().take(5) {
        println!("  {} op {index} failed: {why}", W::NAME);
    }
    totals.1 += failures.len();
    Ok(())
}

/// The traced run of workload `asked`: every per-layer metric.
pub fn run_traced(asked: &str, seed: u64, seconds: f64) -> Result<(RunResult, Trace), String> {
    use crate::clock::HostTime;
    use crate::workloads::{
        fleet_roundtrip::FleetRoundtrip, packet_conform::PacketConform,
        reverify_warm::ReverifyWarm, verify_cold::VerifyCold,
    };
    let mut meter = Meter::new(HostTime::new());
    let mut trace = Trace::new();
    let mut totals = (0, 0);
    println!("trace of {asked}: seed {seed}");
    trace_workload::<VerifyCold, _>(asked, seed, seconds, &mut meter, &mut trace, &mut totals)?;
    trace_workload::<ReverifyWarm, _>(asked, seed, seconds, &mut meter, &mut trace, &mut totals)?;
    trace_workload::<FleetRoundtrip, _>(asked, seed, seconds, &mut meter, &mut trace, &mut totals)?;
    trace_workload::<PacketConform, _>(asked, seed, seconds, &mut meter, &mut trace, &mut totals)?;

    // What the daemon adds to a request its worker fleet executes.
    let through_daemon = trace.metric(FleetRoundtrip::NAME).unwrap_or(0.0);
    let on_the_fleet = trace.metric("exec.fleet_request_ms").unwrap_or(0.0);
    trace.value("daemon.overhead_ms", through_daemon - on_the_fleet);

    let probes: Vec<f64> = meter.probes().iter().map(|&p| p as f64).collect();
    trace.value("ref.probe_ns_p50", stats::median(&probes));
    trace.value("ref.slow_share", slow_share(meter.probes()));

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for layer in &PER_LAYER {
        let value = trace
            .metric(layer.name)
            .ok_or_else(|| format!("the trace has no value for {}", layer.name))?;
        println!("  {:<32} {:>14.3} {}", layer.name, value, layer.unit);
        metrics.push(Metric {
            name: layer.name,
            value,
            unit: layer.unit,
        });
    }
    Ok((
        RunResult {
            attempted: totals.0,
            failed: totals.1,
            metrics,
        },
        trace,
    ))
}

//! One benchmark run: set up, measure, print.

use crate::clock::{HostTime, Meter};
use crate::harness::{run_window, slow_share, window_ops, Steps, Workload};
use crate::metrics::END_TO_END;
use crate::stats;

/// A named number with its unit, as the result line prints it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: every end-to-end metric comes from here.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let ops = window_ops::<W>(seconds);
    let mut meter = Meter::new(HostTime::new());

    let mut setups_s = Vec::with_capacity(W::SET_UPS);
    let mut setups_raw_s = Vec::with_capacity(W::SET_UPS);
    let mut workload = None;
    let mut last_steps = Vec::new();
    for _ in 0..W::SET_UPS {
        // Stop what the previous set-up started before starting it anew.
        drop(workload.take());
        let mut steps = Steps::new(&mut meter);
        workload = Some(W::set_up(seed, ops, &mut steps)?);
        last_steps = steps.by_name();
        setups_raw_s.push(steps.raw_s());
        setups_s.push(if W::CORRECTED {
            steps.corrected_s()
        } else {
            steps.raw_s()
        });
    }
    let mut workload = workload.expect("at least one set-up");

    let window = run_window(&mut workload, &mut meter, ops);
    let peak_rss_mb = workload.peak_rss_mb();
    drop(workload);

    let named = window.summary(W::CORRECTED);
    let raw = window.summary(false);
    println!(
        "{}: seed {seed}, {ops} ops in whole rounds of {}, {} set-ups",
        W::NAME,
        W::ROUND_LEN,
        W::SET_UPS
    );
    println!(
        "  attempted {}  failed {}  samples {}",
        window.attempted(),
        window.failures.len(),
        named.samples
    );
    for (index, why) in window.failures.iter().take(5) {
        println!("  op {index} failed: {why}");
    }
    let timing = if W::CORRECTED { "corrected" } else { "wall" };
    println!(
        "  {timing}: ops_per_s {:.3}  op_ms p50 {:.3}  p90 {:.3}  max {:.3}",
        named.ops_per_s, named.p50_ms, named.p90_ms, named.max_ms
    );
    println!(
        "  raw:       ops_per_s {:.3}  op_ms p50 {:.3}  p90 {:.3}  max {:.3}",
        raw.ops_per_s, raw.p50_ms, raw.p90_ms, raw.max_ms
    );
    match named.tail {
        Some((p, ms)) => println!(
            "  tail: p{p} = {ms:.3} ms is the highest percentile with >= 10 samples beyond"
        ),
        None => println!("  tail: fewer than 40 samples, no percentile has 10 samples beyond"),
    }
    // Ops at the same position of every round do the same kind of work;
    // their medians show how homogeneous the op list is.
    let by_position: Vec<String> = (0..W::ROUND_LEN)
        .map(|position| {
            let ms: Vec<f64> = window
                .timed
                .iter()
                .skip(position)
                .step_by(W::ROUND_LEN)
                .map(|t| if W::CORRECTED { t.corrected_ns() } else { t.raw_ns as f64 } / 1e6)
                .collect();
            format!("{:.3}", stats::median(&ms))
        })
        .collect();
    println!("  op_ms p50 by round position: {}", by_position.join(" "));
    println!("  setup_s {timing} {:?}  raw {:?}", setups_s, setups_raw_s);
    let steps: Vec<String> = last_steps
        .iter()
        .map(|(name, count, raw_s)| format!("{name} x{count} {raw_s:.3}s"))
        .collect();
    println!("  last set-up, raw: {}", steps.join(", "));
    let probes: Vec<f64> = meter.probes().iter().map(|&p| p as f64).collect();
    println!(
        "  ref.probe_ns_p50 {:.0}  ref.slow_share {:.3}  ({} probes)",
        stats::median(&probes),
        slow_share(meter.probes()),
        probes.len()
    );

    Ok(RunResult {
        attempted: window.attempted(),
        failed: window.failures.len(),
        metrics: END_TO_END
            .iter()
            .map(|metric| Metric {
                name: metric.name,
                unit: metric.unit,
                value: match metric.name {
                    "ops_per_s" => named.ops_per_s,
                    "op_ms_p50" => named.p50_ms,
                    "op_ms_p90" => named.p90_ms,
                    "setup_s" => stats::median(&setups_s),
                    "peak_rss_mb" => peak_rss_mb,
                    other => unreachable!("no measurement for end-to-end metric {other}"),
                },
            })
            .collect(),
    })
}

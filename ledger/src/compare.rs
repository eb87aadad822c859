//! `ledger compare A.jsonl B.jsonl`: two sets of recorded runs, judged
//! metric by metric against the benchmark's bounds.
//!
//! Each file holds one record per line, as `--record` appends them. Used
//! for the A/A criterion (two sets of the same commit must show no
//! `worse`) and by later PRs that claim a gain or must show no regression.

use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::minijson::{self, Value};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// A's own runs are spread wider than the bound: the sets cannot
    /// resolve a change of the size the bound forbids.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's runs of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient everything so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse_by = sign * (median_b - median_a) / median_a;
    let spread_a = if a.len() >= 2 {
        stats::quartile_spread(a)
    } else {
        0.0
    };
    let every_b_beats_every_a = {
        let worst_b = b.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        worst_b < best_a
    };
    if spread_a > bound {
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread_a && -worse_by > 0.0 && every_b_beats_every_a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The recorded runs of one file: workload → metric → one value per run,
/// plus attempted and failed op totals per workload.
#[derive(Default)]
pub struct RunSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed: BTreeMap<String, (f64, f64)>,
}

/// Read a record file. Only untraced runs carry end-to-end metrics;
/// traced records are skipped.
pub fn read_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = minijson::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let missing = |what: &str| format!("line {}: no {what}", number + 1);
        let trace = record
            .get("trace")
            .and_then(Value::as_f64)
            .ok_or_else(|| missing("trace"))?;
        if trace != 0.0 {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| missing("workload"))?;
        let result = record.get("result").ok_or_else(|| missing("result"))?;
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| missing(key))
        };
        let totals = set.failed.entry(workload.to_string()).or_default();
        totals.0 += count("attempted")?;
        totals.1 += count("failed")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| missing("metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("metric value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// The comparison table and whether anything is `worse` (or B failed ops).
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    out.push_str(&format!(
        "{:<16} {:<12} {:>4} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>7} {:>7}  {}\n",
        "workload",
        "metric",
        "runs",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "change",
        "bound",
        "verdict"
    ));
    for (workload, _) in WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let verdict = judge(va, vb, metric.better, metric.bound);
            any_worse |= verdict == Verdict::Worse;
            let quartiles = |v: &[f64]| {
                if v.len() >= 2 {
                    stats::quartiles(v)
                } else {
                    (v[0], v[0])
                }
            };
            let ((a1, a3), (b1, b3)) = (quartiles(va), quartiles(vb));
            let (ma, mb) = (stats::median(va), stats::median(vb));
            out.push_str(&format!(
                "{:<16} {:<12} {:>2}/{:<2}{:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>+6.1}% {:>6.1}%  {}\n",
                workload,
                metric.name,
                va.len(),
                vb.len(),
                a1,
                ma,
                a3,
                b1,
                mb,
                b3,
                (mb - ma) / ma * 100.0,
                metric.bound * 100.0,
                verdict.as_str()
            ));
        }
        for (side, set) in [("A", a), ("B", b)] {
            if let Some((attempted, failed)) = set.failed.get(workload) {
                out.push_str(&format!(
                    "{workload:<16} ops          {side}: {failed} of {attempted} failed\n"
                ));
                any_worse |= side == "B" && *failed > 0.0;
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn a_change_beyond_the_bound_is_worse_in_the_metrics_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [109.0, 110.0, 108.0, 109.5, 108.5];
        assert_eq!(judge(&a, &slower, LOWER, 0.07), Verdict::Worse);
        assert_eq!(judge(&a, &slower, LOWER, 0.10), Verdict::Same);
        // The same numbers as a throughput are an improvement.
        assert_eq!(judge(&a, &slower, HIGHER, 0.07), Verdict::Better);
        assert_eq!(judge(&slower, &a, HIGHER, 0.07), Verdict::Worse);
    }

    #[test]
    fn better_needs_every_run_to_win_by_more_than_as_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [95.0, 96.0, 94.0, 95.5, 94.5];
        assert_eq!(judge(&a, &faster, LOWER, 0.07), Verdict::Better);
        let overlapping = [98.9, 99.2, 98.5, 99.1, 99.3];
        assert_eq!(judge(&a, &overlapping, LOWER, 0.07), Verdict::Same);
        assert_eq!(judge(&a, &a, LOWER, 0.07), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [100.0, 120.0, 90.0, 110.0, 95.0];
        let worse = [130.0, 131.0, 129.0, 130.0, 130.0];
        assert_eq!(judge(&noisy, &worse, LOWER, 0.07), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &noisy, LOWER, 0.07), Verdict::Unresolved);
        let far_better = [50.0, 51.0, 49.0, 50.0, 50.0];
        assert_eq!(judge(&noisy, &far_better, LOWER, 0.07), Verdict::Better);
    }

    fn record(workload: &str, trace: u8, failed: u32, p50: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"seconds\": 15, \"trace\": {trace}, \
             \"result\": {{\"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \
             \"metrics\": {{\"op_ms_p50\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}}}\n",
            failed == 0
        )
    }

    #[test]
    fn record_files_compare_per_workload_and_metric() {
        let a: String = [250.0, 251.0, 249.0]
            .iter()
            .map(|v| record("verify_cold", 0, 0, *v))
            .chain([record("verify_cold", 1, 0, 999.0)])
            .collect();
        let b: String = [350.0, 351.0, 349.0]
            .iter()
            .map(|v| record("verify_cold", 0, 0, *v))
            .collect();
        let (set_a, set_b) = (read_set(&a).unwrap(), read_set(&b).unwrap());
        let key = ("verify_cold".to_string(), "op_ms_p50".to_string());
        assert_eq!(
            set_a.values[&key],
            [250.0, 251.0, 249.0],
            "traced records are skipped"
        );
        let (table, worse) = compare(&set_a, &set_b);
        assert!(worse, "{table}");
        assert!(table.contains("worse"), "{table}");
        let (table, worse) = compare(&set_a, &set_a);
        assert!(!worse, "{table}");
        assert!(
            table.contains("same") && !table.contains("worse"),
            "{table}"
        );
    }

    #[test]
    fn failed_ops_on_the_b_side_fail_the_comparison() {
        let a = read_set(&record("packet_conform", 0, 0, 90.0)).unwrap();
        let b = read_set(&record("packet_conform", 0, 2, 90.0)).unwrap();
        assert!(compare(&a, &b).1);
        assert!(!compare(&b, &a).1);
        assert!(read_set("{\"workload\": 3}").is_err());
        assert!(read_set("not json").is_err());
    }
}

//! `bench_e2e compare A.json B.json`: B against A, per workload and
//! end-to-end metric, by the bounds in the metric table.

use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END};

/// Metrics that are counts made by the program: on one seed they repeat
/// exactly, so any difference is a change in behaviour, not noise.
const EXACT: [&str; 4] = [
    "agg_rx_tuples_per_ktuple",
    "agg_rx_bytes_per_tuple",
    "agg_work_per_ktuple",
    "bottleneck_work_per_ktuple",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// Not worse, but a side's quartile spread is wider than the bound,
    /// so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    /// Interquartile range as a share of the value; 0 when the file
    /// holds a single figure.
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    let delta = (b - a) / a.abs();
    match spec.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

pub fn judge(spec: &MetricSpec, a: Reading, b: Reading, same_seed: bool) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    let tolerance = if same_seed && EXACT.contains(&spec.name) {
        0.0
    } else {
        bound
    };
    if worsening(spec, a.value, b.value) > tolerance {
        Verdict::Worse
    } else if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("q1").and_then(Json::as_f64),
        m.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some(Reading { value, spread })
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"workloads\" array".to_string())
}

/// Prints the comparison; `Ok(true)` when no metric is worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    if !same_seed {
        println!("seeds differ: count metrics are compared by their bound, not exactly");
    }
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let mut all_ok = true;
    for wa in workloads(a)? {
        let name = wa
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from B  worse");
            all_ok = false;
            continue;
        };
        for spec in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(wa, spec.name), reading(wb, spec.name)) else {
                println!("{name:<16} {:<28} missing on one side  worse", spec.name);
                all_ok = false;
                continue;
            };
            let verdict = judge(spec, ra, rb, same_seed);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{name:<16} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                spec.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value.abs() * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
        let failed = |w: &Json| w.get("failed_ops_share").and_then(Json::as_f64);
        let (fa, fb) = (failed(wa).unwrap_or(0.0), failed(wb).unwrap_or(f64::NAN));
        let verdict = if fb <= fa {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{name:<16} {:<28} {fa:>14.4} {fb:>14.4} {:>8} {:>6}  {}",
            "failed_ops_share",
            "",
            "exact",
            verdict.as_str()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    /// A metric with a 10% bound, whatever the table currently says.
    fn spec(name: &'static str, better: Better) -> MetricSpec {
        MetricSpec {
            name,
            unit: "x",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn direction_and_bound_decide_worse() {
        let rate = &spec("tuples_per_s", Better::Higher);
        assert_eq!(
            judge(rate, at(100.0, 0.0), at(95.0, 0.0), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, at(100.0, 0.0), at(85.0, 0.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, at(100.0, 0.0), at(150.0, 0.0), true),
            Verdict::Ok
        );
        let cpu = &spec("cpu_s_per_mtuple", Better::Lower);
        assert_eq!(judge(cpu, at(1.0, 0.0), at(1.2, 0.0), true), Verdict::Worse);
        assert_eq!(judge(cpu, at(1.0, 0.0), at(0.5, 0.0), true), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let rate = &spec("tuples_per_s", Better::Higher);
        assert_eq!(
            judge(rate, at(100.0, 0.3), at(98.0, 0.01), true),
            Verdict::Unresolved
        );
        // Worse beats unresolved.
        assert_eq!(
            judge(rate, at(100.0, 0.3), at(50.0, 0.3), true),
            Verdict::Worse
        );
    }

    #[test]
    fn counts_compare_exactly_on_one_seed_only() {
        let rx = &spec("agg_rx_tuples_per_ktuple", Better::Lower);
        assert_eq!(
            judge(rx, at(10.0, 0.0), at(10.01, 0.0), true),
            Verdict::Worse
        );
        assert_eq!(judge(rx, at(10.0, 0.0), at(10.0, 0.0), true), Verdict::Ok);
        assert_eq!(judge(rx, at(10.0, 0.0), at(9.0, 0.0), true), Verdict::Ok);
        assert_eq!(judge(rx, at(10.0, 0.0), at(10.01, 0.0), false), Verdict::Ok);
    }

    #[test]
    fn compares_documents_and_flags_missing_workloads() {
        let doc = |rate: f64| {
            let metrics = Json::obj(END_TO_END.iter().map(|m| {
                let value = if m.name == "tuples_per_s" { rate } else { 1.0 };
                (m.name, Json::obj([("value", Json::Num(value))]))
            }));
            Json::obj([
                ("seed", Json::Num(1.0)),
                (
                    "workloads",
                    Json::Arr(vec![Json::obj([
                        ("workload", Json::str("agg_part_chan")),
                        ("failed_ops_share", Json::Num(0.0)),
                        ("metrics", metrics),
                    ])]),
                ),
            ])
        };
        assert_eq!(compare(&doc(100.0), &doc(99.0)), Ok(true));
        assert_eq!(compare(&doc(100.0), &doc(50.0)), Ok(false));
        let empty = Json::obj([("seed", Json::Num(1.0)), ("workloads", Json::Arr(vec![]))]);
        assert_eq!(compare(&doc(100.0), &empty), Ok(false));
        assert!(compare(&Json::Null, &empty).is_err());
    }
}

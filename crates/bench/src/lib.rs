#![warn(missing_docs)]

//! Shared infrastructure for the measurement binaries.

use qap::prelude::*;

/// The standard benchmark trace: 5 one-minute epochs of flow-structured
/// traffic with ~5% suspicious flows — a scaled-down stand-in for the
/// paper's one-hour 100k pkt/s data-center trace, preserving the flow
/// structure the experiments exercise.
pub fn standard_trace() -> Vec<Tuple> {
    generate(&standard_trace_config())
}

/// Configuration of [`standard_trace`].
pub fn standard_trace_config() -> TraceConfig {
    TraceConfig {
        seed: 20080609, // SIGMOD'08 started June 9 2008
        epochs: 5,
        epoch_secs: 60,
        flows_per_epoch: 2_000,
        pareto_alpha: 1.1,
        max_flow_packets: 32,
        hosts: 1_000,
        zipf_exponent: 1.1,
        suspicious_fraction: 0.05,
        spread_ips: true,
    }
}

/// A small trace for the ablation tables and kernel groups, where trace
/// size is not the subject.
pub fn small_trace() -> Vec<Tuple> {
    generate(&TraceConfig {
        epochs: 3,
        flows_per_epoch: 500,
        hosts: 300,
        max_flow_packets: 32,
        pareto_alpha: 1.1,
        ..standard_trace_config()
    })
}

/// One figure row: a configuration's metric across cluster sizes 1..=4.
pub struct FigureSeries {
    /// Configuration name.
    pub config: String,
    /// Metric per cluster size.
    pub values: Vec<f64>,
}

/// Runs a full scenario sweep and extracts both figures' series
/// (aggregator CPU % and aggregator network tuples/sec).
pub fn figure_series(
    scenario: Scenario,
    trace: &[Tuple],
    max_hosts: usize,
) -> (Vec<FigureSeries>, Vec<FigureSeries>) {
    let budget = calibrate_budget(scenario, trace).expect("calibration runs");
    let sim = SimConfig {
        host_budget: budget,
        ..SimConfig::default()
    };
    let points = run_series(scenario, trace, max_hosts, &sim).expect("series runs");
    let mut cpu = Vec::new();
    let mut net = Vec::new();
    for &config in scenario.configs() {
        let of = |f: &dyn Fn(&ClusterMetrics) -> f64| FigureSeries {
            config: config.to_string(),
            values: points
                .iter()
                .filter(|p| p.config == config)
                .map(|p| f(&p.metrics))
                .collect(),
        };
        cpu.push(of(&|m| m.aggregator_cpu_pct));
        net.push(of(&|m| m.aggregator_rx_tps));
    }
    (cpu, net)
}

/// Formats a figure as an aligned text table.
pub fn render_figure(title: &str, unit: &str, series: &[FigureSeries]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let n = series.first().map(|s| s.values.len()).unwrap_or(0);
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<28}", "# nodes");
    for i in 1..=n {
        let _ = write!(out, "{i:>10}");
    }
    let _ = writeln!(out);
    for s in series {
        let _ = write!(out, "{:<28}", s.config);
        for v in &s.values {
            let _ = write!(out, "{v:>9.1}{unit}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trace_has_expected_structure() {
        let trace = standard_trace();
        let s = stats(&trace);
        assert!(s.packets > 20_000);
        let frac = s.suspicious_flows as f64 / s.flows as f64;
        assert!((frac - 0.05).abs() < 0.02);
    }

    #[test]
    fn render_figure_aligns() {
        let series = vec![FigureSeries {
            config: "Naive".into(),
            values: vec![80.4, 95.0],
        }];
        let table = render_figure("Figure 8", "%", &series);
        assert!(table.contains("Naive"));
        assert!(table.contains("80.4%"));
    }
}

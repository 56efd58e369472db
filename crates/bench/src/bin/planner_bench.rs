//! Planner benchmark: planning time and extracted-plan predicted cost
//! for every Section 6 deployment, written as machine-readable
//! `BENCH_planner.json`.
//!
//! For each scenario/configuration pair the harness runs
//! `optimize_explained` (planning + emission, the `qapctl` path), times
//! the call, and prices the extracted physical plan with the plan-based
//! predictor. The process exits non-zero if a deployment's predicted
//! total cost or physical node count differs from the value pinned in
//! the deployment table — CI runs this as a regression gate. It also
//! times the analyzer's `choose_partitioning` search on the three §6
//! query sets and on a wide set of 8 aggregations with overlapping
//! keys. Every timing is advisory: it is reported, never gated.
//!
//! Usage: `cargo run --release -p qap-bench --bin planner_bench [OUT.json]`
//! (default output path `BENCH_planner.json` in the working directory).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use qap::prelude::*;

/// The minimum over 31 timed calls after one warm-up, in µs: planning
/// is micro-scale, and on a shared box the minimum is the one statistic
/// outside load cannot inflate (EXPERIMENTS.md).
fn min_micros<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..31 {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    (out, best)
}

/// A wide query set — 8 independent aggregations with overlapping keys —
/// that stresses the candidate enumeration.
fn wide_8_queries() -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    let keys = [
        "srcIP, destIP, srcPort, destPort",
        "srcIP, destIP, srcPort",
        "srcIP, destIP",
        "srcIP",
        "destIP, destPort",
        "destIP",
        "srcIP, srcPort",
        "srcPort, destPort",
    ];
    for (i, k) in keys.iter().enumerate() {
        b.add_query(
            &format!("q{i}"),
            &format!("SELECT tb, {k}, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, {k}"),
        )
        .expect("parses");
    }
    b.build()
}

/// One measured (scenario, configuration) cell.
struct Case {
    scenario: &'static str,
    config: &'static str,
    hosts: usize,
    plan_micros: f64,
    predicted_total_bytes_per_sec: f64,
    predicted_aggregator_bytes_per_sec: f64,
    physical_nodes: usize,
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_planner.json".to_string());

    // Each 4-host deployment with its pinned predicted total B/s and
    // physical node count.
    let hosts = 4;
    let deployments: &[(Scenario, &str, f64, usize)] = &[
        (Scenario::SimpleAgg, "Partitioned", 740_000.0, 17),
        (Scenario::SimpleAgg, "Naive", 740_000.0, 18),
        (Scenario::QuerySet, "Partitioned (optimal)", 526_000.0, 34),
        (
            Scenario::QuerySet,
            "Partitioned (suboptimal)",
            526_000.0,
            35,
        ),
        (Scenario::Complex, "Partitioned (full)", 3_800.0, 33),
        (Scenario::Complex, "Partitioned (partial)", 29_000.0, 27),
    ];

    let stats = UniformStats::default();
    let model = CostModel::default();
    let mut cases: Vec<Case> = Vec::new();
    let mut regressions: Vec<String> = Vec::new();

    for &(scenario, config_name, pinned_total, pinned_nodes) in deployments {
        let dag = scenario.dag();
        let (partitioning, cfg) = scenario.deployment(config_name, hosts);
        let ((plan, _), micros) = min_micros(|| {
            optimize_explained(&dag, &partitioning, &cfg).expect("planning succeeds")
        });
        let load = predict_host_load_for_plan(&plan, &dag, &stats, &model);
        let total: f64 = load.iter().sum();
        let nodes = plan.dag.len();
        cases.push(Case {
            scenario: scenario.name(),
            config: config_name,
            hosts,
            plan_micros: micros,
            predicted_total_bytes_per_sec: total,
            predicted_aggregator_bytes_per_sec: load[plan.partitioning.aggregator_host],
            physical_nodes: nodes,
        });
        println!(
            "{} / {config_name}: {micros:.0} us, predicted {total:.0} B/s ({nodes} physical nodes)",
            scenario.name(),
        );
        if (total - pinned_total).abs() > 1e-9 * pinned_total || nodes != pinned_nodes {
            regressions.push(format!(
                "{} / {config_name}: {total:.0} B/s in {nodes} nodes, pinned {pinned_total:.0} B/s in {pinned_nodes}",
                scenario.name()
            ));
        }
    }

    let searches = [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex]
        .map(|s| (s.name(), s.dag()))
        .into_iter()
        .chain([("wide_8_queries", wide_8_queries())]);
    let mut chosen: Vec<(&str, String, f64)> = Vec::new();
    for (name, dag) in searches {
        let (analysis, micros) = min_micros(|| choose_partitioning(&dag, &stats, &model));
        println!(
            "choose_partitioning {name}: {micros:.0} us, recommends {}",
            analysis.recommended
        );
        chosen.push((name, analysis.recommended.to_string(), micros));
    }

    let mut json = String::from("{\n  \"bench\": \"planner\",\n  \"choose_partitioning\": [\n");
    for (i, (name, set, micros)) in chosen.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"query_set\": \"{name}\", \"recommended\": \"{set}\", \"micros\": {micros:.1}}}{}",
            if i + 1 < chosen.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"config\": \"{}\", \"hosts\": {}, \"backend\": \"egraph\", \
             \"plan_micros\": {:.1}, \"predicted_total_bytes_per_sec\": {:.1}, \
             \"predicted_aggregator_bytes_per_sec\": {:.1}, \"physical_nodes\": {}}}{}",
            c.scenario,
            c.config,
            c.hosts,
            c.plan_micros,
            c.predicted_total_bytes_per_sec,
            c.predicted_aggregator_bytes_per_sec,
            c.physical_nodes,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("planner_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out_path} ({} cases)", cases.len());

    if !regressions.is_empty() {
        eprintln!("\nPLANS DIFFER FROM THE PINNED VALUES:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! Regenerates every figure of the paper's evaluation section as text
//! tables, plus the plan-diagram figures (1–7, 12) as rendered plans,
//! then the ablation tables over the design choices DESIGN.md calls out.
//!
//! ```sh
//! cargo run --release -p qap-bench --bin figures            # all figures + ablations
//! cargo run --release -p qap-bench --bin figures -- --plans # plan figures only
//! ```

use qap::partition::AnalysisOptions;
use qap::prelude::*;
use qap_bench::{figure_series, render_figure, small_trace, standard_trace};

fn main() {
    let plans_only = std::env::args().any(|a| a == "--plans");
    print_plan_figures();
    if plans_only {
        return;
    }

    let trace = standard_trace();
    let tstats = stats(&trace);
    println!(
        "\nTrace: {} packets, {} flows ({} suspicious, {:.1}%), {} sources, {}s\n",
        tstats.packets,
        tstats.flows,
        tstats.suspicious_flows,
        100.0 * tstats.suspicious_flows as f64 / tstats.flows as f64,
        tstats.sources,
        tstats.duration_secs
    );

    let specs = [
        (Scenario::SimpleAgg, "Figure 8", "Figure 9"),
        (Scenario::QuerySet, "Figure 10", "Figure 11"),
        (Scenario::Complex, "Figure 13", "Figure 14"),
    ];
    for (scenario, cpu_fig, net_fig) in specs {
        println!("========== {} ==========", scenario.name());
        let (cpu, net) = figure_series(scenario, &trace, 4);
        println!(
            "{}",
            render_figure(
                &format!("{cpu_fig}: CPU load on aggregator node (%)"),
                "%",
                &cpu
            )
        );
        println!(
            "{}",
            render_figure(
                &format!("{net_fig}: Network load on aggregator node (tuples/sec)"),
                " ",
                &net
            )
        );
    }

    // The Section 6.1 text claim: leaf load drops 80.4% → 23.9%.
    let budget = calibrate_budget(Scenario::SimpleAgg, &trace).expect("calibration");
    let sim = SimConfig {
        host_budget: budget,
        ..SimConfig::default()
    };
    println!("Section 6.1 leaf-node CPU load (per leaf host, Naive config):");
    for hosts in 1..=4 {
        let r = run_point(Scenario::SimpleAgg, "Naive", hosts, &trace, &sim).expect("runs");
        println!("  {hosts} hosts: {:.1}%", r.metrics.leaf_host_cpu_pct);
    }

    let trace = small_trace();
    let sim = SimConfig::default();
    ablation_remote_cost(&trace);
    ablation_partitions_per_host(&trace, &sim);
    ablation_partial_agg_scope(&trace, &sim);
    ablation_join_compatibility(&trace, &sim);
    ablation_skew_sensitivity(&sim);
    ablation_plan_vs_data_partitioning(&trace, &sim);
}

fn run(plan: &DistributedPlan, trace: &[Tuple], sim: &SimConfig) -> ClusterMetrics {
    run_distributed(plan, trace, sim).expect("runs").metrics
}

/// The paper's premise that a remote tuple costs several local ones:
/// sweeping the ratio shows when Naive partitioning stops scaling.
fn ablation_remote_cost(trace: &[Tuple]) {
    println!(
        "\n=== Ablation: remote_rx / op cost ratio (Naive, aggregator work at 1 vs 4 hosts) ==="
    );
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "ratio", "work@1", "work@4", "growth"
    );
    for ratio in [0.5, 2.0, 7.5, 20.0] {
        let sim = SimConfig {
            costs: CostConstants {
                remote_rx: 0.4 * ratio,
                ..CostConstants::default()
            },
            ..SimConfig::default()
        };
        let work = |hosts| {
            run_point(Scenario::SimpleAgg, "Naive", hosts, trace, &sim)
                .expect("runs")
                .metrics
                .work[0]
        };
        let (w1, w4) = (work(1), work(4));
        println!("{ratio:<10} {w1:>14.0} {w4:>14.0} {:>8.2}x", w4 / w1);
    }
}

/// The paper uses 2 partitions per host "to make better use of
/// multiple processing cores".
fn ablation_partitions_per_host(trace: &[Tuple], sim: &SimConfig) {
    let dag = Scenario::SimpleAgg.dag();
    println!("\n=== Ablation: partitions per host (Naive, 4 hosts) ===");
    println!("{:<18} {:>12} {:>14}", "parts/host", "agg rx", "agg work");
    for ppn in [1usize, 2, 4] {
        let mut part = Partitioning::round_robin(4);
        part.partitions = 4 * ppn;
        let plan = optimize(&dag, &part, &OptimizerConfig::naive()).expect("lowers");
        let m = run(&plan, trace, sim);
        println!(
            "{ppn:<18} {:>12} {:>14.0}",
            m.aggregator_rx_tuples, m.work[0]
        );
    }
}

/// Per-partition (Naive) vs per-host (Optimized) partial aggregation:
/// Section 6.1's 20–22% reduction in isolation.
fn ablation_partial_agg_scope(trace: &[Tuple], sim: &SimConfig) {
    let dag = Scenario::SimpleAgg.dag();
    println!("\n=== Ablation: partial aggregation scope (round-robin, 4 hosts) ===");
    println!("{:<18} {:>12} {:>14}", "scope", "agg rx", "agg work");
    for (name, cfg) in [
        (
            "none (agnostic)",
            OptimizerConfig {
                agnostic: true,
                ..OptimizerConfig::default()
            },
        ),
        ("per-partition", OptimizerConfig::naive()),
        ("per-host", OptimizerConfig::full()),
    ] {
        let plan = optimize(&dag, &Partitioning::round_robin(4), &cfg).expect("lowers");
        let m = run(&plan, trace, sim);
        println!(
            "{name:<18} {:>12} {:>14.0}",
            m.aggregator_rx_tuples, m.work[0]
        );
    }
}

/// The Section 6.2 semantics question: exact-expression join matching
/// (Gigascope) vs coarsening (semantically sound).
fn ablation_join_compatibility(trace: &[Tuple], sim: &SimConfig) {
    let dag = Scenario::QuerySet.dag();
    let masked = PartitionSet::from_exprs([
        &ScalarExpr::col("srcIP").mask(0xFFF0),
        &ScalarExpr::col("destIP"),
    ]);
    println!("\n=== Ablation: join compatibility semantics under (srcIP & 0xFFF0, destIP) ===");
    println!("{:<14} {:>12} {:>14}", "join rule", "agg rx", "agg work");
    for (name, strict) in [("permissive", false), ("strict", true)] {
        let cfg = OptimizerConfig {
            analysis: AnalysisOptions {
                strict_join_compatibility: strict,
            },
            ..OptimizerConfig::full()
        };
        let plan = optimize(&dag, &Partitioning::hash(masked.clone(), 4), &cfg).expect("lowers");
        let m = run(&plan, trace, sim);
        println!(
            "{name:<14} {:>12} {:>14.0}",
            m.aggregator_rx_tuples, m.work[0]
        );
    }
}

/// The FLUX contrast (related work [20]): hash partitioning on a skewed
/// key concentrates load while round-robin balances perfectly — the
/// price of query-aware partitioning, and the imbalance adaptive
/// operators repair at the cost of query-independence.
fn ablation_skew_sensitivity(sim: &SimConfig) {
    let dag = Scenario::SimpleAgg.dag();
    println!("\n=== Ablation: leaf-load imbalance vs key skew (4 hosts) ===");
    println!(
        "{:<8} {:>16} {:>16} {:>14}",
        "zipf", "hash imbalance", "rr imbalance", "hash agg rx"
    );
    // Partitioning on the low-cardinality skewed key alone: the popular
    // sources pile onto single partitions.
    let hash_plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
        &OptimizerConfig::full(),
    )
    .expect("lowers");
    let rr_plan = optimize(
        &dag,
        &Partitioning::round_robin(4),
        &OptimizerConfig::naive(),
    )
    .expect("lowers");
    for zipf in [0.0, 0.8, 1.1, 1.6] {
        let trace = generate(&TraceConfig {
            zipf_exponent: zipf,
            epochs: 3,
            flows_per_epoch: 800,
            hosts: 500,
            max_flow_packets: 32,
            spread_ips: true,
            ..TraceConfig::default()
        });
        let h = run(&hash_plan, &trace, sim);
        let r = run(&rr_plan, &trace, sim);
        println!(
            "{zipf:<8} {:>16.3} {:>16.3} {:>14}",
            h.leaf_imbalance, r.leaf_imbalance, h.aggregator_rx_tuples
        );
    }
}

/// The introduction's other baseline: operator placement
/// (Borealis-style query plan partitioning) cannot shed the heavy
/// low-level aggregation; query-aware data partitioning can.
fn ablation_plan_vs_data_partitioning(trace: &[Tuple], sim: &SimConfig) {
    let dag = Scenario::Complex.dag();
    let max_load =
        |plan: &DistributedPlan| run(plan, trace, sim).work.into_iter().fold(0.0, f64::max);
    println!("\n=== Ablation: query-plan vs data partitioning (max per-host work) ===");
    println!("{:<34} {:>14}", "strategy", "max host work");
    let central = plan_partitioning(&dag, 1).expect("lowers");
    println!(
        "{:<34} {:>14.0}",
        "centralized (1 host)",
        max_load(&central)
    );
    for hosts in [2usize, 4] {
        let pp = plan_partitioning(&dag, hosts).expect("lowers");
        println!(
            "{:<34} {:>14.0}",
            format!("plan partitioning ({hosts} hosts)"),
            max_load(&pp)
        );
        let dp = optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), hosts),
            &OptimizerConfig::full(),
        )
        .expect("lowers");
        println!(
            "{:<34} {:>14.0}",
            format!("query-aware data part. ({hosts} hosts)"),
            max_load(&dp)
        );
    }
}

fn print_plan_figures() {
    let complex = Scenario::Complex.dag();

    println!("=== Figure 1: sample query execution plan ===");
    println!("{}", render_dag(&complex));

    let fig = |title: &str, plan: &DistributedPlan| {
        println!("=== {title} ===");
        println!("{}", plan.render_by_host());
    };

    let rr = Partitioning::round_robin(3);
    fig(
        "Figure 3: partition-agnostic query execution plan",
        &agnostic_plan(&complex, &rr).expect("plan lowers"),
    );

    let flows_only = Scenario::SimpleAgg.dag();
    fig(
        "Figure 4: aggregation transformation for compatible nodes",
        &optimize(
            &flows_only,
            &Partitioning::hash(
                PartitionSet::from_columns(["srcIP", "destIP", "srcPort", "destPort"]),
                3,
            ),
            &OptimizerConfig::full(),
        )
        .expect("plan lowers"),
    );
    fig(
        "Figure 5: aggregation transformation for incompatible nodes (sub/super)",
        &optimize(&flows_only, &rr, &OptimizerConfig::full()).expect("plan lowers"),
    );
    fig(
        "Figures 6/7: join transformation for compatible nodes (pairwise)",
        &optimize(
            &complex,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            &OptimizerConfig::full(),
        )
        .expect("plan lowers"),
    );
    fig(
        "Figure 2/12: plan for partially compatible partitioning (srcIP, destIP)",
        &optimize(
            &complex,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), 4),
            &OptimizerConfig::full(),
        )
        .expect("plan lowers"),
    );
}

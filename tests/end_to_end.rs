//! End-to-end pipeline tests: parse → analyze → optimize → simulate,
//! including the qualitative shapes of the paper's figures at test
//! scale.

use qap::prelude::*;

fn small_trace(seed: u64) -> Vec<Tuple> {
    generate(&TraceConfig {
        seed,
        epochs: 3,
        flows_per_epoch: 300,
        hosts: 150,
        max_flow_packets: 32,
        pareto_alpha: 1.1,
        ..TraceConfig::default()
    })
}

#[test]
fn all_scenarios_run_all_configs_at_all_sizes() {
    let trace = small_trace(1);
    let sim = SimConfig::default();
    for scenario in [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex] {
        for &config in scenario.configs() {
            for hosts in [1, 2, 4] {
                let result = run_point(scenario, config, hosts, &trace, &sim)
                    .unwrap_or_else(|e| panic!("{scenario:?}/{config}/{hosts}: {e}"));
                assert_eq!(result.metrics.hosts, hosts);
                assert_eq!(result.metrics.late_dropped, 0);
                assert!(result.metrics.work.iter().all(|w| *w >= 0.0));
            }
        }
    }
}

#[test]
fn analyzer_recommendation_beats_round_robin_everywhere() {
    let trace = small_trace(2);
    let sim = SimConfig::default();
    for scenario in [Scenario::SimpleAgg, Scenario::Complex] {
        let dag = scenario.dag();
        let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
        assert!(!analysis.recommended.is_empty(), "{scenario:?}");
        let hosts = 4;
        let recommended = run_distributed(
            &optimize(
                &dag,
                &Partitioning::hash(analysis.recommended.clone(), hosts),
                &OptimizerConfig::full(),
            )
            .unwrap(),
            &trace,
            &sim,
        )
        .unwrap();
        let naive = run_distributed(
            &optimize(
                &dag,
                &Partitioning::round_robin(hosts),
                &OptimizerConfig::naive(),
            )
            .unwrap(),
            &trace,
            &sim,
        )
        .unwrap();
        assert!(
            recommended.metrics.aggregator_rx_tuples < naive.metrics.aggregator_rx_tuples,
            "{scenario:?}: {} vs {}",
            recommended.metrics.aggregator_rx_tuples,
            naive.metrics.aggregator_rx_tuples
        );
        assert!(
            recommended.metrics.aggregator_cpu_pct < naive.metrics.aggregator_cpu_pct,
            "{scenario:?}"
        );
    }
}

#[test]
fn figure_10_11_shape_query_set() {
    let trace = small_trace(3);
    let budget = calibrate_budget(Scenario::QuerySet, &trace).unwrap();
    let sim = SimConfig {
        host_budget: budget,
        ..SimConfig::default()
    };
    let points = run_series(Scenario::QuerySet, &trace, 4, &sim).unwrap();
    let by = |config: &str| -> Vec<f64> {
        points
            .iter()
            .filter(|p| p.config == config)
            .map(|p| p.metrics.aggregator_cpu_pct)
            .collect()
    };
    let naive = by("Naive");
    let sub = by("Partitioned (suboptimal)");
    let opt = by("Partitioned (optimal)");
    // At 4 hosts: naive > suboptimal > optimal (Figure 10's ordering).
    assert!(
        naive[3] > sub[3],
        "naive {} vs suboptimal {}",
        naive[3],
        sub[3]
    );
    assert!(
        sub[3] > opt[3],
        "suboptimal {} vs optimal {}",
        sub[3],
        opt[3]
    );

    let net = |config: &str| -> Vec<f64> {
        points
            .iter()
            .filter(|p| p.config == config)
            .map(|p| p.metrics.aggregator_rx_tps)
            .collect()
    };
    // Figure 11's ordering at 4 hosts.
    let (n_net, s_net, o_net) = (
        net("Naive"),
        net("Partitioned (suboptimal)"),
        net("Partitioned (optimal)"),
    );
    assert!(n_net[3] > s_net[3]);
    assert!(s_net[3] > o_net[3]);
}

#[test]
fn figure_13_14_shape_complex() {
    let trace = small_trace(4);
    let budget = calibrate_budget(Scenario::Complex, &trace).unwrap();
    let sim = SimConfig {
        host_budget: budget,
        ..SimConfig::default()
    };
    let points = run_series(Scenario::Complex, &trace, 4, &sim).unwrap();
    let cpu = |config: &str| -> Vec<f64> {
        points
            .iter()
            .filter(|p| p.config == config)
            .map(|p| p.metrics.aggregator_cpu_pct)
            .collect()
    };
    let naive = cpu("Naive");
    let optimized = cpu("Optimized");
    let partial = cpu("Partitioned (partial)");
    let full = cpu("Partitioned (full)");
    // Figure 13's ordering at 4 hosts: naive > optimized > partial > full.
    assert!(naive[3] > optimized[3]);
    assert!(optimized[3] > partial[3]);
    assert!(partial[3] > full[3]);
    // Naive grows with cluster size; full partitioning declines.
    assert!(naive[3] > naive[0]);
    assert!(full[3] < full[0]);
}

#[test]
fn threaded_runner_agrees_on_experiment_scenarios() {
    let trace = small_trace(5);
    let sim = SimConfig::default();
    for scenario in [Scenario::SimpleAgg, Scenario::Complex] {
        let plan = scenario.plan(scenario.configs().last().unwrap(), 3);
        let single = run_distributed(&plan, &trace, &sim).unwrap();
        let threaded = run_distributed_threaded(&plan, &trace, &sim).unwrap();
        for ((n, a), (_, b)) in single.outputs.iter().zip(threaded.outputs.iter()) {
            assert_eq!(a.len(), b.len(), "{scenario:?}/{n}");
        }
    }
}

#[test]
fn agnostic_plan_is_most_expensive() {
    let trace = small_trace(6);
    let sim = SimConfig::default();
    let dag = Scenario::SimpleAgg.dag();
    let part = Partitioning::round_robin(4);
    let agnostic = run_distributed(&agnostic_plan(&dag, &part).unwrap(), &trace, &sim).unwrap();
    let naive = run_distributed(
        &optimize(&dag, &part, &OptimizerConfig::naive()).unwrap(),
        &trace,
        &sim,
    )
    .unwrap();
    // The partition-agnostic plan ships raw packets; even naive
    // per-partition pre-aggregation beats it.
    assert!(
        agnostic.metrics.aggregator_rx_tuples > naive.metrics.aggregator_rx_tuples,
        "agnostic {} vs naive {}",
        agnostic.metrics.aggregator_rx_tuples,
        naive.metrics.aggregator_rx_tuples
    );
}

#[test]
fn plan_partitioning_cannot_shed_the_heavy_operator() {
    // The introduction's claim: query-plan partitioning fails when one
    // operator is too heavy for a single machine — the low-level
    // aggregation must still see every packet on one host, so the
    // maximum per-host load barely improves with cluster size, while
    // query-aware data partitioning scales it down.
    let trace = small_trace(8);
    let sim = SimConfig::default();
    let dag = Scenario::Complex.dag();

    let max_load = |plan: &DistributedPlan| -> f64 {
        let r = run_distributed(plan, &trace, &sim).unwrap();
        r.metrics.work.iter().fold(0.0f64, |a, &b| a.max(b))
    };

    let centralized = max_load(&plan_partitioning(&dag, 1).unwrap());
    let plan_part_4 = max_load(&plan_partitioning(&dag, 4).unwrap());
    let data_part_4 = max_load(
        &optimize(
            &dag,
            &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 4),
            &OptimizerConfig::full(),
        )
        .unwrap(),
    );

    // Plan partitioning barely moves the bottleneck (the ingest +
    // low-level aggregation host still handles the full stream)...
    assert!(
        plan_part_4 > 0.7 * centralized,
        "plan partitioning should not shed the heavy operator: {plan_part_4} vs {centralized}"
    );
    // ...while query-aware data partitioning cuts it down hard.
    assert!(
        data_part_4 < 0.5 * centralized,
        "data partitioning should scale: {data_part_4} vs {centralized}"
    );

    // And both still compute the right answer.
    let reference = run_distributed(&plan_partitioning(&dag, 1).unwrap(), &trace, &sim).unwrap();
    let spread = run_distributed(&plan_partitioning(&dag, 4).unwrap(), &trace, &sim).unwrap();
    for ((n, a), (_, b)) in reference.outputs.iter().zip(spread.outputs.iter()) {
        assert_eq!(a.len(), b.len(), "{n}");
    }
}

#[test]
fn measured_stats_agree_with_defaults_on_recommendation() {
    let dag = Scenario::Complex.dag();
    let trace = small_trace(9);
    let measured = measure_stats(&dag, &trace).unwrap();
    let with_measured = choose_partitioning(&dag, &measured, &CostModel::default());
    let with_defaults = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
    assert_eq!(with_measured.recommended, with_defaults.recommended);
}

#[test]
fn cost_model_predictions_track_measurements() {
    // The analyzer's relative cost ordering must agree with measured
    // aggregator network load across candidate partitionings.
    let dag = Scenario::Complex.dag();
    let trace = small_trace(7);
    let sim = SimConfig::default();
    let compat = node_compatibilities(&dag);
    let stats_provider = UniformStats::default();
    let model = CostModel::default();

    let candidates = [
        PartitionSet::from_columns(["srcIP"]),
        PartitionSet::from_columns(["srcIP", "destIP"]),
        PartitionSet::empty(),
    ];
    let mut predicted: Vec<f64> = Vec::new();
    let mut measured: Vec<f64> = Vec::new();
    for ps in &candidates {
        predicted.push(plan_cost(&dag, &compat, ps, &stats_provider, &model).max_cost);
        let partitioning = if ps.is_empty() {
            Partitioning::round_robin(4)
        } else {
            Partitioning::hash(ps.clone(), 4)
        };
        let run = run_distributed(
            &optimize(&dag, &partitioning, &OptimizerConfig::naive()).unwrap(),
            &trace,
            &sim,
        )
        .unwrap();
        measured.push(run.metrics.aggregator_rx_tps);
    }
    // Same ordering: srcIP < (srcIP,destIP) < round-robin.
    assert!(predicted[0] < predicted[1] && predicted[1] < predicted[2]);
    assert!(measured[0] < measured[1] && measured[1] < measured[2]);
}

//! Golden physical plans: what the planner decides, pinned byte for byte.
//!
//! Every §6 deployment (`Scenario` × `configs()` × 2–4 hosts) and the
//! `optimizer_regressions` queries are planned and rendered in full —
//! the physical DAG with every expression, each node's id, host and
//! tier, then the output list — and compared against
//! `tests/golden/plans/*.txt`. Planning is deterministic (uniform
//! statistics, default cost model), so any change to a placement
//! decision, to the emitter's node order or to a lowered expression
//! shows up as a diff. The §6.2 planner report behind `qapctl plan
//! --explain` is pinned the same way, in `tests/golden/explain/`.
//! Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test golden_plans` and review the diff
//! like any other code change.

use qap::prelude::*;

mod golden;
use golden::compare_golden;

/// Compares one plan's full rendering against
/// `tests/golden/plans/<name>.txt`.
fn compare_plan(plan: &DistributedPlan, name: &str) {
    compare_golden(&plan.render(), &format!("plans/{name}.txt"));
}

/// `"Partitioned (optimal)"` → `"partitioned_optimal"`.
fn slug(s: &str) -> String {
    s.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect::<Vec<_>>()
        .join("_")
}

#[test]
fn section_6_deployments_match_their_golden_plans() {
    for (scenario, tag) in [
        (Scenario::SimpleAgg, "simple_agg"),
        (Scenario::QuerySet, "query_set"),
        (Scenario::Complex, "complex"),
    ] {
        for &config in scenario.configs() {
            for hosts in 2..=4usize {
                let plan = scenario.plan(config, hosts);
                compare_plan(&plan, &format!("{tag}__{}__h{hosts}", slug(config)));
            }
        }
    }
}

/// `--explain`'s planner report — every alternative of every node, with
/// its cost and rule — for the §6.2 optimal deployment on 3 hosts:
/// identical across two plannings in one process (the e-graph's hash
/// seeds differ between them) and to `tests/golden/explain/`.
#[test]
fn section_6_2_explain_report_is_deterministic() {
    let dag = Scenario::QuerySet.dag();
    let (partitioning, config) = Scenario::QuerySet.deployment("Partitioned (optimal)", 3);
    let report = || {
        let (_, explanation) = optimize_explained(&dag, &partitioning, &config).unwrap();
        explanation.render()
    };
    let first = report();
    assert_eq!(first, report(), "two plannings, two reports");
    compare_golden(&first, "explain/query_set__partitioned_optimal__h3.txt");
}

/// The query sets of `tests/optimizer_regressions.rs`.
const REGRESSION_QUERIES: &[(&str, &[(&str, &str)])] = &[
    (
        "having_with_avg_split",
        &[(
            "q",
            "SELECT tb, srcIP, AVG(len) as a, COUNT(*) as c FROM TCP \
             GROUP BY time/60 as tb, srcIP HAVING COUNT(*) > 2 AND AVG(len) > 500",
        )],
    ),
    (
        "having_hidden_agg_split",
        &[(
            "q",
            "SELECT tb, srcIP, COUNT(*) as c FROM TCP \
             GROUP BY time/60 as tb, srcIP HAVING MAX(len) > 900",
        )],
    ),
    (
        "where_pushdown_split",
        &[(
            "q",
            "SELECT tb, srcIP, SUM(len) as s FROM TCP WHERE len > 100 \
             GROUP BY time/60 as tb, srcIP",
        )],
    ),
    (
        "outer_join_then_aggregate",
        &[
            (
                "by_src",
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            ),
            (
                "by_dst",
                "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
            ),
            (
                "matched",
                "SELECT A.tb, A.srcIP, A.c as sent, B.c as received \
                 FROM by_src A FULL OUTER JOIN by_dst B \
                 WHERE A.tb = B.tb and A.srcIP = B.destIP",
            ),
            (
                "per_epoch",
                "SELECT tb, COUNT(*) as n FROM matched GROUP BY tb",
            ),
        ],
    ),
];

fn build(queries: &[(&str, &str)]) -> QueryDag {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    b.build()
}

#[test]
fn regression_queries_match_their_golden_plans() {
    let part = Partitioning::round_robin(3);
    for (tag, queries) in REGRESSION_QUERIES {
        let dag = build(queries);
        for (cfg_tag, cfg) in [
            ("full", OptimizerConfig::full()),
            ("naive", OptimizerConfig::naive()),
        ] {
            let plan = optimize(&dag, &part, &cfg).unwrap();
            compare_plan(&plan, &format!("{tag}__{cfg_tag}"));
        }
    }
    // `agnostic` suppresses every rewrite, the sub/super split included.
    let dag = build(&[(
        "q",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb, srcIP",
    )]);
    let cfg = OptimizerConfig {
        agnostic: true,
        ..OptimizerConfig::full()
    };
    let plan = optimize(&dag, &part, &cfg).unwrap();
    compare_plan(&plan, "count_by_src__agnostic");
}

/// What a remote host plans from: each §6 query set, each regression
/// query set above and each shipped `scripts/*.gsql`, rebuilt from its
/// `gsql()` over its catalog's `STREAM` statements, renders as the
/// original does.
#[test]
fn query_sets_rebuild_from_their_gsql() {
    let scenarios = [Scenario::SimpleAgg, Scenario::QuerySet, Scenario::Complex];
    let mut dags: Vec<(String, QueryDag)> = scenarios.map(|s| (format!("{s:?}"), s.dag())).into();
    for (tag, queries) in REGRESSION_QUERIES {
        dags.push((tag.to_string(), build(queries)));
    }
    let scripts = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts");
    for entry in std::fs::read_dir(scripts).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.parse_script(&text).unwrap();
        dags.push((path.display().to_string(), b.build()));
    }
    assert_eq!(dags.len(), 3 + REGRESSION_QUERIES.len() + 5);
    for (tag, dag) in dags {
        let gsql = dag.gsql().unwrap_or_else(|| panic!("{tag}: no GSQL"));
        let mut b = QuerySetBuilder::new(Catalog::new());
        b.parse_script(&dag.catalog().stream_defs()).unwrap();
        b.parse_script(gsql)
            .unwrap_or_else(|e| panic!("{tag}: {e}\n{gsql}"));
        assert_eq!(render_dag(&b.build()), render_dag(&dag), "{tag}");
    }
}

//! End-to-end user-defined aggregate functions.
//!
//! Gigascope's UDAFs (reference [10]: Cormode et al., "Holistic UDAFs at
//! streaming speeds") participate in the Section 5.2.2 partial-
//! aggregation transformation whenever they are *splittable* — their
//! partial state serializes into a value that a super-aggregate can
//! merge. These tests register UDAFs in the catalog, call them from
//! GSQL, and check distributed-vs-centralized equivalence through every
//! optimizer path.

use std::sync::Arc;

use qap::prelude::*;
use qap::types::{Udaf, UdafState};

/// A splittable Flajolet–Martin distinct-count sketch: 64-bit bitmap of
/// leading-zero ranks; partials merge by OR.
struct ApproxDistinct;

struct FmState(u64);

fn fm_hash(v: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl UdafState for FmState {
    fn update(&mut self, v: &Value) {
        if let Some(x) = v.as_u64() {
            let rank = fm_hash(x).trailing_zeros().min(63);
            self.0 |= 1 << rank;
        }
    }
    fn merge(&mut self, partial: &Value) {
        if let Some(bits) = partial.as_u64() {
            self.0 |= bits;
        }
    }
    fn partial(&self) -> Value {
        Value::UInt(self.0)
    }
    fn finalize(&self) -> Value {
        let r = self.0.trailing_ones();
        Value::UInt((f64::from(2u32).powi(r as i32) / 0.77351) as u64)
    }
}

impl Udaf for ApproxDistinct {
    fn name(&self) -> &str {
        "APPROX_DISTINCT"
    }
    fn splittable(&self) -> bool {
        true
    }
    fn init(&self) -> Box<dyn UdafState> {
        Box::new(FmState(0))
    }
}

/// A deliberately non-splittable UDAF (exact median needs all values).
struct ExactMedian;

struct MedianState(Vec<u64>);

impl UdafState for MedianState {
    fn update(&mut self, v: &Value) {
        if let Some(x) = v.as_u64() {
            self.0.push(x);
        }
    }
    fn merge(&mut self, _partial: &Value) {
        unreachable!("median is not splittable; the optimizer must not split it");
    }
    fn partial(&self) -> Value {
        Value::Null
    }
    fn finalize(&self) -> Value {
        if self.0.is_empty() {
            return Value::Null;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        Value::UInt(v[v.len() / 2])
    }
}

impl Udaf for ExactMedian {
    fn name(&self) -> &str {
        "MEDIAN"
    }
    fn splittable(&self) -> bool {
        false
    }
    fn init(&self) -> Box<dyn UdafState> {
        Box::new(MedianState(Vec::new()))
    }
}

fn catalog_with_udafs() -> Catalog {
    let mut c = Catalog::with_network_schemas();
    c.register_udaf(Arc::new(ApproxDistinct));
    c.register_udaf(Arc::new(ExactMedian));
    c
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let ord = x.total_cmp(y);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

#[test]
fn unknown_udaf_rejected_at_parse() {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    let err = b
        .add_query(
            "q",
            "SELECT tb, APPROX_DISTINCT(srcIP) as d FROM TCP GROUP BY time/60 as tb",
        )
        .unwrap_err();
    assert!(err.to_string().contains("APPROX_DISTINCT"), "{err}");
}

#[test]
fn udaf_runs_centralized() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "fanout",
        "SELECT tb, srcIP, APPROX_DISTINCT(destIP) as peers FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(50));
    let outputs = run_logical(&dag, trace).unwrap();
    let rows = &outputs[0].1;
    assert!(!rows.is_empty());
    // Estimates are positive and bounded by the trace's host count.
    for r in rows {
        let est = r.get(2).as_u64().unwrap();
        assert!((1..10_000).contains(&est), "estimate {est}");
    }
}

#[test]
fn splittable_udaf_equivalent_under_every_deployment() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "fanout",
        "SELECT tb, srcIP, APPROX_DISTINCT(destIP) as peers, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(51));
    let reference = sorted(run_logical(&dag, trace.clone()).unwrap().remove(0).1);

    for (part, cfg) in [
        // Compatible hash partitioning: complete per-partition UDAFs.
        (
            Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
            OptimizerConfig::full(),
        ),
        // Round-robin: the UDAF is split into sub sketches OR-merged at
        // the super-aggregate (the Section 5.2.2 path for UDAFs).
        (Partitioning::round_robin(3), OptimizerConfig::naive()),
        (Partitioning::round_robin(4), OptimizerConfig::full()),
    ] {
        let plan = optimize(&dag, &part, &cfg).unwrap();
        let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
        assert_eq!(
            sorted(result.outputs[0].1.clone()),
            reference,
            "{:?}/{:?}",
            part.strategy,
            cfg.partial_agg_scope
        );
    }
}

#[test]
fn udaf_split_actually_produces_sub_super_plan() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "fanout",
        "SELECT tb, srcIP, APPROX_DISTINCT(destIP) as peers FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let plan = optimize(
        &dag,
        &Partitioning::round_robin(2),
        &OptimizerConfig::naive(),
    )
    .unwrap();
    // 4 per-partition subs + 1 super.
    let aggs = plan
        .dag
        .topo_order()
        .filter(|&id| matches!(plan.dag.node(id), LogicalNode::Aggregate { .. }))
        .count();
    assert_eq!(aggs, 5);
    // The super-aggregate's UDAF call is in merge mode.
    let merge_mode = plan.dag.topo_order().any(|id| {
        matches!(plan.dag.node(id), LogicalNode::Aggregate { aggregates, .. }
            if aggregates.iter().any(|a| a.call.merge))
    });
    assert!(merge_mode);
}

#[test]
fn non_splittable_udaf_centralizes_instead_of_splitting() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "med",
        "SELECT tb, srcIP, MEDIAN(len) as med_len FROM TCP GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(52));
    let reference = sorted(run_logical(&dag, trace.clone()).unwrap().remove(0).1);

    // Round-robin would normally trigger the sub/super split; MEDIAN
    // forbids it, so the plan must fall back to a single central
    // aggregate (1 aggregate node) — and still be correct.
    let plan = optimize(
        &dag,
        &Partitioning::round_robin(3),
        &OptimizerConfig::naive(),
    )
    .unwrap();
    let aggs = plan
        .dag
        .topo_order()
        .filter(|&id| matches!(plan.dag.node(id), LogicalNode::Aggregate { .. }))
        .count();
    assert_eq!(aggs, 1, "non-splittable UDAF must centralize");
    let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
    assert_eq!(sorted(result.outputs[0].1.clone()), reference);

    // Under a *compatible* partitioning it still pushes down whole.
    let plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 3),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
    assert_eq!(sorted(result.outputs[0].1.clone()), reference);
}

#[test]
fn udaf_in_having_clause() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "broad",
        "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP \
         GROUP BY time/60 as tb, srcIP \
         HAVING APPROX_DISTINCT(destIP) > 3",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(53));
    let reference = sorted(run_logical(&dag, trace.clone()).unwrap().remove(0).1);
    assert!(!reference.is_empty(), "some sources should fan out widely");

    let plan = optimize(
        &dag,
        &Partitioning::round_robin(3),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let result = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
    assert_eq!(sorted(result.outputs[0].1.clone()), reference);
}

/// A remote host plans from GSQL and runs only the functions its own
/// binary has, so a plan that calls a UDAF is refused with a typed
/// `BadPlan` before any host is contacted.
#[test]
fn udaf_deployment_is_rejected() {
    let mut b = QuerySetBuilder::new(catalog_with_udafs());
    b.add_query(
        "fanout",
        "SELECT tb, srcIP, APPROX_DISTINCT(destIP) as peers FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let part = Partitioning::hash(PartitionSet::from_columns(["srcIP"]), 2);
    let plan = optimize(&b.build(), &part, &OptimizerConfig::full()).unwrap();
    let cfg = SimConfig::default();
    // Nothing listens there: reaching it would be a link failure.
    let dead = vec![HostAddr::Tcp("127.0.0.1:1".into()); remote_host_count(&plan, &cfg)];
    match run_distributed_remote(&plan, &[], &cfg, &dead) {
        Err(qap::exec::ExecError::BadPlan(msg)) => assert!(msg.contains("UDAF"), "{msg}"),
        other => panic!("expected BadPlan, got {:?}", other.map(|_| ())),
    }
}

/// `SPREAD(x)`: the signed difference of the last and first value a
/// group saw — an `Int`, where the plan types every UDAF `uint`.
struct Spread;

struct SpreadState(Option<(u64, u64)>);

impl UdafState for SpreadState {
    fn update(&mut self, v: &Value) {
        if let Some(x) = v.as_u64() {
            let first = self.0.map_or(x, |(first, _)| first);
            self.0 = Some((first, x));
        }
    }
    fn merge(&mut self, partial: &Value) {
        self.update(partial);
    }
    fn partial(&self) -> Value {
        self.finalize()
    }
    fn finalize(&self) -> Value {
        self.0.map_or(Value::Null, |(first, last)| {
            Value::Int(last as i64 - first as i64)
        })
    }
}

impl Udaf for Spread {
    fn name(&self) -> &str {
        "SPREAD"
    }
    fn splittable(&self) -> bool {
        false
    }
    fn init(&self) -> Box<dyn UdafState> {
        Box::new(SpreadState(None))
    }
}

/// A UDAF whose value is not of the kind the plan gives its column is a
/// typed error at its slot, in the model and on every runner — never a
/// lane of another kind.
#[test]
fn a_udaf_returning_another_kind_is_a_typed_error() {
    use qap::exec::ExecError;
    use qap::expr::ExprError;
    let mut catalog = Catalog::with_network_schemas();
    catalog.register_udaf(Arc::new(Spread));
    let mut b = QuerySetBuilder::new(catalog);
    b.add_query(
        "spread",
        "SELECT tb, srcIP, SPREAD(len) as s FROM TCP GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(50));
    let is_udaf_kind = |e: &ExecError| {
        matches!(e, ExecError::Expr(ExprError::TypeMismatch { op: "UDAF", detail })
            if detail.contains("SPREAD"))
    };
    let err = run_logical(&dag, trace.clone()).unwrap_err();
    assert!(is_udaf_kind(&err), "{err}");
    let plan = optimize(
        &dag,
        &Partitioning::round_robin(2),
        &OptimizerConfig::full(),
    )
    .unwrap();
    let cfg = SimConfig::default();
    for (runner, run) in [
        ("sim", run_distributed(&plan, &trace, &cfg)),
        ("threaded", run_distributed_threaded(&plan, &trace, &cfg)),
    ] {
        let err = run.err().unwrap_or_else(|| panic!("{runner} ran"));
        let found = match &err {
            ExecError::Host(f) => match &f.cause {
                FailureCause::Exec(e) => is_udaf_kind(e),
                _ => false,
            },
            e => is_udaf_kind(e),
        };
        assert!(found, "{runner}: {err}");
    }
}

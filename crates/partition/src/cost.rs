//! The cost model for distributed query plans (Section 4.2.1).
//!
//! The cost of a plan under a candidate partitioning set is *the maximum
//! amount of data any single node receives over the network per time
//! epoch* — the objective "trying to avoid overloading a single node
//! rather than minimizing average load".
//!
//! Per the paper, for each query node `Qi`:
//!
//! - `cost = 0` when `Qi` processes only local data;
//! - `cost = input_rate(Qi)` when `Qi` is incompatible with the
//!   partitioning set (it must receive its full input over the network);
//! - `cost = output_rate(Qi)` when compatible (the collecting union only
//!   receives the already-reduced output).
//!
//! We make the "local data" condition precise through the *push-down
//! frontier*: a node is **pushed** when it and all its descendants are
//! compatible with the set — it then runs replicated per partition.
//! Everything else is **central** (runs on the aggregator host). A
//! central node receives over the network exactly the outputs of its
//! pushed children; central-to-central edges are host-local and free,
//! and a pushed root's output is still collected centrally.

use std::collections::HashMap;

use qap_plan::{LogicalNode, NodeId, QueryDag};
use qap_types::estimated_tuple_size;

use crate::{Compatibility, PartitionSet};

/// Per-node statistics driving rate estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Expected output-tuples / input-tuples ratio per epoch
    /// (`selectivity_factor` in the paper).
    pub selectivity: f64,
    /// Expected wire size of one output tuple in bytes
    /// (`out_tuple_size`).
    pub out_tuple_size: f64,
}

/// Supplies [`NodeStats`] for plan nodes. Experiments inject measured
/// selectivities; the default heuristics are enough for relative
/// comparisons between candidate partitionings.
pub trait StatsProvider {
    /// Statistics for one node.
    fn stats(&self, dag: &QueryDag, id: NodeId) -> NodeStats;
}

/// Default statistics: class-based selectivities with per-node
/// overrides, and wire-encoding-based tuple sizes.
#[derive(Debug, Clone)]
pub struct UniformStats {
    /// Selectivity of selection/projection nodes (fraction passing the
    /// predicate).
    pub select_selectivity: f64,
    /// Selectivity of aggregation nodes (groups per input tuple — the
    /// data reduction aggregation achieves within an epoch).
    pub agg_selectivity: f64,
    /// Selectivity of join nodes (output per input tuple).
    pub join_selectivity: f64,
    overrides: HashMap<NodeId, NodeStats>,
}

impl Default for UniformStats {
    fn default() -> Self {
        UniformStats {
            select_selectivity: 1.0,
            agg_selectivity: 0.1,
            join_selectivity: 0.05,
            overrides: HashMap::new(),
        }
    }
}

impl UniformStats {
    /// Default statistics.
    pub fn new() -> Self {
        UniformStats::default()
    }

    /// Overrides one node's statistics (e.g. with measured values).
    pub fn with_override(mut self, id: NodeId, stats: NodeStats) -> Self {
        self.overrides.insert(id, stats);
        self
    }

    /// Overrides only a node's selectivity, keeping the estimated size.
    pub fn with_selectivity(mut self, id: NodeId, selectivity: f64) -> Self {
        let size = 0.0; // filled lazily in stats()
        self.overrides.insert(
            id,
            NodeStats {
                selectivity,
                out_tuple_size: size,
            },
        );
        self
    }
}

/// Per-node steady-state rates, independent of any partitioning choice:
/// the pure ingredient both [`plan_cost`] and external planners (the
/// e-graph extractor in `qap-planner`) charge network transfers from.
#[derive(Debug, Clone)]
pub struct NodeRates {
    /// Per node: estimated output rate in tuples/sec.
    pub out_tuples: Vec<f64>,
    /// Per node: estimated output rate in bytes/sec
    /// (`out_tuples × out_tuple_size`).
    pub out_bytes: Vec<f64>,
}

/// Computes every node's output rate bottom-up from the source rate and
/// per-node selectivities. Purely a function of `(dag, stats, model)` —
/// no compatibility or placement information enters.
pub fn node_rates(dag: &QueryDag, stats: &dyn StatsProvider, model: &CostModel) -> NodeRates {
    let n = dag.len();
    let mut out_tuples = vec![0.0f64; n];
    let mut out_bytes = vec![0.0f64; n];
    for id in dag.topo_order() {
        let s = stats.stats(dag, id);
        let node = dag.node(id);
        let in_tuples: f64 = match node {
            LogicalNode::Source { .. } => model.source_rate,
            _ => node.children().iter().map(|&c| out_tuples[c]).sum(),
        };
        out_tuples[id] = in_tuples * s.selectivity;
        out_bytes[id] = out_tuples[id] * s.out_tuple_size;
    }
    NodeRates {
        out_tuples,
        out_bytes,
    }
}

impl StatsProvider for UniformStats {
    fn stats(&self, dag: &QueryDag, id: NodeId) -> NodeStats {
        let default_size = estimated_tuple_size(dag.schema(id).arity());
        if let Some(o) = self.overrides.get(&id) {
            return NodeStats {
                selectivity: o.selectivity,
                out_tuple_size: if o.out_tuple_size > 0.0 {
                    o.out_tuple_size
                } else {
                    default_size
                },
            };
        }
        let selectivity = match dag.node(id) {
            LogicalNode::Source { .. } | LogicalNode::Merge { .. } => 1.0,
            LogicalNode::SelectProject { predicate, .. } => {
                if predicate.is_some() {
                    self.select_selectivity
                } else {
                    1.0
                }
            }
            LogicalNode::Aggregate { .. } => self.agg_selectivity,
            LogicalNode::Join { .. } => self.join_selectivity,
        };
        NodeStats {
            selectivity,
            out_tuple_size: default_size,
        }
    }
}

/// Input parameters of the cost evaluation.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Rate of each source input stream, in tuples/sec (`R`).
    pub source_rate: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // The trace rate of the paper's testbed: ~100k packets/sec per
        // direction.
        CostModel {
            source_rate: 100_000.0,
        }
    }
}

/// The outcome of costing one plan under one partitioning set.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Per node: whether it is compatible with the set.
    pub compatible: Vec<bool>,
    /// Per node: whether it is on the push-down frontier (runs
    /// replicated per partition).
    pub pushed: Vec<bool>,
    /// Per node: estimated output rate in tuples/sec.
    pub out_tuples: Vec<f64>,
    /// Per node: network receive rate in bytes/sec (`cost(Qi)`).
    pub node_cost: Vec<f64>,
    /// `cost(Qplan, PS)` = max over nodes, bytes/sec: what the search
    /// minimizes ("trying to avoid overloading a single node rather than
    /// minimizing average load", Section 4.2.1).
    pub max_cost: f64,
    /// Sum of per-node costs, bytes/sec (reported, never minimized).
    pub total_cost: f64,
    /// The node attaining the maximum.
    pub bottleneck: Option<NodeId>,
}

/// Evaluates `cost(Qplan, PS)` (Section 4.2.1).
pub fn plan_cost(
    dag: &QueryDag,
    compat: &[Compatibility],
    ps: &PartitionSet,
    stats: &dyn StatsProvider,
    model: &CostModel,
) -> CostReport {
    let n = dag.len();
    assert_eq!(compat.len(), n, "compatibility vector must cover the DAG");

    let rates = node_rates(dag, stats, model);
    let NodeRates {
        out_tuples,
        out_bytes,
    } = rates;
    let mut compatible = vec![false; n];
    let mut pushed = vec![false; n];

    for id in dag.topo_order() {
        let node = dag.node(id);
        compatible[id] = compat[id].allows(ps);
        pushed[id] = match node {
            // The splitter partitions raw sources by construction.
            LogicalNode::Source { .. } => true,
            _ => compatible[id] && node.children().iter().all(|&c| pushed[c]),
        };
    }

    let mut node_cost = vec![0.0f64; n];
    for id in dag.topo_order() {
        if pushed[id] {
            // A pushed node only incurs collection cost when its output
            // leaves the partitioned tier: it is a root, or feeds a
            // central consumer. That receipt is charged to the consumer
            // below; roots are charged here (the final collector).
            let parents = dag.parents(id);
            let is_collected = parents.is_empty() && !dag.node(id).is_source();
            if is_collected {
                node_cost[id] = out_bytes[id];
            }
        } else {
            // Central node: receives the outputs of pushed children over
            // the network; central children are co-located and free.
            node_cost[id] = dag
                .node(id)
                .children()
                .iter()
                .filter(|&&c| pushed[c])
                .map(|&c| out_bytes[c])
                .sum();
        }
    }

    let (bottleneck, max_cost) = node_cost
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, c)| (Some(i), c))
        .unwrap_or((None, 0.0));
    let total_cost = node_cost.iter().sum();

    CostReport {
        compatible,
        pushed,
        out_tuples,
        node_cost,
        max_cost,
        total_cost,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_compatibilities;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn section_3_2_dag() -> QueryDag {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        b.add_query(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )
        .unwrap();
        b.add_query(
            "heavy_flows",
            "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
        )
        .unwrap();
        b.add_query(
            "flow_pairs",
            "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
             FROM heavy_flows S1, heavy_flows S2 \
             WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
        )
        .unwrap();
        b.build()
    }

    fn cost_of(dag: &QueryDag, ps: &PartitionSet) -> CostReport {
        let compat = node_compatibilities(dag);
        plan_cost(
            dag,
            &compat,
            ps,
            &UniformStats::default(),
            &CostModel::default(),
        )
    }

    #[test]
    fn empty_set_centralizes_everything() {
        let dag = section_3_2_dag();
        let report = cost_of(&dag, &PartitionSet::empty());
        let flows = dag.query_node("flows").unwrap();
        // flows receives the whole input stream over the network.
        let src_bytes = 100_000.0 * estimated_tuple_size(dag.schema(0).arity());
        assert!((report.node_cost[flows] - src_bytes).abs() < 1e-6);
        assert_eq!(report.bottleneck, Some(flows));
        assert!(!report.pushed[flows]);
        // Central-to-central edges are free.
        let heavy = dag.query_node("heavy_flows").unwrap();
        assert_eq!(report.node_cost[heavy], 0.0);
    }

    #[test]
    fn srcip_partitioning_pushes_whole_plan() {
        let dag = section_3_2_dag();
        let ps = PartitionSet::from_columns(["srcIP"]);
        let report = cost_of(&dag, &ps);
        let fp = dag.query_node("flow_pairs").unwrap();
        for id in dag.topo_order() {
            assert!(report.pushed[id], "node {id} should be pushed");
        }
        // Only the root's collected output costs anything.
        assert_eq!(report.bottleneck, Some(fp));
        let expected_root = report.out_tuples[fp] * estimated_tuple_size(dag.schema(fp).arity());
        assert!((report.max_cost - expected_root).abs() < 1e-6);
    }

    #[test]
    fn partial_set_pushes_only_flows() {
        let dag = section_3_2_dag();
        let ps = PartitionSet::from_columns(["srcIP", "destIP"]);
        let report = cost_of(&dag, &ps);
        let flows = dag.query_node("flows").unwrap();
        let heavy = dag.query_node("heavy_flows").unwrap();
        assert!(report.pushed[flows]);
        assert!(!report.pushed[heavy]); // needs srcIP-only grouping kept together
                                        // heavy receives flows' (reduced) output — far below the full
                                        // stream rate.
        assert!(report.node_cost[heavy] > 0.0);
        let naive = cost_of(&dag, &PartitionSet::empty());
        assert!(report.max_cost < naive.max_cost);
    }

    #[test]
    fn full_ordering_matches_paper_section_6_3() {
        // naive > partial (srcIP,destIP) > full (srcIP)
        let dag = section_3_2_dag();
        let naive = cost_of(&dag, &PartitionSet::empty()).max_cost;
        let partial = cost_of(&dag, &PartitionSet::from_columns(["srcIP", "destIP"])).max_cost;
        let full = cost_of(&dag, &PartitionSet::from_columns(["srcIP"])).max_cost;
        assert!(naive > partial, "naive {naive} vs partial {partial}");
        assert!(partial > full, "partial {partial} vs full {full}");
    }

    #[test]
    fn selectivity_override_changes_rates() {
        let dag = section_3_2_dag();
        let flows = dag.query_node("flows").unwrap();
        let compat = node_compatibilities(&dag);
        let stats = UniformStats::default().with_selectivity(flows, 0.5);
        let report = plan_cost(
            &dag,
            &compat,
            &PartitionSet::empty(),
            &stats,
            &CostModel::default(),
        );
        assert!((report.out_tuples[flows] - 50_000.0).abs() < 1e-6);
    }
}

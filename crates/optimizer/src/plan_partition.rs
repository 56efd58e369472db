//! Query-plan partitioning — the *other* distribution strategy
//! (Borealis-style), implemented as a baseline.
//!
//! Instead of splitting the data stream, the query plan's operators are
//! placed on different hosts, with tuples flowing host-to-host along
//! plan edges. The paper's introduction argues this "fails to generate
//! feasible execution plans if the original query plan contains one or
//! more operators that are too heavy for a single machine (and at 100M
//! packets/sec, most non-trivial operators are too heavy)" — the
//! low-level aggregation must still see *every* packet on one host, so
//! the maximum per-host load barely moves as machines are added. The
//! `figures` binary's ablation tables measure exactly that against
//! query-aware data partitioning.

use qap_plan::{LogicalNode, NodeId, QueryDag};

use crate::{DistributedPlan, OptResult, Partitioning, PlanOutput, SplitStrategy};

/// Lowers a logical plan by *operator placement*: the stream is not
/// split (a single ingest scan feeds the first consumer), and each
/// query operator runs whole on some host, assigned round-robin in
/// topological order.
pub fn plan_partitioning(logical: &QueryDag, hosts: usize) -> OptResult<DistributedPlan> {
    assert!(hosts > 0, "at least one host required");
    let mut dag = QueryDag::new(logical.catalog().clone());
    let mut host: Vec<usize> = Vec::new();
    let mut central: Vec<bool> = Vec::new();
    let mut map: Vec<Option<NodeId>> = vec![None; logical.len()];

    // Host per logical node.
    let placement = place(logical, hosts);

    for id in logical.topo_order() {
        let node = match logical.node(id).clone() {
            LogicalNode::Source { stream, .. } => {
                let scan = dag.add_partition_source(&stream, 0)?;
                debug_assert_eq!(scan, host.len());
                host.push(placement[id]);
                central.push(false);
                map[id] = Some(scan);
                continue;
            }
            LogicalNode::SelectProject {
                input,
                predicate,
                projections,
            } => LogicalNode::SelectProject {
                input: map[input].expect("child lowered"),
                predicate,
                projections,
            },
            LogicalNode::Aggregate {
                input,
                predicate,
                group_by,
                aggregates,
                having,
            } => LogicalNode::Aggregate {
                input: map[input].expect("child lowered"),
                predicate,
                group_by,
                aggregates,
                having,
            },
            LogicalNode::Join {
                left,
                right,
                left_alias,
                right_alias,
                join_type,
                temporal,
                equi,
                residual,
                projections,
            } => LogicalNode::Join {
                left: map[left].expect("child lowered"),
                right: map[right].expect("child lowered"),
                left_alias,
                right_alias,
                join_type,
                temporal,
                equi,
                residual,
                projections,
            },
            LogicalNode::Merge { inputs } => LogicalNode::Merge {
                inputs: inputs
                    .into_iter()
                    .map(|i| map[i].expect("child lowered"))
                    .collect(),
            },
        };
        let pid = dag.add_node(node)?;
        debug_assert_eq!(pid, host.len());
        host.push(placement[id]);
        central.push(false);
        map[id] = Some(pid);
    }

    let names: std::collections::HashMap<NodeId, String> = logical
        .named_queries()
        .into_iter()
        .map(|(n, i)| (i, n.to_string()))
        .collect();
    let outputs = logical
        .roots()
        .into_iter()
        .map(|r| PlanOutput {
            name: names.get(&r).cloned(),
            logical: r,
            node: map[r].expect("root lowered"),
        })
        .collect();

    Ok(DistributedPlan {
        dag,
        host,
        central,
        outputs,
        // One unsplit "partition": the splitter degenerates to a feed
        // into the ingest host.
        partitioning: Partitioning {
            strategy: SplitStrategy::RoundRobin,
            partitions: 1,
            hosts,
            aggregator_host: 0,
        },
        // `optimize` cannot plan this again: no optimizer config says it.
        source: None,
    })
}

fn place(logical: &QueryDag, hosts: usize) -> Vec<usize> {
    let mut placement = vec![0usize; logical.len()];
    let mut next = 0usize;
    for id in logical.topo_order() {
        if logical.node(id).is_source() {
            // The ingest scan lands with its first consumer to model the
            // tap feeding that machine directly.
            continue;
        }
        placement[id] = next % hosts;
        next += 1;
    }
    // Sources inherit their first consumer's host.
    for id in logical.topo_order() {
        if logical.node(id).is_source() {
            let consumer = logical.parents(id).into_iter().next();
            placement[id] = consumer.map(|c| placement[c]).unwrap_or(0);
        }
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn section_3_2() -> QueryDag {
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

    #[test]
    fn round_robin_spreads_operators() {
        let dag = section_3_2();
        let plan = plan_partitioning(&dag, 3).unwrap();
        // One physical node per logical node.
        assert_eq!(plan.dag.len(), dag.len());
        // Operators land on more than one host.
        let distinct: std::collections::HashSet<usize> = plan.host.iter().copied().collect();
        assert!(distinct.len() > 1);
        assert_eq!(plan.outputs.len(), 1);
    }

    #[test]
    fn source_collocated_with_first_consumer() {
        let dag = section_3_2();
        let plan = plan_partitioning(&dag, 4).unwrap();
        let scan = plan
            .dag
            .topo_order()
            .find(|&id| plan.dag.node(id).is_source())
            .unwrap();
        let consumer = plan.dag.parents(scan)[0];
        assert_eq!(plan.host[scan], plan.host[consumer]);
    }

    #[test]
    fn single_host_degenerates_to_centralized() {
        let dag = section_3_2();
        let plan = plan_partitioning(&dag, 1).unwrap();
        assert!(plan.host.iter().all(|&h| h == 0));
    }
}

//! Optimal compatible-partitioning-set search (Section 4.2.2).
//!
//! The algorithm enumerates candidate node subsets, reconciling their
//! compatible sets and keeping the minimum-cost result, with the paper's
//! two pruning heuristics:
//!
//! - only *leaf query nodes* seed the candidate list ("it is impossible
//!   for a partitioning set to be compatible with a node and not ... with
//!   one of the node predecessors");
//! - a candidate grows only by adding an immediate parent of a member or
//!   another leaf query node.

use std::collections::HashSet;

use qap_plan::{NodeId, QueryDag};

use crate::{
    node_compatibilities_with, plan_cost, reconcile_partition_sets, AnalysisOptions, Compatibility,
    CostModel, CostReport, PartitionSet, StatsProvider,
};

/// A fixed-capacity bitset over node ids, as `u64` words. The candidate
/// search keys its memo table on member sets; word arrays keep that
/// correct past 64 nodes (a single `u64` mask would overflow).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn single(capacity: usize, id: NodeId) -> Self {
        let mut s = BitSet {
            words: vec![0; capacity.div_ceil(64).max(1)],
        };
        s.insert(id);
        s
    }

    fn insert(&mut self, id: NodeId) {
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    fn contains(&self, id: NodeId) -> bool {
        (self.words[id / 64] >> (id % 64)) & 1 == 1
    }

    fn with(&self, id: NodeId) -> Self {
        let mut s = self.clone();
        s.insert(id);
        s
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| (word >> b) & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

/// Result of the partitioning analysis over a query set.
#[derive(Debug, Clone)]
pub struct PartitionAnalysis {
    /// Compatible set of every node (indexed by node id).
    pub per_node: Vec<Compatibility>,
    /// The recommended partitioning set — empty when no node admits a
    /// non-trivial partitioning.
    pub recommended: PartitionSet,
    /// Cost report of the recommended set.
    pub report: CostReport,
    /// Number of candidate subsets examined.
    pub candidates_considered: usize,
}

impl PartitionAnalysis {
    /// Node ids the recommendation is compatible with.
    pub fn satisfied_nodes(&self) -> Vec<NodeId> {
        self.report
            .compatible
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders a human-readable account of the analysis: each node's
    /// requirement, its verdict under the recommendation, where data
    /// would converge, and the predicted bottleneck.
    pub fn explain(&self, dag: &QueryDag) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "Per-node compatibility requirements:");
        for id in dag.topo_order() {
            let verdict = match (&self.per_node[id], self.report.compatible[id]) {
                (Compatibility::Any, _) => "any partitioning works".to_string(),
                (_, true) if self.report.pushed[id] => "satisfied — runs per partition".to_string(),
                (_, true) => "satisfied, but a descendant is not — runs centrally".to_string(),
                (_, false) => "NOT satisfied — evaluated centrally".to_string(),
            };
            let _ = writeln!(
                out,
                "  #{id} {:<14} requires {:<28} {}",
                dag.node(id).label(),
                self.per_node[id].to_string(),
                verdict
            );
        }
        let _ = writeln!(
            out,
            "\nRecommendation: {} (after examining {} candidate reconciliations)",
            self.recommended, self.candidates_considered
        );
        match self.report.bottleneck {
            Some(b) if self.report.max_cost > 0.0 => {
                let _ = writeln!(
                    out,
                    "Predicted bottleneck: node #{b} ({}) receiving {:.0} bytes/sec \
                     (plan total {:.0} bytes/sec)",
                    dag.node(b).label(),
                    self.report.max_cost,
                    self.report.total_cost
                );
            }
            _ => {
                let _ = writeln!(out, "No network transfer predicted (fully local plan).");
            }
        }
        out
    }
}

/// Computes the partitioning set minimizing the maximum per-node network
/// cost for a query DAG.
pub fn choose_partitioning(
    dag: &QueryDag,
    stats: &dyn StatsProvider,
    model: &CostModel,
) -> PartitionAnalysis {
    choose_partitioning_with(dag, stats, model, AnalysisOptions::default())
}

/// [`choose_partitioning`] with explicit [`AnalysisOptions`].
pub fn choose_partitioning_with(
    dag: &QueryDag,
    stats: &dyn StatsProvider,
    model: &CostModel,
    opts: AnalysisOptions,
) -> PartitionAnalysis {
    let per_node = node_compatibilities_with(dag, opts);

    // Constrained nodes: those whose compatibility actually restricts
    // the choice (σ/π/∪/source are satisfied by anything).
    let constrained: Vec<NodeId> = dag
        .topo_order()
        .filter(|&id| per_node[id].as_set().is_some_and(|s| !s.is_empty()))
        .collect();

    let cost_of = |ps: &PartitionSet| plan_cost(dag, &per_node, ps, stats, model);
    let satisfied_count = |r: &CostReport| r.compatible.iter().filter(|&&c| c).count();

    // Candidate `a` improves on `b` when it is strictly cheaper, or
    // equally expensive while satisfying more constrained nodes (ties on
    // pure network cost break toward spreading CPU load — a partitioned
    // plan never loses to the centralized fallback it matches).
    let improves = |cand: &CostReport, best: &CostReport| {
        let (c, b) = (cand.max_cost, best.max_cost);
        let eps = 1e-9 * b.max(1.0);
        c < b - eps || (c <= b + eps && satisfied_count(cand) > satisfied_count(best))
    };

    // Centralized fallback: the empty set.
    let mut best_set = PartitionSet::empty();
    let mut best_report = cost_of(&best_set);
    let mut considered = 1usize;

    // Seeds (heuristic 1, generalized): constrained nodes with no
    // *constrained* node beneath them. The paper seeds with "leaf
    // nodes", but a selection/projection view between the source and an
    // aggregation is compatible-with-anything — the aggregation above it
    // is still effectively a leaf requirement.
    let has_constrained_below: Vec<bool> = {
        let mut below = vec![false; dag.len()];
        for id in dag.topo_order() {
            for c in dag.node(id).children() {
                // Propagation is safe in topo order: below[c] is final.
                if below[c] || per_node[c].as_set().is_some_and(|s| !s.is_empty()) {
                    below[id] = true;
                }
            }
        }
        below
    };
    let leafs: Vec<NodeId> = constrained
        .iter()
        .copied()
        .filter(|&id| !has_constrained_below[id])
        .collect();
    let seeds: Vec<NodeId> = if leafs.is_empty() {
        constrained.clone()
    } else {
        leafs.clone()
    };

    // The all-constrained reconciliation chain is always a candidate:
    // it is the set satisfying the most nodes simultaneously (when
    // non-empty), and costing it up front keeps quality when the subset
    // search below hits its budget on very wide query sets.
    let chain = constrained
        .iter()
        .filter_map(|&id| per_node[id].as_set())
        .fold(None::<PartitionSet>, |acc, s| {
            Some(match acc {
                None => s.clone(),
                Some(acc) => reconcile_partition_sets(&acc, s),
            })
        });
    if let Some(chain) = chain.filter(|c| !c.is_empty()) {
        considered += 1;
        let report = cost_of(&chain);
        if improves(&report, &best_report) {
            best_report = report;
            best_set = chain;
        }
    }

    // Memoized subset search over candidate member sets. Member sets are
    // word-array bitsets, so DAGs of any size take the same path (a u64
    // mask would shift-overflow at 64 nodes). Wide query sets with many
    // reconcilable leaves grow exponentially many subsets, so expansion
    // stops once enough candidates were examined — the seeds and the
    // chain above are always covered.
    const CANDIDATE_BUDGET: usize = 20_000;
    struct Candidate {
        members: BitSet,
        set: PartitionSet,
    }
    let mut frontier: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<BitSet> = HashSet::new();
    for &id in &seeds {
        let Some(s) = per_node[id].as_set() else {
            continue;
        };
        let members = BitSet::single(dag.len(), id);
        if seen.insert(members.clone()) {
            frontier.push(Candidate {
                members,
                set: s.clone(),
            });
        }
    }

    while !frontier.is_empty() {
        let mut next: Vec<Candidate> = Vec::new();
        for cand in &frontier {
            considered += 1;
            let report = cost_of(&cand.set);
            if improves(&report, &best_report) {
                best_report = report;
                best_set = cand.set.clone();
            }
            if seen.len() >= CANDIDATE_BUDGET {
                continue;
            }
            // Expansion (heuristic 2): immediate parents of members, or
            // other leaf query nodes.
            let mut expansions: Vec<NodeId> = Vec::new();
            for id in cand.members.iter() {
                expansions.extend(dag.parents(id));
            }
            expansions.extend(leafs.iter().copied());
            for j in expansions {
                if cand.members.contains(j) {
                    continue;
                }
                let Some(sj) = per_node[j].as_set() else {
                    continue;
                };
                if sj.is_empty() {
                    continue;
                }
                let merged = reconcile_partition_sets(&cand.set, sj);
                if merged.is_empty() {
                    continue;
                }
                let members = cand.members.with(j);
                if seen.insert(members.clone()) {
                    next.push(Candidate {
                        members,
                        set: merged,
                    });
                }
            }
        }
        frontier = next;
    }

    PartitionAnalysis {
        per_node,
        recommended: best_set,
        report: best_report,
        candidates_considered: considered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformStats;
    use qap_sql::QuerySetBuilder;
    use qap_types::Catalog;

    fn analyze(queries: &[(&str, &str)]) -> (QueryDag, PartitionAnalysis) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for (name, sql) in queries {
            b.add_query(name, sql).unwrap();
        }
        let dag = b.build();
        let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
        (dag, analysis)
    }

    #[test]
    fn section_3_2_recommends_srcip() {
        // "It is easy to see that partitioning on (srcIP) can satisfy all
        // queries in our sample query set."
        let (_, analysis) = analyze(&[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
            (
                "flow_pairs",
                "SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt \
                 FROM heavy_flows S1, heavy_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
            ),
        ]);
        assert_eq!(
            analysis.recommended,
            PartitionSet::from_columns(["srcIP"]),
            "considered {} candidates",
            analysis.candidates_considered
        );
        // Every node satisfied.
        assert!(analysis.report.compatible.iter().all(|&c| c));
    }

    #[test]
    fn section_4_example_recommends_two_tuple() {
        // tcp_flows (5-tuple) + flow_cnt (srcIP,destIP) reconcile to
        // {srcIP, destIP}.
        let (_, analysis) = analyze(&[
            (
                "tcp_flows",
                "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt, SUM(len) as bytes \
                 FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
            ),
            (
                "flow_cnt",
                "SELECT tb, srcIP, destIP, COUNT(*) as n FROM tcp_flows \
                 GROUP BY tb, srcIP, destIP",
            ),
        ]);
        assert_eq!(
            analysis.recommended,
            PartitionSet::from_columns(["srcIP", "destIP"])
        );
    }

    #[test]
    fn masked_sets_reconcile_to_a_set_no_query_asks_for() {
        // Two aggregations with different srcIP masks: neither query's
        // own set satisfies both; only the reconciled mask (0xFF00 ⊓
        // 0x0FF0 = 0x0F00) does, and only reconciliation can find it.
        let (_, analysis) = analyze(&[
            (
                "hi",
                "SELECT tb, s, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP & 0xFF00 as s",
            ),
            (
                "lo",
                "SELECT tb, s, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP & 0x0FF0 as s",
            ),
        ]);
        assert_eq!(analysis.recommended.to_string(), "{srcIP & 0xF00}");
        assert!(analysis.report.compatible.iter().all(|&c| c));
    }

    fn analyze_strict(queries: &[(&str, &str)]) -> (QueryDag, PartitionAnalysis) {
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for (name, sql) in queries {
            b.add_query(name, sql).unwrap();
        }
        let dag = b.build();
        let analysis = choose_partitioning_with(
            &dag,
            &UniformStats::default(),
            &CostModel::default(),
            AnalysisOptions {
                strict_join_compatibility: true,
            },
        );
        (dag, analysis)
    }

    #[test]
    fn section_6_2_cost_model_picks_dominant_query() {
        // Independent aggregation (subnet grouping) and self-join
        // (5-tuple). Under the paper's strict join rule no single set
        // satisfies both; the aggregation dominates the load, so the
        // optimizer must choose its set (srcIP & 0xFFF0, destIP).
        let (dag, analysis) = analyze_strict(&[
            (
                "subnet_stats",
                "SELECT tb, subnet, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
                 GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP",
            ),
            (
                "tcp_flows",
                "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
            ),
            (
                "jitter",
                "SELECT S1.tb, S1.srcIP, S1.destIP \
                 FROM tcp_flows S1, tcp_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.destIP = S2.destIP \
                 and S1.srcPort = S2.srcPort and S1.destPort = S2.destPort \
                 and S1.tb = S2.tb+1",
            ),
        ]);
        assert_eq!(analysis.recommended.to_string(), "{destIP, srcIP & 0xFFF0}");
        let agg = dag.query_node("subnet_stats").unwrap();
        assert!(analysis.report.compatible[agg]);
        // The join is left incompatible — the cheaper sacrifice.
        let join = dag.query_node("jitter").unwrap();
        assert!(!analysis.report.compatible[join]);
    }

    #[test]
    fn permissive_join_rule_accepts_coarsened_key() {
        // Semantically, partitioning on a coarsening of the join key
        // ((srcIP & 0xFFF0, destIP) vs the 5-tuple) keeps matching pairs
        // collocated, so the default (permissive) analysis marks the
        // join compatible too — a strict improvement over the paper.
        let (dag, analysis) = analyze(&[
            (
                "subnet_stats",
                "SELECT tb, subnet, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet, destIP",
            ),
            (
                "tcp_flows",
                "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
            ),
            (
                "jitter",
                "SELECT S1.tb, S1.srcIP, S1.destIP \
                 FROM tcp_flows S1, tcp_flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.destIP = S2.destIP \
                 and S1.srcPort = S2.srcPort and S1.destPort = S2.destPort \
                 and S1.tb = S2.tb+1",
            ),
        ]);
        assert_eq!(analysis.recommended.to_string(), "{destIP, srcIP & 0xFFF0}");
        let join = dag.query_node("jitter").unwrap();
        assert!(analysis.report.compatible[join]);
    }

    #[test]
    fn aggregation_above_selection_view_is_seeded() {
        // A σ/π view between the source and the aggregation is
        // compatible-with-anything; the aggregation above it must still
        // seed the search even when another constrained leaf exists.
        let (_, analysis) = analyze(&[
            ("web", "SELECT time, srcIP, destIP, len FROM TCP WHERE destPort = 80"),
            (
                "heavy",
                "SELECT tb, destIP, COUNT(*) as c FROM web GROUP BY time/60 as tb, destIP",
            ),
            (
                "light",
                "SELECT tb, srcIP, destIP, COUNT(*) as c FROM TCP                  GROUP BY time/60 as tb, srcIP, destIP",
            ),
        ]);
        // (destIP) satisfies both aggregations; reachable only if heavy
        // seeds the candidate list.
        assert_eq!(analysis.recommended, PartitionSet::from_columns(["destIP"]));
    }

    #[test]
    fn huge_dag_searches_without_panicking() {
        // 70 identical aggregations: the subset search runs past the
        // 64-node mark (the old u64 member mask would overflow) and the
        // candidate budget keeps the exponential leaf lattice bounded.
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for i in 0..70 {
            b.add_query(
                &format!("q{i}"),
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            )
            .unwrap();
        }
        let dag = b.build();
        assert!(dag.len() > 64);
        let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
        assert_eq!(analysis.recommended, PartitionSet::from_columns(["srcIP"]));
    }

    #[test]
    fn reconciliation_works_above_node_id_64() {
        // Pad the DAG with unconstrained σ/π views so the two
        // constrained aggregations land at node ids > 64, then check the
        // search still reconciles them — with a `1u64 << id` mask this
        // would shift-overflow (debug) or alias subsets (release).
        let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
        for i in 0..70 {
            b.add_query(
                &format!("view{i}"),
                "SELECT time, srcIP, destIP, len FROM TCP WHERE destPort = 80",
            )
            .unwrap();
        }
        b.add_query(
            "tcp_flows",
            "SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt \
             FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort",
        )
        .unwrap();
        b.add_query(
            "flow_cnt",
            "SELECT tb, srcIP, destIP, COUNT(*) as n FROM tcp_flows GROUP BY tb, srcIP, destIP",
        )
        .unwrap();
        let dag = b.build();
        let flow_cnt = dag.query_node("flow_cnt").unwrap();
        assert!(flow_cnt > 64, "flow_cnt must sit above the u64 boundary");
        let analysis = choose_partitioning(&dag, &UniformStats::default(), &CostModel::default());
        assert_eq!(
            analysis.recommended,
            PartitionSet::from_columns(["srcIP", "destIP"])
        );
    }

    #[test]
    fn explain_narrates_the_analysis() {
        let (dag, analysis) = analyze(&[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy_flows",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
        ]);
        let text = analysis.explain(&dag);
        assert!(text.contains("Recommendation: {srcIP}"), "{text}");
        assert!(text.contains("runs per partition"), "{text}");
        assert!(text.contains("Predicted bottleneck"), "{text}");
        // Under (srcIP,destIP)-only analysis the partial case shows the
        // central verdicts.
        let partial = crate::plan_cost(
            &dag,
            &analysis.per_node,
            &PartitionSet::from_columns(["srcIP", "destIP"]),
            &UniformStats::default(),
            &CostModel::default(),
        );
        let heavy = dag.query_node("heavy_flows").unwrap();
        assert!(!partial.compatible[heavy]);
    }

    #[test]
    fn no_partitionable_nodes_recommends_empty() {
        let (_, analysis) = analyze(&[(
            "per_epoch",
            // Grouping only on the temporal attribute: nothing to hash on.
            "SELECT tb, COUNT(*) as cnt FROM TCP GROUP BY time/60 as tb",
        )]);
        assert!(analysis.recommended.is_empty());
    }

    #[test]
    fn select_only_query_set_recommends_empty() {
        // σ/π is compatible with anything; there is no constraint to
        // optimize, and no benefit either — the empty recommendation
        // signals "partition however the hardware likes".
        let (_, analysis) = analyze(&[("dns", "SELECT time, srcIP FROM TCP WHERE destPort = 53")]);
        assert!(analysis.recommended.is_empty());
        assert_eq!(analysis.candidates_considered, 1);
    }

    #[test]
    fn recommendation_never_costs_more_than_centralized() {
        let cases: &[&[(&str, &str)]] = &[
            &[(
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            )],
            &[
                (
                    "a",
                    "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
                ),
                (
                    "b",
                    "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
                ),
            ],
        ];
        for queries in cases {
            let (dag, analysis) = analyze(queries);
            let central = plan_cost(
                &dag,
                &analysis.per_node,
                &PartitionSet::empty(),
                &UniformStats::default(),
                &CostModel::default(),
            );
            assert!(analysis.report.max_cost <= central.max_cost);
        }
    }

    #[test]
    fn conflicting_leaves_pick_the_heavier() {
        // Two leaf aggregations with disjoint keys cannot reconcile; the
        // search keeps the one whose satisfaction lowers max cost most.
        // With equal rates either choice beats centralization.
        let (_, analysis) = analyze(&[
            (
                "by_src",
                "SELECT tb, srcIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, srcIP",
            ),
            (
                "by_dst",
                "SELECT tb, destIP, COUNT(*) as c FROM TCP GROUP BY time/60 as tb, destIP",
            ),
        ]);
        assert!(!analysis.recommended.is_empty());
        let satisfied = analysis.report.compatible.iter().filter(|&&c| c).count();
        assert!(satisfied >= 1);
    }
}

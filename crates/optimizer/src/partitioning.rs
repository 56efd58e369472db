//! Descriptions of the deployed partitioning and optimizer knobs.

use qap_partition::{AnalysisOptions, HashPartitioner, PartitionSet};
use qap_plan::{LogicalNode, QueryDag};

use crate::{OptError, OptResult};

/// How the splitter assigns tuples to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Query-independent round-robin (the baseline of every experiment).
    RoundRobin,
    /// Hash of a partitioning set (Section 3.3). The set is whatever the
    /// hardware was programmed with — not necessarily the analyzer's
    /// recommendation.
    Hash(PartitionSet),
}

impl SplitStrategy {
    /// The partitioning set the strategy preserves: hash → its set;
    /// round-robin preserves nothing (treated as the empty set, which no
    /// constrained node is compatible with).
    pub fn effective_set(&self) -> PartitionSet {
        match self {
            SplitStrategy::RoundRobin => PartitionSet::empty(),
            SplitStrategy::Hash(s) => s.clone(),
        }
    }
}

/// The deployed partitioning: strategy, partition count, and the cluster
/// shape it maps onto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// Split strategy programmed into the hardware.
    pub strategy: SplitStrategy,
    /// Number of partitions `M` (the paper uses 2 per host).
    pub partitions: usize,
    /// Number of hosts; partitions are block-assigned
    /// (`host = partition * hosts / partitions`).
    pub hosts: usize,
    /// Host executing all central nodes (the paper's "aggregator node";
    /// it also owns its share of partitions).
    pub aggregator_host: usize,
}

impl Partitioning {
    /// Hash partitioning with 2 partitions per host (the paper's
    /// experimental configuration), aggregator on host 0.
    pub fn hash(set: PartitionSet, hosts: usize) -> Self {
        Partitioning {
            strategy: SplitStrategy::Hash(set),
            partitions: hosts * 2,
            hosts,
            aggregator_host: 0,
        }
    }

    /// Round-robin with 2 partitions per host, aggregator on host 0.
    pub fn round_robin(hosts: usize) -> Self {
        Partitioning {
            strategy: SplitStrategy::RoundRobin,
            partitions: hosts * 2,
            hosts,
            aggregator_host: 0,
        }
    }

    /// Validates the shape.
    pub fn validate(&self) -> OptResult<()> {
        if self.hosts == 0 {
            return Err(OptError::BadPartitioning("zero hosts".into()));
        }
        if self.partitions < self.hosts {
            return Err(OptError::BadPartitioning(format!(
                "{} partitions cannot cover {} hosts",
                self.partitions, self.hosts
            )));
        }
        if self.aggregator_host >= self.hosts {
            return Err(OptError::BadPartitioning(format!(
                "aggregator host {} out of range ({} hosts)",
                self.aggregator_host, self.hosts
            )));
        }
        Ok(())
    }

    /// [`Partitioning::validate`], plus: a hash set must resolve against
    /// the schema of every source of `logical` — the resolution the
    /// splitter performs when it compiles its partitioner, so a
    /// deployment that cannot run is rejected before it is costed.
    pub(crate) fn validate_for(&self, logical: &QueryDag) -> OptResult<()> {
        self.validate()?;
        let SplitStrategy::Hash(set) = &self.strategy else {
            return Ok(());
        };
        for id in logical.topo_order() {
            if let LogicalNode::Source { stream, .. } = logical.node(id) {
                HashPartitioner::new(set, logical.schema(id), self.partitions).map_err(|e| {
                    OptError::BadPartitioning(format!(
                        "partitioning set {set} is unusable on stream {stream}: {e}"
                    ))
                })?;
            }
        }
        Ok(())
    }

    /// Host owning a partition (block assignment: with 8 partitions on
    /// 4 hosts, partitions 0–1 → host 0, 2–3 → host 1, ...).
    pub fn host_of_partition(&self, p: usize) -> usize {
        debug_assert!(p < self.partitions);
        p * self.hosts / self.partitions
    }

    /// Partition indices owned by a host.
    pub fn partitions_of_host(&self, host: usize) -> Vec<usize> {
        (0..self.partitions)
            .filter(|&p| self.host_of_partition(p) == host)
            .collect()
    }
}

/// Where incompatible aggregations compute their partial (sub-)
/// aggregates: the planner's scope, under the optimizer's name for it.
pub use qap_planner::SubScope as PartialAggScope;

/// Optimizer knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Disable all push-down: produce the partition-agnostic plan of
    /// Figure 3 (everything central behind one merge per source).
    pub agnostic: bool,
    /// Apply the Section 5.2.2 sub/super split to aggregations that are
    /// incompatible with the deployed partitioning.
    pub partial_aggregation: bool,
    /// Scope of partial aggregation.
    pub partial_agg_scope: PartialAggScope,
    /// Compatibility-analysis options (e.g. strict join rule).
    pub analysis: AnalysisOptions,
}

impl OptimizerConfig {
    /// The paper's fully-enabled optimizer: push-down plus per-host
    /// partial aggregation for whatever stays incompatible.
    pub fn full() -> Self {
        OptimizerConfig {
            agnostic: false,
            partial_aggregation: true,
            partial_agg_scope: PartialAggScope::PerHost,
            analysis: AnalysisOptions::default(),
        }
    }

    /// The *Naive* experimental configuration: per-partition partial
    /// aggregation only (what query-independent stream partitioning
    /// gives you).
    pub fn naive() -> Self {
        OptimizerConfig {
            agnostic: false,
            partial_aggregation: true,
            partial_agg_scope: PartialAggScope::PerPartition,
            analysis: AnalysisOptions::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_host_assignment() {
        let p = Partitioning::round_robin(4);
        assert_eq!(p.partitions, 8);
        let hosts: Vec<usize> = (0..8).map(|i| p.host_of_partition(i)).collect();
        assert_eq!(hosts, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(p.partitions_of_host(2), vec![4, 5]);
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut p = Partitioning::round_robin(2);
        p.hosts = 0;
        assert!(p.validate().is_err());
        let mut p = Partitioning::round_robin(2);
        p.partitions = 1;
        assert!(p.validate().is_err());
        let mut p = Partitioning::round_robin(2);
        p.aggregator_host = 5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn effective_set() {
        assert!(SplitStrategy::RoundRobin.effective_set().is_empty());
        let s = PartitionSet::from_columns(["srcIP"]);
        assert_eq!(SplitStrategy::Hash(s.clone()).effective_set(), s);
    }
}

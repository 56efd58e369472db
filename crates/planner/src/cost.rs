//! Extraction cost: the Section 4.2.1 network charge as a pure
//! per-e-node cost function.
//!
//! Rates come from [`qap_partition::node_rates`] — the same steady-state
//! estimates `plan_cost` uses — so the extractor and the analyzer's
//! frontier costing price identical plans identically. The only network
//! charges are [`PlanExpr::Collect`] terms: shipping a partitioned
//! stream to the aggregator costs that stream's byte rate; everything
//! else (partition-local processing, central-to-central edges) is free,
//! exactly as in the paper's model.

use std::cmp::Ordering;

use egg::{CostFunction, Id};
use qap_partition::NodeRates;
use qap_plan::{LogicalNode, QueryDag};
use qap_types::estimated_tuple_size;

use crate::partial;
use crate::term::PlanExpr;

/// Cost of one plan term.
///
/// Ordered lexicographically on `(net, central_ops)`: network bytes
/// first (the paper's objective), then the number of central operators
/// as a tie-break so maximal push-down wins exact byte ties.
/// `out_bytes` is a *rider*, not part of the order: it carries the
/// term's own output byte rate so a parent [`PlanExpr::Collect`] knows
/// what a collection would cost. All e-nodes of one class produce the
/// same logical stream, so the rider is class-consistent.
#[derive(Debug, Clone, Copy)]
pub struct PlanCost {
    /// Network bytes/sec this subtree ships to the aggregator.
    pub net: f64,
    /// Central operators in the subtree (tie-break).
    pub central_ops: u32,
    /// Output byte rate of the stream this term produces (rider).
    pub out_bytes: f64,
}

impl PartialEq for PlanCost {
    fn eq(&self, other: &Self) -> bool {
        self.net == other.net && self.central_ops == other.central_ops
    }
}

impl PartialOrd for PlanCost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.net.partial_cmp(&other.net)? {
            Ordering::Equal => self.central_ops.partial_cmp(&other.central_ops),
            ord => Some(ord),
        }
    }
}

/// Per-logical-node byte rate of one *sub-aggregate* output stream
/// (group columns + partial columns, Section 5.2.2). Zero for
/// non-aggregate nodes.
pub(crate) fn sub_partial_bytes(dag: &QueryDag, rates: &NodeRates) -> Vec<f64> {
    dag.topo_order()
        .map(|id| match dag.node(id) {
            LogicalNode::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                rates.out_tuples[id]
                    * estimated_tuple_size(partial::partial_arity(group_by.len(), aggregates))
            }
            _ => 0.0,
        })
        .collect()
}

/// The extraction cost function.
pub struct NetCost<'a> {
    /// Steady-state per-node rates.
    pub rates: &'a NodeRates,
    /// Sub-aggregate output byte rates (indexed by logical node).
    pub sub_bytes: &'a [f64],
}

impl CostFunction<PlanExpr> for NetCost<'_> {
    type Cost = PlanCost;

    fn cost(&mut self, enode: &PlanExpr, costs: &mut dyn FnMut(Id) -> PlanCost) -> PlanCost {
        match enode {
            PlanExpr::Part { op } => PlanCost {
                net: 0.0,
                central_ops: 0,
                out_bytes: self.rates.out_bytes[*op as usize],
            },
            PlanExpr::Lift { op, children } => {
                let (net, ops) = fold(children, costs);
                PlanCost {
                    net,
                    central_ops: ops,
                    out_bytes: self.rates.out_bytes[*op as usize],
                }
            }
            PlanExpr::Sub { op, child, .. } => {
                let c = costs(child[0]);
                PlanCost {
                    net: c.net,
                    central_ops: c.central_ops,
                    out_bytes: self.sub_bytes[*op as usize],
                }
            }
            PlanExpr::Collect { child } => {
                // The one place network transfer happens: the collected
                // stream crosses to the aggregator at its full rate.
                let c = costs(child[0]);
                PlanCost {
                    net: c.net + c.out_bytes,
                    central_ops: c.central_ops,
                    out_bytes: c.out_bytes,
                }
            }
            PlanExpr::Central { op, children } => {
                let (net, ops) = fold(children, costs);
                PlanCost {
                    net,
                    central_ops: ops.saturating_add(1),
                    out_bytes: self.rates.out_bytes[*op as usize],
                }
            }
            PlanExpr::Super { op, child } => {
                let c = costs(child[0]);
                PlanCost {
                    net: c.net,
                    central_ops: c.central_ops.saturating_add(1),
                    out_bytes: self.rates.out_bytes[*op as usize],
                }
            }
        }
    }
}

fn fold(children: &[Id], costs: &mut dyn FnMut(Id) -> PlanCost) -> (f64, u32) {
    let mut net = 0.0;
    let mut ops = 0u32;
    for &c in children {
        let cc = costs(c);
        net += cc.net;
        ops = ops.saturating_add(cc.central_ops);
    }
    (net, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_net_then_ops() {
        let a = PlanCost {
            net: 1.0,
            central_ops: 5,
            out_bytes: 0.0,
        };
        let b = PlanCost {
            net: 2.0,
            central_ops: 0,
            out_bytes: 0.0,
        };
        assert!(a < b);
        let c = PlanCost {
            net: 1.0,
            central_ops: 2,
            out_bytes: 99.0,
        };
        assert!(c < a);
        // The rider does not participate in equality.
        let d = PlanCost {
            net: 1.0,
            central_ops: 2,
            out_bytes: 7.0,
        };
        assert!(c == d);
    }
}

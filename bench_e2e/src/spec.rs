//! What the benchmark runs and what it reports: the four workloads and
//! the two metric tables. `BENCHMARK.json` at the repo root lists the
//! same names; a test holds the two in step.

use qap::prelude::*;

/// Every workload deploys onto this many hosts: the aggregator (which
/// also owns a partition and runs on the calling thread) plus two
/// leaves, on a box with two cores.
pub const HOSTS: usize = 3;

/// Which cluster runner a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `run_distributed_threaded`: leaf units on worker threads behind
    /// the bounded in-process channel.
    Threaded,
    /// `run_distributed_remote` over TCP loopback against in-process
    /// `serve_host` acceptor threads.
    RemoteTcp,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub scenario: Scenario,
    /// Configuration name understood by `Scenario::plan`.
    pub config: &'static str,
    pub runner: Runner,
    /// Why the workload exists (one line; `BENCHMARK.json` carries it).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "agg_part_chan",
        scenario: Scenario::SimpleAgg,
        config: "Partitioned",
        runner: Runner::Threaded,
        why: "6.1 hash-partitioned on the flow 4-tuple: ~1% of tuples cross the boundary, so \
              splitter and leaf engines do the work; wire, link and central merge are idle",
    },
    Workload {
        name: "agg_naive_chan",
        scenario: Scenario::SimpleAgg,
        config: "Naive",
        runner: Runner::Threaded,
        why: "6.1 round-robin baseline: ~60% of raw tuples are encoded, cross the channel and \
              aggregate centrally; the hash router is bypassed, so a hash change shows nothing",
    },
    Workload {
        name: "qset_part_chan",
        scenario: Scenario::QuerySet,
        config: "Partitioned (optimal)",
        runner: Runner::Threaded,
        why: "6.2 query set on (srcIP&0xFFF0,destIP): two aggregations plus the rows-only \
              epoch self-join; a join or planner change shows here, an aggregate-only one less",
    },
    Workload {
        name: "agg_part_tcp",
        scenario: Scenario::SimpleAgg,
        config: "Partitioned",
        runner: Runner::RemoteTcp,
        why: "same plan as agg_part_chan over TCP loopback: every input tuple is encoded and \
              shipped to its host, so the difference is the process transport",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The cluster configuration every workload runs under.
pub fn sim_config() -> SimConfig {
    SimConfig {
        batch: BatchConfig::new(1024),
        transport: TransportConfig::default().host_serial(),
        ..SimConfig::default()
    }
}

/// The seeded synthetic trace. The full size (~0.45 M packets, ~125 MB
/// resident) is what fits the per-run time budget with enough timed
/// reps for a steady median; `--smoke` shrinks it for tests.
pub fn trace_config(seed: u64, smoke: bool) -> TraceConfig {
    TraceConfig {
        seed,
        epochs: if smoke { 3 } else { 5 },
        epoch_secs: 60,
        flows_per_epoch: if smoke { 2_000 } else { 20_000 },
        hosts: 1_000,
        max_flow_packets: 32,
        pareto_alpha: 1.1,
        zipf_exponent: 1.1,
        suspicious_fraction: 0.05,
        spread_ips: true,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics, which are explanatory and carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
///
/// Bounds follow the run-to-run spread measured on the 2-core sandbox
/// (README, "Steadiness"): the two timings and set-up move 5-15% between
/// identical runs there, so they carry the widest bound the contract
/// allows; memory repeats to 1%; the count metrics are exact for a given
/// seed and their bound only absorbs trace-to-trace variation (up to
/// 2.5%) across seeds.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("tuples_per_s", "tuples/s", Higher, 0.25),
    e2e("cpu_s_per_mtuple", "cpu_s/Mtuple", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("agg_rx_tuples_per_ktuple", "count", Lower, 0.10),
    e2e("agg_rx_bytes_per_tuple", "bytes", Lower, 0.10),
    e2e("agg_work_per_ktuple", "work", Lower, 0.10),
    e2e("bottleneck_work_per_ktuple", "work", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`). Layer
/// names are the repo's module names.
pub const PER_LAYER: [MetricSpec; 36] = [
    layer("trace.generate_ns_per_tuple", "ns/tuple", Lower),
    layer("optimizer.plan_ms", "ms", Lower),
    layer("types.column.from_rows_ns_per_tuple", "ns/tuple", Lower),
    layer("types.column.to_rows_ns_per_tuple", "ns/tuple", Lower),
    layer("types.tuple.clone_ns_per_tuple", "ns/tuple", Lower),
    layer("partition.hash.route_ns_per_tuple", "ns/tuple", Lower),
    layer("partition.hash.skew", "ratio", Lower),
    layer("types.wire.encode_ns_per_tuple", "ns/tuple", Lower),
    layer("types.wire.decode_ns_per_tuple", "ns/tuple", Lower),
    layer("types.wire.bytes_per_tuple", "bytes", Lower),
    layer("cluster.link.chan_ns_per_tuple", "ns/tuple", Lower),
    layer("cluster.link.tcp_ns_per_tuple", "ns/tuple", Lower),
    layer("cluster.link.frames", "count", Lower),
    layer("cluster.link.frame_bytes", "bytes", Lower),
    layer("cluster.link.backpressure_stalls", "count", Lower),
    layer("cluster.link.queue_peak", "count", Lower),
    layer("cluster.link.retries", "count", Lower),
    layer("cluster.remote.session_overhead_ms", "ms", Lower),
    layer("exec.single_engine_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.columnar_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.push_frame_ns_per_tuple", "ns/tuple", Lower),
    layer("exec.kernel_hits", "count", Higher),
    layer("exec.kernel_fallbacks", "count", Lower),
    layer("exec.group_inserts", "count", Lower),
    layer("exec.group_slots", "count", Lower),
    layer("exec.group_probes_per_insert", "ratio", Lower),
    layer("exec.flushes", "count", Lower),
    layer("exec.flush_ns_per_out_tuple", "ns/tuple", Lower),
    layer("cluster.sim_ns_per_tuple", "ns/tuple", Lower),
    layer("cluster.sim.leaf_imbalance", "ratio", Lower),
    layer("cluster.sim.total_transfers", "count", Lower),
    layer("cluster.parallelism", "ratio", Higher),
    layer("cluster.attributed_ns_per_tuple", "ns/tuple", Lower),
    layer("cluster.unattributed_ns_per_tuple", "ns/tuple", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.rep_drift", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "{} has unit {}", m.name, m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` and the tables above name the same workloads
    /// and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let listed = |key: &str| -> Vec<Json> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .to_vec()
        };
        let workloads: Vec<Json> = WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
            .collect();
        assert_eq!(listed("workloads"), workloads);

        let as_json = |m: &MetricSpec| {
            let mut fields = vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ];
            if let Some(b) = m.bound {
                fields.push(("bound", Json::Num(b)));
            }
            Json::obj(fields)
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(as_json).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(as_json).collect::<Vec<_>>()
        );
    }
}

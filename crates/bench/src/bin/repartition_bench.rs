//! Static vs adaptive splitter under an adversarial skew ramp — the
//! before/after measurement for closed-loop re-partitioning
//! (EXPERIMENTS.md), written as machine-readable `BENCH_repartition.json`.
//!
//! The workload is built to hurt the static splitter maximally: every
//! phase's hot source addresses are *chosen* (by probing the actual
//! hash table) to route to one victim leaf host, so 80% of the stream
//! piles onto a quarter of the cluster and stays there no matter how
//! the hot set drifts. The adaptive run sees the same packets; its
//! controller re-plans the bucket assignment each time the imbalance
//! trigger fires and migrates live aggregate state at epoch
//! boundaries.
//!
//! Throughput is reported from the simulator's deterministic work
//! accounting: a cluster ingests at the rate its most-loaded host
//! sustains, so sustainable throughput = tuples / max per-host work —
//! machine-independent, unlike wall-clock. The binary exits non-zero
//! if the adaptive splitter does not reach 1.5× the static splitter's
//! sustainable throughput, or if no migration actually shipped state
//! (a vacuous win would gate nothing).
//!
//! Usage: `cargo run --release -p qap-bench --bin repartition_bench
//! [OUT.json]` (default `BENCH_repartition.json` in the working
//! directory).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use qap::prelude::*;
use qap::types::{tcp_schema, Value};

/// Minimum adaptive-over-static sustainable-throughput ratio.
const GATE: f64 = 1.5;

fn flows_plan(hosts: usize) -> DistributedPlan {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    b.add_query(
        "flows",
        "SELECT tb, srcIP, COUNT(*) as pkts, SUM(len) as bytes FROM TCP \
         GROUP BY time/60 as tb, srcIP",
    )
    .unwrap();
    optimize(
        &b.build(),
        &Partitioning::hash(PartitionSet::from_columns(["srcIP"]), hosts),
        &OptimizerConfig::full(),
    )
    .unwrap()
}

/// Probes the splitter's hash table for `per_phase * phases` distinct
/// srcIP values that all route to `victim` under the initial (static)
/// assignment — the hot sets of an adversarially colocated skew ramp.
fn hot_sets_on_victim(
    plan: &DistributedPlan,
    victim: usize,
    phases: usize,
    per_phase: usize,
) -> Vec<Vec<u64>> {
    let set = PartitionSet::from_columns(["srcIP"]);
    let schema = tcp_schema();
    let splitter = HashPartitioner::new(&set, &schema, plan.partitioning.partitions).unwrap();
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); phases];
    let mut phase = 0;
    // Offset candidates away from the generator's background address
    // range so hot keys never collide with cold traffic.
    for v in 1_000_000u64.. {
        let probe = Tuple::new(vec![
            Value::UInt(0),
            Value::UInt(0),
            Value::UInt(v),
            Value::UInt(0),
            Value::UInt(0),
            Value::UInt(0),
            Value::UInt(0),
            Value::UInt(0),
            Value::UInt(0),
        ]);
        let host = plan
            .partitioning
            .host_of_partition(splitter.partition(&probe));
        if host == victim {
            out[phase].push(v);
            phase = (phase + 1) % phases;
            if out.iter().all(|p| p.len() >= per_phase) {
                break;
            }
        }
    }
    out
}

struct RunStats {
    max_work: f64,
    tuples: f64,
    wall_ms: f64,
    repartitions: u64,
    migrated_keys: u64,
    pause_ms: f64,
    peak_imbalance: f64,
}

fn measure(plan: &DistributedPlan, trace: &[Tuple], cfg: &SimConfig) -> RunStats {
    let start = Instant::now();
    let r = run_distributed(plan, trace, cfg).expect("runs");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(r.failures.is_empty(), "clean path: {:?}", r.failures);
    let m = &r.metrics;
    RunStats {
        max_work: m.work.iter().copied().fold(0.0, f64::max),
        tuples: trace.len() as f64,
        wall_ms,
        repartitions: m.repartitions,
        migrated_keys: m.migrated_keys,
        pause_ms: m.migration_pause_ms,
        peak_imbalance: m.load_imbalance,
    }
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_repartition.json".to_string());

    let hosts = 4;
    let plan = flows_plan(hosts);
    let agg = plan.partitioning.aggregator_host;
    let victim = (0..hosts).find(|&h| h != agg).expect("a leaf host");
    let phases = 4;
    let ramp = SkewRampConfig {
        base: TraceConfig {
            seed: 4242,
            epochs: 8,
            flows_per_epoch: 1_000,
            hosts: 500,
            spread_ips: true,
            ..TraceConfig::default()
        },
        hot_fraction: 0.8,
        drift_period: 2,
        hot_hosts: Some(hot_sets_on_victim(&plan, victim, phases, 4)),
        ..SkewRampConfig::default()
    };
    let trace = generate_skew_ramp(&ramp);

    let static_cfg = SimConfig::default();
    let adaptive_cfg = SimConfig {
        transport: TransportConfig {
            rebalance: RebalanceConfig::adaptive()
                .with_threshold(1.2)
                .with_consecutive(1)
                .with_sample_secs(45),
            ..TransportConfig::default()
        },
        ..SimConfig::default()
    };

    // Outputs must agree before any number is worth reporting.
    let static_run = run_distributed(&plan, &trace, &static_cfg).expect("static runs");
    let adaptive_run = run_distributed(&plan, &trace, &adaptive_cfg).expect("adaptive runs");
    for ((name, a), (_, b)) in static_run.outputs.iter().zip(adaptive_run.outputs.iter()) {
        let sort = |rows: &[Tuple]| {
            let mut v = rows.to_vec();
            v.sort_by(|a, b| {
                a.values()
                    .iter()
                    .zip(b.values())
                    .map(|(x, y)| x.total_cmp(y))
                    .find(|o| !o.is_eq())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            v
        };
        assert_eq!(sort(a), sort(b), "adaptive diverged from static on {name}");
    }

    let st = measure(&plan, &trace, &static_cfg);
    let ad = measure(&plan, &trace, &adaptive_cfg);

    // Sustainable throughput in tuples per unit of bottleneck-host
    // work: the machine-independent analogue of tuples/sec.
    let static_tput = st.tuples / st.max_work;
    let adaptive_tput = ad.tuples / ad.max_work;
    let ratio = adaptive_tput / static_tput;

    println!(
        "repartition_bench: {} tuples, {hosts} hosts, victim host {victim}",
        trace.len()
    );
    println!(
        "  static:   max host work {:.0}, sustainable {:.4} tuples/work, peak imbalance {:.2}",
        st.max_work, static_tput, st.peak_imbalance
    );
    println!(
        "  adaptive: max host work {:.0}, sustainable {:.4} tuples/work, peak imbalance {:.2}",
        ad.max_work, adaptive_tput, ad.peak_imbalance
    );
    println!(
        "  adaptive/static throughput ratio: {ratio:.2}x ({} migrations, {} keys, pause {:.2} ms)",
        ad.repartitions, ad.migrated_keys, ad.pause_ms
    );

    let mut json = String::from("{\n  \"bench\": \"repartition\",\n");
    let _ = writeln!(json, "  \"hosts\": {hosts},");
    let _ = writeln!(json, "  \"tuples\": {},", trace.len());
    let _ = writeln!(json, "  \"gate_ratio\": {GATE},");
    let _ = writeln!(json, "  \"throughput_ratio\": {ratio},");
    for (label, s) in [("static", &st), ("adaptive", &ad)] {
        let _ = writeln!(json, "  \"{label}\": {{");
        let _ = writeln!(json, "    \"max_host_work\": {},", s.max_work);
        let _ = writeln!(
            json,
            "    \"sustainable_tuples_per_work\": {},",
            s.tuples / s.max_work
        );
        let _ = writeln!(json, "    \"wall_ms\": {},", s.wall_ms);
        let _ = writeln!(json, "    \"repartitions\": {},", s.repartitions);
        let _ = writeln!(json, "    \"migrated_keys\": {},", s.migrated_keys);
        let _ = writeln!(json, "    \"migration_pause_ms\": {},", s.pause_ms);
        let _ = writeln!(json, "    \"peak_imbalance\": {}", s.peak_imbalance);
        let _ = writeln!(json, "  }}{}", if label == "static" { "," } else { "" });
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("repartition_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {out_path}");

    if ad.repartitions == 0 || ad.migrated_keys == 0 {
        eprintln!(
            "repartition_bench: GATE FAILED — the adaptive run never migrated \
             ({} repartitions, {} keys); the comparison is vacuous",
            ad.repartitions, ad.migrated_keys
        );
        return ExitCode::FAILURE;
    }
    if ratio < GATE {
        eprintln!(
            "repartition_bench: GATE FAILED — adaptive/static throughput ratio \
             {ratio:.2}x is below the {GATE}x floor"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! Threaded ↔ simulator equivalence across the transport configuration
//! space: the bounded, framed boundary transport must be invisible to
//! results and per-node counters at *any* channel capacity and frame
//! size — including the pathological capacity-1 / frame-1 corner, which
//! exercises maximal backpressure and must not deadlock.

use qap::prelude::*;

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

/// Runs one plan through the deterministic simulator and through the
/// threaded runner at every point of the capacity × frame-batch sweep,
/// asserting identical counters and outputs and sane transport
/// telemetry at each point.
fn assert_transport_invariant(queries: &[(&str, &str)], hosts: usize, seed: u64) {
    let mut b = QuerySetBuilder::new(Catalog::with_network_schemas());
    for (name, sql) in queries {
        b.add_query(name, sql).unwrap();
    }
    let dag = b.build();
    let trace = generate(&TraceConfig::tiny(seed));
    let plan = optimize(
        &dag,
        &Partitioning::hash(PartitionSet::from_columns(["srcIP", "destIP"]), hosts),
        &OptimizerConfig::full(),
    )
    .unwrap();

    let reference = run_distributed(&plan, &trace, &SimConfig::default()).unwrap();
    let ref_outputs: Vec<(String, Vec<Tuple>)> = reference
        .outputs
        .iter()
        .map(|(n, rows)| (n.clone(), sorted(rows.clone())))
        .collect();

    for capacity in [1usize, 4, 64] {
        for frame_batch in [1usize, 1024] {
            let sim = SimConfig {
                transport: TransportConfig::new(capacity, frame_batch),
                ..SimConfig::default()
            };
            let label = format!("cap={capacity} frame={frame_batch}");
            let result = run_distributed_threaded(&plan, &trace, &sim)
                .unwrap_or_else(|e| panic!("{label}: {e}"));

            // Results and cumulative per-node counters are
            // bit-identical to the simulator's.
            assert_eq!(result.counters, reference.counters, "{label}: counters");
            for ((name, rows), (ref_name, ref_rows)) in
                result.outputs.iter().zip(ref_outputs.iter())
            {
                assert_eq!(name, ref_name, "{label}");
                assert_eq!(&sorted(rows.clone()), ref_rows, "{label}: output {name}");
            }

            // Transport telemetry is self-consistent: every shipped
            // tuple is accounted to an edge, frame bytes carry the
            // 8-byte header per frame, and tiny frames mean one tuple
            // per frame.
            let t = &result.metrics.transport;
            assert_eq!(t.channel_capacity, capacity, "{label}");
            assert_eq!(t.frame_batch, frame_batch, "{label}");
            let edge_tuples: u64 = t.edges.iter().map(|e| e.tuples).sum();
            assert_eq!(t.tuples(), edge_tuples, "{label}: edge tuple accounting");
            let edge_frames: u64 = t.edges.iter().map(|e| e.frames).sum();
            assert_eq!(t.frames, edge_frames, "{label}: edge frame accounting");
            assert_eq!(
                t.frame_bytes,
                t.payload_bytes() + 8 * t.frames,
                "{label}: header accounting"
            );
            if frame_batch == 1 {
                assert_eq!(t.frames, t.tuples(), "{label}: one tuple per frame");
            }
            // The boundary carries what the non-aggregator hosts ship:
            // the aggregator host's own leaves run inside the central
            // unit.
            let m = &result.metrics;
            let agg = plan.partitioning.aggregator_host;
            let expected: u64 = (0..m.hosts)
                .filter(|&h| h != agg)
                .map(|h| m.host_tx_tuples[h])
                .sum();
            assert_eq!(t.tuples(), expected, "{label}: boundary volume");
        }
    }
}

#[test]
fn simple_aggregation_sweep() {
    assert_transport_invariant(
        &[(
            "flows",
            "SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes FROM TCP \
             GROUP BY time/60 as tb, srcIP, destIP",
        )],
        4,
        7,
    );
}

#[test]
fn two_level_aggregation_sweep() {
    assert_transport_invariant(
        &[
            (
                "flows",
                "SELECT tb, srcIP, destIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP, destIP",
            ),
            (
                "heavy",
                "SELECT tb, srcIP, MAX(cnt) as max_cnt FROM flows GROUP BY tb, srcIP",
            ),
        ],
        3,
        11,
    );
}

#[test]
fn join_query_sweep() {
    assert_transport_invariant(
        &[
            (
                "flows",
                "SELECT tb, srcIP, COUNT(*) as cnt FROM TCP \
                 GROUP BY time/60 as tb, srcIP",
            ),
            (
                "pairs",
                "SELECT S1.tb, S1.srcIP, S1.cnt, S2.cnt \
                 FROM flows S1, flows S2 \
                 WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1",
            ),
        ],
        2,
        13,
    );
}

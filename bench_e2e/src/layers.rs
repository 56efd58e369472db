//! The traced pass: one more set-up and rep with spans recorded, then a
//! timed call into each layer's public functions over the full trace in
//! 1024-row chunks — the per-layer numbers, and the model that adds them
//! up along each workload's path to compare with the measured CPU cost.
//!
//! All spans are recorded here, around the calls; the program itself
//! carries no spans yet (ROADMAP items 2 and 5).

use std::hint::black_box;

use qap::cluster::link::{
    connect_with_backoff, read_control, ChannelTransport, FrameSink, FrameSource, RecvOutcome,
    StreamSink, Transport,
};
use qap::prelude::*;
use qap::types::{decode_column_batch, encode_column_batch, Bytes, BytesMut, ColumnBatch};

use crate::json::Json;
use crate::run::{self, Metric, RunOptions, Setup, Timed};
use crate::spans::Recorder;
use crate::spec::{Runner, Workload, HOSTS};
use crate::stats::Summary;

/// Rows per chunk: the batch size every workload runs with.
const CHUNK: usize = 1024;

/// Timed passes per layer; the metric is their median.
const PASSES: usize = 3;

/// One term of a workload's cost path: a layer's per-tuple cost times
/// how many times an input tuple meets that layer.
#[derive(Debug, Clone)]
pub struct PathTerm {
    pub step: &'static str,
    pub layer: &'static str,
    pub ns_per_tuple: f64,
    pub multiplicity: f64,
}

impl PathTerm {
    pub fn contribution(&self) -> f64 {
        self.ns_per_tuple * self.multiplicity
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("step", Json::str(self.step)),
            ("layer", Json::str(self.layer)),
            ("ns_per_tuple", Json::Num(self.ns_per_tuple)),
            ("multiplicity", Json::Num(self.multiplicity)),
            ("contribution_ns_per_tuple", Json::Num(self.contribution())),
        ])
    }
}

pub struct Traced {
    pub values: Vec<(&'static str, f64)>,
    pub attribution: Vec<PathTerm>,
    pub recorder: Recorder,
    pub attempted: u64,
    pub errors: Vec<String>,
}

/// Partition of every tuple under the plan's split strategy, as the
/// runners' splitter assigns it.
fn partition_counts(setup: &Setup, batches: &[ColumnBatch]) -> Vec<u64> {
    let m = setup.plan.partitioning.partitions;
    let mut counts = vec![0u64; m];
    match &setup.plan.partitioning.strategy {
        SplitStrategy::RoundRobin => {
            for i in 0..setup.trace.len() {
                counts[i % m] += 1;
            }
        }
        SplitStrategy::Hash(set) => {
            let router = router_for(setup, set);
            let mut parts = Vec::new();
            for (batch, chunk) in batches.iter().zip(setup.trace.chunks(CHUNK)) {
                if router.partition_columns(batch, &mut parts) {
                    parts.iter().for_each(|&p| counts[p as usize] += 1);
                } else {
                    chunk.iter().for_each(|t| counts[router.partition(t)] += 1);
                }
            }
        }
    }
    counts
}

fn router_for(setup: &Setup, set: &PartitionSet) -> HashPartitioner {
    let schema = setup
        .plan
        .dag
        .catalog()
        .get("TCP")
        .expect("the network catalog has the TCP stream");
    HashPartitioner::new(set, schema, setup.plan.partitioning.partitions)
        .expect("the scenario's partitioning set binds to the TCP schema")
}

/// The set the hash router is timed with: the workload's own, or — for a
/// round-robin workload, whose path never calls the router — the
/// scenario's hash-partitioned configuration, so the metric exists on
/// every workload.
fn route_set(w: &Workload, setup: &Setup) -> PartitionSet {
    let hash_set = |p: &Partitioning| match &p.strategy {
        SplitStrategy::Hash(set) => Some(set.clone()),
        SplitStrategy::RoundRobin => None,
    };
    hash_set(&setup.plan.partitioning)
        .or_else(|| {
            let config = w.scenario.configs().last().expect("scenario has configs");
            hash_set(&w.scenario.deployment(config, HOSTS).0)
        })
        .expect("every scenario's last configuration is hash-partitioned")
}

/// Sums of the counters the program already exports per plan node.
fn node_metric_values(result: &SimResult) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&qap::exec::OpMetrics) -> u64| -> f64 {
        result.node_metrics.iter().map(f).sum::<u64>() as f64
    };
    let inserts = sum(|m| m.group_inserts);
    let flushed_out: u64 = result
        .node_metrics
        .iter()
        .filter(|m| m.flushes > 0)
        .map(|m| m.tuples_out)
        .sum();
    vec![
        ("exec.kernel_hits", sum(|m| m.kernel_hits)),
        ("exec.kernel_fallbacks", sum(|m| m.kernel_fallbacks)),
        ("exec.group_inserts", inserts),
        ("exec.group_slots", sum(|m| m.group_slots)),
        (
            "exec.group_probes_per_insert",
            sum(|m| m.group_probes) / inserts.max(1.0),
        ),
        ("exec.flushes", sum(|m| m.flushes)),
        (
            "exec.flush_ns_per_out_tuple",
            sum(|m| m.flush_ns) / (flushed_out.max(1) as f64),
        ),
    ]
}

/// Median of the samples; every layer is timed [`PASSES`] times because a
/// single pass on a shared two-core box can be off by 2x.
fn median(samples: impl IntoIterator<Item = f64>) -> f64 {
    let samples: Vec<f64> = samples.into_iter().collect();
    Summary::of(&samples).map_or(f64::NAN, |s| s.median)
}

/// Median rep wall time of the first and last third of the timed reps,
/// as a ratio: above 1 the process got slower as it ran.
fn rep_drift(walls: &[f64]) -> f64 {
    let third = (walls.len() / 3).max(1);
    median(walls[walls.len() - third..].iter().copied()) / median(walls[..third].iter().copied())
}

pub fn traced_pass(
    w: &'static Workload,
    opts: &RunOptions,
    untraced_setup: Setup,
    timed: &Timed,
    end_to_end: &[Metric],
) -> Traced {
    // One trace resident at a time.
    drop(untraced_setup);
    let mut rec = Recorder::new(true);
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut errors = Vec::new();
    let mut attempted = 0u64;

    let (mut setup, _) = rec.timed("setup", |rec| run::build_setup(w, opts, rec));
    let n = setup.trace.len() as f64;
    let per_tuple = |secs: f64| secs * 1e9 / n;
    values.push(("trace.generate_ns_per_tuple", per_tuple(setup.generate_s)));

    let (reference, first_reference_s) = run::reference(&setup, &mut rec);
    let single_engine_s = median(
        std::iter::once(first_reference_s)
            .chain((1..PASSES).map(|_| run::reference(&setup, &mut rec).1)),
    );
    values.push((
        "exec.single_engine_ns_per_tuple",
        per_tuple(single_engine_s),
    ));

    let mut traced_walls = Vec::new();
    let mut traced_result = None;
    for i in 0..PASSES {
        attempted += 1;
        let rep = run::run_rep(w, &mut setup, &reference, &mut rec);
        traced_walls.push(rep.wall_s);
        match rep.outcome {
            Ok(result) => traced_result = Some(result),
            Err(e) => errors.push(format!("traced rep {i}: {e}")),
        }
    }

    let walls = timed.walls();
    values.push((
        "bench.trace_overhead_share",
        median(traced_walls) / median(walls.iter().copied()) - 1.0,
    ));
    values.push(("bench.rep_drift", rep_drift(&walls)));
    let cpu_total: f64 = timed.cpus().iter().sum();
    let wall_total: f64 = walls.iter().sum();
    values.push(("cluster.parallelism", cpu_total / wall_total));

    let result = traced_result.as_ref().or(timed.last_good.as_ref());
    if let Some(result) = result {
        let t = &result.metrics.transport;
        values.extend([
            ("cluster.link.frames", t.frames as f64),
            ("cluster.link.frame_bytes", t.frame_bytes as f64),
            (
                "cluster.link.backpressure_stalls",
                t.backpressure_stalls as f64,
            ),
            ("cluster.link.queue_peak", t.queue_peak as f64),
            ("cluster.link.retries", t.retries as f64),
        ]);
        values.extend(node_metric_values(result));
    }

    let setup_ref = &setup;
    let ((), _) = rec.timed("layers", |rec| {
        let trace = &setup_ref.trace;
        let tuples = trace.len() as f64;
        let loopback = HostAddr::Tcp("127.0.0.1:0".into());

        let plan_s = median((0..5).map(|_| {
            rec.timed("optimizer.plan", |_| {
                black_box(w.scenario.plan(w.config, HOSTS));
            })
            .1
        }));
        values.push(("optimizer.plan_ms", plan_s * 1e3));

        // types.column: rows -> lanes as the splitter does it, each
        // batch dropped before the next chunk.
        let secs = median((0..PASSES).map(|_| {
            rec.timed("types.column.from_rows", |rec| {
                rec.count("tuples", tuples);
                for chunk in trace.chunks(CHUNK) {
                    let mut cols = ColumnBatch::from_rows(chunk);
                    cols.dict_encode_strings();
                    black_box(&cols);
                }
            })
            .1
        }));
        values.push(("types.column.from_rows_ns_per_tuple", per_tuple(secs)));
        // The staged batches and frames the later layers read.
        let batches: Vec<ColumnBatch> = trace
            .chunks(CHUNK)
            .map(|chunk| {
                let mut cols = ColumnBatch::from_rows(chunk);
                cols.dict_encode_strings();
                cols
            })
            .collect();
        let mut scratch = BytesMut::new();
        let frames: Vec<Bytes> = batches
            .iter()
            .map(|b| encode_column_batch(b, &mut scratch).expect("TCP batches encode"))
            .collect();
        let wire_bytes: usize = frames.iter().map(Bytes::len).sum();
        values.push(("types.wire.bytes_per_tuple", wire_bytes as f64 / tuples));

        let secs = median((0..PASSES).map(|_| {
            rec.timed("types.column.to_rows", |rec| {
                rec.count("tuples", tuples);
                for batch in &batches {
                    black_box(batch.to_rows());
                }
            })
            .1
        }));
        values.push(("types.column.to_rows_ns_per_tuple", per_tuple(secs)));

        let secs = median((0..PASSES).map(|_| {
            rec.timed("types.tuple.clone", |rec| {
                rec.count("tuples", tuples);
                for chunk in trace.chunks(CHUNK) {
                    black_box(chunk.to_vec());
                }
            })
            .1
        }));
        values.push(("types.tuple.clone_ns_per_tuple", per_tuple(secs)));

        // partition.hash
        let router = router_for(setup_ref, &route_set(w, setup_ref));
        let secs = median((0..PASSES).map(|_| {
            rec.timed("partition.hash.route", |rec| {
                rec.count("tuples", tuples);
                let mut parts = Vec::new();
                for batch in &batches {
                    black_box(router.partition_columns(batch, &mut parts));
                    black_box(&parts);
                }
            })
            .1
        }));
        values.push(("partition.hash.route_ns_per_tuple", per_tuple(secs)));
        let counts = partition_counts(setup_ref, &batches);
        let mean = tuples / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        values.push(("partition.hash.skew", max / mean));

        // types.wire
        let secs = median((0..PASSES).map(|_| {
            rec.timed("types.wire.encode", |rec| {
                rec.count("tuples", tuples);
                for batch in &batches {
                    black_box(encode_column_batch(batch, &mut scratch).expect("encodes"));
                }
            })
            .1
        }));
        values.push(("types.wire.encode_ns_per_tuple", per_tuple(secs)));
        let secs = median((0..PASSES).map(|_| {
            rec.timed("types.wire.decode", |rec| {
                rec.count("bytes", wire_bytes as f64);
                for frame in &frames {
                    black_box(decode_column_batch(frame.clone()).expect("own frames decode"));
                }
            })
            .1
        }));
        values.push(("types.wire.decode_ns_per_tuple", per_tuple(secs)));

        // cluster.link: the same frames through each transport,
        // producer thread -> link -> this thread.
        let secs = median((0..PASSES).map(|_| {
            rec.timed("cluster.link.chan", |rec| {
                rec.count("frames", frames.len() as f64);
                let (mut sink, mut source) = ChannelTransport.pair(64);
                let frames = &frames;
                std::thread::scope(|scope| {
                    // The sink moves into the producer and drops with
                    // it, which is what closes the channel.
                    scope.spawn(move || {
                        for frame in frames {
                            sink.send((0, frame.clone())).expect("channel send");
                        }
                    });
                    while let RecvOutcome::Frame(f) = source.recv().expect("channel recv") {
                        black_box(f);
                    }
                });
            })
            .1
        }));
        values.push(("cluster.link.chan_ns_per_tuple", per_tuple(secs)));

        let secs = median((0..PASSES).map(|_| {
            let listener = HostListener::bind(&loopback).expect("bind a loopback listener");
            let addr = listener.local_addr().expect("listener address");
            rec.timed("cluster.link.tcp", |rec| {
                rec.count("bytes", wire_bytes as f64);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let stream = connect_with_backoff(&addr, 5_000).expect("connect loopback");
                        let mut sink = StreamSink::new(stream);
                        for frame in &frames {
                            sink.send((0, frame.clone())).expect("tcp send");
                        }
                    });
                    let mut stream = listener.accept().expect("accept loopback");
                    while let Some(frame) = read_control(&mut stream).expect("tcp read") {
                        black_box(frame);
                    }
                });
            })
            .1
        }));
        values.push(("cluster.link.tcp_ns_per_tuple", per_tuple(secs)));

        // cluster.remote: a whole session with nothing to ship.
        let secs = median((0..PASSES).map(|_| {
            let listeners = run::bind_hosts(&setup_ref.plan, &setup_ref.sim);
            let (out, secs) = rec.timed("cluster.remote.session", |_| {
                run::with_tcp_hosts(&listeners, |addrs| {
                    run_distributed_remote(&setup_ref.plan, &[], &setup_ref.sim, addrs)
                        .map_err(|e| e.to_string())
                })
            });
            if let Err(e) = out {
                errors.push(format!("empty remote session: {e}"));
            }
            secs
        }));
        values.push(("cluster.remote.session_overhead_ms", secs * 1e3));

        // exec: one engine on the workload's logical DAG, fed lanes,
        // then fed the encoded frames.
        let new_engine = || {
            let mut engine = Engine::new(&setup_ref.dag).expect("logical DAG compiles");
            engine.set_batch_config(setup_ref.sim.batch);
            let source = engine.source_nodes()[0];
            (engine, source)
        };
        let finish = |mut engine: Engine| {
            engine.finish().expect("finish");
            for root in setup_ref.dag.roots() {
                black_box(engine.output(root));
            }
        };
        let secs = median((0..PASSES).map(|_| {
            // `push_columns` takes each batch's lanes, so every pass
            // feeds a fresh copy.
            let mut staged = batches.clone();
            rec.timed("exec.columnar", |rec| {
                rec.count("tuples", tuples);
                let (mut engine, source) = new_engine();
                for batch in &mut staged {
                    engine.push_columns(source, batch).expect("columnar feed");
                }
                finish(engine);
            })
            .1
        }));
        values.push(("exec.columnar_ns_per_tuple", per_tuple(secs)));
        let secs = median((0..PASSES).map(|_| {
            rec.timed("exec.push_frame", |rec| {
                rec.count("frames", frames.len() as f64);
                let (mut engine, source) = new_engine();
                for frame in &frames {
                    engine
                        .push_frame(source, frame.clone())
                        .expect("frame feed");
                }
                finish(engine);
            })
            .1
        }));
        values.push(("exec.push_frame_ns_per_tuple", per_tuple(secs)));
        drop(frames);
        drop(batches);

        // cluster.sim: the third driver on the same plan, and the
        // cross-check of the exact count metrics.
        let mut sim_result = None;
        let secs = median((0..PASSES).map(|_| {
            let (out, secs) = rec.timed("cluster.sim", |_| {
                run_distributed(&setup_ref.plan, trace, &setup_ref.sim).map_err(|e| e.to_string())
            });
            sim_result = Some(out);
            secs
        }));
        values.push(("cluster.sim_ns_per_tuple", per_tuple(secs)));
        attempted += 1;
        let checked = sim_result
            .expect("at least one pass")
            .and_then(|mut r| run::check(&mut r, &reference).map(|()| r));
        match checked {
            Ok(sim) => {
                values.push(("cluster.sim.leaf_imbalance", sim.metrics.leaf_imbalance));
                values.push((
                    "cluster.sim.total_transfers",
                    sim.metrics.total_transfers as f64,
                ));
                let (s, r) = (&sim.metrics, result.map(|r| &r.metrics));
                if r.is_some_and(|r| {
                    r.aggregator_rx_tuples != s.aggregator_rx_tuples || r.work != s.work
                }) {
                    errors.push(
                        "simulator and runner disagree on aggregator_rx_tuples or work".into(),
                    );
                }
            }
            Err(e) => errors.push(format!("simulator run: {e}")),
        }
    });

    // The cost path, and what it leaves unexplained.
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    let boundary = result.map_or(f64::NAN, |r| r.metrics.aggregator_rx_tuples as f64 / n);
    let session_ns = get("cluster.remote.session_overhead_ms") * 1e6 / n;
    let attribution = cost_path(
        w,
        &setup,
        &get,
        boundary,
        remote_feed_share(&setup),
        session_ns,
    );
    let attributed: f64 = attribution.iter().map(PathTerm::contribution).sum();
    let measured = end_to_end
        .iter()
        .find(|m| m.name == "cpu_s_per_mtuple")
        .map_or(f64::NAN, |m| m.value * 1e3);
    values.push(("cluster.attributed_ns_per_tuple", attributed));
    values.push(("cluster.unattributed_ns_per_tuple", measured - attributed));

    Traced {
        values,
        attribution,
        recorder: rec,
        attempted,
        errors,
    }
}

/// Share of input tuples whose partition lives on a host other than the
/// aggregator's: what a Naive plan ships raw, and what the remote runner
/// ships as feed.
fn remote_feed_share(setup: &Setup) -> f64 {
    let p = &setup.plan.partitioning;
    // Both strategies spread tuples evenly to within `partition.hash.skew`,
    // and partitions are block-assigned to hosts.
    let remote = (0..p.partitions)
        .filter(|part| part * p.hosts / p.partitions != p.aggregator_host)
        .count();
    remote as f64 / p.partitions as f64
}

/// Which layers an input tuple meets on the workload's path, and how
/// often. `boundary` is the share of input tuples that cross to the
/// aggregator as results; `remote_feed` the share fed to another host.
fn cost_path(
    w: &Workload,
    setup: &Setup,
    get: &dyn Fn(&str) -> f64,
    boundary: f64,
    remote_feed: f64,
    session_ns: f64,
) -> Vec<PathTerm> {
    let from_rows = "types.column.from_rows_ns_per_tuple";
    let to_rows = "types.column.to_rows_ns_per_tuple";
    let clone = "types.tuple.clone_ns_per_tuple";
    let route = "partition.hash.route_ns_per_tuple";
    let encode = "types.wire.encode_ns_per_tuple";
    let chan = "cluster.link.chan_ns_per_tuple";
    let tcp = "cluster.link.tcp_ns_per_tuple";
    let columnar = "exec.columnar_ns_per_tuple";
    let push_frame = "exec.push_frame_ns_per_tuple";

    let hashed = matches!(setup.plan.partitioning.strategy, SplitStrategy::Hash(_));
    let remote = w.runner == Runner::RemoteTcp;
    let link = if remote { tcp } else { chan };
    // A round-robin (Naive) plan aggregates nothing at the leaves: what
    // stays local reaches the central engine as columns, what crosses
    // reaches it as frames.
    let (leaf_columnar, leaf_frames) = match (hashed, remote) {
        (true, false) => (1.0, 0.0),
        (true, true) => (1.0 - remote_feed, remote_feed),
        (false, _) => (1.0 - boundary, 0.0),
    };

    // Only a hash splitter transposes and routes; round-robin just counts.
    let split = if hashed { 1.0 } else { 0.0 };
    let mut terms = vec![
        ("splitter: transpose chunk", from_rows, split),
        ("splitter: hash + route", route, split),
        ("splitter: staging clone", clone, 1.0),
        ("leaf feed: rows -> lanes", from_rows, 1.0),
        ("engines: columnar feed", columnar, leaf_columnar),
    ];
    if remote {
        terms.extend([
            ("feed: encode", encode, remote_feed),
            ("feed: tcp link", tcp, remote_feed),
            (
                "engines: frame feed (decode + exec)",
                push_frame,
                leaf_frames,
            ),
        ]);
    }
    terms.extend([
        ("boundary: sink rows", to_rows, boundary),
        ("boundary: rows -> lanes", from_rows, boundary),
        ("boundary: encode", encode, boundary),
        ("boundary: link", link, boundary),
        ("central: frame feed (decode + exec)", push_frame, boundary),
    ]);
    let mut path: Vec<PathTerm> = terms
        .into_iter()
        .map(|(step, layer, multiplicity)| PathTerm {
            step,
            layer,
            ns_per_tuple: get(layer),
            multiplicity,
        })
        .collect();
    if remote {
        path.push(PathTerm {
            step: "session: connect, handshake, deploy, teardown",
            layer: "cluster.remote.session_overhead_ms",
            ns_per_tuple: session_ns,
            multiplicity: 1.0,
        });
    }
    path
}

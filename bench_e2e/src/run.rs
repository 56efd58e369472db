//! One run of one workload: set-up, the single-engine reference, a
//! discarded warm-up rep, then timed reps for the requested number of
//! seconds, every rep's output checked against the reference.
//!
//! Load shape: batch replay, closed loop, one driving thread. The trace
//! is fully materialised, then one call to the cluster runner is timed
//! from call to stitched `SimResult`; the next call starts when the
//! previous one has been checked.

use std::time::Instant;

use qap::cluster::link::connect_with_backoff;
use qap::plan::QueryDag;
use qap::prelude::*;

use crate::json::Json;
use crate::layers;
use crate::procfs;
use crate::spans::Recorder;
use crate::spec::{self, MetricSpec, Runner, Workload, END_TO_END, HOSTS, PER_LAYER};
use crate::stats::Summary;

/// Set-ups per run: `setup_s` is their median, so the first one, which
/// pays for the process's first page faults, does not decide the metric.
const SETUPS: usize = 5;

/// Fewest timed reps a full run reports a median from.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the timed reps go on for.
    pub seconds: f64,
    /// Small trace, one timed rep: for tests.
    pub smoke: bool,
    /// Follow the timed reps with the traced pass and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// Everything a rep needs, built before timing starts.
pub struct Setup {
    pub trace: Vec<Tuple>,
    pub dag: QueryDag,
    pub plan: DistributedPlan,
    pub sim: SimConfig,
    /// How long `generate` took.
    pub generate_s: f64,
    /// Listeners for the next TCP rep, bound during set-up.
    listeners: Vec<HostListener>,
}

/// One loopback listener per leaf host process the plan needs.
pub fn bind_hosts(plan: &DistributedPlan, sim: &SimConfig) -> Vec<HostListener> {
    (0..remote_host_count(plan, sim))
        .map(|_| {
            HostListener::bind(&HostAddr::Tcp("127.0.0.1:0".into()))
                .expect("bind a loopback listener")
        })
        .collect()
}

fn bind_listeners(w: &Workload, plan: &DistributedPlan, sim: &SimConfig) -> Vec<HostListener> {
    match w.runner {
        Runner::Threaded => Vec::new(),
        Runner::RemoteTcp => bind_hosts(plan, sim),
    }
}

pub fn build_setup(w: &Workload, opts: &RunOptions, rec: &mut Recorder) -> Setup {
    let cfg = spec::trace_config(opts.seed, opts.smoke);
    let (trace, generate_s) = rec.timed("trace.generate", |rec| {
        let trace = generate(&cfg);
        rec.count("tuples", trace.len() as f64);
        trace
    });
    let (plan, _) = rec.timed("optimizer.plan", |_| w.scenario.plan(w.config, HOSTS));
    let sim = spec::sim_config();
    let (listeners, _) = rec.timed("cluster.link.bind", |_| bind_listeners(w, &plan, &sim));
    Setup {
        trace,
        dag: w.scenario.dag(),
        plan,
        sim,
        generate_s,
        listeners,
    }
}

fn sort_rows(rows: &mut [Tuple]) {
    rows.sort_by(|a, b| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or_else(|| a.arity().cmp(&b.arity()))
    });
}

/// The single-engine answer, one sorted row set per plan output.
pub struct Reference {
    outputs: Vec<Vec<Tuple>>,
}

/// Runs the workload's logical DAG on one engine. The input iterator
/// clones each tuple as the engine takes it, so no second copy of the
/// trace is ever resident.
pub fn reference(setup: &Setup, rec: &mut Recorder) -> (Reference, f64) {
    let (by_root, secs) = rec.timed("exec.single_engine", |_| {
        run_logical(&setup.dag, setup.trace.iter().cloned()).expect("reference run")
    });
    let mut by_root: Vec<(usize, Vec<Tuple>)> = by_root;
    let outputs = setup
        .plan
        .outputs
        .iter()
        .map(|o| {
            let at = by_root
                .iter()
                .position(|(root, _)| *root == o.logical)
                .expect("every plan output implements a logical root");
            let mut rows = by_root.swap_remove(at).1;
            sort_rows(&mut rows);
            rows
        })
        .collect();
    (Reference { outputs }, secs)
}

/// `Err` names the first way `result` differs from the reference.
pub fn check(result: &mut SimResult, reference: &Reference) -> Result<(), String> {
    if let Some(f) = result.failures.first() {
        return Err(format!("host {} failed: {:?}", f.host, f.cause));
    }
    if result.outputs.len() != reference.outputs.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            result.outputs.len(),
            reference.outputs.len()
        ));
    }
    for ((name, rows), expected) in result.outputs.iter_mut().zip(&reference.outputs) {
        sort_rows(rows);
        if rows.len() != expected.len() {
            return Err(format!(
                "output {name}: {} rows, reference has {}",
                rows.len(),
                expected.len()
            ));
        }
        if let Some(i) = (0..rows.len()).find(|&i| rows[i] != expected[i]) {
            return Err(format!(
                "output {name}: sorted row {i} is {:?}, reference has {:?}",
                rows[i], expected[i]
            ));
        }
    }
    Ok(())
}

/// One call of the workload's cluster runner.
pub struct Rep {
    pub wall_s: f64,
    /// Process user+system time over the call; `None` when `/proc` does
    /// not provide it.
    pub cpu_s: Option<f64>,
    /// The checked result, or why the rep counts as failed.
    pub outcome: Result<SimResult, String>,
}

/// Runs `run_distributed_remote` against one in-process `serve_host`
/// acceptor thread per listener. Listeners are bound by the caller, so
/// only connect, handshake, deploy, feed and collect are inside `f`.
pub fn with_tcp_hosts<T>(
    listeners: &[HostListener],
    f: impl FnOnce(&[HostAddr]) -> Result<T, String>,
) -> Result<T, String> {
    let addrs: Vec<HostAddr> = listeners
        .iter()
        .map(|l| l.local_addr())
        .collect::<Result<_, _>>()?;
    std::thread::scope(|scope| {
        for listener in listeners {
            scope.spawn(move || {
                // A failed session is reported by the coordinator side.
                let _ = serve_host(listener, &HostServerConfig { once: true });
            });
        }
        let out = f(&addrs);
        if out.is_err() {
            // The run may have ended before reaching every host; a
            // connection that closes at once ends that acceptor's one
            // session, so the scope can join it.
            for addr in &addrs {
                drop(connect_with_backoff(addr, 200));
            }
        }
        out
    })
}

pub fn run_rep(w: &Workload, setup: &mut Setup, reference: &Reference, rec: &mut Recorder) -> Rep {
    // The first rep uses the listeners bound during set-up.
    let mut listeners = std::mem::take(&mut setup.listeners);
    if listeners.is_empty() {
        listeners = bind_listeners(w, &setup.plan, &setup.sim);
    }
    let (rep, _) = rec.timed("rep", |rec| {
        let cpu_before = procfs::cpu_seconds();
        let (result, wall_s) = rec.timed("cluster.run", |rec| {
            rec.count("tuples", setup.trace.len() as f64);
            match w.runner {
                Runner::Threaded => run_distributed_threaded(&setup.plan, &setup.trace, &setup.sim)
                    .map_err(|e| e.to_string()),
                Runner::RemoteTcp => with_tcp_hosts(&listeners, |addrs| {
                    run_distributed_remote(&setup.plan, &setup.trace, &setup.sim, addrs)
                        .map_err(|e| e.to_string())
                }),
            }
        });
        let cpu_s = cpu_before.zip(procfs::cpu_seconds()).map(|(a, b)| b - a);
        let (outcome, _) = rec.timed("check", |_| {
            result.and_then(|mut r| check(&mut r, reference).map(|()| r))
        });
        Rep {
            wall_s,
            cpu_s,
            outcome,
        }
    });
    rep
}

/// A metric value with, for the timings, the per-rep quartiles behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// What one run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub tuples: usize,
    /// Operations attempted: every rep (warm-up included), plus the
    /// simulator cross-check of a traced run.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rep_wall_s: Vec<f64>,
    pub rep_cpu_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attribution: Vec<layers::PathTerm>,
    pub spans: Json,
}

fn warn(msg: &str) {
    eprintln!("bench_e2e: warning: {msg}");
}

/// The timed reps of one run, and what they add up to.
pub struct Timed {
    pub reps: Vec<Rep>,
    /// Result of the last rep that passed its check.
    pub last_good: Option<SimResult>,
}

impl Timed {
    pub fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_s).collect()
    }

    pub fn cpus(&self) -> Vec<f64> {
        self.reps.iter().filter_map(|r| r.cpu_s).collect()
    }
}

fn end_to_end_metrics(
    setup: &Setup,
    timed: &Timed,
    setup_s: &[f64],
    peak_rss: Option<f64>,
) -> Vec<Metric> {
    let n = setup.trace.len() as f64;
    let mut values: Vec<(&str, f64, Option<Summary>)> = Vec::new();

    let rates: Vec<f64> = timed.walls().iter().map(|w| n / w).collect();
    if let Some(s) = Summary::of(&rates) {
        values.push(("tuples_per_s", s.median, Some(s)));
    }
    let cpus = timed.cpus();
    if cpus.len() == timed.reps.len() && !cpus.is_empty() {
        // The mean over all reps, not the median: /proc counts CPU time
        // in 10 ms ticks, which a sum averages out and a median keeps.
        let per_mtuple: Vec<f64> = cpus.iter().map(|c| c / (n / 1e6)).collect();
        let mean = per_mtuple.iter().sum::<f64>() / per_mtuple.len() as f64;
        values.push(("cpu_s_per_mtuple", mean, Summary::of(&per_mtuple)));
    } else {
        warn("/proc/self/stat gave no CPU time; cpu_s_per_mtuple omitted");
    }
    match peak_rss {
        Some(mib) => values.push(("peak_rss_mb", mib, None)),
        None => warn("/proc/self/status gave no VmHWM; peak_rss_mb omitted"),
    }
    if let Some(result) = &timed.last_good {
        let m = &result.metrics;
        let agg = setup.plan.partitioning.aggregator_host;
        let bottleneck = m.work.iter().copied().fold(0.0, f64::max);
        values.extend([
            (
                "agg_rx_tuples_per_ktuple",
                m.aggregator_rx_tuples as f64 * 1e3 / n,
                None,
            ),
            (
                "agg_rx_bytes_per_tuple",
                m.transport.frame_bytes as f64 / n,
                None,
            ),
            ("agg_work_per_ktuple", m.work[agg] * 1e3 / n, None),
            ("bottleneck_work_per_ktuple", bottleneck * 1e3 / n, None),
        ]);
    }
    if let Some(s) = Summary::of(setup_s) {
        values.push(("setup_s", s.median, Some(s)));
    }

    tabulate(&END_TO_END, &values)
}

/// The measured values as metrics, in table order with the table's
/// units; a value that could not be measured is left out.
fn tabulate(specs: &[MetricSpec], values: &[(&str, f64, Option<Summary>)]) -> Vec<Metric> {
    specs
        .iter()
        .filter_map(|spec| {
            let (_, value, spread) = values.iter().find(|(name, ..)| *name == spec.name)?;
            Some(Metric {
                name: spec.name,
                unit: spec.unit,
                value: *value,
                spread: *spread,
            })
        })
        .collect()
}

pub fn run_workload(w: &'static Workload, opts: &RunOptions) -> Report {
    let mut rec = Recorder::new(false);
    let mut attempted = 0u64;
    let mut errors: Vec<String> = Vec::new();

    // Set up several times and keep the last; each earlier set-up is
    // dropped before the next starts, so only one trace is resident.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        drop(setup.take());
        let (s, secs) = rec.timed("setup", |rec| build_setup(w, opts, rec));
        setup_s.push(secs);
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let (reference_rows, _) = reference(&setup, &mut rec);

    // Warm-up: lets the allocator and the page cache settle. Its time
    // is discarded, its correctness is not.
    attempted += 1;
    if let Err(e) = run_rep(w, &mut setup, &reference_rows, &mut rec).outcome {
        errors.push(format!("warm-up rep: {e}"));
    }

    let mut timed = Timed {
        reps: Vec::new(),
        last_good: None,
    };
    let (min_reps, seconds) = if opts.smoke {
        (1, 0.0)
    } else {
        (MIN_REPS, opts.seconds)
    };
    let started = Instant::now();
    while timed.reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let mut rep = run_rep(w, &mut setup, &reference_rows, &mut rec);
        match std::mem::replace(&mut rep.outcome, Err(String::new())) {
            Ok(result) => timed.last_good = Some(result),
            Err(e) => errors.push(format!("rep {}: {e}", timed.reps.len())),
        }
        timed.reps.push(rep);
    }
    let peak_rss = procfs::peak_rss_mib();
    let end_to_end = end_to_end_metrics(&setup, &timed, &setup_s, peak_rss);
    let tuples = setup.trace.len();

    let mut per_layer = Vec::new();
    let mut attribution = Vec::new();
    if opts.trace {
        let traced = layers::traced_pass(w, opts, setup, &timed, &end_to_end);
        attempted += traced.attempted;
        errors.extend(traced.errors);
        attribution = traced.attribution;
        let values: Vec<_> = traced.values.iter().map(|&(n, v)| (n, v, None)).collect();
        per_layer = tabulate(&PER_LAYER, &values);
        rec = traced.recorder;
    }

    Report {
        workload: w.name,
        seed: opts.seed,
        tuples,
        attempted,
        failed: errors.len() as u64,
        errors,
        rep_wall_s: timed.walls(),
        rep_cpu_s: timed.cpus(),
        setup_s,
        end_to_end,
        per_layer,
        attribution,
        spans: rec.to_json(w.name),
    }
}

impl Report {
    /// The metrics this run reports to the driver: per-layer when
    /// traced, end-to-end otherwise.
    pub fn reported(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's result line.
    pub fn result_line(&self, trace: bool) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.reported(trace).iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Everything the run measured, for the committed result files.
    pub fn detail(&self, trace: bool) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        let metrics = Json::obj(self.reported(trace).iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(s) = m.spread {
                fields.extend([
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]);
            }
            (m.name, Json::obj(fields))
        }));
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("tuples", Json::Num(self.tuples as f64)),
            ("timed_reps", Json::Num(self.rep_wall_s.len() as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_ops_share", Json::Num(self.failed_ops_share())),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            ("metrics", metrics),
        ];
        if trace {
            fields.push((
                "attribution",
                Json::Arr(self.attribution.iter().map(|t| t.to_json()).collect()),
            ));
            fields.push(("spans", self.spans.clone()));
        } else {
            fields.extend([
                ("rep_wall_s", nums(&self.rep_wall_s)),
                ("rep_cpu_s", nums(&self.rep_cpu_s)),
                ("setup_s", nums(&self.setup_s)),
            ]);
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn smoke(seed: u64, trace: bool) -> RunOptions {
        RunOptions {
            seed,
            seconds: 0.0,
            smoke: true,
            trace,
        }
    }

    fn names(metrics: &[Metric]) -> Vec<&'static str> {
        metrics.iter().map(|m| m.name).collect()
    }

    /// With `spec::tests::benchmark_json_matches_the_tables`, this holds
    /// the names a run emits equal to the names `BENCHMARK.json` lists,
    /// in both directions.
    #[test]
    fn smoke_runs_emit_exactly_the_listed_metrics() {
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for w in &WORKLOADS {
            let report = run_workload(w, &smoke(7, true));
            assert_eq!(report.errors, Vec::<String>::new(), "{}", w.name);
            assert_eq!(names(&report.end_to_end), end_to_end, "{}", w.name);
            assert_eq!(names(&report.per_layer), per_layer, "{}", w.name);
            for m in report.end_to_end.iter().chain(&report.per_layer) {
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            }
            for m in &report.end_to_end {
                assert!(m.value > 0.0, "{} {} must never be 0", w.name, m.name);
            }

            let line = report.result_line(false);
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(report.spans.as_arr().is_some_and(|s| s.len() > 10));
        }
    }

    #[test]
    fn counts_repeat_on_one_seed_and_move_with_the_seed() {
        let counts = |seed: u64| -> Vec<(&'static str, f64)> {
            let report = run_workload(&WORKLOADS[0], &smoke(seed, false));
            assert_eq!(report.failed, 0);
            report
                .end_to_end
                .iter()
                .filter(|m| m.unit == "count" || m.unit == "bytes" || m.unit == "work")
                .map(|m| (m.name, m.value))
                .collect()
        };
        let first = counts(11);
        assert_eq!(first.len(), 4);
        assert_eq!(first, counts(11));
        let other = counts(12);
        for ((name, a), (_, b)) in first.iter().zip(&other) {
            assert_ne!(a, b, "{name} did not move with the seed");
        }
    }

    #[test]
    fn check_names_the_first_difference() {
        let w = &WORKLOADS[0];
        let mut rec = Recorder::new(false);
        let mut setup = build_setup(w, &smoke(3, false), &mut rec);
        let (reference_rows, _) = reference(&setup, &mut rec);
        let mut good = || {
            run_rep(w, &mut setup, &reference_rows, &mut rec)
                .outcome
                .expect("clean rep passes")
        };

        let mut changed = good();
        let row = &mut changed.outputs[0].1[0];
        *row = row.project(&[0]);
        assert!(check(&mut changed, &reference_rows)
            .unwrap_err()
            .contains("sorted row"));

        let mut short = good();
        short.outputs[0].1.pop();
        assert!(check(&mut short, &reference_rows)
            .unwrap_err()
            .contains("rows, reference has"));

        let mut failed = good();
        failed.failures.push(HostFailure {
            host: 1,
            cause: FailureCause::Panic("injected".into()),
            tuples_processed: 0,
        });
        assert!(check(&mut failed, &reference_rows)
            .unwrap_err()
            .contains("host 1 failed"));
    }
}

//! `qapctl` — command-line driver for the query-aware partitioning
//! toolchain.
//!
//! ```sh
//! qapctl analyze <script.gsql> [--strict-joins]
//! qapctl plan    <script.gsql> --hosts N [--set "srcIP, destIP & 0xFFF0"]
//!                              [--round-robin] [--naive] [--agnostic] [--explain]
//! qapctl run     <script.gsql> --hosts N [--set ...] [--round-robin]
//!                              [--seed S] [--epochs E] [--flows F]
//!                              [--trace file.qtr] [--threaded] [--limit K]
//!                              [--batch-size B] [--metrics[=PATH]]
//!                              [--channel-capacity C] [--frame-batch F]
//! qapctl gen-trace <out.qtr>   [--seed S] [--epochs E] [--flows F]
//! qapctl host      --listen <addr> [--once]
//! ```
//!
//! A script is a sequence of `STREAM name(...);` definitions and
//! `QUERY name: SELECT ...;` statements (see `qap_sql`). `run` replays a
//! synthetic trace of the built-in `TCP` schema, so runnable scripts
//! read `TCP` (define additional streams for `analyze`/`plan` only).

use std::process::ExitCode;

use qap::prelude::*;
use qap::sql::parse_expression;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("qapctl: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  qapctl analyze   <script.gsql> [--strict-joins]
  qapctl plan      <script.gsql> --hosts N [--set \"expr, expr\"] [--round-robin] [--naive] [--agnostic]
                   [--explain]               (print the planner's costed account: every realization
                                              alternative per node with the rewrite that produced it,
                                              the partitioning each plan edge carries, and the
                                              predicted per-host receive load)
  qapctl run       <script.gsql> --hosts N [--set \"expr, expr\"] [--round-robin]
                   [--explain]
                   [--seed S] [--epochs E] [--flows F] [--trace file.qtr] [--limit K]
                   [--threaded]           (one execution unit per host: a worker thread per leaf
                                           host, and the aggregator host, its own partitions
                                           included, on the calling thread)
                   [--batch-size B]   (engine batch size; results are batch-size-invariant)
                   [--metrics[=PATH]] (export run metrics; .prom = Prometheus text, else JSON;
                                       bare --metrics prints JSON to stdout)
                   [--channel-capacity C] (bounded boundary-channel depth for --threaded; default 64)
                   [--frame-batch F]      (max tuples per boundary frame for --threaded; default 1024)
                   [--fault-plan SPEC]    (deterministic fault injection for --threaded; SPEC is a
                                           comma list of seed=N, corrupt=N, truncate=N, drop=N
                                           (every Nth frame), slow=HOST:MICROS, hang=HOST:MILLIS,
                                           panic=HOST:TUPLES)
                   [--partial-results]    (record host failures and finish surviving epochs instead
                                           of failing the run on the first fault)
                   [--send-timeout MS]    (bound on send retries / receive waits before a hung peer
                                           surfaces as a timeout failure; at least 1; default 30000)
                   [--transport channel|tcp|unix] (boundary transport: in-process bounded channels —
                                           default — or one OS process per leaf host behind TCP /
                                           Unix-domain sockets; results are transport-invariant)
                   [--workers a,b,c]      (with --transport tcp|unix: connect to already-running
                                           `qapctl host` processes at these addresses instead of
                                           spawning child processes; one address per leaf host)
                   [--repartition[=THRESHOLD,K]] (close the loop from load gauges to the splitter:
                                           re-plan the bucket assignment and migrate aggregate
                                           state when max/mean host load exceeds THRESHOLD
                                           (default 1.5) for K consecutive epochs (default 2);
                                           falls back to the static splitter on ineligible plans)
                   [--skew-ramp]          (replay a skewed trace whose hot keys drift between
                                           epochs — the workload adaptive re-partitioning exists
                                           for; composes with --seed/--epochs/--flows)
  qapctl gen-trace <out.qtr> [--seed S] [--epochs E] [--flows F] [--skew-ramp]
  qapctl host      --listen <addr> [--once]
                   (run a cluster host process: accept coordinator sessions, execute deployed
                    units; <addr> is host:port, tcp:host:port, or unix:/path; port 0 binds an
                    ephemeral port; prints `LISTENING <addr>` once ready; --once exits after
                    the first session)";

struct Opts {
    script: String,
    hosts: usize,
    set: Option<PartitionSet>,
    round_robin: bool,
    naive: bool,
    agnostic: bool,
    strict_joins: bool,
    seed: u64,
    epochs: u64,
    flows: usize,
    threaded: bool,
    limit: usize,
    trace_file: Option<String>,
    batch_size: usize,
    explain: bool,
    transport: TransportConfig,
    transport_kind: TransportKind,
    /// `run --transport tcp|unix`: pre-started `qapctl host` addresses
    /// (otherwise the coordinator spawns its own child processes).
    workers: Option<String>,
    /// `host`: the listen address.
    listen: Option<String>,
    /// `host`: exit after the first coordinator session.
    once: bool,
    /// `None` = no export, `Some(None)` = JSON to stdout,
    /// `Some(Some(path))` = write to `path` (`.prom` selects Prometheus
    /// text, anything else JSON).
    metrics: Option<Option<String>>,
    /// `run --skew-ramp` / `gen-trace --skew-ramp`: generate the
    /// drifting-hot-key workload instead of the uniform trace.
    skew_ramp: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        script: String::new(),
        hosts: 4,
        set: None,
        round_robin: false,
        naive: false,
        agnostic: false,
        strict_joins: false,
        seed: 42,
        epochs: 5,
        flows: 2_000,
        threaded: false,
        limit: 10,
        trace_file: None,
        batch_size: BatchConfig::default().max_batch,
        explain: false,
        transport: TransportConfig::default(),
        transport_kind: TransportKind::default(),
        workers: None,
        listen: None,
        once: false,
        metrics: None,
        skew_ramp: false,
    };
    let mut it = args.iter();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--hosts" => {
                opts.hosts = value("--hosts")?
                    .parse()
                    .map_err(|e| format!("--hosts: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--epochs" => {
                opts.epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--flows" => {
                opts.flows = value("--flows")?
                    .parse()
                    .map_err(|e| format!("--flows: {e}"))?
            }
            "--limit" => {
                opts.limit = value("--limit")?
                    .parse()
                    .map_err(|e| format!("--limit: {e}"))?
            }
            "--batch-size" => {
                opts.batch_size = value("--batch-size")?
                    .parse()
                    .map_err(|e| format!("--batch-size: {e}"))?;
                if opts.batch_size == 0 {
                    return Err("--batch-size must be at least 1".into());
                }
            }
            "--set" => {
                let raw = value("--set")?;
                let exprs = raw
                    .split(',')
                    .map(|part| {
                        parse_expression(part.trim()).map_err(|e| format!("--set '{part}': {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                opts.set = Some(PartitionSet::from_exprs(exprs.iter()));
            }
            "--channel-capacity" => {
                opts.transport.channel_capacity = value("--channel-capacity")?
                    .parse()
                    .map_err(|e| format!("--channel-capacity: {e}"))?;
                if opts.transport.channel_capacity == 0 {
                    return Err("--channel-capacity must be at least 1".into());
                }
            }
            "--frame-batch" => {
                opts.transport.frame_batch = value("--frame-batch")?
                    .parse()
                    .map_err(|e| format!("--frame-batch: {e}"))?;
                if opts.transport.frame_batch == 0 {
                    return Err("--frame-batch must be at least 1".into());
                }
            }
            "--fault-plan" => {
                opts.transport.fault = parse_fault_plan(&value("--fault-plan")?)?;
            }
            "--partial-results" => opts.transport.partial_results = true,
            "--transport" => opts.transport_kind = TransportKind::parse(&value("--transport")?)?,
            other if other.starts_with("--transport=") => {
                opts.transport_kind = TransportKind::parse(&other["--transport=".len()..])?;
            }
            "--workers" => opts.workers = Some(value("--workers")?),
            "--listen" => opts.listen = Some(value("--listen")?),
            "--once" => opts.once = true,
            "--send-timeout" => {
                opts.transport.send_timeout_ms = value("--send-timeout")?
                    .parse()
                    .map_err(|e| format!("--send-timeout: {e}"))?;
                if opts.transport.send_timeout_ms == 0 {
                    return Err("--send-timeout must be at least 1".into());
                }
            }
            "--explain" => opts.explain = true,
            "--trace" => opts.trace_file = Some(value("--trace")?),
            "--round-robin" => opts.round_robin = true,
            "--naive" => opts.naive = true,
            "--agnostic" => opts.agnostic = true,
            "--strict-joins" => opts.strict_joins = true,
            "--threaded" => opts.threaded = true,
            "--skew-ramp" => opts.skew_ramp = true,
            "--repartition" => opts.transport.rebalance = RebalanceConfig::adaptive(),
            other if other.starts_with("--repartition=") => {
                opts.transport.rebalance = parse_repartition(&other["--repartition=".len()..])?;
            }
            "--metrics" => opts.metrics = Some(None),
            other if other.starts_with("--metrics=") => {
                let path = &other["--metrics=".len()..];
                if path.is_empty() {
                    return Err("--metrics= requires a path (or use bare --metrics)".into());
                }
                opts.metrics = Some(Some(path.to_string()));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.as_slice() {
        [script] => opts.script = script.clone(),
        // `host` takes no script; the other commands check below.
        [] => {}
        more => return Err(format!("unexpected arguments: {more:?}")),
    }
    Ok(opts)
}

/// Parses a `--fault-plan` spec: a comma-separated list of
/// `seed=N`, `corrupt=N`, `truncate=N`, `drop=N` (every Nth frame),
/// `slow=HOST:MICROS`, `hang=HOST:MILLIS`, `panic=HOST:TUPLES`.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::default();
    let parse_u64 = |key: &str, raw: &str| -> Result<u64, String> {
        raw.parse().map_err(|e| format!("--fault-plan {key}: {e}"))
    };
    let parse_host_pair = |key: &str, raw: &str| -> Result<(usize, u64), String> {
        let (host, amount) = raw
            .split_once(':')
            .ok_or_else(|| format!("--fault-plan {key}: expected HOST:VALUE, got '{raw}'"))?;
        Ok((
            host.parse()
                .map_err(|e| format!("--fault-plan {key} host: {e}"))?,
            amount
                .parse()
                .map_err(|e| format!("--fault-plan {key} value: {e}"))?,
        ))
    };
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, val) = part
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("--fault-plan: expected key=value, got '{part}'"))?;
        match key {
            "seed" => plan.seed = parse_u64(key, val)?,
            "corrupt" => plan.corrupt_every = parse_u64(key, val)?,
            "truncate" => plan.truncate_every = parse_u64(key, val)?,
            "drop" => plan.drop_every = parse_u64(key, val)?,
            "slow" => {
                let (host, micros) = parse_host_pair(key, val)?;
                plan = plan.slow(host, micros);
            }
            "hang" => {
                let (host, millis) = parse_host_pair(key, val)?;
                plan = plan.hang(host, millis);
            }
            "panic" => {
                let (host, tuples) = parse_host_pair(key, val)?;
                plan = plan.panic_after(host, tuples);
            }
            other => {
                return Err(format!(
                    "--fault-plan: unknown key '{other}' (expected seed, corrupt, truncate, drop, slow, hang, panic)"
                ))
            }
        }
    }
    Ok(plan)
}

/// Parses `--repartition=THRESHOLD[,K]`: the max/mean imbalance that
/// arms the controller and how many consecutive epochs must cross it.
fn parse_repartition(spec: &str) -> Result<RebalanceConfig, String> {
    let mut cfg = RebalanceConfig::adaptive();
    let (threshold, k) = match spec.split_once(',') {
        Some((t, k)) => (t.trim(), Some(k.trim())),
        None => (spec.trim(), None),
    };
    let t: f64 = threshold
        .parse()
        .map_err(|e| format!("--repartition threshold: {e}"))?;
    if t <= 1.0 || t.is_nan() {
        return Err("--repartition: threshold must exceed 1.0 (max/mean ratio)".into());
    }
    cfg = cfg.with_threshold(t);
    if let Some(k) = k {
        let k: u32 = k
            .parse()
            .map_err(|e| format!("--repartition epochs: {e}"))?;
        if k == 0 {
            return Err("--repartition: consecutive epochs must be at least 1".into());
        }
        cfg = cfg.with_consecutive(k);
    }
    Ok(cfg)
}

fn load_dag(path: &str) -> Result<QueryDag, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let mut builder = QuerySetBuilder::new(Catalog::with_network_schemas());
    builder
        .parse_script(&text)
        .map_err(|e| format!("script error: {e}"))?;
    let dag = builder.build();
    if dag.is_empty() {
        return Err("script defines no queries".into());
    }
    Ok(dag)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = parse_opts(rest)?;
    if cmd == "host" {
        return host_serve(&opts);
    }
    if opts.script.is_empty() {
        return Err("missing script file".into());
    }
    if cmd == "gen-trace" {
        return gen_trace(&opts);
    }
    let dag = load_dag(&opts.script)?;
    match cmd.as_str() {
        "analyze" => analyze(&dag, &opts),
        "plan" => {
            let (p, explanation) = plan(&dag, &opts)?;
            if opts.explain {
                println!("{}", explain_report(&dag, &p, &explanation));
            }
            println!("{}", p.render_by_host());
            Ok(())
        }
        "run" => execute(&dag, &opts),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `qapctl host`: run a cluster host process. Prints `LISTENING <addr>`
/// (with any ephemeral port resolved) once the socket is bound, so a
/// parent coordinator can scrape the address from stdout.
fn host_serve(opts: &Opts) -> Result<(), String> {
    use std::io::Write as _;
    let raw = opts
        .listen
        .as_ref()
        .ok_or("host requires --listen <addr>")?;
    let listener = HostListener::bind(&HostAddr::parse(raw)?)?;
    println!("LISTENING {}", listener.local_addr()?);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    serve_host(&listener, &HostServerConfig { once: opts.once })
}

/// Spawned child host process plus the address it reported.
struct ChildHost {
    child: std::process::Child,
    addr: HostAddr,
}

impl Drop for ChildHost {
    fn drop(&mut self) {
        // `--once` children exit on their own after the session; this
        // is the abnormal-path backstop.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_child_host(kind: TransportKind, ordinal: usize) -> Result<ChildHost, String> {
    use std::io::BufRead as _;
    let listen = match kind {
        TransportKind::Tcp => "tcp:127.0.0.1:0".to_string(),
        TransportKind::Unix => {
            let dir = std::env::temp_dir();
            format!(
                "unix:{}/qapctl-host-{}-{ordinal}.sock",
                dir.display(),
                std::process::id()
            )
        }
        TransportKind::Channel => unreachable!("channel transport spawns no processes"),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate qapctl: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args(["host", "--listen", &listen, "--once"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn host process: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("host process produced no address: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .ok_or_else(|| {
            format!(
                "host process said '{}', expected LISTENING <addr>",
                line.trim()
            )
        })
        .and_then(HostAddr::parse)?;
    Ok(ChildHost { child, addr })
}

/// `run --transport tcp|unix`: execute with each leaf host as its own
/// OS process — pre-started (`--workers`) or spawned here as `qapctl
/// host --listen ... --once` children.
fn run_remote(
    plan: &DistributedPlan,
    trace: &[Tuple],
    sim: &SimConfig,
    opts: &Opts,
) -> Result<SimResult, String> {
    let needed = remote_host_count(plan, sim);
    let mut children: Vec<ChildHost> = Vec::new();
    let addrs: Vec<HostAddr> = match &opts.workers {
        Some(spec) => spec
            .split(',')
            .map(|s| HostAddr::parse(s.trim()))
            .collect::<Result<_, _>>()?,
        None => {
            for i in 0..needed {
                children.push(spawn_child_host(opts.transport_kind, i)?);
            }
            children.iter().map(|c| c.addr.clone()).collect()
        }
    };
    if addrs.len() != needed {
        return Err(format!(
            "plan needs {needed} leaf host processes, got {} addresses",
            addrs.len()
        ));
    }
    eprintln!(
        "(coordinating {} host process{} over {:?})",
        addrs.len(),
        if addrs.len() == 1 { "" } else { "es" },
        opts.transport_kind
    );
    let result =
        run_distributed_remote(plan, trace, sim, &addrs).map_err(|e| format!("execution: {e}"));
    for mut c in children.drain(..) {
        let _ = c.child.wait();
    }
    result
}

/// Builds the run/gen-trace workload from the shared trace knobs:
/// uniform by default, the drifting-hot-key ramp under `--skew-ramp`.
fn make_trace(opts: &Opts) -> Vec<Tuple> {
    let base = TraceConfig {
        seed: opts.seed,
        epochs: opts.epochs,
        flows_per_epoch: opts.flows,
        spread_ips: true,
        ..TraceConfig::default()
    };
    if opts.skew_ramp {
        generate_skew_ramp(&SkewRampConfig {
            base,
            ..SkewRampConfig::default()
        })
    } else {
        generate(&base)
    }
}

fn gen_trace(opts: &Opts) -> Result<(), String> {
    // The positional argument is the output path here.
    let trace = make_trace(opts);
    write_trace(&opts.script, &trace).map_err(|e| e.to_string())?;
    let s = stats(&trace);
    println!(
        "wrote {}: {} packets, {} flows ({} suspicious), {}s",
        opts.script, s.packets, s.flows, s.suspicious_flows, s.duration_secs
    );
    Ok(())
}

fn analyze(dag: &QueryDag, opts: &Opts) -> Result<(), String> {
    println!("Logical plan:\n{}", render_dag(dag));
    let analysis = choose_partitioning_with(
        dag,
        &UniformStats::default(),
        &CostModel::default(),
        AnalysisOptions {
            strict_join_compatibility: opts.strict_joins,
        },
    );
    print!("{}", analysis.explain(dag));
    Ok(())
}

fn deployment(dag: &QueryDag, opts: &Opts) -> Result<(Partitioning, OptimizerConfig), String> {
    let partitioning = if opts.round_robin {
        Partitioning::round_robin(opts.hosts)
    } else {
        let set = match &opts.set {
            Some(s) => s.clone(),
            None => {
                let analysis =
                    choose_partitioning(dag, &UniformStats::default(), &CostModel::default());
                if analysis.recommended.is_empty() {
                    return Err(
                        "analyzer found no usable partitioning; pass --set or --round-robin".into(),
                    );
                }
                eprintln!("(using analyzer recommendation {})", analysis.recommended);
                analysis.recommended
            }
        };
        Partitioning::hash(set, opts.hosts)
    };
    let config = if opts.agnostic {
        OptimizerConfig {
            agnostic: true,
            ..OptimizerConfig::default()
        }
    } else if opts.naive {
        OptimizerConfig::naive()
    } else {
        OptimizerConfig {
            analysis: AnalysisOptions {
                strict_join_compatibility: opts.strict_joins,
            },
            ..OptimizerConfig::full()
        }
    };
    Ok((partitioning, config))
}

fn plan(dag: &QueryDag, opts: &Opts) -> Result<(DistributedPlan, PlanExplanation), String> {
    let (partitioning, config) = deployment(dag, opts)?;
    optimize_explained(dag, &partitioning, &config).map_err(|e| format!("optimizer: {e}"))
}

/// The `--explain` report: the planner's costed account of every
/// realization alternative, the partitioning each logical edge carries
/// in the chosen plan, and the predicted per-host receive load of the
/// extracted physical plan.
fn explain_report(dag: &QueryDag, plan: &DistributedPlan, explanation: &PlanExplanation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(&explanation.render());

    let mut decision: Vec<Option<NodeDecision>> = vec![None; dag.len()];
    for n in &explanation.nodes {
        decision[n.node] = Some(n.decision);
    }
    let deployed = &explanation.deployed;
    let _ = writeln!(out, "\nLogical plan (partitioning carried on each edge):");
    out.push_str(&render_dag_annotated(dag, &|id| {
        Some(match decision[id] {
            // Sources are split by the deployed set by construction.
            None | Some(NodeDecision::Push) => format!("carries {deployed}"),
            Some(NodeDecision::SubSuper) => format!("partials by {deployed} -> central"),
            Some(NodeDecision::Central) => "central".to_string(),
        })
    }));

    let predicted =
        predict_host_load_for_plan(plan, dag, &UniformStats::default(), &CostModel::default());
    let _ = writeln!(
        out,
        "\nPredicted per-host receive load (B/s, uniform stats):"
    );
    for (h, p) in predicted.iter().enumerate() {
        let _ = writeln!(
            out,
            "  host {h}: {p:.0}{}",
            if h == plan.partitioning.aggregator_host {
                "  (aggregator)"
            } else {
                ""
            }
        );
    }
    out
}

fn execute(dag: &QueryDag, opts: &Opts) -> Result<(), String> {
    // The synthetic trace is TCP-shaped; refuse to feed other schemas.
    for id in dag.topo_order() {
        if let LogicalNode::Source { stream, .. } = dag.node(id) {
            if !stream.eq_ignore_ascii_case("TCP") {
                return Err(format!(
                    "'run' replays a synthetic TCP trace, but the script reads '{stream}'; use 'analyze'/'plan' for custom streams"
                ));
            }
        }
    }
    let (plan, explanation) = plan(dag, opts)?;
    if opts.explain {
        println!("{}", explain_report(dag, &plan, &explanation));
    }
    let trace = match &opts.trace_file {
        Some(path) => read_trace(path).map_err(|e| e.to_string())?,
        None => make_trace(opts),
    };
    let tstats = stats(&trace);
    println!(
        "Trace: {} packets, {} flows ({} suspicious), {}s\n",
        tstats.packets, tstats.flows, tstats.suspicious_flows, tstats.duration_secs
    );
    let sim = SimConfig {
        batch: BatchConfig::new(opts.batch_size),
        transport: opts.transport,
        ..SimConfig::default()
    };
    println!(
        "Engine: {} runner, batch {}\n",
        match opts.transport_kind {
            TransportKind::Tcp => "tcp process",
            TransportKind::Unix => "unix-socket process",
            TransportKind::Channel if opts.threaded => "threaded",
            TransportKind::Channel => "simulated",
        },
        opts.batch_size,
    );
    let result = match opts.transport_kind {
        TransportKind::Tcp | TransportKind::Unix => run_remote(&plan, &trace, &sim, opts)?,
        TransportKind::Channel if opts.threaded => {
            run_distributed_threaded(&plan, &trace, &sim).map_err(|e| format!("execution: {e}"))?
        }
        TransportKind::Channel => {
            run_distributed(&plan, &trace, &sim).map_err(|e| format!("execution: {e}"))?
        }
    };

    for (name, rows) in &result.outputs {
        println!(
            "{name}: {} rows (showing up to {}):",
            rows.len(),
            opts.limit
        );
        for row in rows.iter().take(opts.limit) {
            println!("  {row}");
        }
        println!();
    }
    let m = &result.metrics;
    println!(
        "Cluster metrics ({} hosts, {} partitions):",
        m.hosts, m.partitions
    );
    println!(
        "  per-host work units: {:?}",
        m.work.iter().map(|w| w.round()).collect::<Vec<_>>()
    );
    println!(
        "  aggregator network: {} tuples ({:.1}/s, {:.0} B/s)",
        m.aggregator_rx_tuples, m.aggregator_rx_tps, m.aggregator_rx_bytes_per_sec
    );
    println!(
        "  leaf imbalance: {:.3}; late drops: {}",
        m.leaf_imbalance, m.late_dropped
    );
    if opts.transport.rebalance.enabled {
        match &m.rebalance_fallback {
            Some(reason) => println!("  repartitioning: fell back to static splitter ({reason})"),
            None => println!(
                "  repartitioning: {} migrations, {} keys moved, peak imbalance {:.3}, \
                 pause {:.1} ms",
                m.repartitions, m.migrated_keys, m.load_imbalance, m.migration_pause_ms
            ),
        }
    }
    let t = &m.transport;
    if t.frames > 0 {
        println!(
            "  boundary transport: {} frames / {} tuples / {} B (cap {}, frame {}); \
             queue peak {}, stalls {}",
            t.frames,
            t.tuples(),
            t.frame_bytes,
            t.channel_capacity,
            t.frame_batch,
            t.queue_peak,
            t.backpressure_stalls
        );
    }
    if t.retries > 0 || t.frames_dropped > 0 || t.frames_corrupt_dropped > 0 {
        println!(
            "  fault telemetry: {} send retries, {} frames dropped, {} corrupt frames discarded",
            t.retries, t.frames_dropped, t.frames_corrupt_dropped
        );
    }
    if !result.failures.is_empty() {
        println!(
            "  HOST FAILURES ({}; partial results — surviving hosts finished their epochs):",
            result.failures.len()
        );
        for f in &result.failures {
            println!("    {f}");
        }
    }
    if let Some(dest) = &opts.metrics {
        let registry = metrics_registry(&plan, &result);
        match dest {
            None => println!("{}", registry.to_json()),
            Some(path) => {
                let text = if path.ends_with(".prom") {
                    registry.to_prometheus()
                } else {
                    registry.to_json()
                };
                std::fs::write(path, text)
                    .map_err(|e| format!("cannot write metrics to '{path}': {e}"))?;
                println!("  metrics snapshot written to {path}");
            }
        }
    }
    Ok(())
}

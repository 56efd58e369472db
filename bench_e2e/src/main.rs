//! `bench_e2e`: the repo's end-to-end benchmark. It replays one seeded
//! synthetic trace through four §6 deployments, checks every run's
//! output against a single-engine reference, and reports named
//! end-to-end and per-layer metrics. See `README.md` beside this crate.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     one run of one workload; the last line of stdout is the result
//!     object BENCHMARK.json's contract describes
//! bench_e2e [--seed N] [--seconds S] [--smoke] [--out DIR]
//!     the full set: each workload untraced and traced, one child
//!     process per run, written to DIR/BENCH_e2e.json and
//!     DIR/TRACE_e2e.json (DIR defaults to bench_e2e/results)
//! bench_e2e compare A.json B.json
//!     B against A by the table's bounds; exits 1 on any `worse`
//! ```

mod compare;
mod json;
mod layers;
mod procfs;
mod run;
mod spans;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use run::{Report, RunOptions};
use spec::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 20080609;
const DEFAULT_SECONDS: f64 = 10.0;
/// Prefix of the line a child prints, just before its result line, with
/// everything it measured; only the full-set parent asks for it.
const DETAIL_PREFIX: &str = "DETAIL ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    detail: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        detail: false,
        out: "bench_e2e/results".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = value()?,
            "--smoke" => parsed.smoke = true,
            "--detail" => parsed.detail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn print_metrics(report: &Report, trace: bool) {
    println!(
        "{} seed {} — {} tuples, {} timed reps, {} hardware thread(s)",
        report.workload,
        report.seed,
        report.tuples,
        report.rep_wall_s.len(),
        hardware_threads(),
    );
    for m in report.reported(trace) {
        match m.spread {
            Some(s) => println!(
                "  {:<40} {:>16.4} {:<13} (q1 {:.4}, q3 {:.4}, n = {})",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  {:<40} {:>16.4} ratio         ({} failed of {} attempted)",
        "failed_ops_share",
        report.failed_ops_share(),
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("  FAILED: {e}");
    }
    if trace {
        println!("  cost path (layer ns/tuple x multiplicity):");
        for t in &report.attribution {
            println!(
                "    {:<46} {:>8.1} x {:<6.3} = {:>8.1}",
                t.step,
                t.ns_per_tuple,
                t.multiplicity,
                t.contribution()
            );
        }
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run of one workload, in this process.
fn run_one(w: &'static Workload, args: &Args) -> bool {
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
    };
    let report = run::run_workload(w, &opts);
    println!("{}: {}", w.name, w.why);
    print_metrics(&report, args.trace);
    if args.detail {
        println!("{DETAIL_PREFIX}{}", report.detail(args.trace).render());
    }
    println!("{}", report.result_line(args.trace).render());
    report.failed == 0
}

/// Runs one child and returns its detail document. The child's own
/// report lines are passed through.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--detail"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(doc) => detail = Some(Json::parse(doc)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or_else(|| format!("{}: child printed no detail line", w.name))?;
    Ok((detail, out.status.success()))
}

/// The full set: every workload untraced, then traced, each in its own
/// child process so peak memory and allocator state are per run.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut files = Vec::new();
    for (trace, file) in [(false, "BENCH_e2e.json"), (true, "TRACE_e2e.json")] {
        let mut details = Vec::new();
        for w in &WORKLOADS {
            let (detail, ok) = run_child(w, args, trace)?;
            all_ok &= ok;
            details.push(detail);
        }
        let doc = Json::obj([
            ("benchmark", Json::str("bench_e2e")),
            ("traced", Json::Bool(trace)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("hardware_threads", Json::Num(hardware_threads() as f64)),
            ("workloads", Json::Arr(details)),
        ]);
        files.push((file, doc));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out))?;
    for (file, doc) in files {
        let path = format!("{}/{file}", args.out);
        std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_ok)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &argv[..] else {
            return Err("usage: bench_e2e compare A.json B.json".into());
        };
        return compare::compare(&read_json(a)?, &read_json(b)?);
    }
    let args = parse_args(&argv)?;
    match &args.workload {
        Some(name) => {
            let w = spec::workload(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {name}; expected one of {}",
                    names.join(", ")
                )
            })?;
            Ok(run_one(w, &args))
        }
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

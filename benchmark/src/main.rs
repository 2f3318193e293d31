//! `bio-benchmark` — command line of the barrier-IO simulator's benchmark.
//!
//! ```text
//! bio-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bio-benchmark --all [--seed <n>] [--seconds <s>] [--out <file>]
//! bio-benchmark --aa  [--seed <n>] [--seconds <s>]
//! ```
//!
//! `--workload` runs one workload in this process, on one OS thread, and
//! prints the result object as the last line of standard output. `--all`
//! and `--aa` run every workload, each in a process of its own. Exit code:
//! 0 = every check passed, 1 = a check failed or an op failed, 2 = usage
//! error or a hidden input is set.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use bio_benchmark::cells::{self, WORKLOADS};
use bio_benchmark::harness::{timed_run, traced_run, Outcome, RunSpec};
use bio_benchmark::json::Json;
use bio_benchmark::metrics;

/// Environment variables that silently change what the simulator or its
/// benches do. The benchmark refuses to start under any of them: the
/// program under test receives only inputs generated from `--seed`.
const HIDDEN_INPUTS: [&str; 3] = [
    "BIO_SINGLE_STEP",
    "BIO_FORK_CAPTURE",
    "LONG_HORIZON_SIM_SECS",
];

const USAGE: &str = "usage: bio-benchmark (--workload <name> --trace <0|1> | --all | --aa) \
[--seed <n>] [--seconds <s>] [--smoke] [--out <file>] [--trace-out <file>]";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    aa: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 42,
        seconds: 16.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must lie in 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--all" => a.all = true,
            "--aa" => a.aa = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = usize::from(a.workload.is_some()) + usize::from(a.all) + usize::from(a.aa);
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --aa".into());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(a)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What a results file needs to be read a year later.
fn header(a: &Args) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("smoke", Json::Bool(a.smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("os_threads_used", Json::Num(1.0)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "full_sizes",
            Json::obj(
                cells::size_table()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        ),
    ])
}

fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:14} {name:44} {value:>18.6} {unit}");
}

fn print_outcome(workload: &str, o: &Outcome) {
    for (d, v) in &o.metrics {
        print_metric(workload, &d.name, *v, d.unit);
    }
    for n in &o.notes {
        eprintln!("[{workload}] {n}");
    }
    for p in &o.problems {
        eprintln!("[{workload}] FAILED CHECK: {p}");
    }
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One workload, in this process.
fn run_one(a: &Args, workload: &str) -> Result<bool, String> {
    // Simulated thread counts are model inputs; the host side stays on one
    // OS thread, whatever `nproc` says.
    bio_bench::set_default_jobs(1);
    let epoch = Instant::now();
    let spec = RunSpec {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
    };
    let outcome = if a.trace {
        traced_run(&spec, epoch)
    } else {
        timed_run(&spec, epoch)
    };
    print_outcome(workload, &outcome);
    if a.trace {
        let path = match &a.trace_out {
            Some(p) => p.clone(),
            // Next to the executable: inside the build directory, which
            // version control ignores.
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate the executable: {e}"))?
                .with_file_name(format!("trace-{workload}.json")),
        };
        let doc = Json::obj([("traceEvents", Json::Arr(outcome.spans.clone()))]);
        write_file(&path, &doc.render())?;
        eprintln!("[{workload}] Chrome trace: {}", path.display());
    }
    let result = outcome.result_json();
    if let Some(out) = &a.out {
        let doc = Json::obj([
            ("header", header(a)),
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(a.trace)),
            ("result", result.clone()),
            (
                "problems",
                Json::Arr(outcome.problems.iter().map(Json::str).collect()),
            ),
        ]);
        write_file(out, &doc.render_pretty())?;
    }
    println!("{}", result.render());
    Ok(outcome.correct && outcome.failed == 0)
}

/// Runs `workload` in a child process and returns its result object.
fn run_child(a: &Args, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    Ok((result, out.status.success()))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let (e2e, e2e_ok) = run_child(a, w, false)?;
        let (layer, layer_ok) = run_child(a, w, true)?;
        ok &= e2e_ok && layer_ok;
        for (table, result) in [
            (metrics::end_to_end(), &e2e),
            (metrics::per_layer(), &layer),
        ] {
            for d in table {
                let v = metric_value(result, &d.name).unwrap_or(f64::NAN);
                print_metric(w, &d.name, v, d.unit);
            }
        }
        for (k, r) in [("untraced", &e2e), ("traced", &layer)] {
            println!(
                "{w:14} {k}: correct={} ops_attempted={} ops_failed={} ops_retried={}",
                r.get("correct").and_then(Json::as_bool).unwrap_or(false),
                r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                metric_value(&layer, "ops_retried").unwrap_or(0.0),
            );
        }
        per_workload.push((w, Json::obj([("end_to_end", e2e), ("per_layer", layer)])));
    }
    if let Some(out) = &a.out {
        let doc = Json::obj([
            ("header", header(a)),
            ("workloads", Json::obj(per_workload)),
        ]);
        write_file(out, &doc.render_pretty())?;
    }
    println!(
        "{}",
        if ok {
            "ALL CHECKS PASSED"
        } else {
            "A CHECK FAILED"
        }
    );
    Ok(ok)
}

/// A/A: two full untraced sets of the same tree, alternating which runs
/// first, compared metric by metric against the bounds. The table it
/// prints is the noise floor in README.md.
fn run_aa(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!("| workload | metric | A | B | gap | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (first, first_ok) = run_child(a, w, false)?;
        let (second, second_ok) = run_child(a, w, false)?;
        ok &= first_ok && second_ok;
        let (ra, rb) = if i % 2 == 0 {
            (&first, &second)
        } else {
            (&second, &first)
        };
        for d in metrics::end_to_end() {
            let (va, vb) = (
                metric_value(ra, &d.name).unwrap_or(f64::NAN),
                metric_value(rb, &d.name).unwrap_or(f64::NAN),
            );
            let gap = (va - vb).abs() / va.abs().min(vb.abs());
            let bound = d.bound.unwrap_or(0.0);
            let within = gap <= bound;
            ok &= within;
            println!(
                "| {w} | {} | {va:.6} | {vb:.6} | {:.2} % | {:.0} % | {} |",
                d.name,
                gap * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    if let Some(var) = HIDDEN_INPUTS.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("bio-benchmark: refusing to run with {var} set: it changes the simulator's behaviour behind the benchmark's back");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bio-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(w) => run_one(&args, w),
        None if args.all => run_all(&args),
        None => run_aa(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bio-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

//! Drives the built `bio-benchmark` binary at `--smoke` size (1/16 scale)
//! over all six workloads, untraced and traced, and holds what it prints
//! to the contract in `../BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

use bio_benchmark::cells::{why, WORKLOADS};
use bio_benchmark::json::Json;
use bio_benchmark::metrics::{end_to_end, per_layer, MetricDef};

const BIN: &str = env!("CARGO_BIN_EXE_bio-benchmark");

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for var in [
        "BIO_SINGLE_STEP",
        "BIO_FORK_CAPTURE",
        "LONG_HORIZON_SIM_SECS",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("bio-benchmark starts")
}

fn name_ok(name: &str, max: usize) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(v: &Json) -> Vec<&str> {
    v.members().iter().map(|(k, _)| k.as_str()).collect()
}

/// Checks one table of `BENCHMARK.json` against the code's definitions.
fn check_table(listed: &[Json], defs: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), defs.len(), "table length");
    for (m, d) in listed.iter().zip(defs) {
        let expected_keys: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected_keys, "keys of {}", d.name);
        assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name.as_str()));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(d.better),
            "{}",
            d.name
        );
        assert!(name_ok(&d.name, 64), "metric name {}", d.name);
        assert!(unit_ok(d.unit), "unit of {}", d.name);
        if bounded {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(Some(bound), d.bound, "bound of {}", d.name);
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_code_and_the_contract() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = b
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    assert!(command
        .iter()
        .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains("..")));
    let paths: Vec<&str> = b
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let secs = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let workloads = b.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, name) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(w.get("name").and_then(Json::as_str), Some(name));
        assert!(name_ok(name, 64));
        let text = w.get("why").and_then(Json::as_str).unwrap();
        assert_eq!(text, why(name));
        assert!(!text.is_empty() && text.len() <= 200 && !text.contains('\n'));
    }

    let e2e = end_to_end();
    let layer = per_layer();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    check_table(b.get("end_to_end").unwrap().items(), &e2e, true);
    check_table(b.get("per_layer").unwrap().items(), &layer, false);
    let setup = &e2e[0];
    assert_eq!(
        (setup.name.as_str(), setup.unit, setup.better),
        ("setup_s", "s", "lower")
    );
    let largest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );

    let mut names: Vec<&str> = e2e.iter().chain(&layer).map(|d| d.name.as_str()).collect();
    names.extend(WORKLOADS);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

/// The last stdout line of a run, held to the result-object contract.
fn check_result(out: &Output, defs: &[MetricDef], what: &str) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what} exited {:?}\n{stderr}",
        out.status.code()
    );
    let last = stdout.lines().last().expect("a result line");
    let r = Json::parse(last).unwrap_or_else(|e| panic!("{what}: result line: {e}"));
    assert_eq!(
        keys(&r),
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        r.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}\n{stderr}"
    );
    let attempted = r.get("attempted").and_then(Json::as_f64).unwrap();
    let failed = r.get("failed").and_then(Json::as_f64).unwrap();
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "{what}: attempted {attempted}"
    );
    assert_eq!(failed, 0.0, "{what}: ops failed\n{stderr}");
    let metrics = r.get("metrics").unwrap().members();
    assert_eq!(metrics.len(), defs.len(), "{what}: metric count");
    for ((name, m), d) in metrics.iter().zip(defs) {
        assert_eq!(name, &d.name, "{what}: metric order");
        assert_eq!(keys(m), ["value", "unit"], "{what}: {name}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{what}: {name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
        if d.bound.is_some() {
            assert!(
                v.unwrap() > 0.0,
                "{what}: end-to-end {name} must never be 0"
            );
        }
    }
    r
}

#[test]
fn every_workload_runs_at_smoke_size_and_emits_the_contracted_metrics() {
    let (e2e, layer) = (end_to_end(), per_layer());
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for w in WORKLOADS {
        let base = ["--workload", w, "--seed", "7", "--seconds", "0", "--smoke"];
        let untraced = run(&[&base[..], &["--trace", "0"]].concat(), &[]);
        check_result(&untraced, &e2e, &format!("{w} untraced"));

        let trace_file = trace_dir.join(format!("trace-{w}.json"));
        let trace_arg = trace_file.to_str().unwrap();
        let traced = run(
            &[&base[..], &["--trace", "1", "--trace-out", trace_arg]].concat(),
            &[],
        );
        let r = check_result(&traced, &layer, &format!("{w} traced"));
        let value = |name: &str| {
            r.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(
            value("core.events") > 0.0,
            "{w}: the stepped pass counted no events"
        );
        assert!(value("core.trace_overhead") > 0.0);
        assert!(value("workloads.ops") > 0.0);
        assert_eq!(value("bench.crash.points") > 0.0, w == "crash_enum");

        // A loadable Chrome trace: complete events with the five phases
        // of every cell.
        let trace = Json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        let events = trace.get("traceEvents").unwrap().items();
        for phase in ["construct", "warm-up", "window", "report", "audit"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(phase)),
                "{w}: no {phase} span"
            );
        }
        assert!(events.iter().all(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("ts").and_then(Json::as_f64).is_some()
                && e.get("dur").and_then(Json::as_f64).is_some()
        }));
    }
}

#[test]
fn same_seed_gives_the_same_model_metrics_and_another_seed_does_not() {
    let model = |seed: &str| -> Vec<f64> {
        let out = run(
            &[
                "--workload",
                "randwrite_qd",
                "--seed",
                seed,
                "--seconds",
                "0",
                "--smoke",
                "--trace",
                "0",
            ],
            &[],
        );
        let r = check_result(&out, &end_to_end(), "randwrite_qd");
        r.get("metrics")
            .unwrap()
            .members()
            .iter()
            .filter(|(k, _)| k.contains("_sim_s") || k.contains("_us"))
            .map(|(_, m)| m.get("value").and_then(Json::as_f64).unwrap())
            .collect()
    };
    let (a, b, c) = (model("11"), model("11"), model("12"));
    assert_eq!(a, b, "model metrics are exact for a seed");
    assert_ne!(a, c, "the seed reaches the simulator");
}

#[test]
fn hidden_inputs_and_bad_arguments_exit_2() {
    for var in [
        "BIO_SINGLE_STEP",
        "BIO_FORK_CAPTURE",
        "LONG_HORIZON_SIM_SECS",
    ] {
        let out = run(
            &["--workload", "sqlite_sync", "--trace", "0", "--smoke"],
            &[(var, "1")],
        );
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
    for args in [
        &["--workload", "no_such_workload", "--trace", "0"][..],
        &["--trace", "0"][..],
        &["--all", "--aa"][..],
        &["--workload", "sqlite_sync", "--trace", "2"][..],
        &["--workload", "sqlite_sync", "--seed"][..],
    ] {
        assert_eq!(run(args, &[]).status.code(), Some(2), "{args:?}");
    }
}

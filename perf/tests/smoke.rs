//! End-to-end smoke of the real command line in `--quick` mode: every
//! workload runs and audits clean, `results.json` round-trips through
//! `compare`, and every name the program emits is well formed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use locktune_perf::json::{self, Value};
use locktune_perf::schema;

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_locktune-perf"))
        .args(args)
        .output()
        .expect("run locktune-perf")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn metric_names(result: &Value) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_run_audits_clean_and_round_trips_through_compare() {
    let dir = out_dir("smoke_run");
    let dir_arg = dir.to_str().unwrap();
    let out = perf(&["run", "--quick", "--seed", "3", "--out-dir", dir_arg]);
    assert!(
        out.status.success(),
        "run --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let path = dir.join("results.json");
    let results = json::parse(&std::fs::read_to_string(&path).expect("results.json")).unwrap();
    assert_eq!(results.get("quick").and_then(Value::as_bool), Some(true));
    for w in &schema::WORKLOADS {
        let detail = results
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .unwrap_or_else(|| panic!("{} missing from results.json", w.name));
        assert_eq!(detail.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(detail.get("failed").and_then(Value::as_f64), Some(0.0));
        let names = metric_names(detail);
        for m in &schema::END_TO_END {
            assert!(names.iter().any(|n| n == m.name), "{}.{}", w.name, m.name);
        }
        for (name, _) in schema::EXACT_ZERO {
            let value = detail
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert_eq!(value, Some(0.0), "{}.{name}", w.name);
        }
        assert!(names.iter().all(|n| schema::valid_name(n)), "{names:?}");
    }

    // A set compared with itself: nothing can have regressed.
    let path = path.to_str().unwrap();
    let cmp = perf(&["compare", path, path]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(table.contains("0 regressed"), "{table}");
    assert!(table.contains("inproc_oltp") && table.contains("setup_s"));
}

#[test]
fn quick_single_runs_print_the_contract_result_line() {
    let dir = out_dir("smoke_single");
    let dir_arg = dir.to_str().unwrap();
    let common = [
        "--seed",
        "5",
        "--seconds",
        "0.3",
        "--quick",
        "--out-dir",
        dir_arg,
    ];

    let mut args = vec!["--workload", "wire_single", "--trace", "0"];
    args.extend(common);
    let out = perf(&args);
    assert!(out.status.success());
    let result = last_line(&out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let want: Vec<&str> = schema::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(metric_names(&result), want);

    let mut args = vec!["--workload", "inproc_contended", "--trace", "1"];
    args.extend(common);
    let out = perf(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_line(&out);
    let want: Vec<&str> = schema::PER_LAYER.iter().map(|&(name, _)| name).collect();
    assert_eq!(metric_names(&result), want);
    assert!(dir.join("trace_inproc_contended.jsonl").exists());

    // Bad input is refused with a non-zero exit and no result line.
    let out = perf(&["--workload", "no_such_workload"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

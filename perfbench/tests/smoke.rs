//! Tiny-size smoke of every workload through the command line, and the
//! agreement of `BENCHMARK.json` with the metric registry.

use std::process::Command;

use tesseract_perfbench::report::{Better, Spec, END_TO_END, PER_LAYER};
use tesseract_perfbench::WORKLOADS;
use tesseract_tensor::trace::json::{self, Value};

fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let doc = json::parse(&last).unwrap_or_else(|e| panic!("{workload}: result line: {e}"));
    (stdout, doc)
}

fn check(workload: &str, trace: bool, specs: &[Spec]) {
    let (stdout, doc) = run(workload, trace);
    let field = |k: &str| doc.get(k).unwrap_or_else(|| panic!("{workload}: no {k}"));
    assert_eq!(field("correct"), &Value::Bool(true), "{workload}:\n{stdout}");
    assert!(field("attempted").as_f64().expect("number") >= 1.0);
    assert_eq!(field("failed").as_f64(), Some(0.0), "{workload}:\n{stdout}");
    let Some(Value::Obj(metrics)) = doc.get("metrics") else { panic!("{workload}: no metrics") };
    assert_eq!(metrics.len(), specs.len(), "{workload}: exactly the metrics of the kind");
    for s in specs {
        let m = doc.get("metrics").and_then(|m| m.get(s.name));
        let m = m.unwrap_or_else(|| panic!("{workload}: metric {} missing", s.name));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(s.unit), "{}", s.name);
        let v = m.get("value").and_then(Value::as_f64).expect("numeric value");
        assert!(v.is_finite(), "{}: {v}", s.name);
        if !trace {
            assert!(v > 0.0, "{workload}: end-to-end metric {} must be positive, got {v}", s.name);
        }
        // The human-readable table names the metric with its unit too.
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().nth(1) == Some(s.name) && l.ends_with(s.unit)),
            "{workload}: table line for {}",
            s.name
        );
    }
}

#[test]
fn train_dense_prints_every_metric() {
    check("train_dense", false, END_TO_END);
    check("train_dense", true, PER_LAYER);
}

#[test]
fn serve_dense_prints_every_metric() {
    check("serve_dense", false, END_TO_END);
    check("serve_dense", true, PER_LAYER);
}

#[test]
fn plan_table1_prints_every_metric() {
    check("plan_table1", false, END_TO_END);
    check("plan_table1", true, PER_LAYER);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("valid JSON");
    let names = |k: &str| -> Vec<String> {
        let list = doc.get(k).and_then(Value::as_array).expect("a list");
        list.iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let list = doc.get(key).and_then(Value::as_array).expect("a metric list");
        assert_eq!(list.len(), specs.len(), "{key}");
        for (m, s) in list.iter().zip(specs) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(s.name));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(s.unit), "{}", s.name);
            let better = if s.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better), "{}", s.name);
            assert_eq!(m.get("bound").and_then(Value::as_f64), s.bound, "{}", s.name);
        }
    }
}

//! Self-test of the benchmark: every workload runs briefly at small scale,
//! untraced and traced, and must print every metric `BENCHMARK.json` names,
//! with its unit, as finite numbers, check every answer, and (traced) write
//! its span file.

use std::path::{Path, PathBuf};
use std::process::Command;

use qof_pat::json::{self, Json};

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let top = doc.as_obj().expect("BENCHMARK.json is an object");
    json::get_arr(top, list)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let m = m.as_obj().expect("metric is an object");
            (json::get_str(m, "name").expect("name"), json::get_str(m, "unit").expect("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    json::get_arr(doc.as_obj().expect("object"), "workloads")
        .expect("workloads")
        .iter()
        .map(|w| json::get_str(w.as_obj().expect("object"), "name").expect("name"))
        .collect()
}

/// Runs one small workload in `dir` and returns the parsed result line.
fn run(dir: &Path, workload: &str, seed: u64, trace: u8) -> Vec<(String, Json)> {
    let out = Command::new(env!("CARGO_BIN_EXE_qof-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--small"])
        .current_dir(dir)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("prints a result line");
    match Json::parse(last).expect("result line is JSON") {
        Json::Obj(fields) => fields,
        other => panic!("result line is not an object: {other:?}"),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let dir = scratch("selftest");
    let names = workloads();
    assert_eq!(names, ["exact-lookup", "partial-residual", "serve"]);
    for (i, workload) in names.iter().enumerate() {
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let seed = 11 + i as u64;
            let result = run(&dir, workload, seed, trace);
            assert_eq!(
                json::get_bool(&result, "correct"),
                Ok(true),
                "{workload}: an answer was wrong"
            );
            assert_eq!(json::get_u64(&result, "failed"), Ok(0), "{workload}: an operation failed");
            assert!(json::get_u64(&result, "attempted").expect("attempted") > 0);
            let metrics = json::get(&result, "metrics").expect("metrics").as_obj().expect("object");
            let want = declared(list);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} trace {trace}: exactly the declared metrics"
            );
            for (name, unit) in &want {
                let m = json::get(metrics, name)
                    .unwrap_or_else(|_| panic!("{workload} trace {trace}: `{name}` missing"))
                    .as_obj()
                    .expect("metric is an object");
                assert_eq!(
                    &json::get_str(m, "unit").expect("unit"),
                    unit,
                    "{workload}: unit of {name}"
                );
                let v = json::get_f64(m, "value").expect("value");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
            if trace == 1 {
                let spans = dir.join(format!(".perfbench/spans-{workload}-seed{seed}.json"));
                let doc = Json::parse(&std::fs::read_to_string(&spans).expect("span file written"))
                    .expect("span file is JSON");
                let spans = json::get_arr(doc.as_obj().expect("object"), "spans").expect("spans");
                assert!(!spans.is_empty(), "{workload}: spans recorded");
            }
        }
    }
}

#[test]
fn a_bad_flag_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_qof-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .current_dir(scratch("badflag"))
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

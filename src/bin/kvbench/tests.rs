//! Whole-benchmark tests: the tables against `BENCHMARK.json`, and a smoke
//! pass of every workload, end to end and traced.

use crate::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use crate::{run_workload, Plan, WORKLOADS};
use kvec_json::Json;

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_bin_prints() {
    let spec = benchmark_json();
    assert_eq!(names_and_units(&spec, "end_to_end"), table(END_TO_END));
    assert_eq!(names_and_units(&spec, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    // The contract: set-up time is an end-to-end metric, lower is better.
    let setup = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str).unwrap() == "setup_s");
    assert_eq!(
        setup.unwrap().get("better").and_then(Json::as_str).unwrap(),
        "lower"
    );
}

/// Every workload at smoke size, both ways: each run must pass all of its
/// oracles and emit every metric `BENCHMARK.json` lists for it exactly
/// once, with its unit and a finite value (end-to-end values above zero).
/// One test, so the runs are sequential: the counting allocator's scopes
/// and the observability switch are process-wide.
#[test]
fn smoke_pass_of_every_workload_end_to_end_and_traced() {
    let spec = benchmark_json();
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let report = run_workload(workload, &Plan::smoke(1), trace).expect("listed workload");
            let context = format!("{workload} trace {}: {:#?}", trace as u8, report.lines);
            assert!(report.correct(), "{context}");
            assert!(report.attempted > 0 && report.failed == 0, "{context}");

            let result = report.result_json();
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let want = names_and_units(&spec, if trace { "per_layer" } else { "end_to_end" });
            let got = result.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(got.len(), want.len(), "{context}");
            for ((name, metric), (want_name, want_unit)) in got.iter().zip(&want) {
                assert_eq!(name, want_name, "{context}");
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str).unwrap(),
                    want_unit
                );
                let value = metric.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{name} = {value}; {context}");
                assert!(trace || value > 0.0, "{name} = {value}; {context}");
            }
        }
    }
}

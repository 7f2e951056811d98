//! The benchmark's contract with `BENCHMARK.json`: the workloads, metric
//! names and units it prints are the ones the file declares, and a tiny run
//! of every workload completes, passes its answer checks and reports every
//! named metric.

use darwin_perfbench::inputs::{Sizes, Workload};
use darwin_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use darwin_perfbench::run::run;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().unwrap_or_else(|| panic!("{key} is not a string"))
}

fn names_and_units(doc: &Value, section: &str) -> Vec<(String, String)> {
    field(doc, section)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

#[test]
fn printed_names_and_units_match_benchmark_json() {
    let doc = benchmark_json();
    let own =
        |t: &[(&str, &str)]| t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>();
    assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = field(&doc, "workloads")
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name()));
}

fn metric_values(line: &str) -> Vec<(String, f64, String)> {
    let v: Value = serde_json::from_str(line).expect("result line is JSON");
    let keys: Vec<&str> = v.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    field(&v, "metrics")
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = match field(m, "value") {
                Value::Float(f) => *f,
                Value::UInt(u) => *u as f64,
                Value::Int(i) => *i as f64,
                other => panic!("{name}: value {other:?} is not a number"),
            };
            (name.clone(), value, str_of(m, "unit").to_string())
        })
        .collect()
}

#[test]
fn tiny_runs_of_every_workload_report_every_metric() {
    // One test, so the runs do not compete for cores with each other.
    for w in Workload::ALL {
        let sizes = Sizes::tiny(w);
        let out = run(w, 7, 0.01, false, sizes, None);
        assert!(out.correct && out.failed == 0, "{}: {:?}", w.name(), out.problems);
        assert_eq!(out.attempted, (2 * sizes.total()) as u64, "{}: two passes", w.name());
        let line = result_line(out.correct, out.attempted, out.failed, out.metrics.to_json(&END_TO_END));
        let metrics = metric_values(&line);
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, value, unit) in metrics {
            assert!(value.is_finite() && value > 0.0, "{}: {name} = {value} {unit}", w.name());
        }

        let traced = run(w, 7, 0.01, true, sizes, None);
        assert!(traced.correct, "{} traced: {:?}", w.name(), traced.problems);
        let line = result_line(
            traced.correct,
            traced.attempted,
            traced.failed,
            traced.metrics.to_json(&PER_LAYER),
        );
        assert_eq!(metric_values(&line).len(), PER_LAYER.len());
    }
}

//! `BENCHMARK.json` is read by the driver, `metric.rs` by the program:
//! the two must list the same workloads and metrics.

use iiot_benchmark::cli::{RUN_SECONDS, WORKLOADS};
use iiot_benchmark::json::{parse, Value};
use iiot_benchmark::metric::{Def, END_TO_END, PER_LAYER};

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key}"))
}

fn assert_lists_match(listed: &[Value], defs: &[Def]) {
    assert_eq!(listed.len(), defs.len());
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(text(m, "name"), d.name);
        assert_eq!(text(m, "unit"), d.unit, "{}", d.name);
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(m, "better"), better, "{}", d.name);
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            d.bound,
            "{}",
            d.name
        );
    }
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let Value::Obj(members) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<_> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("no array {key}"))
    };
    let names: Vec<_> = list("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    assert!(list("workloads")
        .iter()
        .all(|w| text(w, "why").len() <= 200));
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
    assert_lists_match(list("end_to_end"), &END_TO_END);
    assert_lists_match(list("per_layer"), &PER_LAYER);
    let command: Vec<_> = list("command").iter().filter_map(Value::as_str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    assert_eq!(list("paths"), [Value::Str("benchmark".into())]);
}

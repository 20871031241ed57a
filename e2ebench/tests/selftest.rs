//! Self-test of the benchmark: a tiny-size run of every workload, untraced
//! and traced, must print every metric `BENCHMARK.json` names with its
//! unit, record spans for every measured layer, and fail nothing.
//!
//! ```text
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["snapshot", "region_reads", "service_mix"];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one tiny workload; returns the result line and the run record.
fn run(workload: &str, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.4"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let last = |bytes: &[u8]| {
        let text = String::from_utf8(bytes.to_vec()).expect("utf-8 output");
        let line = text.lines().last().expect("a last line").to_string();
        serde_json::from_str(&line).expect("last line is JSON")
    };
    (last(&out.stdout), last(&out.stderr))
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn check(result: &Value, metrics: &[(String, String)], label: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{label}: not correct"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{label}: failures"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let printed = result.get("metrics").expect("metrics object");
    for (name, unit) in metrics {
        let m = printed
            .get(name)
            .unwrap_or_else(|| panic!("{label}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{label}: {name} unit"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{label}: {name} value"
        );
    }
}

#[test]
fn tiny_runs_print_every_metric_and_trace_every_layer() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let mut spanned = BTreeSet::new();
    for w in WORKLOADS {
        let (result, _) = run(w, false);
        check(&result, &end_to_end, w);
        let (result, record) = run(w, true);
        check(&result, &per_layer, &format!("{w} traced"));
        assert_eq!(metric(&result, "error_rate"), 0.0, "{w}: error_rate");
        assert_eq!(
            record.get("traced_outputs_identical"),
            Some(&Value::Bool(true)),
            "{w}: traced outputs must equal untraced ones"
        );
        let spans = record
            .get("spans_file")
            .and_then(Value::as_str)
            .expect("spans file");
        let tsv = std::fs::read_to_string(spans).expect("spans written");
        spanned.extend(
            tsv.lines()
                .skip(1)
                .filter_map(|l| l.split('\t').nth(1))
                .map(String::from),
        );
    }
    for layer in [
        "fast.encode",
        "fast.decode",
        "hybrid.encode",
        "hybrid.decode",
        "store.write",
        "store.read",
        "svc.compress",
        "svc.decompress",
        "svc.codec",
    ] {
        assert!(
            spanned.contains(layer),
            "no {layer} spans in any traced run"
        );
    }
}

//! Seconds-long smoke runs of every workload, untraced and traced: every
//! check passes and every metric named in `BENCHMARK.json` is reported.

use jury_perfbench::workload::{self, Opts, WORKLOADS};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

fn names(bench: &Value, key: &str) -> Vec<String> {
    let list = bench.get(key).and_then(Value::as_array).expect("metric list");
    list.iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("metric name").to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_in_smoke_mode() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let bench = serde::json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for name in WORKLOADS {
        for trace in [false, true] {
            let spec = workload::spec(name, true).expect("known workload");
            let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{trace}"));
            std::fs::create_dir_all(&work).expect("work directory");
            let opts = Opts { seed: 7, seconds: 0.5, trace, connections: 2, work };
            let outcome = workload::run(&spec, &opts, Instant::now());
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0, "{name} trace={trace}: {:?}", outcome.errors);
            let (metrics, key) = if trace {
                (&outcome.per_layer, "per_layer")
            } else {
                (&outcome.end_to_end, "end_to_end")
            };
            let got: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(got, names(&bench, key), "{name} trace={trace}");
            assert!(metrics.iter().all(|m| m.value.is_finite()), "{name} trace={trace}");
            if !trace {
                assert!(metrics.iter().all(|m| m.value > 0.0), "{name}: {metrics:?}");
            }
        }
    }
}

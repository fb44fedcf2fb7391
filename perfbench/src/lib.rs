//! Socket-level benchmark of the jury-selection service: seeded
//! workloads driven through the real `HttpServer`, every answer checked
//! against the direct solvers, end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones. See `README.md` beside this crate.

pub mod calib;
pub mod gen;
pub mod stats;
pub mod trace;
pub mod workload;

use workload::{Metric, Outcome};

/// The result line: `correct`, `attempted`, `failed`, and the metrics.
pub fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    )
}

//! Bench rows as a history: each row is stamped with the commit it was
//! measured on and the core count, and an emitter that rewrites its
//! section keeps the rows other commits left there.

use serde::{Serialize, Value};
use std::process::Command;

/// The commit the library code under measurement comes from: the short
/// `HEAD` hash, with `+dirty` when any crate other than `crates/bench`
/// differs from `HEAD`. `unknown` outside a git checkout.
pub fn measured_commit() -> String {
    let git = |args: &[&str]| Command::new("git").args(args).output().ok();
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]).filter(|o| o.status.success()) else {
        return "unknown".to_string();
    };
    let hash = String::from_utf8_lossy(&head.stdout).trim().to_string();
    let clean = git(&["diff", "--quiet", "HEAD", "--", "crates", ":!crates/bench"])
        .is_some_and(|o| o.status.success());
    if clean {
        hash
    } else {
        format!("{hash}+dirty")
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `fields` plus the `commit` and `nproc` stamp.
pub fn stamped(commit: &str, fields: Vec<(&str, Value)>) -> Value {
    let stamp = [("commit", commit.to_value()), ("nproc", nproc().to_value())];
    Value::Object(stamp.into_iter().chain(fields).map(|(k, v)| (k.to_string(), v)).collect())
}

/// The rows of `doc[section][key]` stamped with a commit other than
/// `commit`: the history a fresh measurement is appended to. Unstamped
/// rows are dropped.
pub fn other_commits(doc: &Value, section: &str, key: &str, commit: &str) -> Vec<Value> {
    let rows = doc.get(section).and_then(|s| s.get(key)).and_then(Value::as_array);
    rows.unwrap_or_default()
        .iter()
        .filter(|row| row.get("commit").and_then(Value::as_str).is_some_and(|c| c != commit))
        .cloned()
        .collect()
}

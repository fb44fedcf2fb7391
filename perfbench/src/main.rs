//! `jury-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke] [--work <dir>]`
//!
//! Runs one workload and prints a line per metric (name, value, unit,
//! sample count), the run's stamp, and as the last line one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Usually started through `run.py`, which builds it first.

use jury_perfbench::workload::{self, Opts};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        work: PathBuf::from("perfbench/.work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--work" => args.work = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,

            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The commit of the checkout, when it is a git work tree of its own.
fn commit() -> String {
    let own_repo = Path::new(".git").exists();
    let head = own_repo
        .then(|| std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok())
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    head.unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, args.smoke) else {
        eprintln!("error: unknown workload {:?}; one of {:?}", args.workload, workload::WORKLOADS);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = workload::connections_for(&spec, nproc);
    let work = args.work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let opts =
        Opts { seed: args.seed, seconds: args.seconds, trace: args.trace, connections, work };
    let outcome = workload::run(&spec, &opts, process_start);
    let _ = std::fs::remove_dir_all(&opts.work);

    println!(
        "stamp workload={} seed={} seconds={} trace={} smoke={} commit={} nproc={nproc} connections={connections}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        commit(),
    );
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for m in metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for error in &outcome.errors {
        println!("error {error}");
    }
    println!("{}", jury_perfbench::result_json(&outcome, metrics));
    ExitCode::SUCCESS
}

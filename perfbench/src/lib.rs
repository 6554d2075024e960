//! Dual-clock benchmark of the Tesseract reproduction.
//!
//! Three workloads — `train_dense`, `serve_dense`, `plan_table1` — each
//! timed from outside the program by calling the public functions of the
//! `tensor`, `comm`, `core`, `train`, `serve` and `plan` crates. Host
//! time comes from the wall clock (`std::time::Instant`) and the process
//! CPU clock; virtual time from the simulated cluster's α–β clock and its
//! event trace. See `README.md` in this directory for the metrics and how
//! to run it.

pub mod common;
pub mod plan;
pub mod probes;
pub mod report;
pub mod serve;
pub mod tracecheck;
pub mod train;

use common::Opts;
use report::Report;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["train_dense", "serve_dense", "plan_table1"];

/// Jobs per submitter thread of the pool-integrity probe.
const POOL_PROBE_JOBS: usize = 20_000;

/// Runs one workload and returns what it measured and checked.
pub fn run_workload(name: &str, opts: &Opts) -> Report {
    // Size the process-wide kernel pool before any kernel runs.
    common::run_config(1).install();
    let mut rep = Report::default();
    rep.note(format!(
        "host: {} CPUs, kernel path {}, pool threads {}, rev {}",
        tesseract_tensor::pool::host_threads(),
        tesseract_tensor::matmul::active_kernel().name(),
        tesseract_tensor::pool::global().threads(),
        git_rev()
    ));
    match name {
        "train_dense" => train::run(opts, &mut rep),
        "serve_dense" => serve::run(opts, &mut rep),
        "plan_table1" => plan::run(opts, &mut rep),
        other => panic!("unknown workload {other:?} (known: {})", WORKLOADS.join(", ")),
    }
    if opts.trace {
        let jobs = if opts.tiny { 200 } else { POOL_PROBE_JOBS };
        let p = probes::pool_probe_in_child(&opts.exe, jobs, std::time::Duration::from_secs(60));
        rep.set("tensor.pool.probe_jobs", p.jobs as f64);
        rep.set("tensor.pool.foreign_task_jobs", p.bad as f64);
        rep.set("tensor.pool.probe_crashed", f64::from(u8::from(p.crashed)));
        rep.note(format!(
            "tensor.pool probe (2-thread pool, 2 submitters; informational, not gated): \
             {} jobs, {} with a missing or foreign task, crashed: {}",
            p.jobs, p.bad, p.crashed
        ));
    }
    rep
}

/// The checkout's commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

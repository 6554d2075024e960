//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <train_dense|serve_dense|plan_table1|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints notes and a metric table, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--workload all` runs every workload and prints one
//! result line per workload. Exits non-zero on bad arguments.

use std::process::ExitCode;

use tesseract_perfbench::common::Opts;
use tesseract_perfbench::{probes, run_workload, WORKLOADS};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child-process mode of the pool-integrity probe.
    if args.first().map(String::as_str) == Some("--pool-probe") {
        let Some(jobs) = args.get(1).and_then(|j| j.parse().ok()) else {
            eprintln!("--pool-probe wants a job count");
            return ExitCode::from(2);
        };
        let (jobs, bad) = probes::pool_probe(jobs);
        println!("pool_probe {jobs} {bad}");
        return ExitCode::SUCCESS;
    }
    let (workload, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    for name in names {
        let mut rep = run_workload(name, &opts);
        for n in &rep.notes {
            println!("# {n}");
        }
        let (metrics, line) = rep.finish(opts.trace);
        for (spec, value) in metrics {
            println!("{name:<12} {:<34} {value:>16.6} {}", spec.name, spec.unit);
        }
        for p in rep.problems() {
            println!("# FAILED: {p}");
        }
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_perfbench::report;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let (w, o) =
            parse(&args("--workload serve_dense --seed 7 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(w, "serve_dense");
        assert_eq!((o.seed, o.seconds, o.trace, o.tiny), (7, 20.0, true, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&args("--workload nope --seed 1")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --seconds -1")).is_err());
        assert!(parse(&args("--workload all --bogus")).is_err());
    }

    #[test]
    fn every_workload_is_named_legally() {
        assert!(WORKLOADS.iter().all(|w| report::valid_name(w)));
    }
}

//! Metric registry, sample statistics and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names (a
//! test keeps the two in step). End-to-end metrics are printed with
//! `--trace 0`; per-layer metrics with `--trace 1`. Each workload prints
//! every metric of the selected kind: a per-layer metric whose layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. What an "op" is depends
/// on the workload: a training step, a serving engine step, a `plan()`
/// call. Host cost is on the process CPU clock, which a shared machine's
/// hypervisor cannot inflate; wall-clock figures are per-layer metrics.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_op_cpu_ms", "ms", Lower, 0.25),
    e2e("host_tokens_per_cpu_s", "tok/s", Higher, 0.25),
    e2e("sim_op_ms_p50", "sim_ms", Lower, 0.15),
    e2e("sim_op_ms_tail", "sim_ms", Lower, 0.2),
    e2e("peak_mib", "MiB", Lower, 0.15),
    e2e("ops_ok_frac", "frac", Higher, 0.01),
];

/// Per-layer metrics, from the traced run and the probes.
pub const PER_LAYER: &[Spec] = &[
    // tensor
    layer("tensor.matmul.gemms", "count", Lower),
    layer("tensor.matmul.gflop", "GFLOP", Lower),
    layer("tensor.matmul.probe_gflops", "GFLOP/s", Higher),
    layer("tensor.meter.payload_copies", "count", Lower),
    layer("tensor.meter.payload_copy_mib", "MiB", Lower),
    layer("tensor.pool.foreign_task_jobs", "count", Lower),
    layer("tensor.pool.probe_jobs", "count", Higher),
    layer("tensor.pool.probe_crashed", "count", Lower),
    // core: host spans
    layer("core.layernorm.fwd_ms", "ms", Lower),
    layer("core.layernorm.bwd_ms", "ms", Lower),
    layer("core.attention.fwd_ms", "ms", Lower),
    layer("core.attention.bwd_ms", "ms", Lower),
    layer("core.mlp.fwd_ms", "ms", Lower),
    layer("core.mlp.bwd_ms", "ms", Lower),
    layer("core.residual_ms", "ms", Lower),
    // core: virtual time from trace scopes
    layer("core.layernorm.fwd_sim_ms", "sim_ms", Lower),
    layer("core.layernorm.bwd_sim_ms", "sim_ms", Lower),
    layer("core.attention.fwd_sim_ms", "sim_ms", Lower),
    layer("core.attention.bwd_sim_ms", "sim_ms", Lower),
    layer("core.mlp.fwd_sim_ms", "sim_ms", Lower),
    layer("core.mlp.bwd_sim_ms", "sim_ms", Lower),
    // core: activation tape growth per forward
    layer("core.layernorm.tape_mib", "MiB", Lower),
    layer("core.attention.tape_mib", "MiB", Lower),
    layer("core.mlp.tape_mib", "MiB", Lower),
    // train
    layer("train.optim_ms", "ms", Lower),
    layer("train.oracle_max_rel_diff", "ratio", Lower),
    // comm
    layer("comm.calls", "count", Lower),
    layer("comm.wire_mib", "MiB", Lower),
    layer("comm.broadcast.calls", "count", Lower),
    layer("comm.reduce.calls", "count", Lower),
    layer("comm.all_reduce.calls", "count", Lower),
    layer("comm.all_gather.calls", "count", Lower),
    layer("comm.barrier.calls", "count", Lower),
    layer("comm.wait_sim_ms", "sim_ms", Lower),
    layer("comm.hidden_sim_ms", "sim_ms", Higher),
    layer("comm.rendezvous_world_us_p50", "us", Lower),
    layer("comm.rendezvous_row_us_p50", "us", Lower),
    layer("comm.cluster.spawn_ms", "ms", Lower),
    // serve
    layer("serve.engine.steps", "count", Lower),
    layer("serve.engine.prefill_steps", "count", Lower),
    layer("serve.engine.decode_steps", "count", Lower),
    layer("serve.engine.batch_tokens_mean", "tok", Higher),
    layer("serve.engine.kv_peak_mib", "MiB", Lower),
    layer("serve.engine.idle_sim_ms", "sim_ms", Lower),
    layer("serve.engine.host_ms_per_step", "ms", Lower),
    layer("serve.ttft_sim_ms_tail", "sim_ms", Lower),
    layer("serve.tpot_sim_ms_p50", "sim_ms", Lower),
    layer("serve.tpot_sim_ms_tail", "sim_ms", Lower),
    layer("serve.goodput_rps_sim", "req/sim_s", Higher),
    // plan
    layer("plan.enumerate_ms", "ms", Lower),
    layer("plan.analytic_ms", "ms", Lower),
    layer("plan.dryrun_ms", "ms", Lower),
    layer("plan.dryruns", "count", Lower),
    layer("plan.candidates_pruned", "count", Higher),
    // tracing and sampling
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.host_span_cover_frac", "frac", Higher),
    layer("trace.reconciled_ranks", "count", Higher),
    layer("host.op_samples", "count", Higher),
    layer("host.op_cpu_ms_p50", "ms", Lower),
    layer("host.op_wall_ms_p50", "ms", Lower),
    layer("host.op_wall_ms_tail", "ms", Lower),
    layer("host.tokens_per_wall_s", "tok/s", Higher),
    layer("host.setup_wall_s", "s", Lower),
    layer("sim.tail_pct", "pct", Higher),
];

/// True iff `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// True iff `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    tesseract_serve::percentile(sorted, p)
}

/// The highest nearest-rank percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than eleven
/// samples no percentile qualifies; the maximum is returned as `p100`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample set");
    if n < 11 {
        return (100.0, sorted[n - 1]);
    }
    // Rank r (1-based) has n - r samples beyond it; the highest rank with
    // ten beyond is n - 10, which percentile 100·(n-10)/n selects exactly.
    let r = n - 10;
    (100.0 * r as f64 / n as f64, sorted[r - 1])
}

/// Sorts finite samples ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of unsorted samples (nearest rank).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric value. Panics on an undeclared name: the registry
    /// above is the single list of what the benchmark prints.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `ops` attempted operations.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records a failed check over `ops` operations.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.problems.push(why.into());
    }

    /// Records `why` as a failure of `ops` operations unless `ok`.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Correct iff no check failed and at least one op ran.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// `ops_ok_frac`: the share of attempted ops that did not fail.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted as f64
    }

    /// The metrics of one kind, in registry order. A per-layer metric the
    /// workload did not measure reads 0; an end-to-end metric must have
    /// been measured (a missing one reads 0 and marks the run incorrect).
    fn metrics(&mut self, traced: bool) -> Vec<(Spec, f64)> {
        let specs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(specs.len());
        for s in specs {
            let v = match self.values.get(s.name) {
                Some(&v) if v.is_finite() => v,
                Some(_) => {
                    self.problems.push(format!("metric {} is not finite", s.name));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.problems.push(format!("end-to-end metric {} was not measured", s.name));
                    0.0
                }
            };
            out.push((*s, v));
        }
        out
    }

    /// The metrics of one kind and the result line: one JSON object with
    /// `correct`, `attempted`, `failed` and those `metrics`.
    pub fn finish(&mut self, traced: bool) -> (Vec<(Spec, f64)>, String) {
        let metrics = self.metrics(traced);
        let body: Vec<String> = metrics
            .iter()
            .map(|(s, v)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", s.name, num(*v), s.unit)
            })
            .collect();
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        (metrics, line)
    }
}

/// Looks up a declared metric.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Formats a number for JSON with every digit Rust's shortest round-trip
/// representation carries.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 51.0), 6.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: rank 90 has exactly ten beyond it.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (90.0, 90.0));
        // 11 samples: only rank 1 has ten beyond it.
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 1.0);
        assert_eq!(percentile(&s, p), v);
        // 256 samples: rank 246, and the percentile selects it back.
        let s: Vec<f64> = (1..=256).map(f64::from).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 246.0);
        assert_eq!(percentile(&s, p), v);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
        // Too few samples: the maximum, reported as p100.
        assert_eq!(tail(&[1.0, 5.0, 3.0]), (100.0, 3.0));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        }
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
    }

    #[test]
    fn end_to_end_bounds_follow_the_contract() {
        assert!(END_TO_END.iter().all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the widest bound");
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
    }

    #[test]
    fn result_line_lists_every_metric_of_the_kind() {
        let mut r = Report::default();
        r.attempt(3);
        for s in END_TO_END {
            r.set(s.name, 1.5);
        }
        let (_, line) = r.finish(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for s in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                s.name, s.unit
            )));
        }
        let (_, line) = r.finish(true);
        assert!(line.contains("\"tensor.matmul.gemms\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.attempt(1);
        let _ = r.finish(false);
        assert!(!r.correct());
        r.fail(1, "x");
        assert_eq!(r.ok_frac(), 0.0);
    }
}

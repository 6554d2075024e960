//! Reading the program's own event trace: reconciliation against the run
//! accounting, and virtual-time sums per scope and per collective.

use std::collections::BTreeMap;

use tesseract_comm::{CollectiveOp, RankReport, RunOutput};
use tesseract_tensor::TraceKind;

use crate::common::MIB;
use crate::report::Report;

/// Checks that a traced run's events reconcile with its accounting:
/// per rank, the compute-event flops, kernels and allocated bytes and the
/// comm-event blocked and hidden nanoseconds equal the [`RankReport`]
/// exactly; per collective op, the recorded calls, wire bytes and copies
/// equal the run's `CommStats` exactly. Returns the ranks reconciled.
///
pub fn reconcile<R>(run: &RunOutput<R>) -> Result<usize, String> {
    if run.traces.len() != run.reports.len() {
        return Err(format!("{} traces for {} ranks", run.traces.len(), run.reports.len()));
    }
    for (report, events) in run.reports.iter().zip(&run.traces) {
        let r = report.rank;
        if events.is_empty() {
            return Err(format!("rank {r} traced no events"));
        }
        let (mut flops, mut kernels, mut bytes, mut blocked, mut hidden) = (0.0f64, 0, 0, 0, 0);
        for ev in events {
            match &ev.kind {
                TraceKind::Compute { flops: f, kernels: k, bytes_allocated: b } => {
                    flops += f;
                    kernels += k;
                    bytes += b;
                }
                TraceKind::Comm { blocked_nanos, hidden_nanos, .. } => {
                    blocked += blocked_nanos;
                    hidden += hidden_nanos;
                }
                _ => {}
            }
        }
        let pairs = [
            ("flops", flops.to_bits(), report.flops.to_bits()),
            ("kernels", kernels, report.kernels),
            ("bytes", bytes, report.bytes_allocated),
            ("blocked nanos", blocked, report.comm_wait_nanos),
            ("hidden nanos", hidden, report.overlap_hidden_nanos),
        ];
        for (what, got, want) in pairs {
            if got != want {
                return Err(format!("rank {r}: trace {what} {got} != report {want}"));
            }
        }
    }
    // (calls, wire bytes, copies, copy bytes) per op name.
    let mut agg: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for ev in run.traces.iter().flatten() {
        match &ev.kind {
            TraceKind::Comm { op, wire_bytes, recorded, .. } => {
                let e = agg.entry(op).or_default();
                e[0] += u64::from(*recorded);
                e[1] += wire_bytes;
            }
            TraceKind::Copy { op, bytes } => {
                let e = agg.entry(op).or_default();
                e[2] += 1;
                e[3] += bytes;
            }
            _ => {}
        }
    }
    for (op, s) in &run.comm.per_op {
        let got = agg.remove(op.name()).unwrap_or_default();
        let want = [s.calls, s.wire_bytes, s.copies, s.copy_bytes];
        if got != want {
            return Err(format!(
                "{}: trace [calls, wire, copies, copy bytes] {got:?} != {want:?}",
                op.name()
            ));
        }
    }
    match agg.keys().next() {
        Some(op) => Err(format!("trace has op {op} the stats never saw")),
        None => Ok(run.reports.len()),
    }
}

/// Virtual seconds spent inside scopes named `name`, summed per rank,
/// maximum over ranks.
pub fn scope_seconds<R>(run: &RunOutput<R>, name: &str) -> f64 {
    run.traces
        .iter()
        .map(|events| {
            events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Scope { .. }) && e.name == name)
                .map(|e| e.duration())
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// Checks a traced run with [`reconcile`] (a mismatch fails `ops` ops)
/// and sets the tensor and comm per-layer metrics of the run, per op:
/// GEMMs, flops and payload copies summed over ranks; collective calls and
/// wire bytes per logical operation; blocked and hidden virtual wait, max
/// over ranks.
pub fn report_counters<R>(rep: &mut Report, run: &RunOutput<R>, ops: f64, what: &str) {
    match reconcile(run) {
        Ok(ranks) => rep.set("trace.reconciled_ranks", ranks as f64),
        Err(e) => rep.fail(ops as u64, format!("{what} trace does not reconcile: {e}")),
    }
    let sum = |f: fn(&RankReport) -> u64| run.reports.iter().map(f).sum::<u64>() as f64 / ops;
    let max_ms = |f: fn(&RankReport) -> u64| {
        run.reports.iter().map(f).max().unwrap_or(0) as f64 * 1e-6 / ops
    };
    let calls = |op| run.comm.get(op).calls as f64 / ops;
    rep.set("tensor.matmul.gemms", sum(|r| r.gemms_blocked + r.gemms_serial));
    rep.set("tensor.matmul.gflop", run.reports.iter().map(|r| r.flops).sum::<f64>() / ops / 1e9);
    rep.set("tensor.meter.payload_copies", sum(|r| r.payload_copies));
    rep.set("tensor.meter.payload_copy_mib", sum(|r| r.payload_copy_bytes) / MIB);
    rep.set("comm.calls", run.comm.total_calls() as f64 / ops);
    rep.set("comm.wire_mib", run.comm.total_wire_bytes() as f64 / ops / MIB);
    rep.set("comm.broadcast.calls", calls(CollectiveOp::Broadcast));
    rep.set("comm.reduce.calls", calls(CollectiveOp::Reduce));
    rep.set("comm.all_reduce.calls", calls(CollectiveOp::AllReduce));
    rep.set("comm.all_gather.calls", calls(CollectiveOp::AllGather));
    rep.set("comm.barrier.calls", calls(CollectiveOp::Barrier));
    rep.set("comm.wait_sim_ms", max_ms(|r| r.comm_wait_nanos));
    rep.set("comm.hidden_sim_ms", max_ms(|r| r.overlap_hidden_nanos));
}

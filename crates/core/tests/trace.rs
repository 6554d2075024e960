//! Integration tests of the per-rank event tracer on the simulated cluster:
//! exact reconciliation of trace totals against the run's own accounting,
//! zero-perturbation when enabled, scope balance under GPipe tape rewind,
//! begin/complete pairing across group members and the Chrome-trace schema.

use std::sync::Arc;

use tesseract_comm::RunConfig;
use tesseract_core::layers::{TesseractLayerNorm, TesseractLinear};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Module, Schedule,
    Sequential, TesseractGrid,
};
use tesseract_tensor::trace::{chrome, json};
use tesseract_tensor::{DenseTensor, Matrix, TraceKind, Xoshiro256StarStar};

const SEED: u64 = 7;

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// One traced fwd+bwd matmul step on the `[q, q, d]` grid.
fn traced_step(shape: GridShape, trace: bool) -> tesseract_comm::RunOutput<Matrix> {
    let rows = 8 * shape.q * shape.d;
    let a = random(rows, 16, 1);
    let b = random(16, 16, 2);
    RunConfig::from_env(shape.size()).with_trace(trace).cluster().run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined);
        let _dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc, Schedule::Pipelined);
        let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true, Schedule::Pipelined);
        ctx.flush_compute();
        dw.matrix().clone()
    })
}

/// The acceptance grid: every per-rank integer counter rebuilt from the
/// trace must equal the `RankReport` exactly, and the per-op call/wire/copy
/// counts must equal the global `CommStats` exactly.
#[test]
fn trace_reconciles_with_meter_and_stats_on_the_cube() {
    let out = traced_step(GridShape::new(2, 2), true);
    assert_eq!(out.traces.len(), 8);
    for (report, events) in out.reports.iter().zip(&out.traces) {
        assert!(!events.is_empty());
        let (mut flops, mut kernels, mut bytes) = (0.0f64, 0u64, 0u64);
        let (mut blocked, mut hidden) = (0u64, 0u64);
        for ev in events {
            assert_eq!(ev.rank, report.rank, "event recorded on the wrong rank's timeline");
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
        assert_eq!(flops, report.flops);
        assert_eq!(kernels, report.kernels);
        assert_eq!(bytes, report.bytes_allocated);
        assert_eq!(blocked, report.comm_wait_nanos);
        assert_eq!(hidden, report.overlap_hidden_nanos);
    }
    // Exactly one rank records each logical collective into the stats.
    let mut calls: std::collections::HashMap<&'static str, u64> = Default::default();
    let mut wire: std::collections::HashMap<&'static str, u64> = Default::default();
    for ev in out.traces.iter().flatten() {
        if let TraceKind::Comm { op, wire_bytes, recorded, .. } = &ev.kind {
            if *recorded {
                *calls.entry(op).or_default() += 1;
            }
            *wire.entry(op).or_default() += wire_bytes;
        }
    }
    for (op, stats) in &out.comm.per_op {
        assert_eq!(calls.remove(op.name()).unwrap_or(0), stats.calls, "{}", op.name());
        assert_eq!(wire.remove(op.name()).unwrap_or(0), stats.wire_bytes, "{}", op.name());
    }
    assert!(calls.is_empty() && wire.is_empty(), "trace saw ops the stats never recorded");
}

/// Tracing is observational: enabling it must not change results, reports,
/// stats or the makespan by a single bit — and disabled runs carry no
/// events.
#[test]
fn tracing_does_not_perturb_results_or_accounting() {
    let shape = GridShape::new(2, 1);
    let plain = traced_step(shape, false);
    let traced = traced_step(shape, true);
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.reports, traced.reports);
    assert_eq!(plain.makespan(), traced.makespan());
    assert_eq!(plain.comm.total_wire_bytes(), traced.comm.total_wire_bytes());
    assert!(plain.traces.iter().all(Vec::is_empty), "untraced run must carry no events");
    assert!(traced.traces.iter().all(|t| !t.is_empty()));
}

/// A GPipe schedule (all forwards, then all backwards in reverse) through
/// a `Sequential` must emit one balanced fwd/bwd scope pair per module per
/// microbatch, and scope spans must nest (contain or stay disjoint — no
/// partial overlap), even though the tape rewinds in reverse order.
#[test]
fn scope_events_balance_under_tape_rewind() {
    let shape = GridShape::new(2, 1);
    let microbatches = 3usize;
    let xs: Vec<Matrix> = (0..microbatches).map(|m| random(8, 8, 30 + m as u64)).collect();
    let dys: Vec<Matrix> = (0..microbatches).map(|m| random(8, 8, 40 + m as u64)).collect();
    let out = RunConfig::from_env(shape.size()).with_trace(true).cluster().run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut seq: Sequential<DenseTensor> = Sequential::new()
            .push(TesseractLayerNorm::new(8, 1e-5))
            .push(TesseractLinear::new(ctx, &grid, 8, 8, true, SEED, 3));
        for x in &xs {
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(x, shape, i, j, k)));
            let _ = seq.forward(&grid, ctx, &x_loc);
        }
        for dy in dys.iter().rev() {
            let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(dy, shape, i, j, k)));
            let _ = seq.backward(&grid, ctx, &dy_loc);
        }
        seq.zero_grad();
    });
    for events in &out.traces {
        let scopes: Vec<_> = events
            .iter()
            .filter_map(|ev| match &ev.kind {
                TraceKind::Scope { phase } => Some((ev.name.as_str(), *phase, ev.begin, ev.end)),
                _ => None,
            })
            .collect();
        let fwd = scopes.iter().filter(|s| s.1 == "fwd").count();
        let bwd = scopes.iter().filter(|s| s.1 == "bwd").count();
        // 2 modules x 3 microbatches, once per direction.
        assert_eq!(fwd, 6, "fwd scopes: {scopes:?}");
        assert_eq!(bwd, 6, "bwd scopes: {scopes:?}");
        for (name, _, begin, end) in &scopes {
            assert!(begin <= end, "{name}: scope runs backwards");
            assert!(
                name.ends_with(".fwd") || name.ends_with(".bwd"),
                "{name}: scope name must carry its phase"
            );
        }
        // Nesting discipline: any two scope spans either nest or are
        // disjoint. (Equal endpoints count as nesting.)
        for a in &scopes {
            for b in &scopes {
                let disjoint = a.3 <= b.2 || b.3 <= a.2;
                let nested = (a.2 <= b.2 && b.3 <= a.3) || (b.2 <= a.2 && a.3 <= b.3);
                assert!(disjoint || nested, "scopes partially overlap: {:?} vs {:?}", a, b);
            }
        }
    }
}

/// All members of one logical collective (same `(group, seq)` rendezvous
/// key) must agree on `max_entry_vt`, and the last-arriving member's own
/// entry must realize it — the pairing the critical-path walker hops on.
#[test]
fn comm_events_pair_across_group_members() {
    let out = traced_step(GridShape::new(2, 2), true);
    let mut by_key: std::collections::HashMap<(u64, u64, &'static str), Vec<(f64, f64, bool)>> =
        Default::default();
    for ev in out.traces.iter().flatten() {
        if let TraceKind::Comm { op, key_group, key_seq, max_entry_vt, recorded, .. } = &ev.kind {
            by_key.entry((*key_group, *key_seq, op)).or_default().push((
                ev.begin,
                *max_entry_vt,
                *recorded,
            ));
        }
    }
    assert!(!by_key.is_empty());
    for ((g, s, op), members) in &by_key {
        let max_entry = members[0].1;
        for (_, m, _) in members {
            assert_eq!(*m, max_entry, "{op} ({g:x},{s}): members disagree on max entry");
        }
        let latest = members.iter().map(|m| m.0).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (latest - max_entry).abs() < 1e-12,
            "{op} ({g:x},{s}): no member's entry realizes max_entry_vt \
             (latest {latest}, max {max_entry})"
        );
        let recorded = members.iter().filter(|m| m.2).count();
        assert_eq!(recorded, 1, "{op} ({g:x},{s}): exactly one member records the stats");
    }
}

/// The emitted Chrome-trace JSON must parse, declare nanosecond display
/// units, and contain one complete (`ph: "X"`) event per traced span with
/// the mandatory fields.
#[test]
fn chrome_json_is_valid_chrome_trace_format() {
    let out = traced_step(GridShape::new(2, 1), true);
    let payload = chrome::chrome_trace_json(&out.traces);
    let doc = json::parse(&payload).expect("chrome trace must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns"),
        "displayTimeUnit missing"
    );
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    let spans = out.traces.iter().flatten().count();
    let complete: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert!(!complete.is_empty());
    assert!(
        complete.len() <= spans,
        "more complete events than recorded spans ({} vs {spans})",
        complete.len()
    );
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("every event has ph");
        assert!(e.get("pid").and_then(|v| v.as_f64()).is_some(), "every event has pid");
        match ph {
            "X" => {
                assert!(e.get("name").and_then(|v| v.as_str()).is_some());
                assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
                assert!(e.get("dur").and_then(|v| v.as_f64()).map_or(false, |d| d >= 0.0));
                assert!(e.get("tid").and_then(|v| v.as_f64()).is_some());
            }
            "M" | "i" | "s" | "f" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
}

//! `plan_table1`: the arrangement planner on 64 simulated GPUs with the
//! paper's Table 1 workload and scheme menu, scored by Shadow dry-runs.
//!
//! No dense math runs: host time is 64-rank cluster spawn and join,
//! world-64 rendezvous and planner bookkeeping. The per-layer run times
//! the planner's stages by calling `enumerate`, `analytic_score` and
//! `dry_run` directly, and replays the winner's dry-run step with tracing
//! on, checking its makespan against the planner's bit for bit.

use std::sync::Arc;
use std::time::Instant;

use tesseract_bench::timing::paper_config;
use tesseract_comm::{RunConfig, RunOutput};
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_plan::{
    analytic_score, dry_run, enumerate, plan, Candidate, CandidateMenu, DryRun, EntryStatus, Plan,
    PlanRequest,
};
use tesseract_tensor::ShadowTensor;

use crate::common::{
    guarded, median_secs, run_config, secs, HostSamples, Opts, SetupClock, Stamp, MIB,
};
use crate::probes;
use crate::report::{median, sorted, tail, Report};
use crate::tracecheck;

/// Set-up samples taken before the timed loop (one more is taken before
/// every `plan()` call).
const SETUP_REPS: usize = 3;

struct Size {
    req: PlanRequest,
    /// The arrangement the planner must pick.
    expected: &'static str,
    /// The Tesseract grid whose construction `setup_s` times.
    setup_grid: GridShape,
}

fn size(tiny: bool) -> Size {
    let (gpus, cfg, expected) = if tiny {
        let cfg = TransformerConfig {
            batch: 8,
            seq: 16,
            hidden: 64,
            heads: 8,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        };
        (8, cfg, "megatron[8]")
    } else {
        (64, paper_config(16, 3072, 64), "tesseract[4,4,4]")
    };
    let mut req = PlanRequest::new(gpus, cfg);
    req.menu = CandidateMenu::paper_schemes();
    let setup_grid = if tiny { GridShape::new(2, 2) } else { GridShape::new(4, 4) };
    Size { req, expected, setup_grid }
}

/// The best-ranked Tesseract grid and its dry-run (the winner, on the
/// Table 1 workload).
fn best_tesseract(p: &Plan) -> Option<(GridShape, DryRun)> {
    ranked(p).into_iter().find_map(|(c, d)| match c {
        Candidate::Tesseract { grid } => Some((grid, d)),
        _ => None,
    })
}

/// The Tesseract arm of the planner's dry-run, rebuilt from the public
/// API: forward, discard the tape, then recompute-forward plus backward.
/// Returns each rank's forward-end virtual time.
fn replay(run: &RunConfig, shape: GridShape, cfg: TransformerConfig) -> RunOutput<f64> {
    let mut rc = *run;
    rc.world = shape.size();
    rc.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut model = TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0);
        let rows = cfg.rows() / (shape.q * shape.d);
        let x = Arc::new(ShadowTensor::new(rows, cfg.hidden / shape.q));
        let _ = model.forward(&grid, ctx, &x);
        ctx.flush_compute();
        let t_fwd = ctx.clock();
        model.reset_tape(ctx);
        let y = model.forward(&grid, ctx, &x);
        let _ = model.backward(&grid, ctx, &y);
        ctx.flush_compute();
        t_fwd
    })
}

/// What every dry-run pays before it steps: the cluster, the grid's
/// groups and the model.
fn setup_once(run: &RunConfig, size: &Size) {
    let shape = size.setup_grid;
    let cfg = size.req.cfg;
    let mut rc = *run;
    rc.world = shape.size();
    let out = rc.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        TesseractTransformer::<ShadowTensor>::new(ctx, &grid, cfg, true, 0, 0).layers.len()
    });
    std::hint::black_box(out.results);
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let size = size(opts.tiny);
    let req = &size.req;
    let run = run_config(req.gpus);
    let cfg = req.cfg;
    rep.note(format!(
        "plan_table1: plan() on {} simulated GPUs ({} rank threads per dry-run), batch {} x seq {}, \
         hidden {}, {} heads, {} layers, paper scheme menu, Shadow dry-runs; op = one plan() call; \
         the inputs are the fixed Table 1 workload, so --seed does not change them",
        req.gpus, req.gpus, cfg.batch, cfg.seq, cfg.hidden, cfg.heads, cfg.layers
    ));
    let mut setup = SetupClock::new(|| setup_once(&run, &size));
    for _ in 0..SETUP_REPS {
        setup.sample();
    }

    let window = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut host = HostSamples::default();
    let mut sims = Vec::new();
    let mut first: Option<Plan> = None;
    let t = Instant::now();
    let mut calls = 0;
    while calls == 0 || secs(t) < window {
        calls += 1;
        setup.sample();
        rep.attempt(1);
        let t0 = Stamp::now();
        let p = match guarded(|| plan(req)) {
            Ok(p) => p,
            Err(e) => {
                rep.fail(1, format!("plan() crashed: {e}"));
                continue;
            }
        };
        let (wall, cpu) = t0.elapsed();
        let Some(w) = p.winner() else {
            rep.fail(1, "plan() ranked no candidate");
            continue;
        };
        if w.label != size.expected {
            rep.fail(1, format!("winner {} is not {}", w.label, size.expected));
            continue;
        }
        let d = w.dryrun.expect("ranked entries carry a dry-run");
        if let Some(f) = &first {
            let fd = f.winner().and_then(|e| e.dryrun);
            if fd != Some(d) {
                rep.fail(1, "plan() is not deterministic: winner dry-run differs");
                continue;
            }
        }
        host.push_batch(wall, cpu, 1.0, (ranked(&p).len() * cfg.batch * cfg.seq) as f64);
        sims.push(d.makespan_s);
        first.get_or_insert(p);
    }
    rep.set("ops_ok_frac", rep.ok_frac());
    host.report(rep, &setup);
    let Some(p) = first else { return };
    let w = p.winner().and_then(|e| e.dryrun).expect("checked above");
    let sims = sorted(sims);
    let (tail_pct, sim_tail) = tail(&sims);
    rep.set("sim_op_ms_p50", median(&sims) * 1e3);
    rep.set("sim_op_ms_tail", sim_tail * 1e3);
    // Tape bytes are tracked on the Tesseract path (Megatron keeps none),
    // so the memory figure comes from the best Tesseract arrangement: the
    // winner itself on the Table 1 workload.
    if let Some((_, d)) = best_tesseract(&p) {
        rep.set("peak_mib", d.activation_peak_bytes as f64 / MIB);
    }
    rep.set("sim.tail_pct", tail_pct);
    rep.note(format!(
        "plan_table1: winner {} (fwd {:.4} + bwd {:.4} = {:.4} sim ms); {} plans, p50 {:.1} wall \
         ms / {:.1} CPU ms",
        size.expected,
        w.forward_s * 1e3,
        w.backward_s * 1e3,
        w.makespan_s * 1e3,
        host.op_cpu.len(),
        median(&host.op_wall) * 1e3,
        median(&host.op_cpu) * 1e3
    ));
    if !opts.trace {
        return;
    }
    stages(rep, req, &p);
    if let Some((shape, d)) = best_tesseract(&p) {
        traced_replay(rep, &run, shape, cfg, &d);
        // Largest per-rank GEMM of the replayed step, run dense: fc1.
        let rows = cfg.rows() / (shape.q * shape.d);
        probes::report(rep, &run, shape, (rows, cfg.hidden / shape.q, cfg.mlp_hidden() / shape.q));
    }
}

fn ranked(p: &Plan) -> Vec<(Candidate, DryRun)> {
    p.entries
        .iter()
        .filter(|e| matches!(e.status, EntryStatus::Ranked(_)))
        .map(|e| (e.candidate, e.dryrun.expect("ranked entries carry a dry-run")))
        .collect()
}

/// Times the planner's stages one by one through their public entry
/// points, checking each dry-run against the planner's own.
fn stages(rep: &mut Report, req: &PlanRequest, p: &Plan) {
    let enum_s = median_secs(9, || {
        std::hint::black_box(enumerate(req.gpus, req.menu, req.microbatches));
    });
    let feasible: Vec<Candidate> = enumerate(req.gpus, req.menu, req.microbatches)
        .into_iter()
        .filter(|c| c.check(&req.cfg, req.gpus).is_ok())
        .collect();
    let analytic_s = median_secs(9, || {
        for c in &feasible {
            std::hint::black_box(analytic_score(&req.topology, &req.params, c, &req.cfg));
        }
    });
    let mut dry_s = 0.0;
    let runs = ranked(p);
    for (c, want) in &runs {
        let t = Instant::now();
        let got = dry_run(&req.topology, &req.params, c, &req.cfg, false);
        dry_s += secs(t);
        rep.check(got == *want, 1, || format!("dry_run({}) differs from the planner's", c.label()));
    }
    rep.set("plan.enumerate_ms", enum_s * 1e3);
    rep.set("plan.analytic_ms", analytic_s * 1e3);
    rep.set("plan.dryrun_ms", dry_s * 1e3);
    rep.set("plan.dryruns", runs.len() as f64);
    rep.set("plan.candidates_pruned", p.pruned_dryruns as f64);
}

/// Replays the winner's dry-run untraced and traced: both must reproduce
/// the planner's makespan bit for bit, and the trace must reconcile.
fn traced_replay(
    rep: &mut Report,
    run: &RunConfig,
    shape: GridShape,
    cfg: TransformerConfig,
    w: &DryRun,
) {
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced = None;
    for _ in 0..3 {
        let t = Stamp::now();
        let plain = guarded(|| replay(run, shape, cfg));
        plain_s.push(t.elapsed().1);
        let t = Stamp::now();
        let tr = guarded(|| replay(&run.with_trace(true), shape, cfg));
        traced_s.push(t.elapsed().1);
        for out in [&plain, &tr] {
            match out {
                Ok(o) => rep.check(o.makespan().to_bits() == w.makespan_s.to_bits(), 1, || {
                    format!("replayed makespan {} != planner's {}", o.makespan(), w.makespan_s)
                }),
                Err(e) => rep.fail(1, format!("winner replay crashed: {e}")),
            }
        }
        traced = tr.ok().or(traced);
    }
    rep.set("trace.overhead_frac", median(&traced_s) / median(&plain_s) - 1.0);
    let Some(out) = traced else { return };
    tracecheck::report_counters(rep, &out, 1.0, "plan");
    let sim = |name: &str| tracecheck::scope_seconds(&out, name) * 1e3;
    rep.note(format!(
        "plan_table1: Tesseract replay scopes: transformer_layer fwd {:.4} / bwd {:.4} sim ms",
        sim("transformer_layer.fwd"),
        sim("transformer_layer.bwd")
    ));
}

//! `train_dense`: fwd + bwd + SGD steps of a Dense Transformer stack on a
//! `[2, 2, 2]` grid (8 ranks; depth 2, so the depth all-reduce is live).
//!
//! The end-to-end run drives the program's own stack
//! (`TesseractTransformer` + `Sgd`) with tracing off. The per-layer run
//! drives the same layers sublayer by sublayer over the public fields of
//! `TesseractTransformerLayer` — same param ids, so the same weights and
//! bitwise the same outputs — with tracing on, a host span around each
//! sublayer call and a trace scope named after the module.

use std::sync::Arc;
use std::time::Instant;

use tesseract_baselines::serial::SerialTransformer;
use tesseract_comm::{RankCtx, RunConfig, RunOutput};
use tesseract_core::layers::PARAM_IDS_PER_LAYER;
use tesseract_core::partition::{a_block, combine_c};
use tesseract_core::{
    GridShape, Module, TesseractGrid, TesseractTransformer, TesseractTransformerLayer,
    TransformerConfig,
};
use tesseract_tensor::{max_rel_diff, DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};
use tesseract_train::Sgd;

use crate::common::{guarded, run_config, secs, Digest, HostSamples, Opts, SetupClock, Stamp, MIB};
use crate::probes;
use crate::report::{median, sorted, tail, Report};
use crate::tracecheck;

/// Weight-init seed; `--seed` drives the inputs only.
const WEIGHT_SEED: u64 = 20220829;
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;
/// Steps per cluster run. The first step of every run warms allocations
/// and is left out of the host-time samples.
const STEPS_PER_RUN: usize = 6;
/// Set-up samples taken before the timed loop (one more is taken before
/// every cluster run).
const SETUP_REPS: usize = 3;
/// Largest elementwise relative difference of the first step's output and
/// input gradient from the serial oracle: the kernels' cross-path
/// tolerance. The stack differs from the oracle only in floating-point
/// summation order (SUMMA panels, depth reduction, FMA rounding).
const ORACLE_TOL: f32 = 1e-4;

#[derive(Clone, Copy)]
struct Size {
    cfg: TransformerConfig,
    shape: GridShape,
}

fn size(tiny: bool) -> Size {
    let cfg = if tiny {
        TransformerConfig {
            batch: 4,
            seq: 8,
            hidden: 32,
            heads: 4,
            mlp_ratio: 4,
            layers: 2,
            eps: 1e-5,
        }
    } else {
        TransformerConfig {
            batch: 4,
            seq: 256,
            hidden: 256,
            heads: 8,
            mlp_ratio: 4,
            layers: 4,
            eps: 1e-5,
        }
    };
    Size { cfg, shape: GridShape::new(2, 2) }
}

/// Global input activations and upstream gradient, from the seed.
struct Inputs {
    x: Matrix,
    dy: Matrix,
}

fn inputs(cfg: &TransformerConfig, seed: u64) -> Inputs {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let x = Matrix::random_uniform(cfg.rows(), cfg.hidden, -1.0, 1.0, &mut rng);
    let dy = Matrix::random_uniform(cfg.rows(), cfg.hidden, -1.0, 1.0, &mut rng);
    Inputs { x, dy }
}

/// Host seconds inside each sublayer call of one step (per-layer run).
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    ln_fwd: f64,
    attn_fwd: f64,
    mlp_fwd: f64,
    ln_bwd: f64,
    attn_bwd: f64,
    mlp_bwd: f64,
    residual: f64,
    optim: f64,
}

impl Spans {
    fn total(&self) -> f64 {
        self.ln_fwd
            + self.attn_fwd
            + self.mlp_fwd
            + self.ln_bwd
            + self.attn_bwd
            + self.mlp_bwd
            + self.residual
            + self.optim
    }
}

/// One rank's record of one cluster run.
struct RankRun {
    /// Per step: host start/end and virtual start/end.
    steps: Vec<(Stamp, Stamp, f64, f64)>,
    /// Every step's output and input gradient, then final weights and grads.
    digest: Digest,
    /// The first step's local output and input-gradient blocks.
    first: (Matrix, Matrix),
    /// Per step host spans (per-layer run only).
    spans: Vec<Spans>,
    /// Tape bytes pushed by [layernorm, attention, mlp] forwards over the run.
    tape: [u64; 3],
}

impl RankRun {
    /// Records the end of step `s`, which started at (`t0`, `v0`).
    fn record(&mut self, s: usize, t0: Stamp, v0: f64, v1: f64, y: &DenseTensor, dx: &DenseTensor) {
        self.steps.push((t0, Stamp::now(), v0, v1));
        self.digest.matrix(y.matrix());
        self.digest.matrix(dx.matrix());
        if s == 0 {
            self.first = (y.matrix().clone(), dx.matrix().clone());
        }
    }
}

/// Runs `STEPS_PER_RUN` steps on one cluster. `sublayers` drives the
/// layers one sublayer at a time with host spans; otherwise the stack runs
/// as a whole.
fn run_steps(run: &RunConfig, size: Size, inp: &Inputs, sublayers: bool) -> RunOutput<RankRun> {
    let Size { cfg, shape } = size;
    let mut rc = *run;
    rc.world = shape.size();
    rc.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let x = Arc::new(DenseTensor::from_matrix(a_block(&inp.x, shape, i, j, k)));
        let dy = Arc::new(DenseTensor::from_matrix(a_block(&inp.dy, shape, i, j, k)));
        let mut opt = Sgd::new(LR, MOMENTUM, 0.0);
        let mut rr = RankRun {
            steps: Vec::with_capacity(STEPS_PER_RUN),
            digest: Digest::default(),
            first: (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
            spans: Vec::new(),
            tape: [0; 3],
        };
        if sublayers {
            let mut layers: Vec<TesseractTransformerLayer<DenseTensor>> = (0..cfg.layers)
                .map(|l| {
                    let id = l as u64 * PARAM_IDS_PER_LAYER;
                    TesseractTransformerLayer::new(ctx, &grid, cfg, true, WEIGHT_SEED, id)
                })
                .collect();
            for s in 0..STEPS_PER_RUN {
                let (t0, v0) = (Stamp::now(), ctx.vt_now());
                let mut sp = Spans::default();
                for layer in &mut layers {
                    layer.zero_grad();
                }
                let y = sublayer_forward(&grid, ctx, &mut layers, &x, &mut sp, &mut rr.tape);
                let dx = sublayer_backward(&grid, ctx, &mut layers, &dy, &mut sp);
                let t = Instant::now();
                opt.step_params(&mut ctx.meter, |f| {
                    for layer in &mut layers {
                        layer.visit_params(&mut *f);
                    }
                });
                sp.optim = secs(t);
                rr.record(s, t0, v0, ctx.vt_now(), &y, &dx);
                rr.spans.push(sp);
            }
            for layer in &mut layers {
                digest_params(&mut rr.digest, layer);
            }
        } else {
            let mut model =
                TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, WEIGHT_SEED, 0);
            for s in 0..STEPS_PER_RUN {
                let (t0, v0) = (Stamp::now(), ctx.vt_now());
                model.zero_grad();
                let y = model.forward(&grid, ctx, &x);
                let dx = model.backward(&grid, ctx, &dy);
                opt.step(&mut ctx.meter, &mut model);
                rr.record(s, t0, v0, ctx.vt_now(), &y, &dx);
            }
            digest_params(&mut rr.digest, &mut model);
        }
        rr
    })
}

fn digest_params(d: &mut Digest, m: &mut dyn Module<DenseTensor>) {
    m.visit_params(&mut |p| {
        d.matrix(p.weight.matrix());
        d.matrix(p.grad.matrix());
    });
}

/// Calls one sublayer inside a trace scope named after it, adding its
/// host seconds to `acc` and the tape bytes it pushed to `tape`.
fn sub<R>(
    ctx: &mut RankCtx,
    name: &str,
    phase: &'static str,
    acc: &mut f64,
    tape: &mut u64,
    f: impl FnOnce(&mut RankCtx) -> R,
) -> R {
    let before = ctx.tape_bytes_now();
    let t = Instant::now();
    let r = ctx.traced(name, phase, f);
    *acc += secs(t);
    *tape += ctx.tape_bytes_now().saturating_sub(before);
    r
}

/// `TesseractTransformerLayer::forward` for every layer, one sublayer
/// call at a time.
fn sublayer_forward(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    layers: &mut [TesseractTransformerLayer<DenseTensor>],
    x: &Arc<DenseTensor>,
    sp: &mut Spans,
    tape: &mut [u64; 3],
) -> Arc<DenseTensor> {
    let mut h = Arc::clone(x);
    for l in layers {
        let ln = l.ln1.name();
        let a = sub(ctx, ln, "fwd", &mut sp.ln_fwd, &mut tape[0], |c| l.ln1.forward(grid, c, &h));
        let at = l.attn.name();
        let b =
            sub(ctx, at, "fwd", &mut sp.attn_fwd, &mut tape[1], |c| l.attn.forward(grid, c, &a));
        let t = Instant::now();
        let x1 = Arc::new(h.add(&b, &mut ctx.meter));
        sp.residual += secs(t);
        let c = sub(ctx, ln, "fwd", &mut sp.ln_fwd, &mut tape[0], |c| l.ln2.forward(grid, c, &x1));
        let mn = l.mlp.name();
        let d =
            sub(ctx, mn, "fwd", &mut sp.mlp_fwd, &mut tape[2], |cx| l.mlp.forward(grid, cx, &c));
        let t = Instant::now();
        h = Arc::new(x1.add(&d, &mut ctx.meter));
        sp.residual += secs(t);
    }
    h
}

/// `TesseractTransformerLayer::backward` for every layer in reverse, one
/// sublayer call at a time.
fn sublayer_backward(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    layers: &mut [TesseractTransformerLayer<DenseTensor>],
    dy: &Arc<DenseTensor>,
    sp: &mut Spans,
) -> Arc<DenseTensor> {
    let mut no_tape = 0;
    let mut g = Arc::clone(dy);
    for l in layers.iter_mut().rev() {
        let (ln, at, mn) = (l.ln1.name(), l.attn.name(), l.mlp.name());
        let d_mlp =
            sub(ctx, mn, "bwd", &mut sp.mlp_bwd, &mut no_tape, |c| l.mlp.backward(grid, c, &g));
        let d_ln2 =
            sub(ctx, ln, "bwd", &mut sp.ln_bwd, &mut no_tape, |c| l.ln2.backward(grid, c, &d_mlp));
        let t = Instant::now();
        let d_x1 = Arc::new(g.add(&d_ln2, &mut ctx.meter));
        sp.residual += secs(t);
        let d_attn = sub(ctx, at, "bwd", &mut sp.attn_bwd, &mut no_tape, |c| {
            l.attn.backward(grid, c, &d_x1)
        });
        let d_ln1 =
            sub(ctx, ln, "bwd", &mut sp.ln_bwd, &mut no_tape, |c| l.ln1.backward(grid, c, &d_attn));
        let t = Instant::now();
        g = Arc::new(d_x1.add(&d_ln1, &mut ctx.meter));
        sp.residual += secs(t);
    }
    g
}

/// Cluster-wide per-step (wall seconds, process CPU seconds, virtual
/// seconds). Step `s` spans from the moment the last rank finished step
/// `s - 1` (for the first step: started it) to the moment the last rank
/// finished step `s`, so consecutive steps tile the run.
fn step_times(out: &RunOutput<RankRun>) -> Vec<(f64, f64, f64)> {
    let last = |f: fn(&(Stamp, Stamp, f64, f64)) -> Stamp, s: usize| {
        out.results.iter().map(|r| f(&r.steps[s])).max_by_key(|st| st.wall).expect("ranks")
    };
    let vmax = |f: fn(&(Stamp, Stamp, f64, f64)) -> f64, s: usize| {
        out.results.iter().map(|r| f(&r.steps[s])).fold(f64::MIN, f64::max)
    };
    (0..STEPS_PER_RUN)
        .map(|s| {
            let (start, v0) = match s {
                0 => (last(|t| t.0, 0), vmax(|t| t.2, 0)),
                _ => (last(|t| t.1, s - 1), vmax(|t| t.3, s - 1)),
            };
            let end = last(|t| t.1, s);
            let wall = end.wall.saturating_duration_since(start.wall).as_secs_f64();
            (wall, end.cpu - start.cpu, vmax(|t| t.3, s) - v0)
        })
        .collect()
}

fn run_digest(out: &RunOutput<RankRun>) -> Digest {
    let mut d = Digest::default();
    for r in &out.results {
        d.u64(r.digest.0);
    }
    d
}

/// Samples gathered over repeated cluster runs of one kind.
#[derive(Default)]
struct Runs {
    host: HostSamples,
    sim_s: Vec<f64>,
    first: Option<RunOutput<RankRun>>,
}

/// Repeats cluster runs until `seconds` have passed (at least one run),
/// checking each against the first run's digest (and against `expect`,
/// when given), with a set-up sample before each. Keeps the first run's
/// output.
#[allow(clippy::too_many_arguments)]
fn repeat(
    rep: &mut Report,
    setup: &mut SetupClock<impl FnMut()>,
    run: &RunConfig,
    size: Size,
    inp: &Inputs,
    sublayers: bool,
    seconds: f64,
    expect: Option<Digest>,
) -> Runs {
    let mut acc = Runs::default();
    let mut want = expect;
    let t = Instant::now();
    let mut runs = 0;
    while runs == 0 || secs(t) < seconds {
        runs += 1;
        setup.sample();
        rep.attempt(STEPS_PER_RUN as u64);
        let out = match guarded(|| run_steps(run, size, inp, sublayers)) {
            Ok(out) => out,
            Err(e) => {
                rep.fail(STEPS_PER_RUN as u64, format!("train run crashed: {e}"));
                continue;
            }
        };
        let d = run_digest(&out);
        let want = *want.get_or_insert(d);
        rep.check(d == want, STEPS_PER_RUN as u64, || {
            format!("train digest {:#x} differs from {:#x} (sublayers: {sublayers})", d.0, want.0)
        });
        for (s, (wall, cpu, sim)) in step_times(&out).into_iter().enumerate() {
            if s > 0 {
                acc.host.push_batch(wall, cpu, 1.0, (size.cfg.batch * size.cfg.seq) as f64);
            }
            acc.sim_s.push(sim);
        }
        acc.first.get_or_insert(out);
    }
    acc
}

/// Checks the first step against the serial oracle; returns the largest
/// relative difference over the output and the input gradient.
fn oracle_check(rep: &mut Report, size: Size, inp: &Inputs, out: &RunOutput<RankRun>) -> f64 {
    let mut serial = SerialTransformer::new(size.cfg, true, WEIGHT_SEED, 0);
    let y = serial.forward(&inp.x);
    let dx = serial.backward(&inp.dy);
    let ys: Vec<Matrix> = out.results.iter().map(|r| r.first.0.clone()).collect();
    let dxs: Vec<Matrix> = out.results.iter().map(|r| r.first.1.clone()).collect();
    let diff = max_rel_diff(combine_c(&ys, size.shape).data(), y.data())
        .max(max_rel_diff(combine_c(&dxs, size.shape).data(), dx.data()));
    rep.check(diff <= ORACLE_TOL, 1, || {
        format!("first step differs from the serial oracle by {diff:e} (tolerance {ORACLE_TOL:e})")
    });
    f64::from(diff)
}

/// The set-up of one cluster run: inputs, cluster, grid, input blocks and
/// model.
fn setup_once(run: &RunConfig, size: Size, seed: u64) {
    let Size { cfg, shape } = size;
    let mut rc = *run;
    rc.world = shape.size();
    let inp = inputs(&cfg, seed);
    let out = rc.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let x = DenseTensor::from_matrix(a_block(&inp.x, shape, i, j, k));
        let model = TesseractTransformer::<DenseTensor>::new(ctx, &grid, cfg, true, WEIGHT_SEED, 0);
        (x.rows(), model.layers.len())
    });
    std::hint::black_box(out.results);
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let size = size(opts.tiny);
    let Size { cfg, shape } = size;
    let run = run_config(shape.size());
    rep.note(format!(
        "train_dense: [{q},{q},{d}] grid, {w} rank threads; {l} layers, hidden {h}, {hd} heads, \
         batch {b} x seq {s}; fwd+bwd+SGD; op = one step ({STEPS_PER_RUN} per cluster run, \
         first of each run not timed)",
        q = shape.q,
        d = shape.d,
        w = shape.size(),
        l = cfg.layers,
        h = cfg.hidden,
        hd = cfg.heads,
        b = cfg.batch,
        s = cfg.seq
    ));
    let mut setup = SetupClock::new(|| setup_once(&run, size, opts.seed));
    for _ in 0..SETUP_REPS {
        setup.sample();
    }
    let inp = inputs(&cfg, opts.seed);

    let window = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let plain = repeat(rep, &mut setup, &run, size, &inp, false, window, None);
    plain.host.report(rep, &setup);
    if let Some(first) = &plain.first {
        let diff = oracle_check(rep, size, &inp, first);
        rep.set("train.oracle_max_rel_diff", diff);
        let peak = first.reports.iter().map(|r| r.activation_bytes_peak).max().unwrap_or(0);
        rep.set("peak_mib", peak as f64 / MIB);
        rep.note(format!("train_dense: first step vs serial oracle: max rel diff {diff:e}"));
    }
    if !plain.host.op_cpu.is_empty() {
        let sim = sorted(plain.sim_s.clone());
        let (tail_pct, sim_tail) = tail(&sim);
        rep.set("sim_op_ms_p50", median(&sim) * 1e3);
        rep.set("sim_op_ms_tail", sim_tail * 1e3);
        rep.set("sim.tail_pct", tail_pct);
        rep.note(format!(
            "train_dense: {} timed steps, p50 {:.3} wall ms / {:.3} CPU ms, sim step {:.6} ms",
            plain.host.op_cpu.len(),
            median(&plain.host.op_wall) * 1e3,
            median(&plain.host.op_cpu) * 1e3,
            median(&sim) * 1e3
        ));
    }
    rep.set("ops_ok_frac", rep.ok_frac());
    if !opts.trace {
        return;
    }

    // Per-layer run: sublayer spans with tracing on, checked bitwise
    // against the untraced stack.
    let want = plain.first.as_ref().map(run_digest);
    let traced_cfg = run.with_trace(true);
    let traced = repeat(rep, &mut setup, &traced_cfg, size, &inp, true, window, want);
    if let Some(out) = &traced.first {
        per_layer_from_traced(rep, out, &plain.host.op_wall);
    }
    if !traced.host.op_cpu.is_empty() && !plain.host.op_cpu.is_empty() {
        let overhead = median(&traced.host.op_cpu) / median(&plain.host.op_cpu) - 1.0;
        rep.set("trace.overhead_frac", overhead);
    }
    // Largest per-rank GEMM of the step: the MLP's [rows/(dq), h/q] x
    // [h/q, 4h/q] block product.
    let rows = cfg.rows() / (shape.q * shape.d);
    probes::report(rep, &run, shape, (rows, cfg.hidden / shape.q, cfg.mlp_hidden() / shape.q));
}

fn per_layer_from_traced(rep: &mut Report, out: &RunOutput<RankRun>, plain_host: &[f64]) {
    let steps = STEPS_PER_RUN as f64;
    tracecheck::report_counters(rep, out, steps, "train");

    // Host spans: rank 0, timed steps only, median per sublayer.
    let spans = &out.results[0].spans[1..];
    let med = |f: fn(&Spans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>()) * 1e3;
    rep.set("core.layernorm.fwd_ms", med(|s| s.ln_fwd));
    rep.set("core.layernorm.bwd_ms", med(|s| s.ln_bwd));
    rep.set("core.attention.fwd_ms", med(|s| s.attn_fwd));
    rep.set("core.attention.bwd_ms", med(|s| s.attn_bwd));
    rep.set("core.mlp.fwd_ms", med(|s| s.mlp_fwd));
    rep.set("core.mlp.bwd_ms", med(|s| s.mlp_bwd));
    rep.set("core.residual_ms", med(|s| s.residual));
    rep.set("train.optim_ms", med(|s| s.optim));
    if !plain_host.is_empty() {
        rep.set("trace.host_span_cover_frac", med(Spans::total) / 1e3 / median(plain_host));
    }

    let sim = |name: &str| tracecheck::scope_seconds(out, name) / steps * 1e3;
    rep.set("core.layernorm.fwd_sim_ms", sim("layernorm.fwd"));
    rep.set("core.layernorm.bwd_sim_ms", sim("layernorm.bwd"));
    rep.set("core.attention.fwd_sim_ms", sim("attention.fwd"));
    rep.set("core.attention.bwd_sim_ms", sim("attention.bwd"));
    rep.set("core.mlp.fwd_sim_ms", sim("mlp.fwd"));
    rep.set("core.mlp.bwd_sim_ms", sim("mlp.bwd"));

    let tape =
        |i: usize| out.results.iter().map(|r| r.tape[i]).max().unwrap_or(0) as f64 / steps / MIB;
    rep.set("core.layernorm.tape_mib", tape(0));
    rep.set("core.attention.tape_mib", tape(1));
    rep.set("core.mlp.tape_mib", tape(2));
}

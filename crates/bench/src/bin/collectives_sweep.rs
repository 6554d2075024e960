//! Collectives sweep: the cloning (owned) collective path vs the `Arc`-shared
//! zero-copy path, measured in **host wall time** and **payload copies**.
//!
//! Three sections:
//!
//! * `collectives` — each collective (broadcast / reduce / all-reduce /
//!   all-gather) run `iters` times on an 8-rank group with an `n×n` f32
//!   payload, once through the owned API (every receiver gets a deep copy)
//!   and once through the `_shared` API (one allocation per rendezvous);
//! * `matmul_step` — SUMMA training steps (forward `C = A·B` plus both
//!   backward rules `A' = C'·Bᵀ`, `B' = Aᵀ·C'`) on the `[4, 4, 1]` grid with
//!   skinny activations (`A` is `64×n` against the `n×n` weight, the
//!   transformer linear-layer regime where panel broadcasts are a
//!   first-order cost), comparing the shipped zero-copy `tesseract_matmul*`
//!   against a verbatim re-creation of the pre-refactor cloning hot loop;
//! * `rendezvous` — host microseconds per round of a tiny (`1×1`)
//!   all-reduce, on the world group at world 4 / 16 / 64 and on 32 disjoint
//!   2-rank groups at world 64: the fabric's own cost (lock, wakeups,
//!   slot bookkeeping) with no payload work to hide it. The `host` record
//!   next to it says where it was measured.
//!
//! Payload copies never advance the simulated clocks — the wall-time columns
//! are real host seconds, the copy columns are the counters the simulator
//! records per collective.
//!
//! Run: `cargo run --release -p tesseract-bench --bin collectives_sweep -- \
//!           [--sizes 256,512] [--reps 3] [--iters 20] [--out BENCH_collectives.json]`

use std::sync::Arc;
use std::time::Instant;

use tesseract_comm::{Cluster, RankCtx};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, TesseractGrid,
};
use tesseract_tensor::matmul::active_kernel;
use tesseract_tensor::{pool, DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};

const GROUP: usize = 8;
const MATMUL_SHAPE: (usize, usize) = (4, 1); // [4, 4, 1]: the q >= 4 regime

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// Median wall nanoseconds over `reps` runs of `f`; also returns the copy
/// counters of the last run (identical across runs by determinism).
fn median_run(reps: usize, mut f: impl FnMut() -> (u64, u64)) -> (f64, u64, u64) {
    let mut times = Vec::new();
    let mut copies = (0, 0);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        copies = f();
        times.push(start.elapsed().as_nanos() as f64);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], copies.0, copies.1)
}

/// Runs `iters` repetitions of one collective on a `GROUP`-rank cluster and
/// returns `(copies, copy_bytes)` from the comm stats.
fn collective_round(op: &str, shared: bool, n: usize, iters: usize) -> (u64, u64) {
    let op = op.to_string();
    let out = Cluster::a100(GROUP).run(move |ctx| {
        let g = ctx.world_group();
        let mine = DenseTensor::from_matrix(random(n, n, 5 + ctx.rank as u64));
        for _ in 0..iters {
            match (op.as_str(), shared) {
                ("broadcast", false) => {
                    let _ = g.broadcast(ctx, 0, (ctx.rank == 0).then(|| mine.clone()));
                }
                ("broadcast", true) => {
                    let payload = (ctx.rank == 0).then(|| Arc::new(mine.clone()));
                    let _ = g.broadcast_shared(ctx, 0, payload);
                }
                ("reduce", false) => {
                    let _ = g.reduce(ctx, 0, mine.clone());
                }
                ("reduce", true) => {
                    let _ = g.reduce_shared(ctx, 0, mine.clone());
                }
                ("all_reduce", false) => {
                    let _ = g.all_reduce(ctx, mine.clone());
                }
                ("all_reduce", true) => {
                    let _ = g.all_reduce_shared(ctx, mine.clone());
                }
                ("all_gather", false) => {
                    let _ = g.all_gather(ctx, mine.clone());
                }
                ("all_gather", true) => {
                    let _ = g.all_gather_shared(ctx, Arc::new(mine.clone()));
                }
                _ => unreachable!(),
            }
        }
    });
    (out.comm.total_copies(), out.comm.total_copy_bytes())
}

/// The pre-refactor SUMMA hot loop, re-created verbatim on the owned
/// collectives: the step-`t` root clones its own panel into the broadcast
/// and every receiver gets a deep copy; reductions fold cloned deposits.
fn cloning_step(grid: &TesseractGrid, ctx: &mut RankCtx, a_loc: &DenseTensor, b_loc: &DenseTensor) {
    let q = grid.shape.q;
    // Forward: C = A·B.
    let mut c: Option<DenseTensor> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast(ctx, t, (grid.j() == t).then(|| a_loc.clone()));
        let b_t = grid.col.broadcast(ctx, t, (grid.i() == t).then(|| b_loc.clone()));
        let partial = a_t.matmul(&b_t, &mut ctx.meter);
        match c.as_mut() {
            None => c = Some(partial),
            Some(acc) => acc.add_assign(&partial, &mut ctx.meter),
        }
    }
    let dy = c.expect("q >= 1");
    // Backward dX = dY·Bᵀ.
    let mut dx: Option<DenseTensor> = None;
    for t in 0..q {
        let b_t = grid.col.broadcast(ctx, t, (grid.i() == t).then(|| b_loc.clone()));
        let partial = dy.matmul_nt(&b_t, &mut ctx.meter);
        let reduced = grid.row.reduce(ctx, t, partial);
        if grid.j() == t {
            dx = Some(reduced.expect("root receives reduction"));
        }
    }
    // Backward dW = Aᵀ·dY.
    let mut dw: Option<DenseTensor> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast(ctx, t, (grid.j() == t).then(|| a_loc.clone()));
        let partial = a_t.matmul_tn(&dy, &mut ctx.meter);
        let reduced = grid.col.reduce(ctx, t, partial);
        if grid.i() == t {
            dw = Some(reduced.expect("root receives reduction"));
        }
    }
    let (dx, dw) = (dx.expect("assigned"), dw.expect("assigned"));
    std::hint::black_box(dx.matrix()[(0, 0)] + dw.matrix()[(0, 0)]);
}

/// The shipped zero-copy hot loop: same three products on the `Arc` path.
fn shared_step(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_loc: &Arc<DenseTensor>,
    b_loc: &Arc<DenseTensor>,
) {
    let dy = tesseract_matmul(grid, ctx, a_loc, b_loc);
    let dx = tesseract_matmul_nt(grid, ctx, &dy, b_loc);
    let dw = tesseract_matmul_tn(grid, ctx, a_loc, &dy, true);
    std::hint::black_box(dx.matrix()[(0, 0)] + dw.matrix()[(0, 0)]);
}

/// Global activation rows for the matmul step: 16 rows per rank on the
/// `[4, 4, 1]` grid — the transformer regime, where the per-rank activation
/// block is skinny relative to the `n/q × n/q` weight panel it multiplies
/// (so the panel broadcast is a first-order cost, as in a linear layer).
const STEP_ROWS: usize = 64;

/// `iters` fwd+bwd matmul steps on `[4, 4, 1]` with global `A [64, n]`,
/// `B [n, n]`; returns `(copies, copy_bytes)`.
fn matmul_round(shared: bool, n: usize, iters: usize) -> (u64, u64) {
    let shape = GridShape::new(MATMUL_SHAPE.0, MATMUL_SHAPE.1);
    let a = random(STEP_ROWS, n, 91);
    let b = random(n, n, 92);
    let out = Cluster::a100(shape.size()).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
        let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
        let (a_arc, b_arc) = (Arc::new(a_loc.clone()), Arc::new(b_loc.clone()));
        for _ in 0..iters {
            if shared {
                shared_step(&grid, ctx, &a_arc, &b_arc);
            } else {
                cloning_step(&grid, ctx, &a_loc, &b_loc);
            }
        }
    });
    (out.comm.total_copies(), out.comm.total_copy_bytes())
}

/// Rounds per `rendezvous` measurement.
const RENDEZVOUS_ROUNDS: usize = 1000;

/// `(world, group size)` of each `rendezvous` case: the world group at
/// three sizes, then 32 disjoint pairs sharing one 64-rank fabric.
const RENDEZVOUS_CASES: [(usize, usize); 4] = [(4, 4), (16, 16), (64, 64), (64, 2)];

/// Host µs per round of `rounds` tiny all-reduces on disjoint groups of
/// `group_size` consecutive ranks of a `world`-rank cluster. Rank 0 times
/// the rounds between two world barriers, so thread spawn is excluded.
fn rendezvous_round_us(world: usize, group_size: usize, rounds: usize) -> f64 {
    let out = Cluster::a100(world).run(move |ctx| {
        let all = ctx.world_group();
        let first = ctx.rank / group_size * group_size;
        let group = ctx.group("rendezvous", (first..first + group_size).collect());
        let one = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
        all.barrier(ctx);
        let start = Instant::now();
        for _ in 0..rounds {
            let sum = group.all_reduce_shared(ctx, one.clone());
            assert_eq!(sum.matrix()[(0, 0)], group_size as f32, "tiny all-reduce miscounted");
        }
        all.barrier(ctx);
        start.elapsed().as_nanos() as f64 / 1e3 / rounds as f64
    });
    out.results[0]
}

struct OpRow {
    op: &'static str,
    n: usize,
    owned_ns: f64,
    owned_copies: u64,
    owned_copy_bytes: u64,
    shared_ns: f64,
    shared_copies: u64,
    shared_copy_bytes: u64,
}

struct StepRow {
    n: usize,
    cloning_ns: f64,
    cloning_copies: u64,
    cloning_copy_bytes: u64,
    shared_ns: f64,
    shared_copies: u64,
    shared_copy_bytes: u64,
}

fn main() {
    let mut sizes: Vec<usize> = vec![256, 512];
    let mut reps = 3usize;
    let mut iters = 20usize;
    let mut out_path = String::from("BENCH_collectives.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value")).clone();
        match arg.as_str() {
            "--sizes" => {
                sizes = value("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes wants comma-separated integers"))
                    .collect();
            }
            "--reps" => reps = value("--reps").parse().expect("--reps wants an integer"),
            "--iters" => iters = value("--iters").parse().expect("--iters wants an integer"),
            "--out" => out_path = value("--out"),
            other => panic!("unknown argument {other:?} (known: --sizes --reps --iters --out)"),
        }
    }
    let (mq, md) = MATMUL_SHAPE;
    assert!(sizes.iter().all(|&n| n % (mq * md * mq) == 0), "--sizes must divide the [4,4,1] grid");

    println!(
        "collectives_sweep: sizes {sizes:?}, {reps} reps, {iters} iters/collective, group {GROUP}\n"
    );
    println!("### collectives ({GROUP} ranks, n x n f32 payload, {iters} iters)\n");
    println!("| op | n | owned ns | shared ns | speedup | owned copies (bytes) | shared copies |");
    println!("|---|---|---|---|---|---|---|");
    let mut op_rows = Vec::new();
    for &n in &sizes {
        for op in ["broadcast", "reduce", "all_reduce", "all_gather"] {
            let (owned_ns, owned_copies, owned_copy_bytes) =
                median_run(reps, || collective_round(op, false, n, iters));
            let (shared_ns, shared_copies, shared_copy_bytes) =
                median_run(reps, || collective_round(op, true, n, iters));
            println!(
                "| {op} | {n} | {owned_ns:.0} | {shared_ns:.0} | {:.2}x | {owned_copies} ({owned_copy_bytes}) | {shared_copies} |",
                owned_ns / shared_ns,
            );
            op_rows.push(OpRow {
                op,
                n,
                owned_ns,
                owned_copies,
                owned_copy_bytes,
                shared_ns,
                shared_copies,
                shared_copy_bytes,
            });
        }
    }

    println!(
        "\n### matmul_step (fwd + both bwd rules, [{mq},{mq},{md}] grid, \
global A {STEP_ROWS} x n, B n x n, {iters} steps)\n"
    );
    println!("| n | cloning ns | shared ns | speedup | cloning copies (bytes) | shared copies |");
    println!("|---|---|---|---|---|---|");
    let mut step_rows = Vec::new();
    for &n in &sizes {
        let (cloning_ns, cloning_copies, cloning_copy_bytes) =
            median_run(reps, || matmul_round(false, n, iters));
        let (shared_ns, shared_copies, shared_copy_bytes) =
            median_run(reps, || matmul_round(true, n, iters));
        println!(
            "| {n} | {cloning_ns:.0} | {shared_ns:.0} | {:.2}x | {cloning_copies} ({cloning_copy_bytes}) | {shared_copies} |",
            cloning_ns / shared_ns,
        );
        step_rows.push(StepRow {
            n,
            cloning_ns,
            cloning_copies,
            cloning_copy_bytes,
            shared_ns,
            shared_copies,
            shared_copy_bytes,
        });
    }

    println!(
        "\n### rendezvous (1x1 all-reduce, host us per round, median of {reps} x \
{RENDEZVOUS_ROUNDS} rounds)\n"
    );
    println!("| world | groups x size | us/round |");
    println!("|---|---|---|");
    let mut rendezvous_rows = Vec::new();
    for (world, size) in RENDEZVOUS_CASES {
        let mut samples: Vec<f64> =
            (0..reps.max(1)).map(|_| rendezvous_round_us(world, size, RENDEZVOUS_ROUNDS)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let us = samples[samples.len() / 2];
        println!("| {world} | {} x {size} | {us:.1} |", world / size);
        rendezvous_rows.push((world, size, us));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"collectives_sweep\",\n");
    json.push_str(
        "  \"units\": { \"time\": \"ns (median, host wall)\", \"copies\": \"payload deep copies\" },\n",
    );
    json.push_str(&format!("  \"reps\": {reps},\n  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"group\": {GROUP},\n"));
    json.push_str(&format!("  \"matmul_grid\": \"[{mq},{mq},{md}]\",\n"));
    json.push_str("  \"collectives\": [\n");
    for (i, r) in op_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"op\": \"{}\", \"n\": {}, \"owned_ns\": {:.0}, \"shared_ns\": {:.0}, \
\"speedup\": {:.3}, \"owned_copies\": {}, \"owned_copy_bytes\": {}, \
\"shared_copies\": {}, \"shared_copy_bytes\": {} }}{}\n",
            r.op,
            r.n,
            r.owned_ns,
            r.shared_ns,
            r.owned_ns / r.shared_ns,
            r.owned_copies,
            r.owned_copy_bytes,
            r.shared_copies,
            r.shared_copy_bytes,
            if i + 1 == op_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"matmul_step\": [\n");
    for (i, r) in step_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"n\": {}, \"cloning_ns\": {:.0}, \"shared_ns\": {:.0}, \"speedup\": {:.3}, \
\"cloning_copies\": {}, \"cloning_copy_bytes\": {}, \"shared_copies\": {}, \
\"shared_copy_bytes\": {} }}{}\n",
            r.n,
            r.cloning_ns,
            r.shared_ns,
            r.cloning_ns / r.shared_ns,
            r.cloning_copies,
            r.cloning_copy_bytes,
            r.shared_copies,
            r.shared_copy_bytes,
            if i + 1 == step_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {}, \"kernel\": \"{}\", \"pool_threads\": {} }},\n",
        pool::host_threads(),
        active_kernel().name(),
        pool::global().threads()
    ));
    json.push_str(&format!("  \"rendezvous_rounds\": {RENDEZVOUS_ROUNDS},\n"));
    json.push_str("  \"rendezvous\": [\n");
    for (i, (world, size, us)) in rendezvous_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"world\": {world}, \"groups\": {}, \"group_size\": {size}, \
\"host_us_per_round\": {us:.1} }}{}\n",
            world / size,
            if i + 1 == rendezvous_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}

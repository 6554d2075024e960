//! Parity suite for the zero-copy collective path: the `Arc`-shared
//! broadcasts and in-place reductions used by the three Tesseract matmul
//! variants must be **bitwise** identical to the historical cloning path
//! (every receiver takes an owned deep copy of each result), and the
//! forward pass must perform zero per-receiver payload copies.
//!
//! The cloning implementations below are deliberate re-creations of the
//! pre-refactor blocking loops, owning every collective result through
//! `RankCtx::clone_counted`; they share nothing with `tesseract_core::mm`
//! except the grid.

use std::sync::Arc;

use tesseract_comm::{Cluster, CollectiveOp, RankCtx};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Schedule, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};

/// The grids the issue names: 2-D, 2.5-D and the wide 2-D arrangement.
const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 1)];

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// Algorithm 3, owning every broadcast panel.
fn cloning_matmul(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &DenseTensor,
    b_local: &DenseTensor,
) -> DenseTensor {
    let q = grid.shape.q;
    let mut c: Option<DenseTensor> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast(ctx, t, (grid.j() == t).then(|| Arc::new(a_local.clone())));
        let a_t = ctx.clone_counted(CollectiveOp::Broadcast, &*a_t);
        let b_t = grid.col.broadcast(ctx, t, (grid.i() == t).then(|| Arc::new(b_local.clone())));
        let b_t = ctx.clone_counted(CollectiveOp::Broadcast, &*b_t);
        let partial = a_t.matmul(&b_t, &mut ctx.meter);
        match c.as_mut() {
            None => c = Some(partial),
            Some(acc) => acc.add_assign(&partial, &mut ctx.meter),
        }
    }
    c.expect("q >= 1")
}

/// `C = A·Bᵀ`, owning every panel and the reduced block.
fn cloning_matmul_nt(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &DenseTensor,
    b_local: &DenseTensor,
) -> DenseTensor {
    let q = grid.shape.q;
    let mut mine: Option<DenseTensor> = None;
    for t in 0..q {
        let b_t = grid.col.broadcast(ctx, t, (grid.i() == t).then(|| Arc::new(b_local.clone())));
        let b_t = ctx.clone_counted(CollectiveOp::Broadcast, &*b_t);
        let partial = a_local.matmul_nt(&b_t, &mut ctx.meter);
        let reduced = grid.row.reduce(ctx, t, partial);
        if grid.j() == t {
            let reduced = reduced.expect("root receives reduction");
            mine = Some(ctx.clone_counted(CollectiveOp::Reduce, &*reduced));
        }
    }
    mine.expect("every rank is root for exactly one t")
}

/// `C = Aᵀ·B`, owning every panel and reduced block.
fn cloning_matmul_tn(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &DenseTensor,
    b_local: &DenseTensor,
    depth_reduce: bool,
) -> DenseTensor {
    let q = grid.shape.q;
    let mut mine: Option<DenseTensor> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast(ctx, t, (grid.j() == t).then(|| Arc::new(a_local.clone())));
        let a_t = ctx.clone_counted(CollectiveOp::Broadcast, &*a_t);
        let partial = a_t.matmul_tn(b_local, &mut ctx.meter);
        let reduced = grid.col.reduce(ctx, t, partial);
        if grid.i() == t {
            let reduced = reduced.expect("root receives reduction");
            mine = Some(ctx.clone_counted(CollectiveOp::Reduce, &*reduced));
        }
    }
    let mut c = mine.expect("every rank is root for exactly one t");
    if depth_reduce && grid.shape.d > 1 {
        let summed = grid.depth.all_reduce(ctx, c);
        c = ctx.clone_counted(CollectiveOp::AllReduce, &*summed);
    }
    c
}

#[test]
fn shared_matmul_is_bitwise_equal_to_cloning_path() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        let (a_rows, inner, b_cols) = (4 * q * d, 2 * q, 3 * q);
        let a = random(a_rows, inner, 7);
        let b = random(inner, b_cols, 8);
        let run = |shared: bool| {
            let (a, b) = (a.clone(), b.clone());
            Cluster::a100(shape.size()).run(move |ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
                let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
                if shared {
                    tesseract_matmul(
                        &grid,
                        ctx,
                        &Arc::new(a_loc),
                        &Arc::new(b_loc),
                        Schedule::Pipelined,
                    )
                    .into_matrix()
                } else {
                    cloning_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
                }
            })
        };
        let shared = run(true);
        let cloning = run(false);
        assert_eq!(shared.results, cloning.results, "[{q},{q},{d}]: matmul diverged");
        // The shared path never copies a payload; the cloning path pays one
        // copy per receiver (the counter itself is exercised both ways).
        assert_eq!(shared.comm.total_copies(), 0, "[{q},{q},{d}]");
        assert!(cloning.comm.total_copies() > 0, "[{q},{q},{d}]");
    }
}

#[test]
fn shared_matmul_nt_is_bitwise_equal_to_cloning_path() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        // Global: A [a, c], B [b, c] → C = A·Bᵀ is [a, b].
        let (a_rows, b_rows, c_cols) = (4 * q * d, 2 * q, 3 * q);
        let a = random(a_rows, c_cols, 17);
        let b = random(b_rows, c_cols, 18);
        let run = |shared: bool| {
            let (a, b) = (a.clone(), b.clone());
            Cluster::a100(shape.size()).run(move |ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
                let b_loc = DenseTensor::from_matrix(b_block(&b, shape, i, j));
                if shared {
                    tesseract_matmul_nt(&grid, ctx, &a_loc, &Arc::new(b_loc), Schedule::Pipelined)
                        .matrix()
                        .clone()
                } else {
                    cloning_matmul_nt(&grid, ctx, &a_loc, &b_loc).into_matrix()
                }
            })
        };
        let shared = run(true);
        let cloning = run(false);
        assert_eq!(shared.results, cloning.results, "[{q},{q},{d}]: matmul_nt diverged");
        assert_eq!(shared.comm.total_copies(), 0, "[{q},{q},{d}]");
    }
}

#[test]
fn shared_matmul_tn_is_bitwise_equal_to_cloning_path() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        // Global: A [a, b], B [a, c] → C = Aᵀ·B is [b, c].
        let (a_rows, b_cols, c_cols) = (4 * q * d, 2 * q, 3 * q);
        let a = random(a_rows, b_cols, 27);
        let b = random(a_rows, c_cols, 28);
        let run = |shared: bool| {
            let (a, b) = (a.clone(), b.clone());
            Cluster::a100(shape.size()).run(move |ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
                let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
                if shared {
                    tesseract_matmul_tn(
                        &grid,
                        ctx,
                        &Arc::new(a_loc),
                        &b_loc,
                        true,
                        Schedule::Pipelined,
                    )
                    .matrix()
                    .clone()
                } else {
                    cloning_matmul_tn(&grid, ctx, &a_loc, &b_loc, true).into_matrix()
                }
            })
        };
        let shared = run(true);
        let cloning = run(false);
        assert_eq!(shared.results, cloning.results, "[{q},{q},{d}]: matmul_tn diverged");
        assert_eq!(shared.comm.total_copies(), 0, "[{q},{q},{d}]");
    }
}

/// The issue's acceptance gate (also the CI copy-regression gate, since
/// `scripts/ci.sh` runs this file under `cargo test`): one forward
/// `tesseract_matmul` on `[4, 4, 2]` must register **zero** per-receiver
/// payload clones on every rank — each broadcast panel is materialized
/// exactly once regardless of the 4-member group fan-out.
#[test]
fn forward_matmul_on_4x4x2_copies_nothing() {
    let shape = GridShape::new(4, 2); // [4, 4, 2] = 32 ranks
    let (a_rows, inner, b_cols) = (4 * 4 * 2 * 2, 4 * 2, 4 * 3);
    let a = random(a_rows, inner, 37);
    let b = random(inner, b_cols, 38);
    let out = Cluster::a100(shape.size()).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined);
        ctx.flush_compute();
    });
    let bcast = out.comm.get(CollectiveOp::Broadcast);
    assert!(bcast.calls > 0, "the forward must actually broadcast");
    assert_eq!(bcast.copies, 0, "broadcast panels must never be cloned per receiver");
    assert_eq!(out.comm.total_copies(), 0, "the whole forward must perform zero payload copies");
    for (rank, report) in out.reports.iter().enumerate() {
        assert_eq!(report.payload_copies, 0, "rank {rank} cloned a payload");
        assert_eq!(report.payload_copy_bytes, 0, "rank {rank} cloned payload bytes");
    }
}

//! The Tesseract parallel matrix multiplication (paper §3.1, Algorithm 3)
//! and its transpose variants, which together implement the forward pass
//! and the backward rules of Eq. 3 (`A' = C'·Bᵀ`, `B' = Aᵀ·C'` with the
//! depth all-reduce of `B'`).
//!
//! All three functions are SPMD: every rank of the grid calls them with its
//! local blocks and receives its local block of the result. With `d = 1`
//! they are exactly 2-D SUMMA (Optimus); with `d = q` they are a 3-D
//! algorithm; in between they are the paper's 2.5-D scheme in which the `d`
//! layers run `q×q` SUMMA multiplications concurrently over disjoint row
//! bands of `A`/`C`, sharing only the replicated `B`.
//!
//! # Double-buffered pipeline
//!
//! The main entry points run the SUMMA loop **double-buffered** on the
//! split-phase collectives: the step-`t+1` panel broadcasts are begun
//! before the step-`t` partial product is computed, so the rendezvous wait
//! overlaps the GEMM; likewise the partial-sum reductions of the backward
//! rules are begun as soon as a partial is computed and completed one step
//! later, and `tesseract_matmul_tn`'s depth all-reduce is begun the moment
//! the local contribution is final. Results are **bitwise identical** to
//! the serial loop — the panels travel as the same shared `Arc`s and the
//! reductions fold in the same ascending member order; only the virtual
//! clock improves (the hidden wait is reported via
//! `Meter::overlap_hidden_nanos`). The `*_serial` twins run the original
//! blocking loops and exist as the parity/ablation baseline.

use std::sync::Arc;

use tesseract_comm::{Payload, PendingCollective, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;

/// Begins the step-`t` row/column panel broadcasts of Algorithm 3 (the
/// shared prefetch half of the double-buffered loop).
fn begin_panels<'g, T>(
    grid: &'g TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
    t: usize,
) -> (PendingCollective<'g, Arc<T>>, PendingCollective<'g, Arc<T>>)
where
    T: TensorLike + Payload,
{
    let a = grid.row.broadcast_shared_begin(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)));
    let b = grid.col.broadcast_shared_begin(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)));
    (a, b)
}

/// `C = A·B` (Algorithm 3).
///
/// * `a_local`: this rank's A-type block `[a/(q·d), b/q]`.
/// * `b_local`: this rank's B-type block `[b/q, c/q]`.
/// * returns this rank's C-type block `[a/(q·d), c/q]`.
///
/// Per step `t`: `A_{i,t,k}` is broadcast along the row, `B_{t,j,k}` along
/// the column, and every rank accumulates `C += A_t · B_t`. No inter-layer
/// communication happens in the forward pass.
///
/// The panels travel zero-copy: the step-`t` root deposits `Arc::clone` of
/// its local block (no self-clone) and every member multiplies against the
/// shared allocation, so each panel is materialized exactly once per
/// rendezvous regardless of the group size.
///
/// The loop is double-buffered: step `t+1`'s panel broadcasts are begun
/// before step `t`'s partial product is computed, hiding the rendezvous
/// wait under the GEMM. Data is bitwise identical to
/// [`tesseract_matmul_serial`].
pub fn tesseract_matmul<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.rows(), "tesseract_matmul: inner block dims disagree");
    let (pa, pb) = begin_panels(grid, ctx, a_local, b_local, 0);
    let a_t = pa.complete(ctx);
    let b_t = pb.complete(ctx);
    let mut next = (q > 1).then(|| begin_panels(grid, ctx, a_local, b_local, 1));
    let mut c = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
    for t in 1..q {
        let (pa, pb) = next.take().expect("prefetched by the previous step");
        let a_t = pa.complete(ctx);
        let b_t = pb.complete(ctx);
        if t + 1 < q {
            next = Some(begin_panels(grid, ctx, a_local, b_local, t + 1));
        }
        let partial = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
        c.add_assign(&partial, &mut ctx.meter.scope("add"));
    }
    c
}

/// Blocking-collective reference for [`tesseract_matmul`]: the original
/// serial SUMMA loop (broadcast, broadcast, multiply — every step waits).
/// Kept as the parity baseline and the `overlap_sweep` ablation.
pub fn tesseract_matmul_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
) -> T
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.rows(), "tesseract_matmul: inner block dims disagree");
    let a_t = grid.row.broadcast_shared(ctx, 0, (grid.j() == 0).then(|| Arc::clone(a_local)));
    let b_t = grid.col.broadcast_shared(ctx, 0, (grid.i() == 0).then(|| Arc::clone(b_local)));
    let mut c = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
    for t in 1..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)));
        let b_t = grid.col.broadcast_shared(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)));
        let partial = a_t.matmul(&b_t, &mut ctx.meter.scope("gemm"));
        c.add_assign(&partial, &mut ctx.meter.scope("add"));
    }
    c
}

/// `C = A·Bᵀ` — the activation-gradient rule `A' = C'·Bᵀ` of Eq. 3.
///
/// * `a_local`: A-type block of `[a, c]` (e.g. the output gradient `C'`).
/// * `b_local`: B-type block of the `[b, c]` weight.
/// * returns the A-type block of `C = A·Bᵀ` with global shape `[a, b]`.
///
/// Per step `t`: `B_{t,j,k}` is broadcast along the column; every rank
/// computes `A · B_tᵀ` and the row reduces the partials to member `t`,
/// which owns column block `t` of the result.
///
/// The weight panel is `Arc`-shared along the column and the freshly
/// computed partials are consumed by the in-place row reduction, so the
/// whole backward rule performs zero payload copies.
///
/// Double-buffered: step `t+1`'s column broadcast is begun before step
/// `t`'s GEMM, and each step's row reduction is begun right after its
/// partial is computed but only completed one step later — both waits hide
/// under the next GEMM. Data is bitwise identical to
/// [`tesseract_matmul_nt_serial`].
pub fn tesseract_matmul_nt<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &T,
    b_local: &Arc<T>,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.cols(), "tesseract_matmul_nt: inner block dims disagree");
    let mut mine: Option<Arc<T>> = None;
    let pb = grid.col.broadcast_shared_begin(ctx, 0, (grid.i() == 0).then(|| Arc::clone(b_local)));
    let b_t = pb.complete(ctx);
    let mut next_b = (q > 1).then(|| {
        grid.col.broadcast_shared_begin(ctx, 1, (grid.i() == 1).then(|| Arc::clone(b_local)))
    });
    let partial = a_local.matmul_nt(&b_t, &mut ctx.meter.scope("gemm"));
    let mut pending_red = grid.row.reduce_shared_begin(ctx, 0, partial);
    for t in 1..q {
        let pb = next_b.take().expect("prefetched by the previous step");
        let b_t = pb.complete(ctx);
        if t + 1 < q {
            next_b = Some(grid.col.broadcast_shared_begin(
                ctx,
                t + 1,
                (grid.i() == t + 1).then(|| Arc::clone(b_local)),
            ));
        }
        let partial = a_local.matmul_nt(&b_t, &mut ctx.meter.scope("gemm"));
        if let Some(r) = pending_red.complete(ctx) {
            mine = Some(r);
        }
        pending_red = grid.row.reduce_shared_begin(ctx, t, partial);
    }
    if let Some(r) = pending_red.complete(ctx) {
        mine = Some(r);
    }
    mine.expect("every rank is root for exactly one t")
}

/// Blocking-collective reference for [`tesseract_matmul_nt`]: one fully
/// synchronous broadcast + reduce per step.
pub fn tesseract_matmul_nt_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &T,
    b_local: &Arc<T>,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.cols(), b_local.cols(), "tesseract_matmul_nt: inner block dims disagree");
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let b_t = grid.col.broadcast_shared(ctx, t, (grid.i() == t).then(|| Arc::clone(b_local)));
        let partial = a_local.matmul_nt(&b_t, &mut ctx.meter.scope("gemm"));
        let reduced = grid.row.reduce_shared(ctx, t, partial);
        if grid.j() == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    mine.expect("every rank is root for exactly one t")
}

/// `C = Aᵀ·B` — the weight-gradient rule `B' = Aᵀ·C'` of Eq. 3.
///
/// * `a_local`: A-type block of `[a, b]` (e.g. the cached input `A`).
/// * `b_local`: A-type block of `[a, c]` (e.g. the output gradient `C'`).
/// * returns the B-type block of `C = Aᵀ·B` with global shape `[b, c]`.
///
/// Per step `t`: `A_{i,t,k}` is broadcast along the row; every rank
/// computes `A_tᵀ · B` and the column reduces the partials to member `t`.
/// Because each depth layer only sums its own row band `h = i + k·q`, the
/// partial weight gradients are finally **all-reduced across depth**
/// (`depth_reduce = true`), exactly as §3.1 prescribes for `B'`. Pass
/// `false` to inspect the per-layer partials (used by tests and ablations).
///
/// Double-buffered like [`tesseract_matmul_nt`]; in addition the depth
/// all-reduce is begun the moment this rank's column reduction delivers
/// its final local contribution (at step `t = i`, the same program point
/// on every member of the depth fiber), so it overlaps the remaining SUMMA
/// steps. Data is bitwise identical to [`tesseract_matmul_tn_serial`].
pub fn tesseract_matmul_tn<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &T,
    depth_reduce: bool,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.rows(), b_local.rows(), "tesseract_matmul_tn: inner block dims disagree");
    let overlap_depth = depth_reduce && grid.shape.d > 1;
    let mut mine: Option<Arc<T>> = None;
    let mut depth_pending: Option<PendingCollective<'_, Arc<Arc<T>>>> = None;
    let pa = grid.row.broadcast_shared_begin(ctx, 0, (grid.j() == 0).then(|| Arc::clone(a_local)));
    let a_t = pa.complete(ctx);
    let mut next_a = (q > 1).then(|| {
        grid.row.broadcast_shared_begin(ctx, 1, (grid.j() == 1).then(|| Arc::clone(a_local)))
    });
    let partial = a_t.matmul_tn(b_local, &mut ctx.meter.scope("gemm"));
    let mut pending_red = grid.col.reduce_shared_begin(ctx, 0, partial);
    for t in 1..q {
        let pa = next_a.take().expect("prefetched by the previous step");
        let a_t = pa.complete(ctx);
        if t + 1 < q {
            next_a = Some(grid.row.broadcast_shared_begin(
                ctx,
                t + 1,
                (grid.j() == t + 1).then(|| Arc::clone(a_local)),
            ));
        }
        let partial = a_t.matmul_tn(b_local, &mut ctx.meter.scope("gemm"));
        let reduced = pending_red.complete(ctx);
        settle_reduced(grid, ctx, overlap_depth, reduced, &mut mine, &mut depth_pending);
        pending_red = grid.col.reduce_shared_begin(ctx, t, partial);
    }
    let reduced = pending_red.complete(ctx);
    settle_reduced(grid, ctx, overlap_depth, reduced, &mut mine, &mut depth_pending);
    if let Some(dp) = depth_pending {
        mine = Some(Arc::clone(&*dp.complete(ctx)));
    }
    mine.expect("every rank is root for exactly one t")
}

/// Disposes of one completed column reduction in [`tesseract_matmul_tn`]:
/// the step-`t` root (rank `i == t`) either keeps the combined block or,
/// when overlapping the depth all-reduce, begins it immediately — the same
/// program point on every member of its depth fiber, so the fiber's SPMD
/// schedule stays aligned.
fn settle_reduced<'g, T>(
    grid: &'g TesseractGrid,
    ctx: &mut RankCtx,
    overlap_depth: bool,
    reduced: Option<Arc<T>>,
    mine: &mut Option<Arc<T>>,
    depth_pending: &mut Option<PendingCollective<'g, Arc<Arc<T>>>>,
) where
    T: TensorLike + Payload,
{
    if let Some(r) = reduced {
        if overlap_depth {
            // Reduce *through* the Arc: copy-on-write touches only member
            // 0's accumulator, and every depth replica ends up holding the
            // same combined allocation.
            *depth_pending = Some(grid.depth.all_reduce_shared_begin(ctx, r));
        } else {
            *mine = Some(r);
        }
    }
}

/// Blocking-collective reference for [`tesseract_matmul_tn`]: one fully
/// synchronous broadcast + reduce per step, depth all-reduce at the end.
pub fn tesseract_matmul_tn_serial<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &T,
    depth_reduce: bool,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    assert_eq!(a_local.rows(), b_local.rows(), "tesseract_matmul_tn: inner block dims disagree");
    let mut mine: Option<Arc<T>> = None;
    for t in 0..q {
        let a_t = grid.row.broadcast_shared(ctx, t, (grid.j() == t).then(|| Arc::clone(a_local)));
        let partial = a_t.matmul_tn(b_local, &mut ctx.meter.scope("gemm"));
        let reduced = grid.col.reduce_shared(ctx, t, partial);
        if grid.i() == t {
            mine = Some(reduced.expect("root receives reduction"));
        }
    }
    let mut c = mine.expect("every rank is root for exactly one t");
    if depth_reduce && grid.shape.d > 1 {
        // Reduce *through* the Arc: copy-on-write touches only member 0's
        // accumulator, and every depth replica ends up holding the same
        // combined allocation.
        c = Arc::clone(&*grid.depth.all_reduce_shared(ctx, c));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridShape;
    use crate::partition::{a_block, b_block, combine_b, combine_c};
    use tesseract_comm::Cluster;
    use tesseract_tensor::{
        assert_slices_close, matmul, DenseTensor, Matrix, ShadowTensor, Xoshiro256StarStar,
    };

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    fn run_matmul(shape: GridShape, a: &Matrix, b: &Matrix) -> Matrix {
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(a, shape, i, j, k)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(b, shape, i, j)));
            tesseract_matmul(&grid, ctx, &a_loc, &b_loc).into_matrix()
        });
        combine_c(&out.results, shape)
    }

    #[test]
    fn matmul_matches_serial_on_2x2x1() {
        let shape = GridShape::new(2, 1);
        let a = random(8, 6, 1);
        let b = random(6, 4, 2);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_2x2x2() {
        let shape = GridShape::new(2, 2);
        let a = random(8, 6, 3);
        let b = random(6, 4, 4);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_3x3x2() {
        let shape = GridShape::new(3, 2);
        let a = random(12, 9, 5);
        let b = random(9, 6, 6);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_matches_serial_on_2x2x4_cube_exceeding_depth() {
        // d > q is unusual but nothing in the algorithm forbids it.
        let shape = GridShape::new(2, 4);
        let a = random(16, 4, 7);
        let b = random(4, 4, 8);
        let got = run_matmul(shape, &a, &b);
        assert_slices_close(got.data(), matmul::matmul(&a, &b).data(), 1e-4);
    }

    #[test]
    fn matmul_nt_matches_serial() {
        for (q, d, seed) in [(2usize, 1usize, 10u64), (2, 2, 11), (3, 2, 12)] {
            let shape = GridShape::new(q, d);
            // Global: A [a, c], B [b, c] → C = A·Bᵀ is [a, b].
            let (a_rows, b_rows, c_cols) = (4 * q * d, 2 * q, 3 * q);
            let a = random(a_rows, c_cols, seed);
            let b = random(b_rows, c_cols, seed + 100);
            let out = Cluster::a100(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = DenseTensor::from_matrix(a_block(&a, shape, i, j, k));
                let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
                tesseract_matmul_nt(&grid, ctx, &a_loc, &b_loc).matrix().clone()
            });
            let got = combine_c(&out.results, shape);
            let expected = matmul::matmul_nt(&a, &b);
            assert_slices_close(got.data(), expected.data(), 1e-4);
        }
    }

    #[test]
    fn matmul_tn_matches_serial_with_depth_reduce() {
        for (q, d, seed) in [(2usize, 1usize, 20u64), (2, 2, 21), (3, 2, 22)] {
            let shape = GridShape::new(q, d);
            // Global: A [a, b], B [a, c] → C = Aᵀ·B is [b, c] (B-type).
            let (a_rows, b_cols, c_cols) = (4 * q * d, 2 * q, 3 * q);
            let a = random(a_rows, b_cols, seed);
            let b = random(a_rows, c_cols, seed + 100);
            let out = Cluster::a100(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
                let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
                tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, true).matrix().clone()
            });
            let got = combine_b(&out.results, shape);
            let expected = matmul::matmul_tn(&a, &b);
            assert_slices_close(got.data(), expected.data(), 1e-4);

            // All depth replicas must agree after the all-reduce.
            for off in 0..shape.size() {
                let (i, j, _k) = shape.coords_of(off);
                let replica0 = &out.results[shape.offset_of(i, j, 0)];
                assert_eq!(&out.results[off], replica0);
            }
        }
    }

    #[test]
    fn without_depth_reduce_layers_hold_partials() {
        let shape = GridShape::new(2, 2);
        let a = random(8, 4, 30);
        let b = random(8, 6, 31);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = DenseTensor::from_matrix(a_block(&b, shape, i, j, k));
            tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, false).matrix().clone()
        });
        // Summing partials across depth by hand must equal the full result.
        let mut parts = Vec::new();
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            if k == 0 {
                let mut sum = out.results[shape.offset_of(i, j, 0)].clone();
                sum.add_assign(&out.results[shape.offset_of(i, j, 1)]);
                parts.push(sum);
            } else {
                parts.push(Matrix::zeros(1, 1)); // placeholder, unused by combine_b
            }
        }
        // Rebuild using only k = 0 entries.
        let mut full_parts = vec![Matrix::zeros(4 / 2, 6 / 2); shape.size()];
        let mut idx = 0;
        for off in 0..shape.size() {
            let (_i, _j, k) = shape.coords_of(off);
            if k == 0 {
                full_parts[off] = parts[idx].clone();
                idx += 1;
            }
        }
        let got = combine_b(&full_parts, shape);
        let expected = matmul::matmul_tn(&a, &b);
        assert_slices_close(got.data(), expected.data(), 1e-4);
    }

    #[test]
    fn shadow_backend_runs_same_code_path() {
        let shape = GridShape::new(2, 2);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            // Global A [16, 8], B [8, 8] at shadow scale.
            let a_loc = Arc::new(ShadowTensor::new(16 / 4, 8 / 2));
            let b_loc = Arc::new(ShadowTensor::new(8 / 2, 8 / 2));
            let c = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
            ctx.flush_compute();
            (c.shape(), ctx.clock())
        });
        for (shape_c, clock) in &out.results {
            assert_eq!(*shape_c, (4, 4));
            assert!(*clock > 0.0);
        }
        // Broadcasts happened: 2 per step × q steps × (rows+cols groups).
        assert!(out.comm.get(tesseract_comm::CollectiveOp::Broadcast).calls > 0);
    }

    #[test]
    fn dense_and_shadow_report_identical_makespan() {
        let shape = GridShape::new(2, 1);
        let a = random(8, 8, 40);
        let b = random(8, 8, 41);
        let dense = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
            let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        let shadow = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let a_loc = Arc::new(ShadowTensor::new(4, 4));
            let b_loc = Arc::new(ShadowTensor::new(4, 4));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc);
        });
        assert!((dense.makespan() - shadow.makespan()).abs() < 1e-15);
        assert_eq!(dense.comm.total_wire_bytes(), shadow.comm.total_wire_bytes());
    }
}

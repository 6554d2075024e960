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
//! One private SUMMA loop drives all three rules. Panels travel zero-copy:
//! the step-`t` root deposits `Arc::clone` of its local block and every
//! member multiplies against the shared allocation, while partial sums are
//! consumed by in-place reductions — a whole product makes no payload
//! copy.
//!
//! # Schedules
//!
//! [`Schedule::Pipelined`] (what the layers use) double-buffers the loop on
//! the split-phase collectives: the step-`t+1` panel broadcasts are begun
//! before the step-`t` partial product is computed, so the rendezvous wait
//! overlaps the GEMM; each partial-sum reduction is begun as soon as its
//! partial is computed and completed one step later; and the depth
//! all-reduce of `Aᵀ·B` is begun the moment the local contribution is
//! final. [`Schedule::Serial`] completes every collective before the next
//! one begins — the blocking reference kept as the parity baseline and
//! the overlap ablation. Results are **bitwise identical** across
//! schedules (same shared `Arc`s, same ascending member-order folds); only
//! the virtual clock differs, with the hidden wait reported via
//! `Meter::overlap_hidden_nanos`.

use std::sync::Arc;

use tesseract_comm::{CommGroup, Payload, PendingCollective, RankCtx};
use tesseract_tensor::TensorLike;

use crate::grid::TesseractGrid;

/// How a SUMMA loop orders its collectives around the GEMMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Every collective completes before the next begins: per step the row
    /// broadcast, then the column broadcast, the GEMM, then the reduction;
    /// the depth all-reduce after the loop.
    Serial,
    /// Double-buffered: step `t+1`'s panels are begun before step `t`'s
    /// GEMM, each reduction completes under the next step's GEMM, and the
    /// depth all-reduce begins at step `t = i`.
    Pipelined,
}

/// One of the three products of Eq. 3 with this rank's operand blocks.
enum Rule<'a, T> {
    /// `C = A·B`: both panels broadcast, partials accumulate locally.
    Ab { a: &'a Arc<T>, b: &'a Arc<T> },
    /// `C = A·Bᵀ`: `B` panels along the column, partials row-reduced.
    Nt { a: &'a T, b: &'a Arc<T> },
    /// `C = Aᵀ·B`: `A` panels along the row, partials column-reduced, then
    /// optionally all-reduced across depth.
    Tn { a: &'a Arc<T>, b: &'a T, depth_reduce: bool },
}

/// A broadcast panel: still in flight (pipelined prefetch) or in hand.
enum Panel<'g, T> {
    InFlight(PendingCollective<'g, Arc<T>>),
    Ready(Arc<T>),
}

impl<T> Panel<'_, T> {
    fn get(self, ctx: &mut RankCtx) -> Arc<T> {
        match self {
            Panel::InFlight(p) => p.complete(ctx),
            Panel::Ready(x) => x,
        }
    }
}

/// Begins the step-`t` broadcast of `local` from member `t` of `group`
/// (`coord` is this rank's member index); [`Schedule::Serial`] completes it
/// on the spot.
fn begin_panel<'g, T: Payload>(
    group: &'g CommGroup,
    ctx: &mut RankCtx,
    t: usize,
    coord: usize,
    local: &Arc<T>,
    schedule: Schedule,
) -> Panel<'g, T> {
    let pending = group.broadcast_begin(ctx, t, (coord == t).then(|| Arc::clone(local)));
    match schedule {
        Schedule::Serial => Panel::Ready(pending.complete(ctx)),
        Schedule::Pipelined => Panel::InFlight(pending),
    }
}

/// The SUMMA loop behind all three rules. Per step `t` it fetches the row
/// panel (`A`, for `ab`/`tn`) and the column panel (`B`, for `ab`/`nt`),
/// multiplies, and either accumulates (`ab`) or reduces the partial to
/// member `t` of the row (`nt`) or column (`tn`) group, whose root keeps
/// that block of the result.
fn summa<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    rule: Rule<'_, T>,
    schedule: Schedule,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    let q = grid.shape.q;
    let (row_src, col_src, red_group) = match rule {
        Rule::Ab { a, b } => (Some(a), Some(b), None),
        Rule::Nt { b, .. } => (None, Some(b), Some(&grid.row)),
        Rule::Tn { a, .. } => (Some(a), None, Some(&grid.col)),
    };
    let depth_reduce = matches!(rule, Rule::Tn { depth_reduce: true, .. }) && grid.shape.d > 1;
    let pipelined = schedule == Schedule::Pipelined;
    let panels = |ctx: &mut RankCtx, t: usize| {
        let a = row_src.map(|a| begin_panel(&grid.row, ctx, t, grid.j(), a, schedule));
        let b = col_src.map(|b| begin_panel(&grid.col, ctx, t, grid.i(), b, schedule));
        (a, b)
    };
    let mut acc: Option<T> = None;
    let mut mine: Option<Arc<T>> = None;
    let mut depth: Option<PendingCollective<'_, Arc<Arc<T>>>> = None;
    // The step-`t` root keeps its reduced block — or, pipelined, begins
    // the depth all-reduce on it at once: the same program point (`t = i`)
    // on every member of its depth fiber, so the fiber stays in step.
    // Reduce *through* the Arc: copy-on-write touches only member 0's
    // accumulator, and every depth replica ends up holding the same
    // combined allocation.
    let mut keep = |ctx: &mut RankCtx, reduced: Option<Arc<T>>| {
        if let Some(r) = reduced {
            if depth_reduce && pipelined {
                depth = Some(grid.depth.all_reduce_begin(ctx, r));
            } else {
                mine = Some(r);
            }
        }
    };
    let mut next = None;
    let mut in_flight: Option<PendingCollective<'_, Option<Arc<T>>>> = None;
    for t in 0..q {
        let (a_t, b_t) = next.take().unwrap_or_else(|| panels(ctx, t));
        let a_t = a_t.map(|p| p.get(ctx));
        let b_t = b_t.map(|p| p.get(ctx));
        if pipelined && t + 1 < q {
            next = Some(panels(ctx, t + 1));
        }
        let partial = {
            let gemm = &mut ctx.meter.scope("gemm");
            match rule {
                Rule::Ab { .. } => {
                    a_t.expect("row panel").matmul(&b_t.expect("column panel"), gemm)
                }
                Rule::Nt { a, .. } => a.matmul_nt(&b_t.expect("column panel"), gemm),
                Rule::Tn { b, .. } => a_t.expect("row panel").matmul_tn(b, gemm),
            }
        };
        let Some(group) = red_group else {
            match acc.as_mut() {
                None => acc = Some(partial),
                Some(c) => c.add_assign(&partial, &mut ctx.meter.scope("add")),
            }
            continue;
        };
        if let Some(prev) = in_flight.take() {
            let reduced = prev.complete(ctx);
            keep(ctx, reduced);
        }
        let pending = group.reduce_begin(ctx, t, partial);
        if pipelined {
            in_flight = Some(pending);
        } else {
            let reduced = pending.complete(ctx);
            keep(ctx, reduced);
        }
    }
    if let Some(prev) = in_flight {
        let reduced = prev.complete(ctx);
        keep(ctx, reduced);
    }
    if let Some(c) = acc {
        return Arc::new(c);
    }
    if let Some(dp) = depth {
        return Arc::clone(&*dp.complete(ctx));
    }
    let mine = mine.expect("every rank is root for exactly one t");
    if depth_reduce {
        Arc::clone(&*grid.depth.all_reduce(ctx, mine))
    } else {
        mine
    }
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
pub fn tesseract_matmul<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &Arc<T>,
    schedule: Schedule,
) -> T
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.cols(), b_local.rows(), "tesseract_matmul: inner block dims disagree");
    let c = summa(grid, ctx, Rule::Ab { a: a_local, b: b_local }, schedule);
    Arc::into_inner(c).expect("the accumulated product is never shared")
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
pub fn tesseract_matmul_nt<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &T,
    b_local: &Arc<T>,
    schedule: Schedule,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.cols(), b_local.cols(), "tesseract_matmul_nt: inner block dims disagree");
    summa(grid, ctx, Rule::Nt { a: a_local, b: b_local }, schedule)
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
pub fn tesseract_matmul_tn<T>(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    a_local: &Arc<T>,
    b_local: &T,
    depth_reduce: bool,
    schedule: Schedule,
) -> Arc<T>
where
    T: TensorLike + Payload,
{
    assert_eq!(a_local.rows(), b_local.rows(), "tesseract_matmul_tn: inner block dims disagree");
    summa(grid, ctx, Rule::Tn { a: a_local, b: b_local, depth_reduce }, schedule)
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
            tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined).into_matrix()
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
                tesseract_matmul_nt(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined)
                    .matrix()
                    .clone()
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
                tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, true, Schedule::Pipelined)
                    .matrix()
                    .clone()
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
            tesseract_matmul_tn(&grid, ctx, &a_loc, &b_loc, false, Schedule::Pipelined)
                .matrix()
                .clone()
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
            let c = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined);
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
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined);
        });
        let shadow = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let a_loc = Arc::new(ShadowTensor::new(4, 4));
            let b_loc = Arc::new(ShadowTensor::new(4, 4));
            let _ = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, Schedule::Pipelined);
        });
        assert!((dense.makespan() - shadow.makespan()).abs() < 1e-15);
        assert_eq!(dense.comm.total_wire_bytes(), shadow.comm.total_wire_bytes());
    }
}

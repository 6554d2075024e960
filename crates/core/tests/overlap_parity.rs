//! Parity suite for the double-buffered SUMMA pipeline: the products of
//! `tesseract_core::mm` under `Schedule::Pipelined` must be **bitwise**
//! identical to `Schedule::Serial` — forward and both backward rules — on every
//! grid the issue names, and the overlap must never make the simulated
//! step slower.

use std::sync::Arc;

use tesseract_comm::Cluster;
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Schedule, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

/// The grids the issue names: plain 2-D SUMMA, the 2.5-D cube, and a
/// larger 2.5-D arrangement.
const SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 2)];

fn block(rows: usize, cols: usize, seed: u64) -> DenseTensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
}

/// Runs `pipelined` and `serial` as separate cluster runs on identical
/// per-rank inputs and asserts bitwise-equal results plus a no-slower
/// pipelined makespan.
fn assert_parity<F, G>(shape: GridShape, what: &str, pipelined: F, serial: G)
where
    F: Fn(&TesseractGrid, &mut tesseract_comm::RankCtx) -> Matrix + Send + Sync + Copy,
    G: Fn(&TesseractGrid, &mut tesseract_comm::RankCtx) -> Matrix + Send + Sync + Copy,
{
    let fast = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        pipelined(&grid, ctx)
    });
    let slow = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        serial(&grid, ctx)
    });
    assert_eq!(fast.results, slow.results, "{what} on {shape:?}: data must be bitwise identical");
    assert!(
        fast.makespan() <= slow.makespan(),
        "{what} on {shape:?}: pipelined step must not be slower ({} vs {})",
        fast.makespan(),
        slow.makespan()
    );
}

#[test]
fn forward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        assert_parity(
            shape,
            "forward",
            |grid, ctx| {
                let a = Arc::new(block(3, 4, 100 + ctx.rank as u64));
                let b = Arc::new(block(4, 5, 200 + ctx.rank as u64));
                tesseract_matmul(grid, ctx, &a, &b, Schedule::Pipelined).matrix().clone()
            },
            |grid, ctx| {
                let a = Arc::new(block(3, 4, 100 + ctx.rank as u64));
                let b = Arc::new(block(4, 5, 200 + ctx.rank as u64));
                tesseract_matmul(grid, ctx, &a, &b, Schedule::Serial).matrix().clone()
            },
        );
    }
}

#[test]
fn nt_backward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        assert_parity(
            shape,
            "A' = C'·Bᵀ",
            |grid, ctx| {
                let a = block(3, 6, 300 + ctx.rank as u64);
                let b = Arc::new(block(4, 6, 400 + ctx.rank as u64));
                tesseract_matmul_nt(grid, ctx, &a, &b, Schedule::Pipelined).matrix().clone()
            },
            |grid, ctx| {
                let a = block(3, 6, 300 + ctx.rank as u64);
                let b = Arc::new(block(4, 6, 400 + ctx.rank as u64));
                tesseract_matmul_nt(grid, ctx, &a, &b, Schedule::Serial).matrix().clone()
            },
        );
    }
}

#[test]
fn tn_backward_pipeline_is_bitwise_identical_to_serial() {
    for (q, d) in SHAPES {
        let shape = GridShape::new(q, d);
        for depth_reduce in [true, false] {
            let what = if depth_reduce {
                "B' = Aᵀ·C' (depth all-reduce)"
            } else {
                "B' = Aᵀ·C' (partials)"
            };
            assert_parity(
                shape,
                what,
                move |grid, ctx| {
                    let a = Arc::new(block(5, 3, 500 + ctx.rank as u64));
                    let b = block(5, 4, 600 + ctx.rank as u64);
                    tesseract_matmul_tn(grid, ctx, &a, &b, depth_reduce, Schedule::Pipelined)
                        .matrix()
                        .clone()
                },
                move |grid, ctx| {
                    let a = Arc::new(block(5, 3, 500 + ctx.rank as u64));
                    let b = block(5, 4, 600 + ctx.rank as u64);
                    tesseract_matmul_tn(grid, ctx, &a, &b, depth_reduce, Schedule::Serial)
                        .matrix()
                        .clone()
                },
            );
        }
    }
}

/// On a real multi-step grid the pipeline must actually hide wait, not
/// just tie: the hidden-time counters are non-zero and the makespan is
/// strictly smaller than the serial loop's.
#[test]
fn pipeline_strictly_beats_serial_on_the_cube() {
    let shape = GridShape::new(2, 2);
    let fast = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let a = Arc::new(block(16, 16, 700 + ctx.rank as u64));
        let b = Arc::new(block(16, 16, 800 + ctx.rank as u64));
        let _ = tesseract_matmul(&grid, ctx, &a, &b, Schedule::Pipelined);
    });
    let slow = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let a = Arc::new(block(16, 16, 700 + ctx.rank as u64));
        let b = Arc::new(block(16, 16, 800 + ctx.rank as u64));
        let _ = tesseract_matmul(&grid, ctx, &a, &b, Schedule::Serial);
    });
    assert!(
        fast.makespan() < slow.makespan(),
        "double-buffered SUMMA must strictly beat the serial loop: {} vs {}",
        fast.makespan(),
        slow.makespan()
    );
    assert!(fast.comm.total_hidden_time() > 0.0);
    assert_eq!(slow.comm.total_hidden_time(), 0.0);
    assert!(fast.reports.iter().all(|r| r.overlap_hidden_nanos > 0));
}

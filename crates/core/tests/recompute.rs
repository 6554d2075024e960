//! Tape recomputation contract tests.
//!
//! A stack built with `recompute_every: Some(k)` wraps every `k` layers in
//! a `CheckpointSegment`: forward keeps only each segment's input, backward
//! replays the segment before unwinding it. The replayed forward runs the
//! same deterministic kernels on the same inputs, so results are compared
//! on `f32::to_bits`, not a tolerance — and the measured tape peak must
//! drop on every rank.

use std::sync::Arc;

use tesseract_comm::Cluster;
use tesseract_core::partition::a_block;
use tesseract_core::{GridShape, Module, TesseractGrid, TesseractTransformer, TransformerConfig};
use tesseract_tensor::{DenseTensor, Matrix, ShadowTensor, TensorLike, Xoshiro256StarStar};

const SEED: u64 = 321;

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: bitwise mismatch ({g} vs {w})");
    }
}

/// Runs one forward + backward of a stack checkpointed every
/// `recompute_every` layers and returns per-rank `(y, dx, grads)`.
fn run_stack(
    shape: GridShape,
    cfg: TransformerConfig,
    recompute_every: Option<usize>,
) -> Vec<(Matrix, Matrix, Vec<Matrix>)> {
    let x = random(cfg.rows(), cfg.hidden, 11);
    let dy = random(cfg.rows(), cfg.hidden, 12);
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let mut stack = TesseractTransformer::<DenseTensor>::new_with_recompute(
            ctx,
            &grid,
            cfg,
            true,
            SEED,
            0,
            recompute_every,
        );
        let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
        let dy_loc = Arc::new(DenseTensor::from_matrix(a_block(&dy, shape, i, j, k)));
        let y = stack.forward(&grid, ctx, &x_loc);
        let dx = stack.backward(&grid, ctx, &dy_loc);
        let mut grads = Vec::new();
        stack.visit_params(&mut |pr| grads.push(pr.grad.matrix().clone()));
        (y.matrix().clone(), dx.matrix().clone(), grads)
    });
    out.results
}

#[test]
fn recompute_is_bitwise_identical_even_when_k_does_not_divide_layers() {
    // 3 layers, checkpoint every 2: segments of 2 + 1 (the trailing
    // segment is shorter). Replayed forwards must reproduce the same bits.
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 2,
        seq: 4,
        hidden: 16,
        heads: 2,
        mlp_ratio: 2,
        layers: 3,
        eps: 1e-5,
    };
    let plain = run_stack(shape, cfg, None);
    let rec = run_stack(shape, cfg, Some(2));
    assert_eq!(rec.len(), plain.len());
    for (r, ((gy, gdx, gg), (wy, wdx, wg))) in rec.iter().zip(&plain).enumerate() {
        assert_bits_eq(gy, wy, &format!("rank {r} forward output"));
        assert_bits_eq(gdx, wdx, &format!("rank {r} input gradient"));
        assert_eq!(gg.len(), wg.len(), "rank {r} gradient count");
        for (p, (g, w)) in gg.iter().zip(wg).enumerate() {
            assert_bits_eq(g, w, &format!("rank {r} grad {p}"));
        }
    }
}

/// Per-rank peak tape residency for a stack run on the shadow backend.
fn peak_activation_bytes(
    shape: GridShape,
    cfg: TransformerConfig,
    recompute_every: Option<usize>,
) -> Vec<u64> {
    let out = Cluster::a100(shape.size()).run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let mut stack = TesseractTransformer::<ShadowTensor>::new_with_recompute(
            ctx,
            &grid,
            cfg,
            true,
            SEED,
            0,
            recompute_every,
        );
        let rows = cfg.rows() / (shape.q * shape.d);
        let x = Arc::new(ShadowTensor::new(rows, cfg.hidden / shape.q));
        let y = stack.forward(&grid, ctx, &x);
        let dy = Arc::new(ShadowTensor::new(y.rows(), y.cols()));
        let _ = stack.backward(&grid, ctx, &dy);
        ctx.flush_compute();
    });
    out.reports.iter().map(|r| r.activation_bytes_peak).collect()
}

#[test]
fn recompute_lowers_the_peak_activation_bytes_on_every_rank() {
    let shape = GridShape::new(2, 1);
    let cfg = TransformerConfig {
        batch: 2,
        seq: 64,
        hidden: 16,
        heads: 2,
        mlp_ratio: 2,
        layers: 4,
        eps: 1e-5,
    };
    let dense = peak_activation_bytes(shape, cfg, None);
    let rec = peak_activation_bytes(shape, cfg, Some(1));
    assert_eq!(rec.len(), dense.len());
    for (r, (&rc, &dn)) in rec.iter().zip(&dense).enumerate() {
        assert!(dn > 0, "dense rank {r} tracked no activations");
        assert!(rc < dn, "rank {r}: recompute peak {rc} must be strictly below dense {dn}");
    }
}

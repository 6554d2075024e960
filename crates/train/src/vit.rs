//! Vision Transformer (paper §4.3): patch embedding → Transformer stack →
//! mean-pool → classifier head, in both Tesseract-parallel and serial
//! (single-GPU baseline) forms, sharing one parameter-id scheme so Figure 7
//! compares identical models.

use std::sync::Arc;

use tesseract_comm::{Payload, RankCtx};
use tesseract_core::module::{Module, ParamRef};
use tesseract_core::{TesseractGrid, TesseractLinear, TesseractTransformer, TransformerConfig};
use tesseract_tensor::nn;
use tesseract_tensor::{DenseTensor, Matrix, TensorLike};

use tesseract_baselines::serial::{SerialLinear, SerialTransformer};

/// Parameter ids reserved for the ViT-specific layers (body layers use
/// `0..layers·PARAM_IDS_PER_LAYER`).
const PID_EMBED: u64 = 1_000_000;
const PID_HEAD: u64 = 1_000_001;

/// ViT hyperparameters: a Transformer body plus patchification and head.
#[derive(Clone, Copy, Debug)]
pub struct ViTConfig {
    pub body: TransformerConfig,
    /// Input features per patch (must divide by q).
    pub patch_dim: usize,
    /// Output classes (must divide by q).
    pub classes: usize,
}

impl ViTConfig {
    pub fn validate_for_grid(&self, q: usize, d: usize) {
        self.body.validate_for_grid(q, d);
        assert_eq!(self.patch_dim % q, 0, "patch_dim must divide by q");
        assert_eq!(self.classes % q, 0, "classes must divide by q");
    }
}

/// Tesseract-parallel ViT.
pub struct TesseractViT<T> {
    pub embed: TesseractLinear<T>,
    pub body: TesseractTransformer<T>,
    pub head: TesseractLinear<T>,
    pub vcfg: ViTConfig,
}

impl<T: TensorLike + Payload> TesseractViT<T> {
    pub fn new(ctx: &RankCtx, grid: &TesseractGrid, vcfg: ViTConfig, seed: u64) -> Self {
        vcfg.validate_for_grid(grid.shape.q, grid.shape.d);
        Self {
            embed: TesseractLinear::new(
                ctx,
                grid,
                vcfg.patch_dim,
                vcfg.body.hidden,
                true,
                seed,
                PID_EMBED,
            ),
            body: TesseractTransformer::new(ctx, grid, vcfg.body, true, seed, 0),
            head: TesseractLinear::new(
                ctx,
                grid,
                vcfg.body.hidden,
                vcfg.classes,
                true,
                seed,
                PID_HEAD,
            ),
            vcfg,
        }
    }

    fn local_samples(&self, grid: &TesseractGrid) -> usize {
        self.vcfg.body.batch / (grid.shape.q * grid.shape.d)
    }
}

impl<T: TensorLike + Payload> Module<T> for TesseractViT<T> {
    fn name(&self) -> &'static str {
        "vit"
    }

    /// `x_local`: A-type block of the `[b·s, patch_dim]` patch features.
    /// Returns this rank's `[b/(dq), classes/q]` logits block.
    fn forward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, x_local: &Arc<T>) -> Arc<T> {
        let s = self.vcfg.body.seq;
        let e = self.embed.forward(grid, ctx, x_local);
        let feats = self.body.forward(grid, ctx, &e);
        // Mean-pool over the sequence of each local sample.
        let samples = self.local_samples(grid);
        let mut pooled = Vec::with_capacity(samples);
        for si in 0..samples {
            let rows = feats.slice_rows(si * s, (si + 1) * s, &mut ctx.meter);
            pooled.push(rows.col_sums(&mut ctx.meter).scale(1.0 / s as f32, &mut ctx.meter));
        }
        let pool = Arc::new(T::concat_rows(&pooled, &mut ctx.meter));
        self.head.forward(grid, ctx, &pool)
    }

    /// Backward from the logits gradient; accumulates all parameter grads
    /// and returns the gradient w.r.t. the local patch-feature block.
    fn backward(&mut self, grid: &TesseractGrid, ctx: &mut RankCtx, d_logits: &Arc<T>) -> Arc<T> {
        let s = self.vcfg.body.seq;
        let d_pool = self.head.backward(grid, ctx, d_logits);
        // Un-pool: every sequence position receives 1/s of the pooled grad.
        let samples = self.local_samples(grid);
        let mut expanded = Vec::with_capacity(samples * s);
        for si in 0..samples {
            let row =
                d_pool.slice_rows(si, si + 1, &mut ctx.meter).scale(1.0 / s as f32, &mut ctx.meter);
            for _ in 0..s {
                expanded.push(row.clone());
            }
        }
        let d_feats = Arc::new(T::concat_rows(&expanded, &mut ctx.meter));
        let d_embed = self.body.backward(grid, ctx, &d_feats);
        self.embed.backward(grid, ctx, &d_embed)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.embed.visit_params(f);
        self.body.visit_params(f);
        self.head.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.body.zero_grad();
        self.head.zero_grad();
    }
}

/// Serial single-GPU ViT with identical parameters.
pub struct SerialViT {
    pub embed: SerialLinear,
    pub body: SerialTransformer,
    pub head: SerialLinear,
    pub vcfg: ViTConfig,
}

impl SerialViT {
    pub fn new(vcfg: ViTConfig, seed: u64) -> Self {
        Self {
            embed: SerialLinear::new(vcfg.patch_dim, vcfg.body.hidden, true, seed, PID_EMBED),
            body: SerialTransformer::new(vcfg.body, true, seed, 0),
            head: SerialLinear::new(vcfg.body.hidden, vcfg.classes, true, seed, PID_HEAD),
            vcfg,
        }
    }

    /// `x`: `[b·s, patch_dim]` → `[b, classes]` logits.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let s = self.vcfg.body.seq;
        let e = self.embed.forward(x);
        let feats = self.body.forward(&e);
        let b = feats.rows() / s;
        let mut pool = Matrix::zeros(b, feats.cols());
        for si in 0..b {
            for r in si * s..(si + 1) * s {
                for (acc, &v) in pool.row_mut(si).iter_mut().zip(feats.row(r).iter()) {
                    *acc += v / s as f32;
                }
            }
        }
        self.head_forward(&pool)
    }

    fn head_forward(&mut self, pool: &Matrix) -> Matrix {
        self.head.forward(pool)
    }

    pub fn backward(&mut self, d_logits: &Matrix) {
        let s = self.vcfg.body.seq;
        let d_pool = self.head.backward(d_logits);
        let b = d_pool.rows();
        let mut d_feats = Matrix::zeros(b * s, d_pool.cols());
        for si in 0..b {
            for r in si * s..(si + 1) * s {
                for (dst, &v) in d_feats.row_mut(r).iter_mut().zip(d_pool.row(si).iter()) {
                    *dst = v / s as f32;
                }
            }
        }
        let d_embed = self.body.backward(&d_feats);
        let _ = self.embed.backward(&d_embed);
    }

    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.body.zero_grad();
        self.head.zero_grad();
    }
}

/// Distributed softmax cross-entropy over column-split logits.
///
/// All-gathers the `[b_local, classes/q]` blocks along the grid row (the
/// class dimension is small, so this is cheap — the same strategy
/// Megatron's vocab-parallel loss uses), computes loss and gradient on the
/// full local rows, and returns this rank's gradient block scaled by
/// `1/global_batch` so it matches the serial mean-reduction.
///
/// Returns `(sum of -log p over local samples, local grad block,
/// argmax-correct count over local samples)`.
pub fn distributed_cross_entropy(
    grid: &TesseractGrid,
    ctx: &mut RankCtx,
    logits_local: &Arc<DenseTensor>,
    labels_local: &[usize],
    global_batch: usize,
) -> (f32, DenseTensor, usize) {
    let q = grid.shape.q;
    // Zero-copy gather: each rank's logits block is deposited once and read
    // through `Arc`s; only the column-concat below materializes new data.
    let parts = grid.row.all_gather(ctx, Arc::clone(logits_local));
    let mats: Vec<Matrix> = parts.iter().map(|p| p.matrix().clone()).collect();
    let full = Matrix::concat_cols(&mats);
    assert_eq!(full.rows(), labels_local.len(), "labels must cover local samples");

    let probs = nn::softmax_rows(&full);
    let mut loss_sum = 0.0f32;
    let mut grad_full = probs.clone();
    for (r, &label) in labels_local.iter().enumerate() {
        loss_sum -= probs[(r, label)].max(1e-12).ln();
        grad_full[(r, label)] -= 1.0;
    }
    grad_full.scale_assign(1.0 / global_batch as f32);
    let correct = nn::count_correct(&full, labels_local);

    let cols = full.cols() / q;
    let j = grid.j();
    let grad_local = grad_full.slice_cols(j * cols, (j + 1) * cols);
    (loss_sum, DenseTensor::from_matrix(grad_local), correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_core::partition::{a_block, combine_c};
    use tesseract_core::GridShape;
    use tesseract_tensor::{assert_slices_close, Xoshiro256StarStar};

    fn vcfg() -> ViTConfig {
        ViTConfig {
            body: TransformerConfig {
                batch: 4,
                seq: 3,
                hidden: 8,
                heads: 2,
                mlp_ratio: 2,
                layers: 1,
                eps: 1e-5,
            },
            patch_dim: 4,
            classes: 6,
        }
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn tesseract_vit_logits_match_serial() {
        let v = vcfg();
        let x = random(v.body.rows(), v.patch_dim, 1);
        let mut serial = SerialViT::new(v, 5);
        let y_ser = serial.forward(&x);
        for shape in [GridShape::new(1, 1), GridShape::new(2, 1), GridShape::new(2, 2)] {
            let out = Cluster::a100(shape.size()).run(|ctx| {
                let grid = TesseractGrid::new(ctx, shape, 0);
                let (i, j, k) = grid.coords;
                let mut vit = TesseractViT::<DenseTensor>::new(ctx, &grid, v, 5);
                let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
                vit.forward(&grid, ctx, &x_loc).matrix().clone()
            });
            let got = combine_c(&out.results, shape);
            assert_slices_close(got.data(), y_ser.data(), 5e-4);
        }
    }

    #[test]
    fn distributed_ce_matches_serial_loss_and_grad() {
        let v = vcfg();
        let logits = random(v.body.batch, v.classes, 9);
        let labels = vec![0usize, 3, 5, 2];
        let (loss_ser, grad_ser) = nn::softmax_cross_entropy(&logits, &labels);

        let shape = GridShape::new(2, 2);
        let labels_for_test = labels.clone();
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            // Logits are A-type: rows split by h = i + kq, cols by j.
            let loc = Arc::new(DenseTensor::from_matrix(a_block(&logits, shape, i, j, k)));
            let h = grid.a_row_block();
            let per = v.body.batch / (shape.q * shape.d);
            let my_labels = &labels_for_test[h * per..(h + 1) * per];
            let (loss_sum, grad, correct) =
                distributed_cross_entropy(&grid, ctx, &loc, my_labels, v.body.batch);
            (loss_sum, grad.into_matrix(), correct)
        });
        // Sum of local loss sums over one row representative (j = 0) per
        // band equals batch · serial mean loss.
        let mut loss_total = 0.0;
        let mut correct_total = 0;
        for off in 0..shape.size() {
            let (i, j, k) = shape.coords_of(off);
            let _ = i;
            if j == 0 {
                loss_total += out.results[off].0;
                correct_total += out.results[off].2;
                let _ = k;
            }
        }
        assert!((loss_total / v.body.batch as f32 - loss_ser).abs() < 1e-5);
        assert!(correct_total <= v.body.batch);
        // Gradients assemble to the serial gradient.
        let grads: Vec<Matrix> = out.results.iter().map(|(_, g, _)| g.clone()).collect();
        let grad_full = combine_c(&grads, shape);
        assert_slices_close(grad_full.data(), grad_ser.data(), 1e-5);
    }

    #[test]
    fn vit_backward_produces_depth_synced_grads() {
        let v = vcfg();
        let x = random(v.body.rows(), v.patch_dim, 11);
        let dlogits = random(v.body.batch, v.classes, 12);
        let shape = GridShape::new(2, 2);
        let out = Cluster::a100(shape.size()).run(|ctx| {
            let grid = TesseractGrid::new(ctx, shape, 0);
            let (i, j, k) = grid.coords;
            let mut vit = TesseractViT::<DenseTensor>::new(ctx, &grid, v, 5);
            let x_loc = Arc::new(DenseTensor::from_matrix(a_block(&x, shape, i, j, k)));
            let _ = vit.forward(&grid, ctx, &x_loc);
            let dl = Arc::new(DenseTensor::from_matrix(a_block(&dlogits, shape, i, j, k)));
            vit.backward(&grid, ctx, &dl);
            vit.embed.weight_grad().clone().into_matrix()
        });
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    out.results[shape.offset_of(i, j, 0)],
                    out.results[shape.offset_of(i, j, 1)],
                    "embed grads must be depth-synchronized"
                );
            }
        }
    }
}

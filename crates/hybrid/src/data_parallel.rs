//! Data parallelism on top of Tesseract (paper §3.4).
//!
//! Each data-parallel replica runs the same model on a disjoint slice of the
//! global batch; after backward, gradients are all-reduced across replicas
//! and averaged, exactly like PyTorch DDP over NCCL.

use tesseract_comm::{CommGroup, Payload, RankCtx};
use tesseract_core::module::{Module, ParamRef};
use tesseract_tensor::TensorLike;

/// One rank's handle on its data-parallel gradient-sync group (ranks that
/// hold the same model shard in different replicas).
pub struct DataParallel {
    pub group: CommGroup,
    pub replicas: usize,
}

impl DataParallel {
    pub fn new(ctx: &RankCtx, ranks: Vec<usize>) -> Self {
        let group = ctx.group("dp.grad", ranks);
        Self { replicas: group.size(), group }
    }

    /// All-reduces and averages every gradient the model exposes. Call once
    /// per step, after backward and before the optimizer.
    pub fn sync_gradients<T: TensorLike + Payload, G>(
        &self,
        ctx: &mut RankCtx,
        model: &mut dyn Module<T, G>,
    ) {
        self.sync_gradient_params::<T>(ctx, |f| model.visit_params(f));
    }

    /// Closure-based entry point for parameter sets that are not a
    /// [`Module`] (unit tests, ad-hoc tensors).
    pub fn sync_gradient_params<T: TensorLike + Payload>(
        &self,
        ctx: &mut RankCtx,
        visit: impl FnOnce(&mut dyn FnMut(ParamRef<'_, T>)),
    ) {
        let inv = 1.0 / self.replicas as f32;
        let group = &self.group;
        // SPMD: replicas expose parameters in identical order, so the
        // per-parameter all-reduces line up. Each gradient is moved into the
        // reduction (a placeholder takes its slot) so no rank clones its own
        // contribution; the combined sum comes back shared.
        let mut sync = |pr: ParamRef<'_, T>| {
            let g = std::mem::replace(pr.grad, T::zeros(1, 1));
            let summed = group.all_reduce(ctx, g);
            *pr.grad = summed.scale(inv, &mut ctx.meter);
        };
        visit(&mut sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesseract_comm::Cluster;
    use tesseract_tensor::{DenseTensor, Matrix};

    #[test]
    fn gradients_are_averaged_across_replicas() {
        let out = Cluster::a100(2).run(|ctx| {
            let dp = DataParallel::new(ctx, vec![0, 1]);
            let mut w = DenseTensor::from_matrix(Matrix::full(2, 2, 0.0));
            let mut g = DenseTensor::from_matrix(Matrix::full(2, 2, (ctx.rank as f32 + 1.0) * 2.0));
            dp.sync_gradient_params::<DenseTensor>(ctx, |f| {
                f(ParamRef { weight: &mut w, grad: &mut g });
            });
            g.matrix()[(0, 0)]
        });
        // (2 + 4) / 2 = 3 on both replicas.
        assert_eq!(out.results, vec![3.0, 3.0]);
    }

    #[test]
    fn sync_handles_multiple_params_in_order() {
        let out = Cluster::a100(2).run(|ctx| {
            let dp = DataParallel::new(ctx, vec![0, 1]);
            let mut w1 = DenseTensor::from_matrix(Matrix::zeros(1, 1));
            let mut g1 = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            let mut w2 = DenseTensor::from_matrix(Matrix::zeros(1, 2));
            let mut g2 = DenseTensor::from_matrix(Matrix::full(1, 2, 10.0 * ctx.rank as f32));
            dp.sync_gradient_params::<DenseTensor>(ctx, |f| {
                f(ParamRef { weight: &mut w1, grad: &mut g1 });
                f(ParamRef { weight: &mut w2, grad: &mut g2 });
            });
            (g1.matrix()[(0, 0)], g2.matrix()[(0, 1)])
        });
        assert_eq!(out.results, vec![(0.5, 5.0), (0.5, 5.0)]);
    }
}

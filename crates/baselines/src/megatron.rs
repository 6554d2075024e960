//! Megatron-LM 1-D tensor parallelism (paper §2.5, Figure 2).
//!
//! Activations are **replicated** on all `p` ranks; weights are split along
//! one dimension. An MLP/attention block pairs a column-parallel linear
//! (no forward communication, all-reduce of `dX` in backward — Megatron's
//! `f` operator) with a row-parallel linear (all-reduce of `Y` in forward,
//! no backward communication — the `g` operator), giving the paper's
//! per-layer communication `2·β·(p−1)·b·s·h/p` in each direction.
//!
//! Weight blocks are carved from the same seeded global Xavier matrices as
//! the serial reference and the Tesseract layers, so outputs are comparable
//! across schemes.
//!
//! Every layer implements [`Module<T, MegatronWorld>`] — the same trait the
//! Tesseract layers implement over [`tesseract_core::TesseractGrid`] — so
//! optimizers and harnesses that are generic over the world type drive both
//! schemes through one interface.

use std::sync::Arc;

use tesseract_comm::{CommGroup, Mesh, MeshAxis, Payload, RankCtx};
use tesseract_tensor::TensorLike;

use tesseract_core::module::{Module, ParamRef, Sequential, Tape};
use tesseract_core::TransformerConfig;

/// How a weight is split across the 1-D group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// `W = [W₁ | W₂ | …]`: output features split; input replicated.
    Column,
    /// `W = [W₁; W₂; …]`: input features split; output all-reduced.
    Row,
}

/// One rank's handle on the 1-D tensor-parallel world.
pub struct MegatronWorld {
    pub group: CommGroup,
    pub p: usize,
    pub index: usize,
}

impl MegatronWorld {
    /// Builds the 1-D group over `ranks` (must include `ctx.rank`).
    pub fn new(ctx: &RankCtx, ranks: Vec<usize>) -> Self {
        let group = ctx.group("megatron.tp", ranks);
        Self { p: group.size(), index: group.my_index(), group }
    }

    /// The canonical 1-D layout as a named-axis mesh: `p` contiguous ranks
    /// from `base` on a single `"tp"` axis.
    pub fn tp_mesh(p: usize, base: usize) -> Mesh {
        Mesh::new(base, vec![MeshAxis::new("tp", p)])
    }

    /// Builds the world as the `"tp"` fiber of a 1-axis mesh (the whole
    /// mesh) — the mesh-layout counterpart of [`MegatronWorld::new`].
    pub fn from_mesh(ctx: &RankCtx, mesh: &Mesh) -> Self {
        let group = mesh.fiber_group(ctx, "megatron.tp", "tp");
        Self { p: group.size(), index: group.my_index(), group }
    }
}

/// A 1-D tensor-parallel linear layer.
pub struct MegatronLinear<T> {
    pub split: Split,
    pub in_features: usize,
    pub out_features: usize,
    w: T,
    dw: T,
    bias: Option<T>,
    dbias: Option<T>,
    tape: Tape<Arc<T>>,
}

impl<T: TensorLike + Payload> MegatronLinear<T> {
    pub fn new(
        world: &MegatronWorld,
        split: Split,
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self::new_fused(world, split, in_features, &[(out_features, param_id)], with_bias, seed)
    }

    /// Fused column-parallel projection over several independent global
    /// weights (used for QKV so each rank owns whole heads).
    pub fn new_fused(
        world: &MegatronWorld,
        split: Split,
        in_features: usize,
        outs: &[(usize, u64)],
        with_bias: bool,
        seed: u64,
    ) -> Self {
        let p = world.p;
        let r = world.index;
        let mut scratch = tesseract_tensor::Meter::new();
        let mut blocks = Vec::with_capacity(outs.len());
        for &(out_i, pid) in outs {
            match split {
                Split::Column => {
                    assert_eq!(out_i % p, 0, "column split needs p | out");
                    let w = out_i / p;
                    blocks.push(T::init_xavier_block(
                        in_features,
                        out_i,
                        0,
                        r * w,
                        in_features,
                        w,
                        seed,
                        pid,
                    ));
                }
                Split::Row => {
                    assert_eq!(in_features % p, 0, "row split needs p | in");
                    let h = in_features / p;
                    blocks.push(T::init_xavier_block(
                        in_features,
                        out_i,
                        r * h,
                        0,
                        h,
                        out_i,
                        seed,
                        pid,
                    ));
                }
            }
        }
        let w = T::concat_cols(&blocks, &mut scratch);
        let out_features: usize = outs.iter().map(|&(o, _)| o).sum();
        let bias_cols = match split {
            Split::Column => out_features / p,
            Split::Row => out_features,
        };
        let (bias, dbias) = if with_bias {
            (Some(T::zeros(1, bias_cols)), Some(T::zeros(1, bias_cols)))
        } else {
            (None, None)
        };
        Self {
            split,
            in_features,
            out_features,
            dw: T::zeros(w.rows(), w.cols()),
            w,
            bias,
            dbias,
            tape: Tape::new(),
        }
    }

    pub fn weight(&self) -> &T {
        &self.w
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronLinear<T> {
    /// Column-parallel: `Y_local = X·W_local (+ b_local)`, no communication.
    /// Row-parallel: `Y = all_reduce(X_local·W_local) (+ b)`.
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.tape.push(Arc::clone(x));
        let y = x.matmul(&self.w, &mut ctx.meter);
        let mut y = match self.split {
            // The freshly computed partial is consumed by the in-place
            // reduction; every rank receives the shared sum uncopied.
            Split::Row => world.group.all_reduce(ctx, y),
            Split::Column => Arc::new(y),
        };
        if let Some(b) = &self.bias {
            y = Arc::new(y.add_rowvec(b, &mut ctx.meter));
        }
        y
    }

    /// Column-parallel: `dX = all_reduce(dY_local·W_localᵀ)`.
    /// Row-parallel: `dX_local = dY·W_localᵀ`, no communication (dY is
    /// replicated after the forward all-reduce).
    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let x = self.tape.pop("MegatronLinear");
        if let Some(db) = self.dbias.as_mut() {
            let local = dy.col_sums(&mut ctx.meter);
            db.add_assign(&local, &mut ctx.meter);
        }
        let dw = x.matmul_tn(dy, &mut ctx.meter);
        self.dw.add_assign(&dw, &mut ctx.meter);
        let dx = dy.matmul_nt(&self.w, &mut ctx.meter);
        match self.split {
            Split::Column => world.group.all_reduce(ctx, dx),
            Split::Row => Arc::new(dx),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        f(ParamRef { weight: &mut self.w, grad: &mut self.dw });
        if let (Some(b), Some(db)) = (self.bias.as_mut(), self.dbias.as_mut()) {
            f(ParamRef { weight: b, grad: db });
        }
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronLinear");
        self.dw = T::zeros(self.dw.rows(), self.dw.cols());
        if let Some(db) = self.dbias.as_mut() {
            *db = T::zeros(db.rows(), db.cols());
        }
    }
}

/// Megatron MLP: column-parallel `[h, 4h]` → GELU → row-parallel `[4h, h]`.
pub struct MegatronMlp<T> {
    pub fc1: MegatronLinear<T>,
    pub fc2: MegatronLinear<T>,
    tape: Tape<Arc<T>>,
}

impl<T: TensorLike + Payload> MegatronMlp<T> {
    pub fn new(
        world: &MegatronWorld,
        hidden: usize,
        mlp_hidden: usize,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self {
            fc1: MegatronLinear::new(
                world,
                Split::Column,
                hidden,
                mlp_hidden,
                with_bias,
                seed,
                param_id,
            ),
            fc2: MegatronLinear::new(
                world,
                Split::Row,
                mlp_hidden,
                hidden,
                with_bias,
                seed,
                param_id + 1,
            ),
            tape: Tape::new(),
        }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronMlp<T> {
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let pre = self.fc1.forward(world, ctx, x);
        let act = Arc::new(pre.gelu(&mut ctx.meter));
        self.tape.push(pre);
        self.fc2.forward(world, ctx, &act)
    }

    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let d_act = self.fc2.backward(world, ctx, dy);
        let pre = self.tape.pop("MegatronMlp");
        let d_pre = Arc::new(pre.gelu_backward(&d_act, &mut ctx.meter));
        self.fc1.backward(world, ctx, &d_pre)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronMlp");
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }
}

struct HeadCache<T> {
    q: T,
    k: T,
    v: T,
    attn: T,
}

/// Megatron multi-head attention: column-parallel fused QKV (each rank owns
/// `n/p` heads over the full batch), local attention, row-parallel output
/// projection.
pub struct MegatronAttention<T> {
    pub wqkv: MegatronLinear<T>,
    pub wo: MegatronLinear<T>,
    cfg: TransformerConfig,
    tape: Tape<Vec<HeadCache<T>>>,
}

impl<T: TensorLike + Payload> MegatronAttention<T> {
    pub fn new(
        world: &MegatronWorld,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        assert_eq!(cfg.heads % world.p, 0, "megatron needs p | heads");
        let h = cfg.hidden;
        let wqkv = MegatronLinear::new_fused(
            world,
            Split::Column,
            h,
            &[(h, param_id), (h, param_id + 1), (h, param_id + 2)],
            with_bias,
            seed,
        );
        let wo = MegatronLinear::new(world, Split::Row, h, h, with_bias, seed, param_id + 3);
        Self { wqkv, wo, cfg, tape: Tape::new() }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronAttention<T> {
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let (s, hd) = (self.cfg.seq, self.cfg.head_dim());
        let b = x.rows() / s;
        let heads_local = self.cfg.heads / world.p;
        let local_h = self.cfg.hidden / world.p;
        let qkv = self.wqkv.forward(world, ctx, x);
        let q_all = qkv.slice_cols(0, local_h, &mut ctx.meter);
        let k_all = qkv.slice_cols(local_h, 2 * local_h, &mut ctx.meter);
        let v_all = qkv.slice_cols(2 * local_h, 3 * local_h, &mut ctx.meter);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut caches = Vec::with_capacity(b * heads_local);
        let mut sample_outs = Vec::with_capacity(b);
        for si in 0..b {
            let (r0, r1) = (si * s, (si + 1) * s);
            let qs = q_all.slice_rows(r0, r1, &mut ctx.meter);
            let ks = k_all.slice_rows(r0, r1, &mut ctx.meter);
            let vs = v_all.slice_rows(r0, r1, &mut ctx.meter);
            let mut head_outs = Vec::with_capacity(heads_local);
            for hi in 0..heads_local {
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let qh = qs.slice_cols(c0, c1, &mut ctx.meter);
                let kh = ks.slice_cols(c0, c1, &mut ctx.meter);
                let vh = vs.slice_cols(c0, c1, &mut ctx.meter);
                let scores = qh.matmul_nt(&kh, &mut ctx.meter).scale(scale, &mut ctx.meter);
                let attn = scores.softmax_rows(&mut ctx.meter);
                head_outs.push(attn.matmul(&vh, &mut ctx.meter));
                caches.push(HeadCache { q: qh, k: kh, v: vh, attn });
            }
            sample_outs.push(T::concat_cols(&head_outs, &mut ctx.meter));
        }
        self.tape.push(caches);
        let merged = Arc::new(T::concat_rows(&sample_outs, &mut ctx.meter));
        self.wo.forward(world, ctx, &merged)
    }

    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let (s, hd) = (self.cfg.seq, self.cfg.head_dim());
        let heads_local = self.cfg.heads / world.p;
        let scale = 1.0 / (hd as f32).sqrt();
        let caches = self.tape.pop("MegatronAttention");
        let d_merged = self.wo.backward(world, ctx, dy);
        let b = d_merged.rows() / s;
        let mut dq_rows = Vec::with_capacity(b);
        let mut dk_rows = Vec::with_capacity(b);
        let mut dv_rows = Vec::with_capacity(b);
        for si in 0..b {
            let (r0, r1) = (si * s, (si + 1) * s);
            let d_sample = d_merged.slice_rows(r0, r1, &mut ctx.meter);
            let mut dq_heads = Vec::with_capacity(heads_local);
            let mut dk_heads = Vec::with_capacity(heads_local);
            let mut dv_heads = Vec::with_capacity(heads_local);
            for hi in 0..heads_local {
                let cache = &caches[si * heads_local + hi];
                let (c0, c1) = (hi * hd, (hi + 1) * hd);
                let d_out = d_sample.slice_cols(c0, c1, &mut ctx.meter);
                let d_attn = d_out.matmul_nt(&cache.v, &mut ctx.meter);
                let dv = cache.attn.matmul_tn(&d_out, &mut ctx.meter);
                let d_scores = cache
                    .attn
                    .softmax_rows_backward(&d_attn, &mut ctx.meter)
                    .scale(scale, &mut ctx.meter);
                dq_heads.push(d_scores.matmul(&cache.k, &mut ctx.meter));
                dk_heads.push(d_scores.matmul_tn(&cache.q, &mut ctx.meter));
                dv_heads.push(dv);
            }
            dq_rows.push(T::concat_cols(&dq_heads, &mut ctx.meter));
            dk_rows.push(T::concat_cols(&dk_heads, &mut ctx.meter));
            dv_rows.push(T::concat_cols(&dv_heads, &mut ctx.meter));
        }
        let d_qkv = Arc::new(T::concat_cols(
            &[
                T::concat_rows(&dq_rows, &mut ctx.meter),
                T::concat_rows(&dk_rows, &mut ctx.meter),
                T::concat_rows(&dv_rows, &mut ctx.meter),
            ],
            &mut ctx.meter,
        ));
        self.wqkv.backward(world, ctx, &d_qkv)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.wqkv.visit_params(f);
        self.wo.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronAttention");
        self.wqkv.zero_grad();
        self.wo.zero_grad();
    }
}

/// Serial layer norm on the replicated activation (Megatron keeps layer
/// norms unsharded), built from TensorLike primitives so the shadow backend
/// can run it too.
pub struct MegatronLayerNorm<T> {
    pub eps: f32,
    hidden: usize,
    tape: Tape<(Arc<T>, T)>,
}

impl<T: TensorLike + Payload> MegatronLayerNorm<T> {
    pub fn new(hidden: usize, eps: f32) -> Self {
        Self { eps, hidden, tape: Tape::new() }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronLayerNorm<T> {
    /// The norm is rank-local (activations are replicated), so the world is
    /// unused — it is only here to satisfy the `Module` signature.
    fn forward(&mut self, _world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let n = self.hidden as f32;
        assert_eq!(x.cols(), self.hidden);
        let s1 = x.row_sums(&mut ctx.meter);
        let s2 = x.row_sums_of_squares(&mut ctx.meter);
        let mean = s1.scale(1.0 / n, &mut ctx.meter);
        let mean_sq = mean.hadamard(&mean, &mut ctx.meter);
        let var = s2.scale(1.0 / n, &mut ctx.meter).sub(&mean_sq, &mut ctx.meter);
        let inv_std = var.rsqrt_add(self.eps, &mut ctx.meter);
        let xhat =
            Arc::new(x.sub_colvec(&mean, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter));
        self.tape.push((Arc::clone(&xhat), inv_std));
        xhat
    }

    fn backward(&mut self, _world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let (xhat, inv_std) = self.tape.pop("MegatronLayerNorm");
        let n = self.hidden as f32;
        let t1 = xhat.hadamard(dy, &mut ctx.meter).row_sums(&mut ctx.meter);
        let t2 = dy.row_sums(&mut ctx.meter);
        let correction = xhat
            .mul_colvec(&t1, &mut ctx.meter)
            .add_colvec(&t2, &mut ctx.meter)
            .scale(1.0 / n, &mut ctx.meter);
        Arc::new(dy.sub(&correction, &mut ctx.meter).mul_colvec(&inv_std, &mut ctx.meter))
    }

    fn zero_grad(&mut self) {
        self.tape.debug_assert_balanced("MegatronLayerNorm");
    }
}

/// One Megatron Transformer layer (pre-norm residual blocks).
pub struct MegatronTransformerLayer<T> {
    pub ln1: MegatronLayerNorm<T>,
    pub attn: MegatronAttention<T>,
    pub ln2: MegatronLayerNorm<T>,
    pub mlp: MegatronMlp<T>,
}

impl<T: TensorLike + Payload> MegatronTransformerLayer<T> {
    pub fn new(
        world: &MegatronWorld,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        param_id: u64,
    ) -> Self {
        Self {
            ln1: MegatronLayerNorm::new(cfg.hidden, cfg.eps),
            attn: MegatronAttention::new(world, cfg, with_bias, seed, param_id),
            ln2: MegatronLayerNorm::new(cfg.hidden, cfg.eps),
            mlp: MegatronMlp::new(
                world,
                cfg.hidden,
                cfg.mlp_hidden(),
                with_bias,
                seed,
                param_id + 4,
            ),
        }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronTransformerLayer<T> {
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        let a = self.ln1.forward(world, ctx, x);
        let b = self.attn.forward(world, ctx, &a);
        let x1 = Arc::new(x.add(&b, &mut ctx.meter));
        let c = self.ln2.forward(world, ctx, &x1);
        let d = self.mlp.forward(world, ctx, &c);
        Arc::new(x1.add(&d, &mut ctx.meter))
    }

    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        let d_mlp_in = self.mlp.backward(world, ctx, dy);
        let d_x1_from_ln2 = self.ln2.backward(world, ctx, &d_mlp_in);
        let d_x1 = Arc::new(dy.add(&d_x1_from_ln2, &mut ctx.meter));
        let d_attn_in = self.attn.backward(world, ctx, &d_x1);
        let d_x_from_ln1 = self.ln1.backward(world, ctx, &d_attn_in);
        Arc::new(d_x1.add(&d_x_from_ln1, &mut ctx.meter))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.attn.visit_params(f);
        self.mlp.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.ln1.zero_grad();
        self.attn.zero_grad();
        self.ln2.zero_grad();
        self.mlp.zero_grad();
    }
}

/// A stack of Megatron Transformer layers, composed as a [`Sequential`]
/// over the 1-D world.
pub struct MegatronTransformer<T> {
    pub layers: Sequential<T, MegatronWorld>,
    pub cfg: TransformerConfig,
}

impl<T: TensorLike + Payload> MegatronTransformer<T> {
    pub fn new(
        world: &MegatronWorld,
        cfg: TransformerConfig,
        with_bias: bool,
        seed: u64,
        base_param_id: u64,
    ) -> Self {
        let mut layers = Sequential::new();
        for l in 0..cfg.layers {
            layers.push_boxed(Box::new(MegatronTransformerLayer::new(
                world,
                cfg,
                with_bias,
                seed,
                base_param_id + l as u64 * tesseract_core::layers::PARAM_IDS_PER_LAYER,
            )));
        }
        Self { layers, cfg }
    }
}

impl<T: TensorLike + Payload> Module<T, MegatronWorld> for MegatronTransformer<T> {
    fn forward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, x: &Arc<T>) -> Arc<T> {
        self.layers.forward(world, ctx, x)
    }

    fn backward(&mut self, world: &MegatronWorld, ctx: &mut RankCtx, dy: &Arc<T>) -> Arc<T> {
        self.layers.backward(world, ctx, dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_, T>)) {
        self.layers.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.layers.zero_grad();
    }
}

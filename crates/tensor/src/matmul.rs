//! Matrix-multiplication kernels.
//!
//! Three orientations are needed by the distributed algorithms (the paper's
//! §3.1 defines Tesseract variants for `C = A·B`, `C = A·Bᵀ`, `C = Aᵀ·B`;
//! the latter two implement the backward rules `A' = C'·Bᵀ`, `B' = Aᵀ·C'`).
//!
//! Each orientation has two implementations sharing one numerical contract:
//!
//! * a **serial** triple-loop kernel (`*_serial`) used below the
//!   [`planned_path`] size threshold, where blocking overhead would dominate;
//! * a **cache-blocked, packed, multi-threaded** kernel (`*_blocked`) used
//!   above it: A and B are repacked into `MR`/`NR`-wide micro-panels sized
//!   to L1/L2 ([`BLOCK_M`]/[`BLOCK_K`]/[`BLOCK_N`]), a register-tiled
//!   micro-kernel accumulates an `MR×NR` block of C, and row-blocks of C are
//!   distributed over the in-tree [`pool::ThreadPool`].
//!
//! The blocked path is itself **runtime-dispatched** over a family of
//! [`MicroKernel`] backends sharing one packing implementation (packing is
//! parameterized by the backend's `MR`/`NR`):
//!
//! * [`MicroKernel::Scalar`] — `MR×NR = 4×8`, plain mul+add, the portable
//!   reference on every architecture;
//! * [`MicroKernel::Avx2`] — `MR×NR = 6×16`, `_mm256` FMA intrinsics behind
//!   `#[target_feature(enable = "avx2,fma")]`, selected only when
//!   `is_x86_feature_detected!` proves the host supports it.
//!
//! Remainder tiles (a row panel shorter than `MR` or a column panel
//! narrower than `NR`) run plain mul+add on every backend. On AVX2 that is
//! a clipped `6×16` tile of `_mm256_mul_ps` then `_mm256_add_ps`: two
//! roundings per step, exactly the scalar `acc += a·b`, so every element a
//! remainder tile computes is bitwise equal to the `*_serial` loops.
//! `BLOCK_M = 64` is not a multiple of 6, so rows 60–63 of every row block
//! take this path.
//!
//! **Scratch reuse.** Apart from C, the blocked path allocates nothing per
//! call: packed B (built by the submitting thread) and each task's packed A
//! panels live in thread-local buffers that every later GEMM on the same
//! thread reuses. A thread keeps at most the largest packed B it has built
//! (`⌈k/BLOCK_K⌉·⌈n/NR⌉·min(k, BLOCK_K)·NR` f32) plus one A block of at
//! most `⌈BLOCK_M/MR⌉·MR·BLOCK_K` f32 (66 KiB on AVX2). The buffers are
//! never cleared: packing writes every value a micro-kernel reads, and
//! re-zeroes the padded lanes (B's column remainder, A's row remainder) on
//! every pack, so stale contents never reach a result. There is no knob:
//! reuse is unconditional.
//!
//! The backend is resolved **once per process** ([`active_kernel`], a
//! `OnceLock`): auto-detection by default, or forced with
//! `TESSERACT_KERNEL=scalar|avx2` for testing and benchmarking. Dispatch
//! therefore costs nothing in the hot loop.
//!
//! **Determinism contract** (DESIGN.md §5), now **per kernel path**: within
//! a fixed backend, every element of C is computed by exactly one task as
//! `((c + a_i0·b_0j) + a_i1·b_1j) + …` in strictly ascending k order —
//! blocking tiles k but visits tiles in order, packing copies values
//! bit-exactly, which micro-tile (full or edge) computes an element depends
//! only on the shape and the backend's tile constants, never on thread
//! count. A fixed backend therefore produces **bitwise-identical** output
//! at any thread count, so the pool size can never change a result. The
//! scalar backend is additionally bitwise-identical to the `*_serial`
//! triple loops. *Across* backends results agree only within floating-point
//! tolerance: AVX2 full tiles use fused multiply-add (one rounding per
//! `a·b + c` instead of two), so their k-chains round differently than
//! scalar mul+add; AVX2 remainder tiles do not.

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread::LocalKey;

use crate::matrix::Matrix;
use crate::pool::{self, ThreadPool};

/// Rows of C per parallel task and per A-panel repack (L2-sized with
/// `BLOCK_K`: 64·256 f32 = 64 KiB).
pub const BLOCK_M: usize = 64;
/// Depth (k) tile; one packed B micro-panel stream is `BLOCK_K·NR` f32
/// (8 KiB scalar, 16 KiB AVX2), resident in L1 across a whole row of
/// micro-tiles.
pub const BLOCK_K: usize = 256;
/// Column (n) tile; the packed B block `BLOCK_K·BLOCK_N` f32 = 256 KiB
/// stays L2-resident while a task sweeps its row panel.
pub const BLOCK_N: usize = 256;

/// Scalar micro-tile rows: C accumulators held in registers are `MR×NR`
/// f32 (4×8 = 8 SSE vectors, the x86-64 baseline budget).
const SCALAR_MR: usize = 4;
/// Scalar micro-tile columns (two 4-lane f32 vectors per accumulator row).
const SCALAR_NR: usize = 8;

/// AVX2 micro-tile rows: 6×16 f32 = 12 ymm accumulators, leaving registers
/// for two B loads and the A broadcast (the BLIS Haswell shape).
const AVX2_MR: usize = 6;
/// AVX2 micro-tile columns (two 8-lane ymm vectors per accumulator row).
const AVX2_NR: usize = 16;

/// `m·k·n` below which the serial kernel is dispatched (≈ one 64³ GEMM);
/// under this size the pack/tile bookkeeping costs more than it saves.
pub const BLOCKED_MIN_ELEMS: usize = 64 * 64 * 64;

/// Which implementation [`planned_path`] selects for a GEMM shape. The
/// [`crate::Meter`] records a count per variant so experiments can audit
/// what actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Simple triple-loop kernel, single thread.
    Serial,
    /// Cache-blocked packed kernel, row-blocks parallelized over the pool.
    BlockedParallel,
}

/// Register micro-kernel backend of the blocked path. Resolved once per
/// process by [`active_kernel`]; tests and benches can force one per call
/// via [`matmul_blocked_with`] and friends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroKernel {
    /// Portable `4×8` mul+add tile — bitwise-identical to the `*_serial`
    /// triple loops, available on every architecture.
    Scalar,
    /// `6×16` AVX2+FMA tile (`_mm256_fmadd_ps`); requires runtime-detected
    /// `avx2` and `fma` CPU features.
    Avx2,
}

impl MicroKernel {
    /// Micro-tile rows of this backend.
    pub const fn mr(self) -> usize {
        match self {
            MicroKernel::Scalar => SCALAR_MR,
            MicroKernel::Avx2 => AVX2_MR,
        }
    }

    /// Micro-tile columns of this backend.
    pub const fn nr(self) -> usize {
        match self {
            MicroKernel::Scalar => SCALAR_NR,
            MicroKernel::Avx2 => AVX2_NR,
        }
    }

    /// Stable lowercase name used by `TESSERACT_KERNEL`, bench JSON, and
    /// log lines.
    pub const fn name(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            MicroKernel::Avx2 => "avx2",
        }
    }

    /// Whether the running host can execute this backend.
    pub fn supported(self) -> bool {
        match self {
            MicroKernel::Scalar => true,
            MicroKernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }
}

static ACTIVE_KERNEL: OnceLock<MicroKernel> = OnceLock::new();

/// Forces the micro-kernel backend for the whole process. This is the
/// setter the run configuration installs (historically the
/// `TESSERACT_KERNEL` env var, now parsed in `tesseract-comm`'s
/// `RunConfig`); forcing an unsupported backend panics — a forced path must
/// never silently degrade. Must run before the first blocked GEMM resolves
/// the backend; forcing a *different* backend after resolution panics too,
/// because the per-process parity guarantees would otherwise be violated.
pub fn force_kernel(k: MicroKernel) {
    assert!(
        k.supported(),
        "TESSERACT_KERNEL={} forced, but this host does not support it",
        k.name()
    );
    let got = *ACTIVE_KERNEL.get_or_init(|| k);
    assert_eq!(
        got,
        k,
        "kernel backend already resolved to {} before {} was forced",
        got.name(),
        k.name()
    );
}

/// The backend every host-feature-supported blocked GEMM runs on, resolved
/// exactly once per process: the [`force_kernel`] override if one was
/// installed first, else the widest backend the CPU supports.
pub fn active_kernel() -> MicroKernel {
    *ACTIVE_KERNEL.get_or_init(detect_kernel)
}

/// Widest supported backend, in preference order.
fn detect_kernel() -> MicroKernel {
    if MicroKernel::Avx2.supported() {
        MicroKernel::Avx2
    } else {
        MicroKernel::Scalar
    }
}

/// Deterministic dispatch decision for a `[m,k]·[k,n]` product. Depends only
/// on the shape — never on thread count, data, or the active micro-kernel
/// backend (the thresholds are the *scalar* tile so metered dispatch counts
/// are identical on every host) — so dense and shadow backends agree and
/// runs are reproducible. Degenerate outputs (fewer rows or columns than
/// one scalar micro-tile) stay serial: most of each register tile would be
/// padding.
pub fn planned_path(m: usize, k: usize, n: usize) -> KernelPath {
    if m >= SCALAR_MR
        && n >= SCALAR_NR
        && m.saturating_mul(k).saturating_mul(n) >= BLOCKED_MIN_ELEMS
    {
        KernelPath::BlockedParallel
    } else {
        KernelPath::Serial
    }
}

// ---------------------------------------------------------------------------
// Public entry points: dispatch serial vs blocked-parallel
// ---------------------------------------------------------------------------

/// `C = A · B`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    match planned_path(a.rows(), a.cols(), b.cols()) {
        KernelPath::Serial => matmul_serial(a, b),
        KernelPath::BlockedParallel => matmul_blocked(a, b, pool::global()),
    }
}

/// `C = A · Bᵀ` without materializing the transpose.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    match planned_path(a.rows(), a.cols(), b.rows()) {
        KernelPath::Serial => matmul_nt_serial(a, b),
        KernelPath::BlockedParallel => matmul_nt_blocked(a, b, pool::global()),
    }
}

/// `C = Aᵀ · B` without materializing the transpose.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    match planned_path(a.cols(), a.rows(), b.cols()) {
        KernelPath::Serial => matmul_tn_serial(a, b),
        KernelPath::BlockedParallel => matmul_tn_blocked(a, b, pool::global()),
    }
}

// ---------------------------------------------------------------------------
// Serial reference kernels
// ---------------------------------------------------------------------------
//
// ikj / dot-product order so LLVM vectorizes the contiguous inner loops.
// Deliberately branch-free: the old `if a_ik == 0.0 { continue }` "skip"
// both defeated vectorization and broke IEEE semantics (`0 · NaN` must be
// NaN, `0 · inf` must be NaN — skipping dropped them).

/// Serial `C = A · B`.
pub fn matmul_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
            let b_row = b.row(kk);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
    c
}

/// Serial `C = A · Bᵀ`.
pub fn matmul_nt_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    let m = a.rows();
    let n = b.rows();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for j in 0..n {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            c_row[j] = acc;
        }
    }
    c
}

/// Serial `C = Aᵀ · B`.
pub fn matmul_tn_serial(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    let m = a.cols();
    let n = b.cols();
    let k = a.rows();
    let mut c = Matrix::zeros(m, n);
    for kk in 0..k {
        let a_row = a.row(kk);
        let b_row = b.row(kk);
        for (i, &a_ki) in a_row.iter().enumerate().take(m) {
            let c_row = c.row_mut(i);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ki * b_kj;
            }
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Blocked, packed, parallel kernels
// ---------------------------------------------------------------------------

/// How the logical `[m,k]·[k,n]` operands map onto the stored matrices.
#[derive(Clone, Copy)]
enum Orient {
    /// `A[m,k]`, `B[k,n]` as stored.
    Nn,
    /// logical B is `Bᵀ` of the stored `[n,k]` matrix.
    Nt,
    /// logical A is `Aᵀ` of the stored `[k,m]` matrix.
    Tn,
}

/// Blocked-parallel `C = A · B` on an explicit pool, on the process-wide
/// [`active_kernel`] (exposed so tests and benches can pin thread counts;
/// production call sites use [`matmul`]).
pub fn matmul_blocked(a: &Matrix, b: &Matrix, pool: &ThreadPool) -> Matrix {
    matmul_blocked_with(a, b, pool, active_kernel())
}

/// Blocked-parallel `C = A · Bᵀ` on an explicit pool.
pub fn matmul_nt_blocked(a: &Matrix, b: &Matrix, pool: &ThreadPool) -> Matrix {
    matmul_nt_blocked_with(a, b, pool, active_kernel())
}

/// Blocked-parallel `C = Aᵀ · B` on an explicit pool.
pub fn matmul_tn_blocked(a: &Matrix, b: &Matrix, pool: &ThreadPool) -> Matrix {
    matmul_tn_blocked_with(a, b, pool, active_kernel())
}

/// [`matmul_blocked`] with an explicitly forced micro-kernel backend.
/// Panics if `kernel` is unsupported on this host. This is the race-free
/// way for tests to pin a path (no env mutation).
pub fn matmul_blocked_with(
    a: &Matrix,
    b: &Matrix,
    pool: &ThreadPool,
    kernel: MicroKernel,
) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    gemm_blocked(kernel, Orient::Nn, a, b, a.rows(), a.cols(), b.cols(), pool)
}

/// [`matmul_nt_blocked`] with an explicitly forced micro-kernel backend.
pub fn matmul_nt_blocked_with(
    a: &Matrix,
    b: &Matrix,
    pool: &ThreadPool,
    kernel: MicroKernel,
) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: inner dims {} vs {}", a.cols(), b.cols());
    gemm_blocked(kernel, Orient::Nt, a, b, a.rows(), a.cols(), b.rows(), pool)
}

/// [`matmul_tn_blocked`] with an explicitly forced micro-kernel backend.
pub fn matmul_tn_blocked_with(
    a: &Matrix,
    b: &Matrix,
    pool: &ThreadPool,
    kernel: MicroKernel,
) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: inner dims {} vs {}", a.rows(), b.rows());
    gemm_blocked(kernel, Orient::Tn, a, b, a.cols(), a.rows(), b.cols(), pool)
}

/// Shared pointer to C's buffer handed to tasks; tasks write disjoint row
/// ranges, so no two tasks alias.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

impl CPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare non-`Sync` pointer inside it.
    fn get(self) -> *mut f32 {
        self.0
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b: &Matrix,
    m: usize,
    k: usize,
    n: usize,
    pool: &ThreadPool,
) -> Matrix {
    assert!(kernel.supported(), "micro-kernel {:?} unsupported on this host", kernel);
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    // B is packed ONCE, up front, into the submitting thread's scratch and
    // shared read-only by every task — repacking it per row-block would add
    // O(k·n) copies per task.
    let nr = kernel.nr();
    let b_len = PackedB::len(k, n, nr);
    with_scratch(&B_PACK, b_len, |buf| {
        let b_packed = PackedB::pack(orient, b, k, n, nr, buf);
        let n_tasks = m.div_ceil(BLOCK_M);
        let c_ptr = CPtr(c.data_mut().as_mut_ptr());
        pool.parallel_for(n_tasks, &|t| {
            let i0 = t * BLOCK_M;
            let i1 = (i0 + BLOCK_M).min(m);
            // SAFETY: tasks receive disjoint row ranges of C (task t owns
            // rows [t·BLOCK_M, (t+1)·BLOCK_M)), and `parallel_for` completes
            // before `c` is touched again by this thread.
            let c_rows =
                unsafe { std::slice::from_raw_parts_mut(c_ptr.get().add(i0 * n), (i1 - i0) * n) };
            gemm_row_block(kernel, orient, a, &b_packed, c_rows, i0, i1 - i0, k, n);
        });
    });
    c
}

thread_local! {
    /// Packed-B scratch of the thread that submits a blocked GEMM.
    static B_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Packed-A scratch of the thread that runs a row-block task.
    static A_PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the first `len` f32 of this thread's `scratch` buffer,
/// growing it first if it is shorter. The buffer keeps its size across
/// calls (bounded by the largest `len` the thread has asked for) and its
/// contents are stale: `f` must write every value it reads. The buffer is
/// moved out for the duration, so a nested call on the same thread finds
/// an empty cell and uses a buffer of its own.
fn with_scratch<R>(
    scratch: &'static LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut buf = scratch.take();
    if buf.len() < len {
        buf = vec![0.0; len];
    }
    let out = f(&mut buf[..len]);
    scratch.set(buf);
    out
}

/// All of logical B repacked into `nr`-column micro-panels, grouped by
/// k-tile: slot `(kc_idx, q)` holds `B[kc .. kc+kb, q·nr .. q·nr+nr]` as
/// `kb` rows of `nr` contiguous values. The column remainder is zero-filled
/// on every pack (the buffer is reused, so nothing is zero beforehand); its
/// lanes feed don't-care accumulator columns that are never stored. Rows
/// `kb..kstride` of a short last k-tile are neither written nor read.
/// One implementation serves every micro-kernel backend: the panel width
/// `nr` is a parameter, and each `(k-tile, column-panel)` slot is the fixed
/// size `kstride·nr` (`kstride = min(k, BLOCK_K)`) so panel addresses are
/// computable without per-tile offset tables.
struct PackedB<'a> {
    buf: &'a [f32],
    n_panels: usize,
    nr: usize,
    kstride: usize,
}

impl<'a> PackedB<'a> {
    /// f32 count of the packed form of a `[k, n]` logical B.
    fn len(k: usize, n: usize, nr: usize) -> usize {
        k.div_ceil(BLOCK_K) * n.div_ceil(nr) * k.min(BLOCK_K) * nr
    }

    /// Packs logical B into `buf` (exactly [`PackedB::len`] f32, contents
    /// stale on entry).
    fn pack(orient: Orient, b: &Matrix, k: usize, n: usize, nr: usize, buf: &'a mut [f32]) -> Self {
        let kstride = k.min(BLOCK_K);
        let slot = kstride * nr;
        let n_panels = n.div_ceil(nr);
        debug_assert_eq!(buf.len(), Self::len(k, n, nr));
        for (kc_idx, kc) in (0..k).step_by(BLOCK_K).enumerate() {
            let kb = (k - kc).min(BLOCK_K);
            for q in 0..n_panels {
                let slot_buf = &mut buf[(kc_idx * n_panels + q) * slot..][..kb * nr];
                let j = q * nr;
                let cols = (n - j).min(nr);
                if cols < nr {
                    for row in slot_buf.chunks_exact_mut(nr) {
                        row[cols..].fill(0.0);
                    }
                }
                match orient {
                    Orient::Nn | Orient::Tn => {
                        // Stored row-major [k, n]: copy a row stripe per kk.
                        for (kk, row) in slot_buf.chunks_exact_mut(nr).enumerate() {
                            row[..cols].copy_from_slice(&b.row(kc + kk)[j..j + cols]);
                        }
                    }
                    Orient::Nt => {
                        // Logical B = stored Bᵀ [n, k]: logical column j is
                        // storage row j — walk it contiguously, scatter with
                        // stride nr.
                        for (l, row) in (0..cols).map(|l| (l, b.row(j + l))) {
                            for (kk, &v) in row[kc..kc + kb].iter().enumerate() {
                                slot_buf[kk * nr + l] = v;
                            }
                        }
                    }
                }
            }
        }
        Self { buf, n_panels, nr, kstride }
    }

    fn panel(&self, kc_idx: usize, q: usize) -> &[f32] {
        let slot = self.kstride * self.nr;
        &self.buf[(kc_idx * self.n_panels + q) * slot..][..slot]
    }
}

/// Monomorphizes the row-block sweep over the backend's tile constants.
/// The enum → const-generic hop happens once per task, far off the hot
/// path; everything below it compiles with `MR`/`NR` as literals.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b_packed: &PackedB,
    c_rows: &mut [f32],
    i0: usize,
    mb: usize,
    k: usize,
    n: usize,
) {
    match kernel {
        MicroKernel::Scalar => gemm_row_block_g::<SCALAR_MR, SCALAR_NR>(
            kernel, orient, a, b_packed, c_rows, i0, mb, k, n,
        ),
        MicroKernel::Avx2 => {
            gemm_row_block_g::<AVX2_MR, AVX2_NR>(kernel, orient, a, b_packed, c_rows, i0, mb, k, n)
        }
    }
}

/// Computes rows `[i0, i0+mb)` of C. Per k-tile: repack the A row panel
/// (once — it is reused across every column panel), then sweep column panels
/// outer / row panels inner so each packed B panel stays L1-resident while
/// the L2-resident A panel streams past it. Serial per task; parallelism
/// lives one level up.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block_g<const MR: usize, const NR: usize>(
    kernel: MicroKernel,
    orient: Orient,
    a: &Matrix,
    b_packed: &PackedB,
    c_rows: &mut [f32],
    i0: usize,
    mb: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!((MR, NR), (kernel.mr(), kernel.nr()));
    debug_assert_eq!(b_packed.nr, NR, "B packed for a different backend");
    let row_panels = mb.div_ceil(MR);
    with_scratch(&A_PACK, row_panels * MR * k.min(BLOCK_K), |a_pack| {
        for (kc_idx, kc) in (0..k).step_by(BLOCK_K).enumerate() {
            let kb = (k - kc).min(BLOCK_K);
            pack_a(orient, a, a_pack, i0, mb, kc, kb, MR);
            for q in 0..b_packed.n_panels {
                let cols = (n - q * NR).min(NR);
                let b_panel = b_packed.panel(kc_idx, q);
                for p in 0..row_panels {
                    let rows = (mb - p * MR).min(MR);
                    let a_panel = &a_pack[p * kb * MR..(p + 1) * kb * MR];
                    micro_kernel::<MR, NR>(
                        kernel,
                        a_panel,
                        b_panel,
                        kb,
                        c_rows,
                        p * MR,
                        q * NR,
                        n,
                        rows,
                        cols,
                    );
                }
            }
        }
    });
}

/// `MR×NR` register-tile update: `C[tile] += Apanel · Bpanel` over `kb`
/// depth steps. Full tiles take the backend's fast path; remainder tiles
/// take the backend's edge path, plain mul+add on every backend. Which path
/// computes an element is a pure function of shape and tile constants —
/// never of thread count — so each backend stays bitwise deterministic (the
/// per-path parity contract).
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel<const MR: usize, const NR: usize>(
    kernel: MicroKernel,
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    if rows == MR && cols == NR {
        match kernel {
            MicroKernel::Scalar => {
                micro_kernel_full::<MR, NR>(a_panel, b_panel, kb, c_rows, ci, cj, n)
            }
            MicroKernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `MicroKernel::Avx2` is only dispatched after
                // `supported()` verified avx2+fma at kernel-selection time
                // (gemm_blocked asserts it), and full-tile bounds were just
                // checked (`rows == MR && cols == NR`).
                unsafe {
                    micro_kernel_avx2(a_panel, b_panel, kb, c_rows, ci, cj, n)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("Avx2 backend cannot be selected off x86_64")
            }
        }
    } else {
        match kernel {
            MicroKernel::Scalar => {
                micro_kernel_edge::<MR, NR>(a_panel, b_panel, kb, c_rows, ci, cj, n, rows, cols)
            }
            MicroKernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as for the full tile, avx2 support was verified at
                // selection time; the A panel holds `kb·MR` and the B panel
                // at least `kb·NR` f32 by construction, and the edge kernel
                // clips every C access to the valid `rows × cols` region.
                unsafe {
                    micro_kernel_avx2_edge(a_panel, b_panel, kb, c_rows, ci, cj, n, rows, cols)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("Avx2 backend cannot be selected off x86_64")
            }
        }
    }
}

/// Scalar full-tile fast path. Every access to `acc` is a constant index
/// (the `MR`/`NR` loops fully unroll), so the array lives in registers;
/// loading the C tile first keeps each element's k-chain unbroken across
/// k-tiles.
#[inline]
fn micro_kernel_full<const MR: usize, const NR: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let src: &[f32; NR] = c_rows[(ci + r) * n + cj..][..NR].try_into().unwrap();
        *acc_row = *src;
    }
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)).take(kb) {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (x, &bl) in acc_row.iter_mut().zip(bv) {
                *x += ar * bl;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let dst: &mut [f32; NR] = (&mut c_rows[(ci + r) * n + cj..][..NR]).try_into().unwrap();
        *dst = *acc_row;
    }
}

/// AVX2+FMA full-tile fast path: a `6×16` C tile as 12 ymm accumulators,
/// per depth step two B loads and six A broadcasts feeding
/// `_mm256_fmadd_ps`. FMA fuses each `a·b + c` into one rounding, so this
/// backend's k-chains differ from scalar in the last ulps (the per-path
/// parity contract); within the backend the chain is still strictly
/// ascending-k and thread-count independent.
///
/// # Safety
/// Caller must guarantee the host supports `avx2` and `fma`, that
/// `a_panel` holds at least `kb·6` f32, `b_panel` at least `kb·16`, and
/// that rows `ci..ci+6` × cols `cj..cj+16` are in-bounds in `c_rows`
/// (row stride `n`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(a_panel.len() >= kb * AVX2_MR && b_panel.len() >= kb * AVX2_NR);
    debug_assert!((ci + AVX2_MR - 1) * n + cj + AVX2_NR <= c_rows.len());
    let mut acc = [[_mm256_setzero_ps(); 2]; AVX2_MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let p = c_rows.as_ptr().add((ci + r) * n + cj);
        acc_row[0] = _mm256_loadu_ps(p);
        acc_row[1] = _mm256_loadu_ps(p.add(8));
    }
    let mut ap = a_panel.as_ptr();
    let mut bp = b_panel.as_ptr();
    for _ in 0..kb {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = _mm256_broadcast_ss(&*ap.add(r));
            acc_row[0] = _mm256_fmadd_ps(ar, b0, acc_row[0]);
            acc_row[1] = _mm256_fmadd_ps(ar, b1, acc_row[1]);
        }
        ap = ap.add(AVX2_MR);
        bp = bp.add(AVX2_NR);
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let p = c_rows.as_mut_ptr().add((ci + r) * n + cj);
        _mm256_storeu_ps(p, acc_row[0]);
        _mm256_storeu_ps(p.add(8), acc_row[1]);
    }
}

/// AVX2 remainder tile at the right/bottom edges: the clipped C region is
/// staged in a zero-padded `6×16` tile so the depth loop runs on full
/// vectors, and each step is `_mm256_mul_ps` then `_mm256_add_ps` — two
/// roundings, exactly the scalar `acc += a·b` of [`micro_kernel_edge`], never
/// a fused multiply-add. Every stored element is therefore bitwise equal to
/// the serial triple loops; padded lanes are computed and discarded.
///
/// # Safety
/// Caller must guarantee the host supports `avx2`, that `a_panel` holds at
/// least `kb·6` f32 and `b_panel` at least `kb·16`, and that rows
/// `ci..ci+rows` × cols `cj..cj+cols` are in-bounds in `c_rows` (row stride
/// `n`), with `rows <= 6` and `cols <= 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2_edge(
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(a_panel.len() >= kb * AVX2_MR && b_panel.len() >= kb * AVX2_NR);
    debug_assert!(rows <= AVX2_MR && cols <= AVX2_NR);
    let mut tile = [[0.0f32; AVX2_NR]; AVX2_MR];
    for (r, tile_row) in tile.iter_mut().enumerate().take(rows) {
        tile_row[..cols].copy_from_slice(&c_rows[(ci + r) * n + cj..][..cols]);
    }
    let mut acc = [[_mm256_setzero_ps(); 2]; AVX2_MR];
    for (acc_row, tile_row) in acc.iter_mut().zip(&tile) {
        acc_row[0] = _mm256_loadu_ps(tile_row.as_ptr());
        acc_row[1] = _mm256_loadu_ps(tile_row.as_ptr().add(8));
    }
    let mut ap = a_panel.as_ptr();
    let mut bp = b_panel.as_ptr();
    for _ in 0..kb {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let ar = _mm256_broadcast_ss(&*ap.add(r));
            acc_row[0] = _mm256_add_ps(acc_row[0], _mm256_mul_ps(ar, b0));
            acc_row[1] = _mm256_add_ps(acc_row[1], _mm256_mul_ps(ar, b1));
        }
        ap = ap.add(AVX2_MR);
        bp = bp.add(AVX2_NR);
    }
    for (acc_row, tile_row) in acc.iter().zip(tile.iter_mut()) {
        _mm256_storeu_ps(tile_row.as_mut_ptr(), acc_row[0]);
        _mm256_storeu_ps(tile_row.as_mut_ptr().add(8), acc_row[1]);
    }
    for (r, tile_row) in tile.iter().enumerate().take(rows) {
        c_rows[(ci + r) * n + cj..][..cols].copy_from_slice(&tile_row[..cols]);
    }
}

/// Scalar remainder tiles at the right/bottom edges (and the reference the
/// AVX2 edge tile reproduces bit for bit): same ascending-k arithmetic as
/// the scalar full tile (plain mul+add), but loads and stores clip to the
/// valid `rows × cols` region (padded accumulator lanes are computed and
/// discarded).
#[allow(clippy::too_many_arguments)]
fn micro_kernel_edge<const MR: usize, const NR: usize>(
    a_panel: &[f32],
    b_panel: &[f32],
    kb: usize,
    c_rows: &mut [f32],
    ci: usize,
    cj: usize,
    n: usize,
    rows: usize,
    cols: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..rows {
        let c_row = &c_rows[(ci + r) * n + cj..(ci + r) * n + cj + cols];
        acc[r][..cols].copy_from_slice(c_row);
    }
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)).take(kb) {
        for r in 0..MR {
            let ar = av[r];
            for l in 0..NR {
                acc[r][l] += ar * bv[l];
            }
        }
    }
    for r in 0..rows {
        let c_row = &mut c_rows[(ci + r) * n + cj..(ci + r) * n + cj + cols];
        c_row.copy_from_slice(&acc[r][..cols]);
    }
}

/// Packs logical-A rows `[i0, i0+mb) × [kc, kc+kb)` into `mr`-row panels:
/// `buf[(panel·kb + kk)·mr + r]`, zero-filling the row remainder on every
/// pack, since `buf` is reused scratch (padded rows are computed into
/// don't-care accumulator lanes and never stored).
/// Shared by every micro-kernel backend via the `mr` parameter.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    orient: Orient,
    a: &Matrix,
    buf: &mut [f32],
    i0: usize,
    mb: usize,
    kc: usize,
    kb: usize,
    mr: usize,
) {
    let panels = mb.div_ceil(mr);
    match orient {
        Orient::Nn | Orient::Nt => {
            // Logical A is the stored matrix: copy row slices, stride mr out.
            for p in 0..panels {
                let panel = &mut buf[p * kb * mr..(p + 1) * kb * mr];
                let rows = (mb - p * mr).min(mr);
                for r in 0..mr {
                    if r < rows {
                        let a_row = &a.row(i0 + p * mr + r)[kc..kc + kb];
                        for (kk, &v) in a_row.iter().enumerate() {
                            panel[kk * mr + r] = v;
                        }
                    } else {
                        for kk in 0..kb {
                            panel[kk * mr + r] = 0.0;
                        }
                    }
                }
            }
        }
        Orient::Tn => {
            // Logical A = stored Aᵀ: row kk of storage holds the panel's
            // r-contiguous values, so each copy is a contiguous stripe.
            for p in 0..panels {
                let panel = &mut buf[p * kb * mr..(p + 1) * kb * mr];
                let rows = (mb - p * mr).min(mr);
                for kk in 0..kb {
                    let src = &a.row(kc + kk)[i0 + p * mr..i0 + p * mr + rows];
                    let dst = &mut panel[kk * mr..kk * mr + mr];
                    dst[..rows].copy_from_slice(src);
                    dst[rows..].fill(0.0);
                }
            }
        }
    }
}

/// Flop count of a `[m,k] x [k,n]` multiply-accumulate product. All three
/// orientations above perform exactly this much work; the shadow backend
/// charges the same number so dense and shadow runs agree on metering.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_reference() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let a = Matrix::random_uniform(7, 5, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 9, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(matmul(&a, &b).data(), reference(&a, &b).data(), 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let a = Matrix::random_uniform(4, 4, -1.0, 1.0, &mut rng);
        assert_eq!(matmul(&a, &Matrix::eye(4)), a);
        assert_eq!(matmul(&Matrix::eye(4), &a), a);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let a = Matrix::random_uniform(6, 4, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(8, 4, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(
            matmul_nt(&a, &b).data(),
            matmul(&a, &b.transpose()).data(),
            1e-5,
        );
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let a = Matrix::random_uniform(4, 6, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 8, -1.0, 1.0, &mut rng);
        crate::assert_slices_close(
            matmul_tn(&a, &b).data(),
            matmul(&a.transpose(), &b).data(),
            1e-5,
        );
    }

    #[test]
    fn associativity_within_tolerance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let a = Matrix::random_uniform(5, 6, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(6, 7, -1.0, 1.0, &mut rng);
        let c = Matrix::random_uniform(7, 3, -1.0, 1.0, &mut rng);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        crate::assert_slices_close(left.data(), right.data(), 1e-4);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "matmul: inner dims")]
    fn mismatched_dims_panic() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn kernel_table_is_consistent() {
        assert_eq!(MicroKernel::Scalar.name(), "scalar");
        assert_eq!(MicroKernel::Avx2.name(), "avx2");
        assert_eq!((MicroKernel::Scalar.mr(), MicroKernel::Scalar.nr()), (4, 8));
        assert_eq!((MicroKernel::Avx2.mr(), MicroKernel::Avx2.nr()), (6, 16));
        assert!(MicroKernel::Scalar.supported(), "scalar must run everywhere");
        // The resolved process-wide backend must itself be runnable.
        assert!(active_kernel().supported());
        // OnceLock: the same answer every time.
        assert_eq!(active_kernel(), active_kernel());
    }

    /// Regression for the removed zero-skip branch: `0 · NaN` must reach C
    /// as NaN (IEEE 754), in every orientation and on every kernel path.
    #[test]
    fn zero_times_nan_propagates() {
        let mut a = Matrix::zeros(2, 3); // A is all zeros, incl. the NaN row
        a[(1, 1)] = 1.0;
        let mut b = Matrix::full(3, 2, 1.0);
        b[(0, 0)] = f32::NAN; // multiplied only by A's zeros
        let c = matmul_serial(&a, &b);
        assert!(c[(0, 0)].is_nan(), "0 * NaN must propagate into C");
        assert!(c[(1, 0)].is_nan());
        assert!(!c[(0, 1)].is_nan());
        let pool = ThreadPool::new(2);
        for kernel in [MicroKernel::Scalar, MicroKernel::Avx2] {
            if !kernel.supported() {
                continue;
            }
            let cb = matmul_blocked_with(&a, &b, &pool, kernel);
            assert!(cb[(0, 0)].is_nan() && cb[(1, 0)].is_nan() && !cb[(0, 1)].is_nan());
        }

        // Aᵀ·B with a zero in Aᵀ against a NaN in B.
        let mut at = Matrix::zeros(3, 2);
        at[(2, 0)] = 2.0;
        let ct = matmul_tn_serial(&at, &b);
        assert!(ct[(0, 0)].is_nan());
        // A·Bᵀ: NaN in B's column hit by a zero of A.
        let mut bt = Matrix::full(2, 3, 1.0);
        bt[(0, 0)] = f32::NAN;
        let cn = matmul_nt_serial(&a, &bt);
        assert!(cn[(0, 0)].is_nan());
    }

    /// The scalar backend must agree bit-for-bit with the serial triple
    /// loops, so dispatch on the scalar path can never change results.
    #[test]
    fn serial_and_blocked_scalar_agree_bitwise_at_the_threshold() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let pool = ThreadPool::new(3);
        let a = Matrix::random_uniform(64, 64, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(64, 64, -1.0, 1.0, &mut rng);
        let k = MicroKernel::Scalar;
        assert_eq!(matmul_serial(&a, &b), matmul_blocked_with(&a, &b, &pool, k));
        assert_eq!(matmul_nt_serial(&a, &b), matmul_nt_blocked_with(&a, &b, &pool, k));
        assert_eq!(matmul_tn_serial(&a, &b), matmul_tn_blocked_with(&a, &b, &pool, k));
    }

    /// Each backend must be bitwise deterministic across thread counts
    /// (the per-path parity contract); across backends, results agree
    /// within floating-point tolerance (FMA rounds once per step).
    #[test]
    fn per_path_thread_parity_and_cross_path_tolerance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let (m, k, n) = (70, 97, 45);
        let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let pool1 = ThreadPool::new(1);
        let pool4 = ThreadPool::new(4);
        let scalar = matmul_blocked_with(&a, &b, &pool1, MicroKernel::Scalar);
        assert_eq!(scalar, matmul_blocked_with(&a, &b, &pool4, MicroKernel::Scalar));
        if MicroKernel::Avx2.supported() {
            let avx2 = matmul_blocked_with(&a, &b, &pool1, MicroKernel::Avx2);
            assert_eq!(avx2, matmul_blocked_with(&a, &b, &pool4, MicroKernel::Avx2));
            assert!(
                crate::max_rel_diff(scalar.data(), avx2.data()) < 1e-5,
                "scalar and avx2 backends diverged beyond FMA rounding"
            );
        }
    }

    /// Pack scratch is reused, not reallocated, and keeps stale contents;
    /// a nested call on the same thread gets a buffer of its own.
    #[test]
    fn pack_scratch_is_reused_and_nesting_is_safe() {
        let first = with_scratch(&A_PACK, 100, |buf| {
            buf.fill(7.0);
            buf.as_ptr()
        });
        with_scratch(&A_PACK, 50, |buf| {
            assert_eq!(buf.as_ptr(), first, "a shorter request must reuse the buffer");
            assert!(buf.iter().all(|&v| v == 7.0), "scratch is not cleared between calls");
            with_scratch(&A_PACK, 10, |inner| assert_ne!(inner.as_ptr(), first));
        });
    }

    #[test]
    fn planned_path_thresholds() {
        assert_eq!(planned_path(4, 4, 4), KernelPath::Serial);
        assert_eq!(planned_path(64, 64, 64), KernelPath::BlockedParallel);
        // Degenerate outputs stay serial no matter how much work k adds.
        assert_eq!(planned_path(1, 1 << 20, 1), KernelPath::Serial);
        assert_eq!(planned_path(usize::MAX, 2, usize::MAX), KernelPath::BlockedParallel);
    }

    #[test]
    fn empty_dims_yield_zero_matrices() {
        let pool = ThreadPool::new(2);
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 5);
        let c = matmul_blocked(&a, &b, &pool);
        assert_eq!(c.shape(), (3, 5));
        assert!(c.data().iter().all(|&v| v == 0.0));
    }
}

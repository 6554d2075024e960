//! Per-kernel-path parity of the blocked (and blocked-parallel) GEMM
//! kernels, and determinism across thread counts.
//!
//! The contract under test (DESIGN.md §5), per micro-kernel backend:
//!
//! * **Scalar path**: for every orientation and every shape,
//!   `*_blocked_with(.., MicroKernel::Scalar)` produces **bitwise
//!   identical** output to `*_serial`, regardless of how many threads the
//!   pool has — both accumulate each output element along the same
//!   ascending-k mul+add chain.
//! * **AVX2 path**: `*_blocked_with(.., MicroKernel::Avx2)` is **bitwise
//!   identical to itself** at any thread count (which micro-tile computes
//!   an element depends only on shape and tile constants), and agrees with
//!   the scalar path within floating-point tolerance — FMA fuses `a·b + c`
//!   into one rounding, so the two backends' chains round differently.
//!   Its remainder tiles run vector mul then add, so every element they
//!   compute is bitwise identical to `*_serial`.
//! * **Pack scratch**: per-thread pack buffers are reused across GEMMs, and
//!   nothing an earlier product left in them ever reaches a result.
//!
//! Blocking and parallelism only change iteration *grouping*, never a
//! backend's per-element floating-point evaluation order.

use tesseract_tensor::matmul::{
    matmul_blocked_with, matmul_nt_blocked_with, matmul_nt_serial, matmul_serial,
    matmul_tn_blocked_with, matmul_tn_serial, BLOCK_K, BLOCK_M, BLOCK_N,
};
use tesseract_tensor::{max_rel_diff, Matrix, MicroKernel, ThreadPool, Xoshiro256StarStar};

/// Backends to run the forced-path matrix over: scalar always, AVX2 when
/// the host supports it (forcing an unsupported backend panics by design).
fn testable_kernels() -> Vec<MicroKernel> {
    let mut kernels = vec![MicroKernel::Scalar];
    if MicroKernel::Avx2.supported() {
        kernels.push(MicroKernel::Avx2);
    }
    kernels
}

/// Deterministic test matrix with non-trivial mantissas (so reassociated
/// summation would actually change bits) and mixed signs/magnitudes.
fn gen(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -2.5, 2.5, &mut rng)
}

fn assert_bitwise_eq(label: &str, reference: &Matrix, candidate: &Matrix) {
    assert_eq!(reference.shape(), candidate.shape(), "{label}: shape mismatch");
    for (i, (r, c)) in reference.data().iter().zip(candidate.data()).enumerate() {
        assert_eq!(r.to_bits(), c.to_bits(), "{label}: bit mismatch at flat index {i}: {r} vs {c}");
    }
}

/// Checks all three orientations at one `(m, k, n)`: the scalar backend
/// bitwise against the serial triple loops on the given pool, and every
/// other supported backend bitwise against its own 1-thread result plus
/// within tolerance of scalar. Operand shapes are arranged so the *logical*
/// product is m×k · k×n in every orientation (nt stores B as n×k, tn stores
/// A as k×m).
fn check_shape(m: usize, k: usize, n: usize, pool: &ThreadPool, label: &str) {
    let single = ThreadPool::new(1);
    let a = gen(m, k, 1);
    let b = gen(k, n, 2);
    let bt = gen(n, k, 3);
    let at = gen(k, m, 4);
    let serial = (matmul_serial(&a, &b), matmul_nt_serial(&a, &bt), matmul_tn_serial(&at, &b));

    for kernel in testable_kernels() {
        let kn = kernel.name();
        let nn = matmul_blocked_with(&a, &b, pool, kernel);
        let nt = matmul_nt_blocked_with(&a, &bt, pool, kernel);
        let tn = matmul_tn_blocked_with(&at, &b, pool, kernel);
        match kernel {
            // Scalar: bitwise against the serial reference.
            MicroKernel::Scalar => {
                assert_bitwise_eq(&format!("{label} {kn} nn {m}x{k}x{n}"), &serial.0, &nn);
                assert_bitwise_eq(&format!("{label} {kn} nt {m}x{k}x{n}"), &serial.1, &nt);
                assert_bitwise_eq(&format!("{label} {kn} tn {m}x{k}x{n}"), &serial.2, &tn);
            }
            // SIMD: bitwise against itself serially, tolerant vs scalar.
            MicroKernel::Avx2 => {
                assert_bitwise_eq(
                    &format!("{label} {kn} nn {m}x{k}x{n} vs 1 thread"),
                    &matmul_blocked_with(&a, &b, &single, kernel),
                    &nn,
                );
                assert_bitwise_eq(
                    &format!("{label} {kn} nt {m}x{k}x{n} vs 1 thread"),
                    &matmul_nt_blocked_with(&a, &bt, &single, kernel),
                    &nt,
                );
                assert_bitwise_eq(
                    &format!("{label} {kn} tn {m}x{k}x{n} vs 1 thread"),
                    &matmul_tn_blocked_with(&at, &b, &single, kernel),
                    &tn,
                );
                for (orient, reference, candidate) in
                    [("nn", &serial.0, &nn), ("nt", &serial.1, &nt), ("tn", &serial.2, &tn)]
                {
                    let diff = max_rel_diff(reference.data(), candidate.data());
                    assert!(
                        diff < 1e-4,
                        "{label} {kn} {orient} {m}x{k}x{n}: beyond FMA tolerance ({diff:e})"
                    );
                }
            }
        }
    }
}

/// Shapes chosen to hit every remainder path in the packing and both
/// micro-kernel tile sets: degenerate dims, sizes just off the scalar
/// (MR=4, NR=8) and AVX2 (MR=6, NR=16) register tiles — including
/// m,n strictly below one tile — sizes straddling the cache-block
/// boundaries, and extreme aspect ratios.
fn adversarial_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 17, 1),
        (2, 3, 5),
        (3, 1, 9),   // k=1: single multiply, no accumulation chain
        (4, 8, 8),   // exactly one scalar register tile
        (5, 9, 11),  // one past the scalar tile in every dim
        (6, 16, 16), // exactly one AVX2 register tile
        (7, 17, 17), // one past the AVX2 tile in every dim
        (5, 20, 15), // below one AVX2 tile in m and n, above scalar's
        (7, 13, 23), // primes: nothing divides anything
        (BLOCK_M + 1, BLOCK_K + 2, BLOCK_N + 3),
        (65, 130, 97),
        (BLOCK_M, 7, BLOCK_N), // thin k: packing dominated by remainders
        (1, 300, 500),         // single-row C
        (500, 300, 1),         // single-column C
        (3, 1024, 4),          // tall accumulation, tiny output
        (190, 5, 6),           // tall-skinny A
        (6, 5, 190),           // short-wide B
    ]
}

#[test]
fn blocked_matches_reference_per_path_on_adversarial_shapes() {
    let pool = ThreadPool::new(4);
    for (m, k, n) in adversarial_shapes() {
        check_shape(m, k, n, &pool, "adversarial");
    }
}

#[test]
fn every_path_is_bitwise_deterministic_across_thread_counts() {
    // Big enough for several row-block tasks (m > 2 * BLOCK_M) with remainder,
    // so different thread counts genuinely interleave differently.
    let (m, k, n) = (2 * BLOCK_M + 37, 75, 61);
    let a = gen(m, k, 10);
    let b = gen(k, n, 11);
    let bt = gen(n, k, 12);
    let at = gen(k, m, 13);

    for kernel in testable_kernels() {
        let single = ThreadPool::new(1);
        let reference = (
            matmul_blocked_with(&a, &b, &single, kernel),
            matmul_nt_blocked_with(&a, &bt, &single, kernel),
            matmul_tn_blocked_with(&at, &b, &single, kernel),
        );
        if kernel == MicroKernel::Scalar {
            // The scalar backend's 1-thread result is itself pinned to the
            // serial triple loop, anchoring the whole matrix of checks.
            assert_bitwise_eq("scalar anchor nn", &matmul_serial(&a, &b), &reference.0);
            assert_bitwise_eq("scalar anchor nt", &matmul_nt_serial(&a, &bt), &reference.1);
            assert_bitwise_eq("scalar anchor tn", &matmul_tn_serial(&at, &b), &reference.2);
        }
        for threads in [1, 2, 4, 7, 16] {
            let pool = ThreadPool::new(threads);
            let label = format!("{} threads={threads}", kernel.name());
            assert_bitwise_eq(
                &format!("{label} nn"),
                &reference.0,
                &matmul_blocked_with(&a, &b, &pool, kernel),
            );
            assert_bitwise_eq(
                &format!("{label} nt"),
                &reference.1,
                &matmul_nt_blocked_with(&a, &bt, &pool, kernel),
            );
            assert_bitwise_eq(
                &format!("{label} tn"),
                &reference.2,
                &matmul_tn_blocked_with(&at, &b, &pool, kernel),
            );
        }
    }
}

#[test]
fn blocked_matches_serial_with_special_values() {
    // NaN/inf placed mid-matrix must flow through packing (including the
    // zero-padded lanes) without contaminating neighbouring outputs, on
    // every backend.
    let m = 9;
    let k = 21;
    let n = 13;
    let mut a = gen(m, k, 20);
    let mut b = gen(k, n, 21);
    a.data_mut()[k + 3] = f32::NAN;
    a.data_mut()[2 * k + 5] = f32::INFINITY;
    b.data_mut()[4 * n + 2] = f32::NEG_INFINITY;
    b.data_mut()[7 * n + 9] = 0.0;

    let pool = ThreadPool::new(3);
    let serial = matmul_serial(&a, &b);
    // Sanity: the NaN actually reached the output somewhere.
    assert!(serial.data().iter().any(|v| v.is_nan()));
    assert_bitwise_eq(
        "special-values scalar nn",
        &serial,
        &matmul_blocked_with(&a, &b, &pool, MicroKernel::Scalar),
    );
    if MicroKernel::Avx2.supported() {
        let avx2 = matmul_blocked_with(&a, &b, &pool, MicroKernel::Avx2);
        // Special values classify identically even where rounding differs.
        for (i, (s, v)) in serial.data().iter().zip(avx2.data()).enumerate() {
            assert_eq!(s.is_nan(), v.is_nan(), "NaN placement diverged at {i}");
            assert_eq!(
                s.is_infinite() && !s.is_nan(),
                v.is_infinite() && !v.is_nan(),
                "infinity placement diverged at {i}"
            );
        }
    }
}

#[test]
fn public_entry_points_match_the_active_kernel_above_the_dispatch_threshold() {
    // 96^3 is above BLOCKED_MIN_ELEMS, so the public fns take the blocked
    // path through the global pool on the process-wide backend — results
    // must be bitwise identical to that backend run serially (and hence,
    // when the backend is scalar, to the serial triple loop).
    let s = 96;
    let a = gen(s, s, 30);
    let b = gen(s, s, 31);
    let bt = gen(s, s, 32);
    let kernel = tesseract_tensor::matmul::active_kernel();
    let single = ThreadPool::new(1);
    assert_bitwise_eq(
        "public nn",
        &matmul_blocked_with(&a, &b, &single, kernel),
        &tesseract_tensor::matmul::matmul(&a, &b),
    );
    assert_bitwise_eq(
        "public nt",
        &matmul_nt_blocked_with(&a, &bt, &single, kernel),
        &tesseract_tensor::matmul::matmul_nt(&a, &bt),
    );
    assert_bitwise_eq(
        "public tn",
        &matmul_tn_blocked_with(&a, &b, &single, kernel),
        &tesseract_tensor::matmul::matmul_tn(&a, &b),
    );
}

/// Whether the AVX2 backend computes element `(i, j)` of an `m×n` output in
/// a remainder tile: its row panel (within its `BLOCK_M` row block) has
/// fewer than `MR` rows, or its column panel fewer than `NR` columns.
fn avx2_remainder_tile(i: usize, j: usize, m: usize, n: usize) -> bool {
    let (mr, nr) = (MicroKernel::Avx2.mr(), MicroKernel::Avx2.nr());
    let block = i / BLOCK_M * BLOCK_M;
    let mb = (m - block).min(BLOCK_M);
    let panel = (i - block) / mr * mr;
    let rows = (mb - panel).min(mr);
    let cols = (n - j / nr * nr).min(nr);
    rows < mr || cols < nr
}

/// The AVX2 backend's remainder tiles use plain mul+add (no FMA), so every
/// element they compute is bitwise equal to the serial triple loops, in
/// every orientation. Full tiles may differ (FMA); remainder tiles never.
#[test]
fn avx2_remainder_tiles_match_serial_bitwise() {
    if !MicroKernel::Avx2.supported() {
        eprintln!("avx2 not supported on this host; remainder-tile contract not applicable");
        return;
    }
    let pool = ThreadPool::new(2);
    let kernel = MicroKernel::Avx2;
    let mut shapes = adversarial_shapes();
    shapes.extend([(256, 128, 384), (128, 256, 512), (256, 256, 32)]);
    let mut checked = 0usize;
    for (m, k, n) in shapes {
        let a = gen(m, k, 40);
        let b = gen(k, n, 41);
        let bt = gen(n, k, 42);
        let at = gen(k, m, 43);
        for (orient, serial, blocked) in [
            ("nn", matmul_serial(&a, &b), matmul_blocked_with(&a, &b, &pool, kernel)),
            ("nt", matmul_nt_serial(&a, &bt), matmul_nt_blocked_with(&a, &bt, &pool, kernel)),
            ("tn", matmul_tn_serial(&at, &b), matmul_tn_blocked_with(&at, &b, &pool, kernel)),
        ] {
            for i in 0..m {
                for j in 0..n {
                    if !avx2_remainder_tile(i, j, m, n) {
                        continue;
                    }
                    let (s, v) = (serial[(i, j)], blocked[(i, j)]);
                    assert_eq!(
                        s.to_bits(),
                        v.to_bits(),
                        "avx2 {orient} {m}x{k}x{n}: remainder element ({i},{j}) {v} vs serial {s}"
                    );
                    checked += 1;
                }
            }
        }
    }
    // (256,128,384) alone has 4 remainder rows in each of 4 row blocks.
    assert!(checked >= 3 * 16 * 384, "only {checked} remainder elements checked");
}

/// Operands with NaN, +inf and -inf spread through ordinary values.
fn poisoned(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = gen(rows, cols, seed);
    for (i, v) in m.data_mut().iter_mut().enumerate() {
        match i % 7 {
            0 => *v = f32::NAN,
            3 => *v = f32::INFINITY,
            5 => *v = f32::NEG_INFINITY,
            _ => {}
        }
    }
    m
}

/// Remainder-heavy products in all three orientations.
fn remainder_heavy_products(kernel: MicroKernel, pool: &ThreadPool) -> Vec<Matrix> {
    let mut out = Vec::new();
    for (s, &(m, k, n)) in
        [(70, 97, 45), (7, 13, 23), (65, 130, 97), (190, 5, 6), (5, 20, 15), (BLOCK_M + 1, 300, 33)]
            .iter()
            .enumerate()
    {
        let seed = 50 + 4 * s as u64;
        let (a, b, bt, at) =
            (gen(m, k, seed), gen(k, n, seed + 1), gen(n, k, seed + 2), gen(k, m, seed + 3));
        out.push(matmul_blocked_with(&a, &b, pool, kernel));
        out.push(matmul_nt_blocked_with(&a, &bt, pool, kernel));
        out.push(matmul_tn_blocked_with(&at, &b, pool, kernel));
    }
    out
}

/// Pack buffers are per-thread scratch reused across GEMMs. Whatever an
/// earlier product left in them (here NaN and ±inf from a larger GEMM) must
/// never reach a later result: products after the poisoning GEMM equal, bit
/// for bit, the same products on freshly spawned threads.
#[test]
fn stale_pack_scratch_never_reaches_results() {
    for kernel in testable_kernels() {
        for threads in [1, 2] {
            let fresh = std::thread::spawn(move || {
                remainder_heavy_products(kernel, &ThreadPool::new(threads))
            })
            .join()
            .unwrap();
            let reused = std::thread::spawn(move || {
                let pool = ThreadPool::new(threads);
                let (m, k, n) = (3 * BLOCK_M + 5, 2 * BLOCK_K + 40, BLOCK_N + 50);
                let (a, b) = (poisoned(m, k, 60), poisoned(k, n, 61));
                let (at, bt) = (poisoned(k, m, 62), poisoned(n, k, 63));
                let dirty = [
                    matmul_blocked_with(&a, &b, &pool, kernel),
                    matmul_nt_blocked_with(&a, &bt, &pool, kernel),
                    matmul_tn_blocked_with(&at, &b, &pool, kernel),
                ];
                assert!(dirty.iter().all(|c| c.data().iter().any(|v| v.is_nan())));
                remainder_heavy_products(kernel, &pool)
            })
            .join()
            .unwrap();
            for (i, (f, r)) in fresh.iter().zip(&reused).enumerate() {
                let label = format!("{} threads={threads} product {i}", kernel.name());
                assert_bitwise_eq(&label, f, r);
            }
        }
    }
}

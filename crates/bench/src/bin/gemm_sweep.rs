//! GEMM kernel sweep: seed-reference vs serial vs blocked micro-kernels,
//! plus a multi-core scaling curve.
//!
//! Times the `n×n×n` product for each requested size on five kernels:
//!
//! * `seed` — a verbatim copy of the pre-blocking kernel this repo shipped
//!   with (ikj loop with the zero-skip branch), kept here as the fixed
//!   baseline the speedup columns are measured against;
//! * `serial` — the current serial kernel (zero-skip removed, vectorizable);
//! * `scalar1` — the cache-blocked/packed kernel forced onto the scalar
//!   4×8 micro-kernel, 1-thread pool (the PR-5 state of the art, kept as
//!   the SIMD baseline);
//! * `blocked1` — the blocked kernel on the auto-detected micro-kernel
//!   backend ([`tesseract_tensor::matmul::active_kernel`]: AVX2+FMA 6×16
//!   where the host supports it), 1-thread pool — isolating the SIMD win;
//! * `blocked` — the same kernel on the process-wide pool (the
//!   `TESSERACT_THREADS`-configured size, recorded in the JSON).
//!
//! Then, per size, the active backend is swept over `--threads` (default
//! `1,2,4,8`) on explicit pools, publishing GFLOP/s and parallel efficiency
//! per thread count. Every swept thread count is checked **bitwise**
//! against the 1-thread result of the same backend before its timing is
//! accepted (the per-path parity contract); scalar-vs-SIMD agreement is
//! checked within floating-point tolerance.
//!
//! A second section, `shapes`, times the per-rank GEMMs of perfbench's
//! `train_dense` (the SUMMA block products of every linear in all three
//! orientations and the per-head attention products) on a 1-thread pool,
//! the pool each rank's kernels use there. Each shape is checked bitwise
//! against its 1-thread result at every swept thread count first. The
//! shapes are timed in `--reps` interleaved rounds (one product of each per
//! round, as a training step mixes them) on the calling thread's CPU clock
//! on 64-bit Linux, which a shared host's steal time does not inflate, and
//! on the wall clock elsewhere; `"shapes_clock"` names the one that ran.
//! Rows carry a `--label` (default `current`); `--baseline FILE` copies the
//! shape rows of an earlier run — another build on the same host — into
//! the output ahead of this run's, so one file holds a before and an after
//! row per shape.
//!
//! Reports median wall time over `--reps` runs as a table on stdout and as
//! JSON (`--out`, default `BENCH_kernels.json`). The JSON records which
//! micro-kernel actually ran (`"kernel"`), whether it was forced via
//! `TESSERACT_KERNEL` (`"kernel_forced"`), the configured pool size
//! (`"pool_threads"`), the host's hardware parallelism (`"host_cpus"`) and
//! CPU model (`"host_cpu_model"`) so a curve measured on a core-limited
//! container is interpretable.
//!
//! Run: `cargo run --release -p tesseract-bench --bin gemm_sweep -- \
//!           [--sizes 256,512,1024] [--reps 5] [--threads 1,2,4,8] \
//!           [--label NAME] [--baseline FILE] \
//!           [--out BENCH_kernels.json]`

use std::time::Instant;

use tesseract_comm::RunConfig;
use tesseract_tensor::matmul::{
    active_kernel, matmul_blocked_with, matmul_nt_blocked_with, matmul_serial,
    matmul_tn_blocked_with, MicroKernel,
};
use tesseract_tensor::trace::json;
use tesseract_tensor::{max_rel_diff, pool, Matrix, ThreadPool, Xoshiro256StarStar};

/// Orientation of a `shapes` product: which stored operand is transposed.
#[derive(Clone, Copy)]
enum Orient {
    Nn,
    Nt,
    Tn,
}

impl Orient {
    fn name(self) -> &'static str {
        match self {
            Orient::Nn => "nn",
            Orient::Nt => "nt",
            Orient::Tn => "tn",
        }
    }
}

/// One `shapes` entry: the logical `[m,k]·[k,n]` product in an orientation.
#[derive(Clone, Copy)]
struct Shape {
    m: usize,
    k: usize,
    n: usize,
    orient: Orient,
}

const fn shape(m: usize, k: usize, n: usize, orient: Orient) -> Shape {
    Shape { m, k, n, orient }
}

/// Per-rank GEMMs of perfbench's `train_dense` (`[2,2,2]` grid, batch 4 ×
/// seq 256, hidden 256, 8 heads): SUMMA block products of the QKV, output,
/// fc1 and fc2 linears forward (nn), input gradient (nt) and weight
/// gradient (tn), then the per-head attention products (head_dim 32).
const TRAIN_DENSE_SHAPES: [Shape; 15] = {
    use Orient::{Nn, Nt, Tn};
    [
        shape(256, 128, 384, Nn),
        shape(256, 128, 128, Nn),
        shape(256, 128, 512, Nn),
        shape(256, 512, 128, Nn),
        shape(256, 384, 128, Nt),
        shape(256, 128, 128, Nt),
        shape(256, 128, 512, Nt),
        shape(256, 512, 128, Nt),
        shape(128, 256, 384, Tn),
        shape(128, 256, 128, Tn),
        shape(128, 256, 512, Tn),
        shape(512, 256, 128, Tn),
        shape(256, 32, 256, Nt),
        shape(256, 256, 32, Nn),
        shape(256, 256, 32, Tn),
    ]
};

impl Shape {
    fn name(&self) -> String {
        format!("{}x{}x{}", self.m, self.k, self.n)
    }

    /// Stored operands whose product in this orientation is `[m,k]·[k,n]`.
    fn operands(&self, rng: &mut Xoshiro256StarStar) -> (Matrix, Matrix) {
        let (m, k, n) = (self.m, self.k, self.n);
        let (ar, ac) = if let Orient::Tn = self.orient { (k, m) } else { (m, k) };
        let (br, bc) = if let Orient::Nt = self.orient { (n, k) } else { (k, n) };
        (
            Matrix::random_uniform(ar, ac, -1.0, 1.0, rng),
            Matrix::random_uniform(br, bc, -1.0, 1.0, rng),
        )
    }

    fn run(&self, a: &Matrix, b: &Matrix, pool: &ThreadPool, kernel: MicroKernel) -> Matrix {
        match self.orient {
            Orient::Nn => matmul_blocked_with(a, b, pool, kernel),
            Orient::Nt => matmul_nt_blocked_with(a, b, pool, kernel),
            Orient::Tn => matmul_tn_blocked_with(a, b, pool, kernel),
        }
    }

    fn gflops(&self, ns: f64) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64 / ns
    }
}

/// The host's CPU model as `/proc/cpuinfo` names it (`unknown` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `shapes` rows of an earlier gemm_sweep JSON, re-serialized.
fn baseline_rows(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
    let rows = doc
        .get("shapes")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("{path} has no shapes section"));
    rows.iter()
        .map(|r| {
            let num = |key: &str| {
                r.get(key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{path}: no {key}"))
            };
            let text = |key: &str| {
                r.get(key).and_then(|v| v.as_str()).unwrap_or_else(|| panic!("{path}: no {key}"))
            };
            shape_row(text("build"), text("shape"), text("orient"), num("ns"), num("gflops"))
        })
        .collect()
}

fn shape_row(build: &str, shape: &str, orient: &str, ns: f64, gflops: f64) -> String {
    format!(
        "    {{ \"build\": \"{build}\", \"shape\": \"{shape}\", \"orient\": \"{orient}\", \"ns\": {ns:.0}, \"gflops\": {gflops:.3} }}"
    )
}

/// The clock [`shape_clock_ns`] reads, as the JSON and the table name it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const SHAPES_CLOCK: &str = "thread CPU";
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
const SHAPES_CLOCK: &str = "wall";

/// CPU nanoseconds the calling thread has used (Linux
/// `CLOCK_THREAD_CPUTIME_ID`): unlike wall time it does not count time the
/// hypervisor steals from a shared host's virtual CPUs.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn shape_clock_ns() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// Wall nanoseconds since the first call, where no thread CPU clock is read.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn shape_clock_ns() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as f64
}

/// The seed repo's `matmul`, copied verbatim (modulo `Matrix` accessors):
/// ikj order with a zero-skip branch on `a_ik`. The branch defeats
/// vectorization of the inner loop and mis-handles `0 × NaN`; it is the
/// baseline every speedup in BENCH_kernels.json is relative to.
fn matmul_seed(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dims {} vs {}", a.cols(), b.rows());
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = b.row(kk);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
    c
}

/// Median wall time in nanoseconds over `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut() -> Matrix) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let elapsed = start.elapsed().as_nanos() as f64;
            std::hint::black_box(out);
            elapsed
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// One thread count of the scaling sweep.
struct ScalePoint {
    threads: usize,
    ns: f64,
}

struct Row {
    n: usize,
    seed_ns: f64,
    serial_ns: f64,
    scalar1_ns: f64,
    blocked1_ns: f64,
    blocked_ns: f64,
    scaling: Vec<ScalePoint>,
}

fn gflops(n: usize, ns: f64) -> f64 {
    (2.0 * (n as f64).powi(3)) / ns
}

fn assert_bitwise(label: &str, reference: &Matrix, candidate: &Matrix) {
    for (i, (r, c)) in reference.data().iter().zip(candidate.data()).enumerate() {
        assert_eq!(
            r.to_bits(),
            c.to_bits(),
            "{label}: per-path parity violated at flat index {i}: {r} vs {c}"
        );
    }
}

fn main() {
    let mut sizes: Vec<usize> = vec![256, 512, 1024];
    let mut reps = 5usize;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut out_path = String::from("BENCH_kernels.json");
    let mut label = String::from("current");
    let mut baseline: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value")).clone();
        match arg.as_str() {
            "--sizes" => {
                sizes = value("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes wants comma-separated integers"))
                    .collect();
            }
            "--reps" => reps = value("--reps").parse().expect("--reps wants an integer"),
            "--threads" => {
                threads = value("--threads")
                    .split(',')
                    .map(|s| {
                        let t: usize =
                            s.trim().parse().expect("--threads wants comma-separated integers");
                        assert!(t >= 1, "--threads wants positive thread counts");
                        t
                    })
                    .collect();
            }
            "--out" => out_path = value("--out"),
            "--label" => label = value("--label"),
            "--baseline" => baseline = Some(value("--baseline")),
            other => panic!(
                "unknown argument {other:?} \
                 (known: --sizes --reps --threads --label --baseline --out)"
            ),
        }
    }

    // All TESSERACT_* knobs are parsed and installed by the run
    // configuration (the single env-read site of the workspace); this bench
    // runs no cluster, so it installs explicitly before touching the pool.
    let run_cfg = RunConfig::from_env(1);
    run_cfg.install();
    let kernel = active_kernel();
    let kernel_forced = run_cfg.kernel.is_some();
    let single = ThreadPool::new(1);
    let global = pool::global();
    let host_cpus = pool::host_threads();
    println!(
        "gemm_sweep: sizes {sizes:?}, {reps} reps, micro-kernel {}{}, pool of {} thread(s) \
         (host has {host_cpus}), scaling over {threads:?}\n",
        kernel.name(),
        if kernel_forced { " (forced via TESSERACT_KERNEL)" } else { "" },
        global.threads(),
    );
    println!(
        "| n    | seed ns      | serial ns    | scalar1 ns   | blocked1 ns  | blocked ns   | serial GF/s | blk1 GF/s | blk GF/s | simd x | blk1 x | blk x |"
    );
    println!(
        "|------|--------------|--------------|--------------|--------------|--------------|-------------|-----------|----------|--------|--------|-------|"
    );

    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = Xoshiro256StarStar::seed_from_u64(n as u64);
        let a = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, -1.0, 1.0, &mut rng);

        // Correctness gates before any timing: per-path bitwise parity at
        // every swept thread count, and cross-path tolerance.
        let reference = matmul_blocked_with(&a, &b, &single, kernel);
        let scalar_ref = matmul_blocked_with(&a, &b, &single, MicroKernel::Scalar);
        let cross = max_rel_diff(reference.data(), scalar_ref.data());
        assert!(
            cross < 1e-4,
            "n={n}: {} vs scalar diverged beyond FMA tolerance ({cross:e})",
            kernel.name()
        );
        let pools: Vec<ThreadPool> = threads.iter().map(|&t| ThreadPool::new(t)).collect();
        for (t, p) in threads.iter().zip(&pools) {
            let out = matmul_blocked_with(&a, &b, p, kernel);
            assert_bitwise(&format!("n={n} {} threads={t}", kernel.name()), &reference, &out);
        }

        let scaling: Vec<ScalePoint> = threads
            .iter()
            .zip(&pools)
            .map(|(&t, p)| ScalePoint {
                threads: t,
                ns: median_ns(reps, || matmul_blocked_with(&a, &b, p, kernel)),
            })
            .collect();
        let row = Row {
            n,
            seed_ns: median_ns(reps, || matmul_seed(&a, &b)),
            serial_ns: median_ns(reps, || matmul_serial(&a, &b)),
            scalar1_ns: median_ns(reps, || {
                matmul_blocked_with(&a, &b, &single, MicroKernel::Scalar)
            }),
            blocked1_ns: median_ns(reps, || matmul_blocked_with(&a, &b, &single, kernel)),
            blocked_ns: median_ns(reps, || matmul_blocked_with(&a, &b, global, kernel)),
            scaling,
        };
        println!(
            "| {:<4} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0} | {:>12.0} | {:>11.3} | {:>9.3} | {:>8.3} | {:>6.2} | {:>6.2} | {:>5.2} |",
            row.n,
            row.seed_ns,
            row.serial_ns,
            row.scalar1_ns,
            row.blocked1_ns,
            row.blocked_ns,
            gflops(n, row.serial_ns),
            gflops(n, row.blocked1_ns),
            gflops(n, row.blocked_ns),
            row.scalar1_ns / row.blocked1_ns,
            row.seed_ns / row.blocked1_ns,
            row.seed_ns / row.blocked_ns,
        );
        for p in &row.scaling {
            let speedup = row.scaling[0].ns / p.ns;
            println!(
                "|      scaling: {:>2} thread(s) {:>12.0} ns  {:>8.3} GF/s  speedup {:>5.2}  efficiency {:>4.2} |",
                p.threads,
                p.ns,
                gflops(n, p.ns),
                speedup,
                speedup / p.threads as f64,
            );
        }
        rows.push(row);
    }

    let shapes = TRAIN_DENSE_SHAPES;
    let operands: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| s.operands(&mut Xoshiro256StarStar::seed_from_u64(0x5A9E + i as u64)))
        .collect();
    for (shape, (a, b)) in shapes.iter().zip(&operands) {
        let reference = shape.run(a, b, &single, kernel);
        for &t in &threads {
            let out = shape.run(a, b, &ThreadPool::new(t), kernel);
            let what =
                format!("{} {} {} threads={t}", shape.name(), shape.orient.name(), kernel.name());
            assert_bitwise(&what, &reference, &out);
        }
    }
    // Interleaved rounds, one product of every shape per round, as a
    // training step interleaves them; on the thread CPU clock each sample
    // is the calling thread's CPU time, which is all of a 1-thread pool's
    // work.
    let mut samples = vec![Vec::with_capacity(reps); shapes.len()];
    for _ in 0..reps.max(1) {
        for ((shape, (a, b)), s) in shapes.iter().zip(&operands).zip(&mut samples) {
            let start = shape_clock_ns();
            let out = shape.run(a, b, &single, kernel);
            s.push(shape_clock_ns() - start);
            std::hint::black_box(out);
        }
    }
    let mut shape_rows = baseline.as_deref().map(baseline_rows).unwrap_or_default();
    let header = format!("{label} {SHAPES_CLOCK} ns (1 thread)");
    println!("\n| shape        | orient | {header} | GF/s    |");
    println!("|--------------|--------|{}|---------|", "-".repeat(header.len() + 2));
    let mut mix_ns = 0.0;
    for (shape, s) in shapes.iter().zip(&mut samples) {
        s.sort_by(|a, b| a.total_cmp(b));
        let ns = s[s.len() / 2];
        mix_ns += ns;
        println!(
            "| {:<12} | {:<6} | {:>width$.0} | {:>7.3} |",
            shape.name(),
            shape.orient.name(),
            ns,
            shape.gflops(ns),
            width = header.len(),
        );
        shape_rows.push(shape_row(
            &label,
            &shape.name(),
            shape.orient.name(),
            ns,
            shape.gflops(ns),
        ));
    }
    println!("shapes: one of each, summed: {:.3} ms ({SHAPES_CLOCK}, {label})", mix_ns * 1e-6);

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"gemm_sweep\",\n");
    json.push_str("  \"units\": { \"time\": \"ns (median)\", \"rate\": \"GFLOP/s\" },\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"kernel\": \"{}\",\n", kernel.name()));
    json.push_str(&format!("  \"kernel_forced\": {kernel_forced},\n"));
    json.push_str(&format!("  \"pool_threads\": {},\n", global.threads()));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"host_cpu_model\": \"{}\",\n", cpu_model()));
    json.push_str(&format!(
        "  \"threads_swept\": [{}],\n",
        threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"parity\": \"bitwise per kernel path at every swept thread count\",\n");
    json.push_str(
        "  \"kernels\": [\"seed\", \"serial\", \"scalar1\", \"blocked1\", \"blocked\"],\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"n\": {}, \"seed_ns\": {:.0}, \"serial_ns\": {:.0}, \"scalar1_ns\": {:.0}, \"blocked1_ns\": {:.0}, \"blocked_ns\": {:.0}, \
\"serial_gflops\": {:.3}, \"scalar1_gflops\": {:.3}, \"blocked1_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \
\"speedup_serial\": {:.3}, \"speedup_blocked1\": {:.3}, \"speedup_blocked\": {:.3}, \"simd_speedup\": {:.3},\n",
            r.n,
            r.seed_ns,
            r.serial_ns,
            r.scalar1_ns,
            r.blocked1_ns,
            r.blocked_ns,
            gflops(r.n, r.serial_ns),
            gflops(r.n, r.scalar1_ns),
            gflops(r.n, r.blocked1_ns),
            gflops(r.n, r.blocked_ns),
            r.seed_ns / r.serial_ns,
            r.seed_ns / r.blocked1_ns,
            r.seed_ns / r.blocked_ns,
            r.scalar1_ns / r.blocked1_ns,
        ));
        json.push_str("      \"scaling\": [\n");
        for (j, p) in r.scaling.iter().enumerate() {
            let speedup = r.scaling[0].ns / p.ns;
            json.push_str(&format!(
                "        {{ \"threads\": {}, \"ns\": {:.0}, \"gflops\": {:.3}, \"speedup\": {:.3}, \"efficiency\": {:.3} }}{}\n",
                p.threads,
                p.ns,
                gflops(r.n, p.ns),
                speedup,
                speedup / p.threads as f64,
                if j + 1 == r.scaling.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!("      ] }}{}\n", if i + 1 == rows.len() { "" } else { "," }));
    }
    json.push_str("  ],\n");
    json.push_str("  \"shapes_threads\": 1,\n");
    json.push_str(&format!(
        "  \"shapes_clock\": \"median {SHAPES_CLOCK} ns over interleaved rounds (one of each shape per round)\",\n"
    ));
    json.push_str(&format!("  \"shapes\": [\n{}\n  ]\n}}\n", shape_rows.join(",\n")));
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}

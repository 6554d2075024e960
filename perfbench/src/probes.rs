//! Small host-clock probes of single layers, timed from outside through
//! the public API: collective rendezvous, cluster spawn, one dense GEMM
//! and the kernel thread pool.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tesseract_comm::RunConfig;
use tesseract_core::{GridShape, TesseractGrid};
use tesseract_tensor::{matmul, DenseTensor, Matrix, ThreadPool, Xoshiro256StarStar};

use crate::report::{median, Report};

/// Median host µs of a tiny (1×1) `all_reduce`, on the world group and on
/// a row fiber of a `[q, q, d]` grid, timed on rank 0 after a warm-up.
pub fn rendezvous_us(run: &RunConfig, shape: GridShape, calls: usize) -> (f64, f64) {
    let mut rc = *run;
    rc.world = shape.size();
    let out = rc.cluster().run(|ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let world = ctx.world_group();
        let time = |group: &tesseract_comm::CommGroup, ctx: &mut tesseract_comm::RankCtx| {
            let mut us = Vec::with_capacity(calls);
            for i in 0..calls + 8 {
                let x = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
                let t = Instant::now();
                let y = group.all_reduce(ctx, x);
                let dt = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(y);
                if i >= 8 {
                    us.push(dt);
                }
            }
            us
        };
        let w = time(&world, ctx);
        let r = time(&grid.row, ctx);
        (median(&w), median(&r))
    });
    out.results[0]
}

/// Sets the host probe metrics for a workload on a `[q, q, d]` grid whose
/// largest per-rank GEMM is `gemm = (m, k, n)`.
pub fn report(rep: &mut Report, run: &RunConfig, shape: GridShape, gemm: (usize, usize, usize)) {
    let (world_us, row_us) = rendezvous_us(run, shape, 200);
    rep.set("comm.rendezvous_world_us_p50", world_us);
    rep.set("comm.rendezvous_row_us_p50", row_us);
    rep.set("comm.cluster.spawn_ms", spawn_ms(run, shape.size(), 9));
    rep.set("tensor.matmul.probe_gflops", matmul_gflops(gemm.0, gemm.1, gemm.2, 0.3));
}

/// Median host ms of an empty `Cluster::run` at `world` ranks.
pub fn spawn_ms(run: &RunConfig, world: usize, reps: usize) -> f64 {
    let mut rc = *run;
    rc.world = world;
    let cluster = rc.cluster();
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = cluster.run(|ctx| ctx.rank);
            std::hint::black_box(out.results);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Host GFLOP/s of `tesseract_tensor::matmul::matmul` on an `m×k · k×n`
/// product, repeated for at least `min_secs`.
pub fn matmul_gflops(m: usize, k: usize, n: usize, min_secs: f64) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x6E44);
    let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
    let b = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
    std::hint::black_box(matmul::matmul(&a, &b));
    let t = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || t.elapsed().as_secs_f64() < min_secs {
        std::hint::black_box(matmul::matmul(std::hint::black_box(&a), &b));
        reps += 1;
    }
    2.0 * (m * k * n) as f64 * reps as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// Tasks per probe job.
const PROBE_TASKS: usize = 4;

/// Pool-integrity probe: two submitter threads each run `jobs` jobs on a
/// private 2-thread [`ThreadPool`]. Every task of a job counts its own
/// index; a job is *bad* when, after `parallel_for` returns, some index
/// ran zero or several times (a task missing, or a foreign job's task run
/// in its place), or when one of its tasks runs after the job returned.
/// Returns `(jobs run, bad jobs)`.
///
/// The pool's worker can hold a finished job's task pointer and run it
/// against the next job's indices, so this probe may crash the process;
/// [`pool_probe_in_child`] runs it in a child process for that reason.
pub fn pool_probe(jobs: usize) -> (u64, u64) {
    let pool = ThreadPool::new(2);
    let late = AtomicU64::new(0);
    let bad = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..jobs {
                    let hits: [AtomicU32; PROBE_TASKS] = Default::default();
                    let open = AtomicBool::new(true);
                    pool.parallel_for(PROBE_TASKS, &|i| {
                        if !open.load(Ordering::SeqCst) {
                            late.fetch_add(1, Ordering::SeqCst);
                        }
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    });
                    open.store(false, Ordering::SeqCst);
                    if hits.iter().any(|h| h.load(Ordering::SeqCst) != 1) {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let total = 2 * jobs as u64;
    (total, (bad.into_inner() + late.into_inner()).min(total))
}

/// Outcome of [`pool_probe_in_child`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolProbe {
    pub jobs: u64,
    pub bad: u64,
    /// The child crashed, hung or printed no result.
    pub crashed: bool,
}

/// Runs [`pool_probe`] in a child process (`exe --pool-probe <jobs>`),
/// waits for it (killing it after `timeout`), and parses its
/// `pool_probe <jobs> <bad>` line.
pub fn pool_probe_in_child(exe: &Path, jobs: usize, timeout: Duration) -> PoolProbe {
    let failed = PoolProbe { jobs: 0, bad: 0, crashed: true };
    let Ok(mut child) = Command::new(exe)
        .args(["--pool-probe", &jobs.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    else {
        return failed;
    };
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() < timeout => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        use std::io::Read;
        let _ = stdout.read_to_string(&mut out);
    }
    match status {
        Some(s) if s.success() => parse_probe_line(&out).unwrap_or(failed),
        _ => failed,
    }
}

fn parse_probe_line(out: &str) -> Option<PoolProbe> {
    let line = out.lines().find(|l| l.starts_with("pool_probe "))?;
    let mut it = line.split_whitespace().skip(1).map(|t| t.parse::<u64>().ok());
    Some(PoolProbe { jobs: it.next()??, bad: it.next()??, crashed: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_line_round_trips() {
        assert_eq!(
            parse_probe_line("noise\npool_probe 40 2\n"),
            Some(PoolProbe { jobs: 40, bad: 2, crashed: false })
        );
        assert_eq!(parse_probe_line("pool_probe x"), None);
    }

    #[test]
    fn matmul_probe_reports_a_positive_rate() {
        assert!(matmul_gflops(16, 16, 16, 0.0) > 0.0);
    }
}

//! Options and helpers shared by the workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use tesseract_comm::RunConfig;
use tesseract_tensor::Matrix;

use crate::report::{median, sorted, tail, Report};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Kernel pool threads per process. Every workload runs 8 or 64 rank
/// threads, already more than the host's cores, so each rank's GEMMs run
/// on its own thread.
pub const POOL_THREADS: usize = 1;

/// A collective that waits longer than this fails the run instead of
/// hanging it.
pub const RENDEZVOUS_TIMEOUT_S: u64 = 60;

/// Parsed command-line options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Reduced problem sizes, for the test suite.
    pub tiny: bool,
    /// This executable, for the child-process pool probe.
    pub exe: PathBuf,
}

/// The run configuration every cluster of the benchmark starts from:
/// paper topology and cost constants, one kernel thread per rank, a
/// bounded rendezvous wait, tracing off.
pub fn run_config(world: usize) -> RunConfig {
    RunConfig::new(world)
        .with_threads(POOL_THREADS)
        .with_rendezvous_timeout_secs(RENDEZVOUS_TIMEOUT_S)
}

/// Runs `f`, turning a panic (a crashed rank, a failed assertion inside
/// the program) into `Err` with its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time through 64-bit Linux clock_gettime");

/// CPU seconds this process has used, user plus system, summed over all
/// its threads, live and exited. Time the hypervisor steals from the
/// virtual CPUs is not counted, which keeps host-cost samples far
/// steadier than wall time on a shared machine.
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and clock_gettime writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A point on both host clocks.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self { wall: Instant::now(), cpu: cpu_secs() }
    }

    /// (wall seconds, CPU seconds) since this stamp.
    pub fn elapsed(&self) -> (f64, f64) {
        let now = Self::now();
        (now.wall.saturating_duration_since(self.wall).as_secs_f64(), now.cpu - self.cpu)
    }
}

/// Runs `f` once to warm caches and lazy state, then `reps` times more,
/// and returns the median of those runs' wall seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&samples)
}

/// Times a workload's set-up in process CPU seconds. Samples are taken
/// throughout the measurement window (one before every batch of ops), so
/// host contention moves the set-up median no more than it moves the op
/// samples.
pub struct SetupClock<F: FnMut()> {
    setup: F,
    samples: Vec<f64>,
    wall: Vec<f64>,
}

impl<F: FnMut()> SetupClock<F> {
    /// Runs the set-up once, untimed, to warm caches and lazy state.
    pub fn new(mut setup: F) -> Self {
        setup();
        Self { setup, samples: Vec::new(), wall: Vec::new() }
    }

    /// Runs and times the set-up once.
    pub fn sample(&mut self) {
        let t = Stamp::now();
        (self.setup)();
        let (wall, cpu) = t.elapsed();
        self.samples.push(cpu);
        self.wall.push(wall);
    }

    /// Median CPU seconds of the samples so far.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// Median wall seconds of the samples so far.
    pub fn median_wall(&self) -> f64 {
        median(&self.wall)
    }
}

/// Host-clock samples of a timed loop.
#[derive(Debug, Default)]
pub struct HostSamples {
    /// Per-sample wall and process CPU seconds per op.
    pub op_wall: Vec<f64>,
    pub op_cpu: Vec<f64>,
    /// Wall and CPU seconds of all timed work, the ops and the tokens it
    /// covered.
    pub total_wall: f64,
    pub total_cpu: f64,
    pub ops: f64,
    pub tokens: f64,
}

impl HostSamples {
    /// Adds a batch of `ops` ops that took `wall` and `cpu` seconds and
    /// handled `tokens` tokens.
    pub fn push_batch(&mut self, wall: f64, cpu: f64, ops: f64, tokens: f64) {
        self.op_wall.push(wall / ops);
        self.op_cpu.push(cpu / ops);
        self.total_wall += wall;
        self.total_cpu += cpu;
        self.ops += ops;
        self.tokens += tokens;
    }

    /// Sets the host metrics. End to end: CPU cost per op and per token,
    /// as totals over the window (a cost adds up, and totals do not depend
    /// on which ops a median lands on). Per layer: the wall-clock view.
    pub fn report(&self, rep: &mut Report, setup: &SetupClock<impl FnMut()>) {
        rep.set("setup_s", setup.median());
        rep.set("host.setup_wall_s", setup.median_wall());
        if self.op_cpu.is_empty() {
            return;
        }
        rep.set("host_op_cpu_ms", self.total_cpu / self.ops * 1e3);
        rep.set("host_tokens_per_cpu_s", self.tokens / self.total_cpu);
        rep.set("host.op_cpu_ms_p50", median(&self.op_cpu) * 1e3);
        rep.set("host.op_wall_ms_p50", median(&self.op_wall) * 1e3);
        rep.set("host.op_wall_ms_tail", tail(&sorted(self.op_wall.clone())).1 * 1e3);
        rep.set("host.tokens_per_wall_s", self.tokens / self.total_wall);
        rep.set("host.op_samples", self.op_cpu.len() as f64);
    }
}

/// 64-bit FNV-1a digest over exact float bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, data: &[f32]) {
        self.u64(data.len() as u64);
        for x in data {
            self.u64(u64::from(x.to_bits()));
        }
    }

    pub fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.f32s(m.data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f32s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f32s(&[1.0, f32::from_bits(2.0f32.to_bits() ^ 1)]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.f32s(&[1.0, 2.0]);
        assert_eq!(a, c);
    }

    #[test]
    fn guarded_reports_the_panic_message() {
        assert_eq!(guarded(|| 3), Ok(3));
        assert_eq!(guarded(|| -> u8 { panic!("rank 2 broke") }), Err("rank 2 broke".into()));
    }
}

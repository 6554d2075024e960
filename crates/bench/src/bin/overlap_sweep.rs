//! Overlap sweep: the double-buffered SUMMA pipeline vs the serial
//! broadcast-then-compute loop, measured in **simulated** (virtual) seconds.
//!
//! One full training matmul step — forward `C = A·B` plus both backward
//! rules `A' = C'·Bᵀ` and `B' = Aᵀ·C'` (with the depth all-reduce) — runs
//! on the `[2, 2, 2]` cube with global `A [64, n]` against the `n×n`
//! weight, once under the shipped `Schedule::Pipelined` and once
//! under `Schedule::Serial`, the blocking reference. Both runs use `DenseTensor`, so
//! the sweep doubles as a bitwise-parity check at every size.
//!
//! Columns: virtual step seconds per variant, the pipeline's speedup, the
//! collective wait it hid under compute, and the fraction of the total
//! wait that was hidden (`hidden / (hidden + still-paid)`).
//!
//! Run: `cargo run --release -p tesseract-bench --bin overlap_sweep -- \
//!           [--sizes 256,512,1024] [--out BENCH_overlap.json]`

use std::sync::Arc;

use tesseract_comm::{Cluster, RunOutput};
use tesseract_core::partition::{a_block, b_block};
use tesseract_core::{
    tesseract_matmul, tesseract_matmul_nt, tesseract_matmul_tn, GridShape, Schedule, TesseractGrid,
};
use tesseract_tensor::{DenseTensor, Matrix, Xoshiro256StarStar};

/// The 2.5-D cube the acceptance criterion names.
const SHAPE: (usize, usize) = (2, 2); // [2, 2, 2]

/// Global activation rows: skinny against the `n×n` weight, the
/// transformer linear-layer regime where panel broadcasts dominate.
const STEP_ROWS: usize = 64;

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// One fwd+bwd matmul step on the cube; returns each rank's gradient
/// blocks so the two variants can be compared bitwise.
fn step_round(pipelined: bool, n: usize) -> RunOutput<(Matrix, Matrix)> {
    let shape = GridShape::new(SHAPE.0, SHAPE.1);
    let a = random(STEP_ROWS, n, 71);
    let b = random(n, n, 72);
    Cluster::a100(shape.size()).run(move |ctx| {
        let grid = TesseractGrid::new(ctx, shape, 0);
        let (i, j, k) = grid.coords;
        let a_loc = Arc::new(DenseTensor::from_matrix(a_block(&a, shape, i, j, k)));
        let b_loc = Arc::new(DenseTensor::from_matrix(b_block(&b, shape, i, j)));
        let schedule = if pipelined { Schedule::Pipelined } else { Schedule::Serial };
        let dy = tesseract_matmul(&grid, ctx, &a_loc, &b_loc, schedule);
        let dx = tesseract_matmul_nt(&grid, ctx, &dy, &b_loc, schedule);
        let dw = tesseract_matmul_tn(&grid, ctx, &a_loc, &dy, true, schedule);
        ctx.flush_compute();
        (dx.matrix().clone(), dw.matrix().clone())
    })
}

struct Row {
    n: usize,
    serial_s: f64,
    pipelined_s: f64,
    hidden_s: f64,
    hidden_frac: f64,
}

fn main() {
    let mut sizes: Vec<usize> = vec![256, 512, 1024];
    let mut out_path = String::from("BENCH_overlap.json");

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
            "--out" => out_path = value("--out"),
            other => panic!("unknown argument {other:?} (known: --sizes --out)"),
        }
    }
    let (q, d) = SHAPE;
    assert!(sizes.iter().all(|&n| n % (q * q * d) == 0), "--sizes must divide the [2,2,2] grid");

    println!(
        "overlap_sweep: [{q},{q},{d}] grid, global A {STEP_ROWS} x n, B n x n, \
sizes {sizes:?} (virtual seconds; both runs bitwise-checked)\n"
    );
    println!(
        "| n | serial step (s) | pipelined step (s) | speedup | hidden wait (s) | hidden frac |"
    );
    println!("|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for &n in &sizes {
        let serial = step_round(false, n);
        let pipelined = step_round(true, n);
        assert_eq!(
            serial.results, pipelined.results,
            "n = {n}: pipelined step diverged from serial bitwise"
        );
        let serial_s = serial.makespan();
        let pipelined_s = pipelined.makespan();
        // Fraction of the pipelined run's total collective wait that was
        // hidden under compute (summed over ranks, like the stats table).
        let hidden_s = pipelined.comm.total_hidden_time();
        let paid_s: f64 = pipelined.reports.iter().map(|r| r.comm_wait_nanos as f64 * 1e-9).sum();
        let hidden_frac = hidden_s / (hidden_s + paid_s);
        println!(
            "| {n} | {serial_s:.6} | {pipelined_s:.6} | {:.3}x | {hidden_s:.6} | {hidden_frac:.3} |",
            serial_s / pipelined_s,
        );
        rows.push(Row { n, serial_s, pipelined_s, hidden_s, hidden_frac });
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"overlap_sweep\",\n");
    json.push_str(
        "  \"units\": { \"time\": \"simulated seconds (max over ranks)\", \
\"hidden\": \"simulated seconds summed over ranks\" },\n",
    );
    json.push_str(&format!("  \"grid\": \"[{q},{q},{d}]\",\n"));
    json.push_str(&format!("  \"step_rows\": {STEP_ROWS},\n"));
    json.push_str("  \"steps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"n\": {}, \"serial_s\": {:.9}, \"pipelined_s\": {:.9}, \
\"speedup\": {:.4}, \"hidden_s\": {:.9}, \"hidden_frac\": {:.4} }}{}\n",
            r.n,
            r.serial_s,
            r.pipelined_s,
            r.serial_s / r.pipelined_s,
            r.hidden_s,
            r.hidden_frac,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}

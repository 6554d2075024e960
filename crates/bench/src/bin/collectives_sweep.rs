//! Collectives sweep: the rendezvous fabric's own host cost.
//!
//! The `rendezvous` section records host microseconds per round of a tiny
//! (`1×1`) all-reduce, on the world group at world 4 / 16 / 64 and on 32
//! disjoint 2-rank groups at world 64: the fabric's own cost (lock,
//! wakeups, slot bookkeeping) with no payload work to hide it. The `host`
//! record next to it says where it was measured. Simulated clocks play no
//! part here; every number is real host time.
//!
//! The committed `BENCH_collectives.json` also keeps the `collectives` and
//! `matmul_step` sections of earlier versions, which compared the retired
//! owned-value collectives against the `Arc`-shared path, as the
//! historical record; the sweep therefore writes under `target/` by
//! default so a rerun cannot overwrite it.
//!
//! Run: `cargo run --release -p tesseract-bench --bin collectives_sweep -- \
//!           [--reps 3] [--out target/BENCH_collectives.json]`

use std::time::Instant;

use tesseract_comm::Cluster;
use tesseract_tensor::matmul::active_kernel;
use tesseract_tensor::{pool, DenseTensor, Matrix};

/// Rounds per `rendezvous` measurement.
const RENDEZVOUS_ROUNDS: usize = 1000;

/// `(world, group size)` of each `rendezvous` case: the world group at
/// three sizes, then 32 disjoint pairs sharing one 64-rank fabric.
const RENDEZVOUS_CASES: [(usize, usize); 4] = [(4, 4), (16, 16), (64, 64), (64, 2)];

/// Host µs per round of `rounds` tiny all-reduces on disjoint groups of
/// `group_size` consecutive ranks of a `world`-rank cluster. Rank 0 times
/// the rounds between two world barriers, so thread spawn is excluded.
fn rendezvous_round_us(world: usize, group_size: usize, rounds: usize) -> f64 {
    let out = Cluster::a100(world).run(move |ctx| {
        let all = ctx.world_group();
        let first = ctx.rank / group_size * group_size;
        let group = ctx.group("rendezvous", (first..first + group_size).collect());
        let one = DenseTensor::from_matrix(Matrix::full(1, 1, 1.0));
        all.barrier(ctx);
        let start = Instant::now();
        for _ in 0..rounds {
            let sum = group.all_reduce(ctx, one.clone());
            assert_eq!(sum.matrix()[(0, 0)], group_size as f32, "tiny all-reduce miscounted");
        }
        all.barrier(ctx);
        start.elapsed().as_nanos() as f64 / 1e3 / rounds as f64
    });
    out.results[0]
}

fn main() {
    let mut reps = 3usize;
    let mut out_path = String::from("target/BENCH_collectives.json");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value")).clone();
        match arg.as_str() {
            "--reps" => reps = value("--reps").parse().expect("--reps wants an integer"),
            "--out" => out_path = value("--out"),
            other => panic!("unknown argument {other:?} (known: --reps --out)"),
        }
    }

    println!(
        "collectives_sweep: rendezvous (1x1 all-reduce, host us per round, median of {reps} x \
{RENDEZVOUS_ROUNDS} rounds)\n"
    );
    println!("| world | groups x size | us/round |");
    println!("|---|---|---|");
    let mut rendezvous_rows = Vec::new();
    for (world, size) in RENDEZVOUS_CASES {
        let mut samples: Vec<f64> =
            (0..reps.max(1)).map(|_| rendezvous_round_us(world, size, RENDEZVOUS_ROUNDS)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let us = samples[samples.len() / 2];
        println!("| {world} | {} x {size} | {us:.1} |", world / size);
        rendezvous_rows.push((world, size, us));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"collectives_sweep\",\n");
    json.push_str("  \"units\": { \"time\": \"us per round (median, host wall)\" },\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"host\": {{ \"cpus\": {}, \"kernel\": \"{}\", \"pool_threads\": {} }},\n",
        pool::host_threads(),
        active_kernel().name(),
        pool::global().threads()
    ));
    json.push_str(&format!("  \"rendezvous_rounds\": {RENDEZVOUS_ROUNDS},\n"));
    json.push_str("  \"rendezvous\": [\n");
    for (i, (world, size, us)) in rendezvous_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"world\": {world}, \"groups\": {}, \"group_size\": {size}, \
\"host_us_per_round\": {us:.1} }}{}\n",
            world / size,
            if i + 1 == rendezvous_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(parent) =
        std::path::Path::new(&out_path).parent().filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent).unwrap_or_else(|e| panic!("creating {parent:?}: {e}"));
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}

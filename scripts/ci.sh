#!/usr/bin/env sh
# Tier-1 verification entry point (see ROADMAP.md). Everything runs
# --offline: the workspace has no registry dependencies by construction
# (DESIGN.md §5), so CI must prove it stays that way.
set -eu
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --check

# Every TESSERACT_* environment knob is parsed in exactly one place —
# RunConfig::from_env — so configuration stays auditable. Any other
# env::var("TESSERACT_ read is a regression.
echo "== env-knob gate (TESSERACT_* reads live only in RunConfig) =="
stray=$(grep -rn 'env::var("TESSERACT_' crates src --include='*.rs' \
    | grep -v '^crates/comm/src/runconfig.rs:' || true)
if [ -n "$stray" ]; then
    echo "ci.sh: TESSERACT_* env reads outside crates/comm/src/runconfig.rs:"
    echo "$stray"
    exit 1
fi

# GEMM pack buffers are per-thread scratch, reused unconditionally: there
# is no TESSERACT_* variable beyond the four RunConfig documents, and the
# tensor crate exposes no public scratch/pack item that could switch reuse.
echo "== GEMM scratch gate (no new TESSERACT_* variable, no public pack knob) =="
vars=$(grep -rhoE 'TESSERACT_[A-Z0-9_]+' crates src --include='*.rs' | sort -u | tr '\n' ' ')
if [ "$vars" != "TESSERACT_KERNEL TESSERACT_RENDEZVOUS_TIMEOUT_SECS TESSERACT_THREADS TESSERACT_TRACE " ]; then
    echo "ci.sh: TESSERACT_* variables changed: $vars"
    exit 1
fi
knob=$(grep -rnE 'pub (fn|static|const|struct|enum) [A-Za-z0-9_]*(scratch|SCRATCH|Scratch|pack|PACK|Pack|reuse|REUSE|Reuse)' \
    crates/tensor/src || true)
if [ -n "$knob" ]; then
    echo "ci.sh: public pack-scratch item in the tensor crate:"
    echo "$knob"
    exit 1
fi

# Traces are regenerated artifacts (serve_sweep writes them under target/);
# none may be committed.
echo "== trace-artifact gate (no committed TRACE_*.json) =="
if git ls-files | grep -q '^TRACE_.*\.json$'; then
    echo "ci.sh: TRACE_*.json artifacts must not be committed (write under target/)"
    exit 1
fi

echo "== build (release, offline, deny warnings) =="
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

# --all-features turns on the proptest-gated property suites as well.
echo "== test (offline, all features) =="
cargo test -q --workspace --offline --all-features

# The sweep itself enforces per-path bitwise parity at every swept thread
# count before accepting a timing; CI additionally proves a TESSERACT_KERNEL
# override is honored end-to-end (forced run must report the forced path).
echo "== gemm_sweep smoke (tiny sizes, forced scalar path) =="
TESSERACT_KERNEL=scalar cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
    --sizes 96,128 --reps 2 --threads 1,2 --out target/BENCH_kernels.smoke.scalar.json
grep -q '"kernel": "scalar"' target/BENCH_kernels.smoke.scalar.json \
    || { echo "ci.sh: forced scalar kernel not reported in sweep JSON"; exit 1; }
grep -q '"kernel_forced": true' target/BENCH_kernels.smoke.scalar.json \
    || { echo "ci.sh: kernel_forced flag missing for forced run"; exit 1; }

echo "== gemm_sweep smoke (auto-detected path, 2-thread pool) =="
TESSERACT_THREADS=2 cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
    --sizes 96,128 --reps 2 --threads 1,2 --out target/BENCH_kernels.smoke.json
grep -Eq '"kernel": "(scalar|avx2)"' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: auto-detect run reported no kernel path"; exit 1; }
grep -q '"pool_threads": 2' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: TESSERACT_THREADS=2 not reflected in sweep JSON"; exit 1; }
# The shapes section times the train_dense per-rank GEMMs, each checked
# bitwise against its 1-thread result at every swept thread count first.
grep -q '"shapes": \[' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: gemm_sweep wrote no shapes section"; exit 1; }
grep -q '"shape": "256x128x384", "orient": "nn", "ns": [0-9]' target/BENCH_kernels.smoke.json \
    || { echo "ci.sh: shapes section lacks the train_dense QKV row"; exit 1; }

# Hosts that auto-detect AVX2 must also honor forcing it explicitly.
if grep -q '"kernel": "avx2"' target/BENCH_kernels.smoke.json; then
    echo "== gemm_sweep smoke (forced avx2 path) =="
    TESSERACT_KERNEL=avx2 cargo run -q --release --offline -p tesseract-bench --bin gemm_sweep -- \
        --sizes 96 --reps 2 --threads 1,2 --out target/BENCH_kernels.smoke.avx2.json
    grep -q '"kernel": "avx2"' target/BENCH_kernels.smoke.avx2.json \
        || { echo "ci.sh: forced avx2 kernel not reported in sweep JSON"; exit 1; }
fi

# The copy-regression gate itself is crates/core/tests/collectives_parity.rs
# (runs under `cargo test` above): any reintroduced per-receiver clone in the
# SUMMA hot loop fails the `total_copies() == 0` assertions.
echo "== collectives_sweep smoke (rendezvous rows) =="
cargo run -q --release --offline -p tesseract-bench --bin collectives_sweep -- \
    --reps 2 --out target/BENCH_collectives.smoke.json
grep -q '"rendezvous": \[' target/BENCH_collectives.smoke.json \
    || { echo "ci.sh: collectives_sweep wrote no rendezvous section"; exit 1; }
grep -q '"world": 64, "groups": 32, "group_size": 2, "host_us_per_round": [0-9]' \
    target/BENCH_collectives.smoke.json \
    || { echo "ci.sh: rendezvous section lacks the disjoint-pairs row"; exit 1; }

# The committed simulated BENCH files record no host field, so each must
# reproduce byte-for-byte from its README command on any host, kernel path
# and thread count: any drift in a simulated result fails here.
# overlap_sweep also re-checks pipelined-vs-serial parity per size (the gate
# itself is crates/core/tests/overlap_parity.rs); plan_sweep asserts the
# Table 1/2 winner re-derivations and round-trips its JSON.
echo "== simulated BENCH files reproduce byte-for-byte =="
cargo run -q --release --offline -p tesseract-bench --bin overlap_sweep -- \
    --out target/BENCH_overlap.json > /dev/null
cmp target/BENCH_overlap.json BENCH_overlap.json \
    || { echo "ci.sh: regenerated BENCH_overlap.json differs from the committed file"; exit 1; }
cargo run -q --release --offline -p tesseract-bench --bin plan_sweep -- \
    --mode all --out target/BENCH_plan.json > /dev/null
cmp target/BENCH_plan.json BENCH_plan.json \
    || { echo "ci.sh: regenerated BENCH_plan.json differs from the committed file"; exit 1; }
cargo run -q --release --offline -p tesseract-bench --bin serve_sweep -- \
    --grids "2,1;2,2;4,1" --requests 48 --out target/BENCH_serving.json \
    --trace-out target/TRACE_serving.json > /dev/null
cmp target/BENCH_serving.json BENCH_serving.json \
    || { echo "ci.sh: regenerated BENCH_serving.json differs from the committed file"; exit 1; }

# trace_dump reconciles the event trace against Meter/CommStats internally
# (panics on mismatch) and re-parses its own Chrome JSON before writing.
echo "== trace_dump smoke (tiny grid) =="
cargo run -q --release --offline -p tesseract-bench --bin trace_dump -- \
    --grid 2,2 --n 64 --out target/TRACE.smoke.json
test -s target/TRACE.smoke.json || { echo "trace_dump wrote no JSON"; exit 1; }

# comm_cost_table asserts the two-level cost model's bounds internally
# (hierarchical within [NVLink floor, flat charge]; intra-node == flat;
# node-sharing placements win somewhere); CI re-checks the two headline
# facts on the emitted JSON: a size crossover exists, and intra-node
# groups never pay more than flat.
echo "== comm_cost_table smoke (hierarchical crossover) =="
cargo run -q --release --offline -p tesseract-bench --bin comm_cost_table -- \
    --out target/BENCH_comm.smoke.json > /dev/null
grep -q '"crossover_bytes": [0-9]' target/BENCH_comm.smoke.json \
    || { echo "ci.sh: no hierarchical-vs-flat crossover entry in BENCH_comm"; exit 1; }
grep -q '"intra_node_hier_exceeds_flat": false' target/BENCH_comm.smoke.json \
    || { echo "ci.sh: hierarchical cost exceeded flat on an intra-node group"; exit 1; }

# plan_sweep asserts internally that the planner re-derives the measured
# Table 1 winner from topology + workload alone (no hand-picked grid); CI
# re-checks it on the file regenerated above.
echo "== plan_sweep Table 1 winner re-derivation =="
grep -q '"winner": "tesseract\[4,4,4\]"' target/BENCH_plan.json \
    || { echo "ci.sh: planner did not select the Table 1 winner [4,4,4]"; exit 1; }
grep -q '"matches_expected": true' target/BENCH_plan.json \
    || { echo "ci.sh: plan_sweep winner does not match the measured table"; exit 1; }

# serve_sweep re-checks the serving-engine invariants internally (identical
# results on every rank, meter/engine counter reconciliation, ordered
# percentiles, latency growth past the saturation knee) and panics on any
# violation; CI greps the invariant lines it prints only after those asserts
# held, then proves the whole open-loop sweep is deterministic by running it
# twice and byte-comparing both the bench JSON and the Chrome trace.
echo "== serve_sweep smoke (tiny grid, open-loop determinism) =="
cargo run -q --release --offline -p tesseract-bench --bin serve_sweep -- \
    --grids 2,1 --requests 8 --out target/BENCH_serving.smoke.json \
    --trace-out target/TRACE_serving.smoke.json > target/serve_sweep.smoke.log
grep -q 'invariant ok: p99 >= p50 at every load point' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep p99 >= p50 invariant missing"; exit 1; }
grep -q 'invariant ok: nonzero throughput at every load point' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep nonzero-throughput invariant missing"; exit 1; }
grep -q 'invariant ok: latency grows past the saturation knee' target/serve_sweep.smoke.log \
    || { echo "ci.sh: serve_sweep saturation-knee invariant missing"; exit 1; }
cargo run -q --release --offline -p tesseract-bench --bin serve_sweep -- \
    --grids 2,1 --requests 8 --out target/BENCH_serving.smoke2.json \
    --trace-out target/TRACE_serving.smoke2.json > /dev/null
cmp target/BENCH_serving.smoke.json target/BENCH_serving.smoke2.json \
    || { echo "ci.sh: serve_sweep reruns are not byte-identical"; exit 1; }
cmp target/TRACE_serving.smoke.json target/TRACE_serving.smoke2.json \
    || { echo "ci.sh: serve_sweep trace reruns are not byte-identical"; exit 1; }
test -s target/TRACE_serving.smoke.json \
    || { echo "ci.sh: serve_sweep wrote no trace"; exit 1; }
grep -q '"traceEvents"' target/TRACE_serving.smoke.json \
    || { echo "ci.sh: serve_sweep trace is not Chrome-trace JSON"; exit 1; }

echo "ci.sh: OK"

//! Semantics of the split-phase (`*_begin` / `complete`) collectives:
//! bitwise-identical data to the blocking calls, exact overlap accounting,
//! and diagnosable panics on sequencing misuse.

use std::sync::Arc;

use tesseract_comm::{Cluster, RunConfig};
use tesseract_tensor::{DenseTensor, Matrix, TensorLike, Xoshiro256StarStar};

/// A cluster whose fabric gives up in seconds instead of minutes, so
/// misuse tests that wedge peers fail fast. Set per cluster via the
/// builder — mutating the process environment from parallel tests is a
/// race.
fn fail_fast(world: usize) -> Cluster {
    RunConfig::new(world).with_rendezvous_timeout_secs(2).cluster()
}

fn rank_payload(rank: usize) -> DenseTensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(1000 + rank as u64);
    DenseTensor::from_matrix(Matrix::random_uniform(3, 5, -1.0, 1.0, &mut rng))
}

/// `begin` immediately followed by `complete` must be indistinguishable
/// from the blocking collective (which is exactly that): same data bit for
/// bit, same virtual clocks, same wire/call stats, and zero hidden time
/// (there was no compute to hide the wait under).
#[test]
fn immediate_begin_complete_matches_blocking_exactly() {
    let n = 4;
    let blocking = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let mine = rank_payload(ctx.rank);
        let b = g.broadcast(ctx, 0, (ctx.rank == 0).then(|| Arc::new(mine.clone())));
        let r = g.reduce(ctx, 1, mine.clone());
        let ar = g.all_reduce(ctx, mine.clone());
        let ag = g.all_gather(ctx, Arc::new(mine));
        ctx.flush_compute();
        (
            b.matrix().clone(),
            r.map(|x| x.matrix().clone()),
            ar.matrix().clone(),
            ag.iter().map(|x| x.matrix().clone()).collect::<Vec<_>>(),
        )
    });
    let split = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let mine = rank_payload(ctx.rank);
        let b = g
            .broadcast_begin(ctx, 0, (ctx.rank == 0).then(|| Arc::new(mine.clone())))
            .complete(ctx);
        let r = g.reduce_begin(ctx, 1, mine.clone()).complete(ctx);
        let ar = g.all_reduce_begin(ctx, mine.clone()).complete(ctx);
        let ag = g.all_gather_begin(ctx, Arc::new(mine)).complete(ctx);
        ctx.flush_compute();
        (
            b.matrix().clone(),
            r.map(|x| x.matrix().clone()),
            ar.matrix().clone(),
            ag.iter().map(|x| x.matrix().clone()).collect::<Vec<_>>(),
        )
    });
    assert_eq!(blocking.results, split.results);
    assert!((blocking.makespan() - split.makespan()).abs() < 1e-15);
    assert_eq!(blocking.comm.total_calls(), split.comm.total_calls());
    assert_eq!(blocking.comm.total_wire_bytes(), split.comm.total_wire_bytes());
    assert_eq!(split.comm.total_hidden_time(), 0.0);
    for (b, s) in blocking.reports.iter().zip(split.reports.iter()) {
        assert_eq!(b.comm_wait_nanos, s.comm_wait_nanos);
        assert_eq!(s.overlap_hidden_nanos, 0);
    }
}

/// Compute issued between `begin` and `complete` hides the rendezvous
/// wait: the clock charges only the non-overlapped remainder, the hidden
/// portion lands in the meter/stats, and the makespan strictly improves —
/// with bitwise-identical data.
#[test]
fn overlap_charges_only_the_non_overlapped_remainder() {
    let n = 2;
    let serial = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let payload = Arc::new(DenseTensor::from_matrix(Matrix::full(64, 64, 1.5)));
        let b = g.broadcast(ctx, 0, (ctx.rank == 0).then(|| Arc::clone(&payload)));
        let t = DenseTensor::from_matrix(Matrix::full(24, 24, 0.5));
        let _ = t.matmul(&t, &mut ctx.meter);
        ctx.flush_compute();
        b.matrix().clone()
    });
    let overlapped = Cluster::a100(n).run(|ctx| {
        let g = ctx.world_group();
        let payload = Arc::new(DenseTensor::from_matrix(Matrix::full(64, 64, 1.5)));
        let pending = g.broadcast_begin(ctx, 0, (ctx.rank == 0).then(|| Arc::clone(&payload)));
        let t = DenseTensor::from_matrix(Matrix::full(24, 24, 0.5));
        let _ = t.matmul(&t, &mut ctx.meter);
        let b = pending.complete(ctx);
        ctx.flush_compute();
        b.matrix().clone()
    });
    assert_eq!(serial.results, overlapped.results, "overlap must not change data");
    assert!(
        overlapped.makespan() < serial.makespan(),
        "hiding the broadcast under the GEMM must shrink the makespan: \
         {} vs {}",
        overlapped.makespan(),
        serial.makespan()
    );
    assert!(overlapped.comm.total_hidden_time() > 0.0);
    assert_eq!(serial.comm.total_hidden_time(), 0.0);
    for (s, o) in serial.reports.iter().zip(overlapped.reports.iter()) {
        assert!(o.overlap_hidden_nanos > 0, "rank {} hid no wait", o.rank);
        assert_eq!(s.overlap_hidden_nanos, 0);
        assert!(o.comm_wait_nanos < s.comm_wait_nanos, "rank {} paid the full wait", o.rank);
        // Same compute either way; the win is pure communication time.
        assert_eq!(s.compute_time, o.compute_time);
        // The makespan decomposition must survive overlap accounting.
        assert!((o.compute_time + o.comm_time - o.virtual_time).abs() < 1e-12);
    }
}

/// Pending collectives on one group form a FIFO; completing a younger
/// begin before an older one is a sequencing bug and must panic with a
/// pinned diagnostic.
#[test]
#[should_panic(expected = "split-phase collective completed out of order: \
                           completing broadcast seq 1 but the oldest outstanding begin is seq 0")]
fn out_of_order_complete_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        let first = g.broadcast_begin(
            ctx,
            0,
            (ctx.rank == 0).then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)))),
        );
        let second = g.broadcast_begin(
            ctx,
            0,
            (ctx.rank == 0).then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 2.0)))),
        );
        let _ = second.complete(ctx);
        let _ = first.complete(ctx);
    });
}

/// Dropping a pending collective without completing it would silently
/// desynchronize the group's SPMD schedule; the handle panics instead.
#[test]
#[should_panic(expected = "split-phase broadcast (seq 0) dropped without complete()")]
fn dropping_pending_without_complete_panics() {
    fail_fast(1).run(|ctx| {
        let g = ctx.world_group();
        let pending = g.broadcast_begin(
            ctx,
            0,
            Some(Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)))),
        );
        drop(pending);
    });
}

/// Blocking calls are `begin` + `complete`, so the FIFO discipline covers
/// them too: a blocking collective called while an older begin on the same
/// group is still outstanding completes out of order and must panic.
#[test]
#[should_panic(expected = "split-phase collective completed out of order: \
                           completing all_reduce seq 1 but the oldest outstanding begin is seq 0")]
fn blocking_call_behind_an_outstanding_begin_panics() {
    fail_fast(2).run(|ctx| {
        let g = ctx.world_group();
        let pending = g.broadcast_begin(
            ctx,
            0,
            (ctx.rank == 0).then(|| Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)))),
        );
        let _ = g.all_reduce(ctx, DenseTensor::from_matrix(Matrix::full(2, 2, 2.0)));
        let _ = pending.complete(ctx);
    });
}

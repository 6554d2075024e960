//! Property-based tests for the communication substrate: cost-model
//! invariants and collective semantics on randomized inputs.

// Gated behind the `proptest-tests` feature: run with
//     cargo test -p <crate> --features proptest-tests
#![cfg(feature = "proptest-tests")]

use std::sync::Arc;

use proptest::prelude::*;
use tesseract_comm::{Cluster, CollectiveOp, CostParams, Link, Payload, Topology};
use tesseract_tensor::{DenseTensor, Matrix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collective_time_is_nonnegative_and_monotone_in_bytes(
        n in 1usize..64,
        bytes in 0usize..(1 << 24),
        more in 1usize..(1 << 20),
    ) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            for link in [Link::NvLink, Link::InfiniBand] {
                let t1 = p.collective_time(op, n, bytes, link);
                let t2 = p.collective_time(op, n, bytes + more, link);
                prop_assert!(t1 >= 0.0, "{op:?}");
                prop_assert!(t2 >= t1, "{op:?} must be monotone in bytes");
            }
        }
    }

    #[test]
    fn ib_never_beats_nvlink(n in 2usize..64, bytes in 1usize..(1 << 24)) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let nv = p.collective_time(op, n, bytes, Link::NvLink);
            let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
            prop_assert!(ib >= nv, "{op:?}");
        }
    }

    #[test]
    fn wire_bytes_scale_linearly(n in 2usize..32, bytes in 1usize..(1 << 16)) {
        let p = CostParams::a100_cluster();
        for op in CollectiveOp::ALL {
            let w1 = p.wire_bytes(op, n, bytes);
            let w2 = p.wire_bytes(op, n, 2 * bytes);
            prop_assert_eq!(w2, 2 * w1, "{:?}", op);
        }
    }

    #[test]
    fn node_packing_is_consistent(gpus_per_node in 1usize..16, rank in 0usize..256) {
        let t = Topology::new(gpus_per_node);
        let node = t.node_of(rank);
        prop_assert!(rank >= node * gpus_per_node);
        prop_assert!(rank < (node + 1) * gpus_per_node);
    }

    #[test]
    fn worst_link_is_symmetric_under_rank_order(a in 0usize..64, b in 0usize..64) {
        let t = Topology::meluxina();
        prop_assert_eq!(t.link_between(a, b), t.link_between(b, a));
    }

    #[test]
    fn hierarchical_cost_is_sandwiched_between_nvlink_and_flat_ib(
        gpus_per_node in 1usize..9,
        mut ranks in proptest::collection::vec(0usize..128, 32),
        len in 2usize..32,
        bytes in 0usize..(1 << 26),
    ) {
        // The charged two-level cost can never undercut running the whole
        // group on one NVLink island, and size-based selection means it can
        // never exceed the flat single-level charge on the slow fabric.
        ranks.truncate(len);
        ranks.sort_unstable();
        ranks.dedup();
        if ranks.len() < 2 {
            // All draws collided; extend to keep the group non-trivial.
            let next = ranks[0] + 1;
            ranks.push(next);
        }
        let t = Topology::new(gpus_per_node);
        let placement = t.placement(&ranks);
        let p = CostParams::a100_cluster();
        let n = ranks.len();
        for op in CollectiveOp::ALL {
            let c = p.phased_collective_time(op, bytes, placement);
            let nv = p.collective_time(op, n, bytes, Link::NvLink);
            let ib = p.collective_time(op, n, bytes, Link::InfiniBand);
            prop_assert!(c.total >= nv, "{op:?} below NVLink bound: {c:?} vs {nv}");
            prop_assert!(c.total <= ib, "{op:?} above flat IB charge: {c:?} vs {ib}");
            // The flat field must be exactly the legacy worst-link charge.
            let flat = p.collective_time(op, n, bytes, t.worst_link(&ranks));
            prop_assert_eq!(c.flat, flat, "{:?}", op);
        }
    }
}

proptest! {
    // Each case spawns threads; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn all_reduce_equals_sum_of_deposits(n in 2usize..6, seed in 0u64..1000) {
        let values: Vec<f32> = (0..n).map(|r| ((seed + r as u64) % 17) as f32 - 8.0).collect();
        let expected: f32 = values.iter().sum();
        let vals = values.clone();
        let out = Cluster::a100(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(2, 2, vals[ctx.rank]));
            g.all_reduce(ctx, t).matrix()[(1, 1)]
        });
        for v in out.results {
            prop_assert!((v - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn shift_by_group_size_is_identity(n in 2usize..6, offset_mult in 1usize..3) {
        let out = Cluster::a100(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32));
            // Shifting by a multiple of the group size returns own payload.
            let got = g.shift(ctx, (n * offset_mult) as isize, t);
            got.matrix()[(0, 0)] as usize == ctx.rank
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn collectives_match_a_local_reference_bitwise(
        n in 2usize..5,
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Every rank can rebuild every member's payload, so it can compute
        // each collective's result locally — the root's block, the fold in
        // ascending member order — and the `Arc`-shared results must match
        // that reference bitwise on arbitrary payload shapes. An owned copy
        // taken through `clone_counted` matches too, and is counted.
        let payload = move |rank: usize| {
            let mut rng = tesseract_tensor::Xoshiro256StarStar::seed_from_u64(
                seed.wrapping_mul(31).wrapping_add(rank as u64),
            );
            DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
        };
        let out = Cluster::a100(n).run(move |ctx| {
            let g = ctx.world_group();
            let mine = payload(ctx.rank);
            let all: Vec<DenseTensor> = (0..n).map(payload).collect();
            let mut sum = all[0].clone();
            for p in &all[1..] {
                sum.combine(p);
            }
            let b = g.broadcast(ctx, 0, (ctx.rank == 0).then(|| Arc::new(mine.clone())));
            let b_ok = b.matrix() == all[0].matrix();
            let owned = ctx.clone_counted(CollectiveOp::Broadcast, &*b);
            let owned_ok = owned.matrix() == b.matrix();
            let ar = g.all_reduce(ctx, mine.clone());
            let ar_ok = ar.matrix() == sum.matrix();
            let r_ok = match g.reduce(ctx, 0, mine.clone()) {
                Some(r) => ctx.rank == 0 && r.matrix() == sum.matrix(),
                None => ctx.rank != 0,
            };
            let ag = g.all_gather(ctx, Arc::new(mine));
            let g_ok = ag.len() == n && ag.iter().zip(&all).all(|(a, b)| a.matrix() == b.matrix());
            b_ok && owned_ok && ar_ok && r_ok && g_ok
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
        prop_assert_eq!(out.comm.get(CollectiveOp::Broadcast).copies, n as u64);
        prop_assert_eq!(out.comm.total_copies(), n as u64);
    }

    #[test]
    fn split_phase_matches_blocking_bitwise(
        n in 2usize..5,
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        // `begin` + `complete` must agree bitwise with the blocking call
        // for all four data-moving collectives on arbitrary payload shapes
        // (the fold order is pinned to ascending member index either way).
        let out = Cluster::a100(n).run(move |ctx| {
            let g = ctx.world_group();
            let mine = {
                let mut rng = tesseract_tensor::Xoshiro256StarStar::seed_from_u64(
                    seed.wrapping_mul(37).wrapping_add(ctx.rank as u64),
                );
                DenseTensor::from_matrix(Matrix::random_uniform(rows, cols, -1.0, 1.0, &mut rng))
            };
            let root = (ctx.rank == 0).then(|| Arc::new(mine.clone()));
            let blocking_b = g.broadcast(ctx, 0, root.clone());
            let split_b = g.broadcast_begin(ctx, 0, root).complete(ctx);
            let b_ok = blocking_b.matrix() == split_b.matrix();
            let blocking_ar = g.all_reduce(ctx, mine.clone());
            let split_ar = g.all_reduce_begin(ctx, mine.clone()).complete(ctx);
            let ar_ok = blocking_ar.matrix() == split_ar.matrix();
            let blocking_r = g.reduce(ctx, 0, mine.clone());
            let split_r = g.reduce_begin(ctx, 0, mine.clone()).complete(ctx);
            let r_ok = match (&blocking_r, &split_r) {
                (Some(a), Some(b)) => a.matrix() == b.matrix(),
                (None, None) => true,
                _ => false,
            };
            let mine = Arc::new(mine);
            let blocking_g = g.all_gather(ctx, Arc::clone(&mine));
            let split_g = g.all_gather_begin(ctx, mine).complete(ctx);
            let g_ok = blocking_g.len() == split_g.len()
                && blocking_g.iter().zip(split_g.iter()).all(|(a, b)| a.matrix() == b.matrix());
            b_ok && ar_ok && r_ok && g_ok
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }

    #[test]
    fn all_gather_preserves_order(n in 2usize..6) {
        let out = Cluster::a100(n).run(move |ctx| {
            let g = ctx.world_group();
            let t = DenseTensor::from_matrix(Matrix::full(1, 1, ctx.rank as f32 * 3.0));
            let all = g.all_gather(ctx, Arc::new(t));
            all.iter().enumerate().all(|(i, v)| v.matrix()[(0, 0)] == i as f32 * 3.0)
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }
}

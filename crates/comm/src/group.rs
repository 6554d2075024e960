//! Process groups and collectives.
//!
//! A [`CommGroup`] is one rank's handle onto a subset of ranks (a grid row,
//! column or depth fiber). Collectives mirror the NCCL/MPI operations the
//! paper's implementation uses: broadcast, reduce, all-reduce, all-gather,
//! gather, scatter, cyclic shift (Cannon), barrier and point-to-point
//! send/recv. Each call:
//!
//! 1. flushes the caller's pending compute into its virtual clock,
//! 2. rendezvouses with the other members through the [`crate::fabric::Fabric`],
//! 3. advances everyone's clock to `max(entry clocks) + α–β cost`, and
//! 4. records wire bytes / call counts once per logical operation.
//!
//! Reductions combine deposits in ascending member order, so results are
//! bitwise deterministic run-to-run.
//!
//! # Zero-copy collectives
//!
//! Read-only payloads travel as `Arc<P>`: [`CommGroup::broadcast_shared`]
//! and [`CommGroup::all_gather_shared`] hand every receiver an `Arc` clone
//! of the root's deposit — the payload is materialized exactly once per
//! rendezvous regardless of group size. [`CommGroup::reduce_shared`] and
//! [`CommGroup::all_reduce_shared`] take deposits *by value* and fold them
//! in place (ascending member order, once per rendezvous instead of once
//! per member). The owned-value collectives remain as compatibility
//! wrappers; every deep copy they make is recorded in
//! [`crate::stats::OpStats::copies`] and `Meter::payload_copies`, so the
//! cloning path is observable and copy regressions are testable.
//!
//! Ownership rule: an `Arc` returned from a shared collective may be read
//! freely but must never be mutated through `Arc::get_mut` — other ranks
//! (or the fabric slot, transiently) may hold clones. Use
//! `Arc::make_mut` for copy-on-write or clone explicitly.
//!
//! # Split-phase collectives
//!
//! Every data-moving collective also exists as a `*_begin` variant that
//! returns a [`PendingCollective`]: the payload is deposited into the
//! fabric immediately (after flushing pending compute, so the deposit
//! timestamp is exact), and the blocking wait plus all clock/cost/stat
//! accounting is deferred to [`PendingCollective::complete`]. Compute
//! issued between `begin` and `complete` overlaps the rendezvous; at
//! `complete` the clock is only advanced to the collective's serial exit
//! time (`max(entry clocks) + α–β cost`) if it is not already past it, so
//! the virtual clock charges exactly the *non-overlapped remainder* of the
//! wait. The hidden portion is recorded in `Meter::overlap_hidden_nanos`
//! and [`crate::stats::OpStats::hidden_time`] instead of being charged.
//!
//! Data results are bitwise identical to the blocking calls: the same
//! fabric slots, the same `Arc` sharing, the same ascending-member-order
//! folds — only the timing accounting differs.
//!
//! Pending collectives on one group must be completed in begin order
//! (FIFO, the NCCL stream discipline); completing out of order panics, as
//! does dropping a handle without completing it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use tesseract_tensor::{trace, TensorLike, TraceKind};

use crate::cost::CollectiveOp;
use crate::ctx::RankCtx;
use crate::topology::GroupPlacement;

/// Per-collective trace observer. Opened at the public entry of every
/// collective (or at `complete` for split-phase ones, with the deposit
/// timestamp as its begin), it accumulates what the charging internals
/// (`sync`/`recharge`/`finish_charge`) already compute — rendezvous key,
/// slowest entry, α–β cost, stats contributions — plus *deltas* of the
/// rank's lifetime wait/hidden counters, and emits one
/// [`TraceKind::Comm`] span at [`CommScope::finish`]. When tracing is
/// inactive every method is a no-op behind one bool; the observer never
/// feeds back into any charge, so traced and untraced runs are bitwise
/// identical.
struct CommScope {
    active: bool,
    op: CollectiveOp,
    /// Span start: entry clock (blocking) or deposit timestamp (split-phase).
    begin: f64,
    key: (u64, u64),
    max_entry_vt: f64,
    cost: f64,
    wire_bytes: u64,
    stats_time: f64,
    recorded: bool,
    hidden_time: f64,
    /// Lifetime wait/hidden counters at open; the span's blocked/hidden
    /// charges are the deltas at finish (both counters are invariant under
    /// `flush_compute`, so interleaved flushes cannot contaminate them).
    wait0: u64,
    hidden0: u64,
}

impl CommScope {
    fn open(ctx: &RankCtx, op: CollectiveOp) -> Self {
        let active = trace::is_active();
        Self {
            active,
            op,
            begin: f64::NAN,
            key: (0, 0),
            max_entry_vt: 0.0,
            cost: 0.0,
            wire_bytes: 0,
            stats_time: 0.0,
            recorded: false,
            hidden_time: 0.0,
            wait0: if active { ctx.lifetime_comm_wait_nanos() } else { 0 },
            hidden0: if active { ctx.lifetime_overlap_hidden_nanos() } else { 0 },
        }
    }

    /// Opens a scope whose span starts at a known earlier instant (the
    /// split-phase deposit timestamp).
    fn open_at(ctx: &RankCtx, op: CollectiveOp, key: (u64, u64), begin: f64) -> Self {
        let mut s = Self::open(ctx, op);
        s.key = key;
        s.begin = begin;
        s
    }

    /// Notes one rendezvous: its key, this rank's entry clock and the
    /// group-wide slowest entry.
    fn note_sync(&mut self, key: (u64, u64), entry: f64, max_vt: f64) {
        if !self.active {
            return;
        }
        self.key = key;
        if self.begin.is_nan() {
            self.begin = entry;
        }
        self.max_entry_vt = max_vt;
    }

    /// Notes α–β cost charged on behalf of this collective (a deferred-size
    /// op charges twice: zero-byte latency plus the recharge).
    fn note_cost(&mut self, cost: f64) {
        if self.active {
            self.cost += cost;
        }
    }

    /// Notes that this rank recorded the op into the global stats.
    fn note_stats(&mut self, wire: u64, time: f64) {
        if self.active {
            self.recorded = true;
            self.wire_bytes += wire;
            self.stats_time += time;
        }
    }

    /// Notes hidden-overlap seconds as handed to the stats collector.
    fn note_hidden(&mut self, seconds: f64) {
        if self.active {
            self.hidden_time += seconds;
        }
    }

    /// Emits the span, ending at the rank's current (charged) clock.
    fn finish(self, ctx: &RankCtx) {
        if !self.active {
            return;
        }
        let end = ctx.clock();
        let begin = if self.begin.is_nan() { end } else { self.begin };
        trace::record(
            self.op.name().to_string(),
            begin,
            end,
            TraceKind::Comm {
                op: self.op.name(),
                key_group: self.key.0,
                key_seq: self.key.1,
                max_entry_vt: self.max_entry_vt,
                cost: self.cost,
                blocked_nanos: ctx.lifetime_comm_wait_nanos() - self.wait0,
                hidden_nanos: ctx.lifetime_overlap_hidden_nanos() - self.hidden0,
                hidden_time: self.hidden_time,
                wire_bytes: self.wire_bytes,
                stats_time: self.stats_time,
                recorded: self.recorded,
            },
        );
    }
}

/// FNV-1a over a point-to-point channel's `(src, dst, tag)` triple: the
/// sequence half of the trace key shared by a send event and its matching
/// recv event (the group id is the other half).
fn chan_seq(src: usize, dst: usize, tag: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [src as u64, dst as u64, tag] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Data that can travel through collectives.
pub trait Payload: Clone + Send + Sync + 'static {
    /// Size of one rank's contribution on the wire, in bytes.
    fn wire_size(&self) -> usize;
    /// Elementwise combine for reductions.
    fn combine(&mut self, other: &Self);
}

impl Payload for tesseract_tensor::DenseTensor {
    fn wire_size(&self) -> usize {
        self.byte_size()
    }

    fn combine(&mut self, other: &Self) {
        self.reduce_add_inplace(other);
    }
}

impl Payload for tesseract_tensor::ShadowTensor {
    fn wire_size(&self) -> usize {
        self.byte_size()
    }

    fn combine(&mut self, other: &Self) {
        self.reduce_add_inplace(other);
    }
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }

    fn combine(&mut self, _other: &Self) {}
}

/// `Arc<P>` travels through collectives and point-to-point channels without
/// copying the inner payload (the pipeline sends activations this way).
/// Reducing through the `Arc` uses copy-on-write: uniquely-owned deposits
/// are combined in place, shared ones are cloned first.
impl<P: Payload> Payload for Arc<P> {
    fn wire_size(&self) -> usize {
        (**self).wire_size()
    }

    fn combine(&mut self, other: &Self) {
        Arc::make_mut(self).combine(other);
    }
}

impl<P: Payload> Payload for Vec<P> {
    fn wire_size(&self) -> usize {
        self.iter().map(Payload::wire_size).sum()
    }

    fn combine(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "Vec payload length mismatch in reduce");
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.combine(b);
        }
    }
}

/// FNV-1a over a tag and the member ranks; gives every distinct group a
/// stable identifier shared by all of its members.
fn group_id(tag: &str, ranks: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in tag.as_bytes() {
        eat(*b);
    }
    eat(0xff);
    for &r in ranks {
        for b in (r as u64).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// One rank's handle onto a communication group.
///
/// Contract (SPMD): every member constructs the group with the same `tag`
/// and the same rank list (same order), constructs it once, and issues the
/// same collectives in the same order.
pub struct CommGroup {
    id: u64,
    ranks: Vec<usize>,
    my_index: usize,
    /// Node-boundary summary of `ranks`, computed once at construction (the
    /// topology is immutable for the life of a run); drives the two-level
    /// cost model at every charging site.
    placement: GroupPlacement,
    seq: Cell<u64>,
    /// Sequence numbers of split-phase collectives begun but not yet
    /// completed, in begin order. `complete` must drain this FIFO from the
    /// front; anything else is a sequencing bug on this rank.
    outstanding: RefCell<VecDeque<u64>>,
}

impl CommGroup {
    /// Creates this rank's handle. `ranks` must contain `ctx.rank`.
    pub fn new(ctx: &RankCtx, tag: &str, ranks: Vec<usize>) -> Self {
        let my_index = ranks
            .iter()
            .position(|&r| r == ctx.rank)
            .unwrap_or_else(|| panic!("rank {} not a member of group '{tag}' {ranks:?}", ctx.rank));
        Self {
            id: group_id(tag, &ranks),
            placement: ctx.topology.placement(&ranks),
            ranks,
            my_index,
            seq: Cell::new(0),
            outstanding: RefCell::new(VecDeque::new()),
        }
    }

    /// How this group's members sit relative to node boundaries.
    pub fn placement(&self) -> GroupPlacement {
        self.placement
    }

    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    pub fn my_index(&self) -> usize {
        self.my_index
    }

    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// Runs one rendezvous and applies clock/cost/stat accounting.
    /// `bytes` is the per-rank payload size used by the cost formulas;
    /// `None` means the size is only known after the rendezvous (broadcast,
    /// scatter): the rendezvous is then charged as a zero-byte collective
    /// (latency only, no stats), and [`CommGroup::recharge`] applies the
    /// size-dependent cost and records stats once the size is known — the
    /// exact charging the calibrated tables were produced with.
    fn sync<P: Send + Sync + 'static>(
        &self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        bytes: Option<usize>,
        payload: Option<P>,
        span: &mut CommScope,
    ) -> Arc<Vec<Option<P>>> {
        ctx.flush_compute();
        let key = (self.id, self.next_seq());
        let entry = ctx.clock();
        let (max_vt, deposits) =
            ctx.fabric().exchange(key, self.my_index, self.size(), payload, entry);
        span.note_sync(key, entry, max_vt);
        let cost = ctx.params.phased_collective_time(op, bytes.unwrap_or(0), self.placement).total;
        span.note_cost(cost);
        ctx.advance_comm(max_vt + cost);
        if bytes.is_some() && self.my_index == 0 {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes.unwrap_or(0));
            ctx.stats().record(op, wire, cost);
            span.note_stats(wire, cost);
        }
        deposits
    }

    /// Runs one reducing rendezvous: deposits every member's payload by
    /// value, folds them in ascending member order exactly once (on the
    /// last-arriving rank, in place — no deposit is cloned), and hands
    /// every member an `Arc` of the combined result.
    fn sync_reduce<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        payload: P,
        span: &mut CommScope,
    ) -> Arc<P> {
        ctx.flush_compute();
        let bytes = payload.wire_size();
        let key = (self.id, self.next_seq());
        let entry = ctx.clock();
        let (max_vt, combined) = ctx.fabric().exchange_reduce(
            key,
            self.my_index,
            self.size(),
            payload,
            entry,
            combine_parts_in_order,
        );
        span.note_sync(key, entry, max_vt);
        let cost = ctx.params.phased_collective_time(op, bytes, self.placement).total;
        span.note_cost(cost);
        ctx.advance_comm(max_vt + cost);
        if self.my_index == 0 {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes);
            ctx.stats().record(op, wire, cost);
            span.note_stats(wire, cost);
        }
        combined
    }

    /// Clones an owned value out of a shared collective result, recording
    /// the copy in both the run-wide comm stats and this rank's meter. The
    /// owned compatibility wrappers route every materialization through
    /// here so copy counts stay deterministic: broadcast/all-reduce make
    /// one per member, all-gather `n` per member, reduce one at the root.
    fn clone_counted<P: Payload>(&self, ctx: &mut RankCtx, op: CollectiveOp, payload: &P) -> P {
        let bytes = payload.wire_size() as u64;
        ctx.stats().charge_copy(op, bytes);
        ctx.meter.charge_payload_copy(bytes);
        if trace::is_active() {
            let vt = ctx.vt_now();
            trace::record(
                format!("copy:{}", op.name()),
                vt,
                vt,
                TraceKind::Copy { op: op.name(), bytes },
            );
        }
        payload.clone()
    }

    /// Synchronizes all members without moving data.
    pub fn barrier(&self, ctx: &mut RankCtx) {
        // Barrier cost is bytes-independent, so it is charged in `sync`
        // directly (no deferred recharge needed).
        let mut span = CommScope::open(ctx, CollectiveOp::Barrier);
        let _ = self.sync::<()>(ctx, CollectiveOp::Barrier, Some(0), Some(()), &mut span);
        span.finish(ctx);
    }

    /// Zero-copy broadcast: the root (by member index) deposits an `Arc` of
    /// its payload — without cloning its local block — and every member
    /// (root included) receives an `Arc` clone of that single allocation.
    /// The payload is materialized exactly once per rendezvous regardless
    /// of the group size.
    pub fn broadcast_shared<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<Arc<P>>,
    ) -> Arc<P> {
        assert_eq!(
            payload.is_some(),
            self.my_index == root,
            "broadcast: exactly the root must supply the payload"
        );
        // The root's payload size drives the cost; non-roots don't know it
        // yet, so the rendezvous charges the zero-byte latency and
        // `recharge` adds the size-dependent cost identically on every
        // member once the size is known. One trace span covers both halves.
        let mut span = CommScope::open(ctx, CollectiveOp::Broadcast);
        let deposits = self.sync(ctx, CollectiveOp::Broadcast, None, payload, &mut span);
        let value = Arc::clone(deposits[root].as_ref().expect("root deposited"));
        self.recharge(ctx, CollectiveOp::Broadcast, value.wire_size(), &mut span);
        span.finish(ctx);
        value
    }

    /// Root (by member index) provides the payload; everyone receives an
    /// owned copy. Compatibility wrapper over [`CommGroup::broadcast_shared`]:
    /// makes one counted deep copy per member.
    pub fn broadcast<P: Payload>(&self, ctx: &mut RankCtx, root: usize, payload: Option<P>) -> P {
        let shared = self.broadcast_shared(ctx, root, payload.map(Arc::new));
        self.clone_counted(ctx, CollectiveOp::Broadcast, &*shared)
    }

    /// Adds the cost of an op whose byte size was only known after the
    /// rendezvous. Keeps clocks identical across members because every
    /// member executes the same re-charge.
    fn recharge(&self, ctx: &mut RankCtx, op: CollectiveOp, bytes: usize, span: &mut CommScope) {
        let cost = ctx.params.phased_collective_time(op, bytes, self.placement).total;
        span.note_cost(cost);
        ctx.advance_comm(ctx.clock() + cost);
        if self.my_index == 0 {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes);
            ctx.stats().record(op, wire, cost);
            span.note_stats(wire, cost);
        }
    }

    /// In-place sum-reduction to `root`: every member's payload is consumed
    /// by value and folded without cloning; only the root receives the
    /// combined value (shared, not copied).
    pub fn reduce_shared<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> Option<Arc<P>> {
        let mut span = CommScope::open(ctx, CollectiveOp::Reduce);
        let combined = self.sync_reduce(ctx, CollectiveOp::Reduce, payload, &mut span);
        span.finish(ctx);
        (self.my_index == root).then_some(combined)
    }

    /// Sum-reduction to `root`, returning an owned value. Compatibility
    /// wrapper over [`CommGroup::reduce_shared`]: one counted copy at root.
    pub fn reduce<P: Payload>(&self, ctx: &mut RankCtx, root: usize, payload: P) -> Option<P> {
        let mut span = CommScope::open(ctx, CollectiveOp::Reduce);
        let combined = self.sync_reduce(ctx, CollectiveOp::Reduce, payload, &mut span);
        span.finish(ctx);
        (self.my_index == root).then(|| self.clone_counted(ctx, CollectiveOp::Reduce, &*combined))
    }

    /// In-place sum-reduction delivered to every member as one shared
    /// allocation: payloads are consumed by value, folded exactly once (in
    /// ascending member order), never cloned.
    pub fn all_reduce_shared<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> Arc<P> {
        let mut span = CommScope::open(ctx, CollectiveOp::AllReduce);
        let combined = self.sync_reduce(ctx, CollectiveOp::AllReduce, payload, &mut span);
        span.finish(ctx);
        combined
    }

    /// Sum-reduction delivered to every member as an owned value.
    /// Compatibility wrapper over [`CommGroup::all_reduce_shared`]: one
    /// counted copy per member.
    pub fn all_reduce<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> P {
        let mut span = CommScope::open(ctx, CollectiveOp::AllReduce);
        let combined = self.sync_reduce(ctx, CollectiveOp::AllReduce, payload, &mut span);
        span.finish(ctx);
        self.clone_counted(ctx, CollectiveOp::AllReduce, &*combined)
    }

    /// Zero-copy all-gather: every member receives `Arc` clones of every
    /// member's deposit, in member order. Each payload is materialized once
    /// cluster-wide instead of once per receiver (the owned wrapper's
    /// O(n²) clones).
    pub fn all_gather_shared<P: Payload>(&self, ctx: &mut RankCtx, payload: Arc<P>) -> Vec<Arc<P>> {
        let bytes = payload.wire_size();
        let mut span = CommScope::open(ctx, CollectiveOp::AllGather);
        let deposits =
            self.sync(ctx, CollectiveOp::AllGather, Some(bytes), Some(payload), &mut span);
        span.finish(ctx);
        deposits.iter().map(|d| Arc::clone(d.as_ref().expect("all deposited"))).collect()
    }

    /// Every member receives every member's payload, in member order.
    /// Compatibility wrapper over [`CommGroup::all_gather_shared`]: `n`
    /// counted copies per member.
    pub fn all_gather<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> Vec<P> {
        let shared = self.all_gather_shared(ctx, Arc::new(payload));
        shared.iter().map(|d| self.clone_counted(ctx, CollectiveOp::AllGather, &**d)).collect()
    }

    /// Root receives every member's payload, in member order (`n` counted
    /// copies, all at the root).
    pub fn gather<P: Payload>(&self, ctx: &mut RankCtx, root: usize, payload: P) -> Option<Vec<P>> {
        let bytes = payload.wire_size();
        let mut span = CommScope::open(ctx, CollectiveOp::Gather);
        let deposits =
            self.sync(ctx, CollectiveOp::Gather, Some(bytes), Some(Arc::new(payload)), &mut span);
        span.finish(ctx);
        (self.my_index == root).then(|| {
            deposits
                .iter()
                .map(|d| {
                    self.clone_counted(
                        ctx,
                        CollectiveOp::Gather,
                        &**d.as_ref().expect("all deposited"),
                    )
                })
                .collect()
        })
    }

    /// Root provides one payload per member; each member receives its own
    /// (one counted copy per member — the root's part vector is deposited
    /// whole, without cloning).
    pub fn scatter<P: Payload>(&self, ctx: &mut RankCtx, root: usize, parts: Option<Vec<P>>) -> P {
        if let Some(ref p) = parts {
            assert_eq!(p.len(), self.size(), "scatter: need one part per member");
        }
        assert_eq!(
            parts.is_some(),
            self.my_index == root,
            "scatter: exactly the root must supply the parts"
        );
        let mut span = CommScope::open(ctx, CollectiveOp::Scatter);
        let deposits = self.sync(ctx, CollectiveOp::Scatter, None, parts.map(Arc::new), &mut span);
        let all = deposits[root].as_ref().expect("root deposited");
        let mine = self.clone_counted(ctx, CollectiveOp::Scatter, &all[self.my_index]);
        self.recharge(ctx, CollectiveOp::Scatter, mine.wire_size(), &mut span);
        span.finish(ctx);
        mine
    }

    /// Cyclic shift: every member sends its payload `offset` positions
    /// forward (member order, wrapping) and receives from `offset` behind
    /// (one counted copy per member). `offset` may be negative. This is
    /// Cannon's primitive.
    pub fn shift<P: Payload>(&self, ctx: &mut RankCtx, offset: isize, payload: P) -> P {
        let n = self.size() as isize;
        let bytes = payload.wire_size();
        let mut span = CommScope::open(ctx, CollectiveOp::Shift);
        let deposits =
            self.sync(ctx, CollectiveOp::Shift, Some(bytes), Some(Arc::new(payload)), &mut span);
        span.finish(ctx);
        let src = (self.my_index as isize - offset).rem_euclid(n) as usize;
        self.clone_counted(
            ctx,
            CollectiveOp::Shift,
            &**deposits[src].as_ref().expect("all deposited"),
        )
    }

    // ---- Split-phase collectives ------------------------------------

    /// Non-blocking first half shared by all split-phase non-reducing
    /// collectives: flushes pending compute (so the deposit timestamp is
    /// exact), deposits the payload, and registers the sequence number as
    /// outstanding. Returns `(seq, deposit timestamp)`.
    fn begin_sync<P: Send + Sync + 'static>(
        &self,
        ctx: &mut RankCtx,
        payload: Option<P>,
    ) -> (u64, f64) {
        ctx.flush_compute();
        let seq = self.next_seq();
        let deposit_vt = ctx.clock();
        ctx.fabric().deposit((self.id, seq), self.my_index, self.size(), payload, deposit_vt);
        self.outstanding.borrow_mut().push_back(seq);
        (seq, deposit_vt)
    }

    /// Reducing counterpart of [`CommGroup::begin_sync`]. The payload's
    /// wire size must be captured here — it is consumed by the fold.
    /// Returns `(seq, deposit timestamp, wire bytes)`.
    fn begin_reduce<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> (u64, f64, usize) {
        ctx.flush_compute();
        let bytes = payload.wire_size();
        let seq = self.next_seq();
        let deposit_vt = ctx.clock();
        ctx.fabric().deposit_reduce(
            (self.id, seq),
            self.my_index,
            self.size(),
            payload,
            deposit_vt,
            combine_parts_in_order,
        );
        self.outstanding.borrow_mut().push_back(seq);
        (seq, deposit_vt, bytes)
    }

    /// Enforces the FIFO completion discipline: `seq` must be the oldest
    /// outstanding begin on this group.
    fn pop_outstanding(&self, op: CollectiveOp, seq: u64) {
        let mut q = self.outstanding.borrow_mut();
        let front = *q.front().unwrap_or_else(|| {
            panic!("completing {} seq {seq} but no split-phase begin is outstanding", op.name())
        });
        assert_eq!(
            front,
            seq,
            "split-phase collective completed out of order: completing {} seq {seq} \
             but the oldest outstanding begin is seq {front}",
            op.name()
        );
        q.pop_front();
    }

    /// Clock/cost/stat accounting for the completion half. The serial exit
    /// time is `max(entry clocks) + α–β cost` — identical to the blocking
    /// path — but the clock only advances by the *non-overlapped remainder*:
    /// whatever portion of the wait the caller's compute already covered is
    /// recorded as hidden time instead of being charged. `deferred_size`
    /// mirrors the blocking broadcast/scatter charging (zero-byte latency
    /// plus a size-dependent recharge; only the recharge reaches the stats).
    fn finish_charge(
        &self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        max_vt: f64,
        bytes: usize,
        deposit_vt: f64,
        deferred_size: bool,
        span: &mut CommScope,
    ) {
        let cost_b = ctx.params.phased_collective_time(op, bytes, self.placement).total;
        let cost0 = if deferred_size {
            ctx.params.phased_collective_time(op, 0, self.placement).total
        } else {
            0.0
        };
        span.note_sync(span.key, deposit_vt, max_vt);
        span.note_cost(cost0 + cost_b);
        let target = max_vt + cost0 + cost_b;
        let hidden = (ctx.clock().min(target) - deposit_vt).max(0.0);
        if hidden > 0.0 {
            ctx.meter.charge_overlap_hidden(hidden);
            ctx.stats().charge_hidden(op, hidden);
            span.note_hidden(hidden);
        }
        ctx.advance_comm(target);
        if self.my_index == 0 {
            let wire = ctx.params.wire_bytes(op, self.size(), bytes);
            ctx.stats().record(op, wire, cost_b);
            span.note_stats(wire, cost_b);
        }
    }

    fn pending<'g, R: 'g>(
        &'g self,
        op: CollectiveOp,
        seq: u64,
        finish: impl FnOnce(&mut RankCtx) -> R + 'g,
    ) -> PendingCollective<'g, R> {
        PendingCollective { op, seq, finish: Some(Box::new(finish)) }
    }

    /// Split-phase [`CommGroup::broadcast_shared`]: deposits the root's
    /// `Arc` immediately; the returned handle blocks (and pays only the
    /// non-overlapped wait) at `complete`. Data is bitwise identical to the
    /// blocking call — every member receives a clone of the same allocation.
    pub fn broadcast_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<Arc<P>>,
    ) -> PendingCollective<'g, Arc<P>> {
        assert_eq!(
            payload.is_some(),
            self.my_index == root,
            "broadcast: exactly the root must supply the payload"
        );
        let (seq, deposit_vt) = self.begin_sync(ctx, payload);
        self.pending(CollectiveOp::Broadcast, seq, move |ctx| {
            self.pop_outstanding(CollectiveOp::Broadcast, seq);
            let mut span =
                CommScope::open_at(ctx, CollectiveOp::Broadcast, (self.id, seq), deposit_vt);
            ctx.flush_compute();
            let (max_vt, deposits) =
                ctx.fabric().wait::<Arc<P>>((self.id, seq), self.my_index, self.size());
            let value = Arc::clone(deposits[root].as_ref().expect("root deposited"));
            self.finish_charge(
                ctx,
                CollectiveOp::Broadcast,
                max_vt,
                value.wire_size(),
                deposit_vt,
                true,
                &mut span,
            );
            span.finish(ctx);
            value
        })
    }

    /// Split-phase [`CommGroup::broadcast`] (owned result; one counted copy
    /// per member, made at `complete`).
    pub fn broadcast_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<P>,
    ) -> PendingCollective<'g, P> {
        self.broadcast_shared_begin(ctx, root, payload.map(Arc::new))
            .map(move |ctx, shared| self.clone_counted(ctx, CollectiveOp::Broadcast, &*shared))
    }

    /// Split-phase [`CommGroup::reduce_shared`]: the payload is consumed
    /// and deposited immediately; `complete` hands the root the combined
    /// value (ascending member-order fold, bitwise identical to blocking).
    pub fn reduce_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> PendingCollective<'g, Option<Arc<P>>> {
        let (seq, deposit_vt, bytes) = self.begin_reduce(ctx, payload);
        self.pending(CollectiveOp::Reduce, seq, move |ctx| {
            self.pop_outstanding(CollectiveOp::Reduce, seq);
            let mut span =
                CommScope::open_at(ctx, CollectiveOp::Reduce, (self.id, seq), deposit_vt);
            ctx.flush_compute();
            let (max_vt, combined) =
                ctx.fabric().wait_reduce::<P>((self.id, seq), self.my_index, self.size());
            self.finish_charge(
                ctx,
                CollectiveOp::Reduce,
                max_vt,
                bytes,
                deposit_vt,
                false,
                &mut span,
            );
            span.finish(ctx);
            (self.my_index == root).then_some(combined)
        })
    }

    /// Split-phase [`CommGroup::reduce`] (owned result at root; one counted
    /// copy, made at `complete`).
    pub fn reduce_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> PendingCollective<'g, Option<P>> {
        self.reduce_shared_begin(ctx, root, payload).map(move |ctx, shared| {
            shared.map(|s| self.clone_counted(ctx, CollectiveOp::Reduce, &*s))
        })
    }

    /// Split-phase [`CommGroup::all_reduce_shared`].
    pub fn all_reduce_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: P,
    ) -> PendingCollective<'g, Arc<P>> {
        let (seq, deposit_vt, bytes) = self.begin_reduce(ctx, payload);
        self.pending(CollectiveOp::AllReduce, seq, move |ctx| {
            self.pop_outstanding(CollectiveOp::AllReduce, seq);
            let mut span =
                CommScope::open_at(ctx, CollectiveOp::AllReduce, (self.id, seq), deposit_vt);
            ctx.flush_compute();
            let (max_vt, combined) =
                ctx.fabric().wait_reduce::<P>((self.id, seq), self.my_index, self.size());
            self.finish_charge(
                ctx,
                CollectiveOp::AllReduce,
                max_vt,
                bytes,
                deposit_vt,
                false,
                &mut span,
            );
            span.finish(ctx);
            combined
        })
    }

    /// Split-phase [`CommGroup::all_reduce`] (owned result; one counted
    /// copy per member, made at `complete`).
    pub fn all_reduce_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: P,
    ) -> PendingCollective<'g, P> {
        self.all_reduce_shared_begin(ctx, payload)
            .map(move |ctx, shared| self.clone_counted(ctx, CollectiveOp::AllReduce, &*shared))
    }

    /// Split-phase [`CommGroup::all_gather_shared`].
    pub fn all_gather_shared_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: Arc<P>,
    ) -> PendingCollective<'g, Vec<Arc<P>>> {
        let bytes = payload.wire_size();
        let (seq, deposit_vt) = self.begin_sync(ctx, Some(payload));
        self.pending(CollectiveOp::AllGather, seq, move |ctx| {
            self.pop_outstanding(CollectiveOp::AllGather, seq);
            let mut span =
                CommScope::open_at(ctx, CollectiveOp::AllGather, (self.id, seq), deposit_vt);
            ctx.flush_compute();
            let (max_vt, deposits) =
                ctx.fabric().wait::<Arc<P>>((self.id, seq), self.my_index, self.size());
            self.finish_charge(
                ctx,
                CollectiveOp::AllGather,
                max_vt,
                bytes,
                deposit_vt,
                false,
                &mut span,
            );
            span.finish(ctx);
            deposits.iter().map(|d| Arc::clone(d.as_ref().expect("all deposited"))).collect()
        })
    }

    /// Split-phase [`CommGroup::all_gather`] (owned results; `n` counted
    /// copies per member, made at `complete`).
    pub fn all_gather_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: P,
    ) -> PendingCollective<'g, Vec<P>> {
        self.all_gather_shared_begin(ctx, Arc::new(payload)).map(move |ctx, shared| {
            shared.iter().map(|d| self.clone_counted(ctx, CollectiveOp::AllGather, &**d)).collect()
        })
    }

    /// Point-to-point send to another member (by member index).
    pub fn send<P: Payload>(&self, ctx: &mut RankCtx, dst: usize, tag: u64, payload: P) {
        assert!(dst < self.size() && dst != self.my_index, "send: bad destination");
        let mut span = CommScope::open(ctx, CollectiveOp::SendRecv);
        ctx.flush_compute();
        let bytes = payload.wire_size();
        let chan = (self.id, self.my_index, dst, tag);
        let send_vt = ctx.clock();
        ctx.fabric().send(chan, payload, send_vt);
        span.note_sync((self.id, chan_seq(self.my_index, dst, tag)), send_vt, send_vt);
        let link = ctx.topology.link_between(self.ranks[self.my_index], self.ranks[dst]);
        let (alpha, _) = ctx.params.link_params(link);
        span.note_cost(alpha);
        // The sender only pays injection latency; transfer time is charged
        // to the receiver (eager-send model).
        ctx.advance_comm(ctx.clock() + alpha);
        let wire = ctx.params.wire_bytes(CollectiveOp::SendRecv, 2, bytes);
        ctx.stats().record(CollectiveOp::SendRecv, wire, 0.0);
        span.note_stats(wire, 0.0);
        span.finish(ctx);
    }

    /// Point-to-point receive from another member (by member index).
    pub fn recv<P: Payload>(&self, ctx: &mut RankCtx, src: usize, tag: u64) -> P {
        assert!(src < self.size() && src != self.my_index, "recv: bad source");
        let mut span = CommScope::open(ctx, CollectiveOp::SendRecv);
        ctx.flush_compute();
        let chan = (self.id, src, self.my_index, tag);
        let entry = ctx.clock();
        let (send_vt, payload): (f64, P) = ctx.fabric().recv(chan);
        // The recv's cross-rank dependency is the sender's injection time:
        // note it as the "slowest entry" so the critical path hops there.
        span.note_sync((self.id, chan_seq(src, self.my_index, tag)), entry, send_vt);
        let link = ctx.topology.link_between(self.ranks[src], self.ranks[self.my_index]);
        let cost = ctx.params.collective_time(CollectiveOp::SendRecv, 2, payload.wire_size(), link);
        span.note_cost(cost);
        let ready = send_vt.max(ctx.clock());
        ctx.advance_comm(ready + cost);
        span.finish(ctx);
        payload
    }
}

/// A split-phase collective whose payload is already deposited in the
/// fabric. Obtained from the `*_begin` methods on [`CommGroup`]; the result
/// (and all clock/cost accounting) is produced by
/// [`PendingCollective::complete`].
///
/// Handles on one group must be completed in begin order; completing out of
/// order panics. Dropping a handle without completing it also panics — a
/// forgotten `complete` would silently desynchronize the group's SPMD
/// schedule and wedge peers at the rendezvous timeout instead.
pub struct PendingCollective<'g, R> {
    op: CollectiveOp,
    seq: u64,
    finish: Option<Box<dyn FnOnce(&mut RankCtx) -> R + 'g>>,
}

impl<'g, R> PendingCollective<'g, R> {
    /// The collective op this handle belongs to.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// Blocks until the rendezvous is full, charges the non-overlapped
    /// remainder of the wait to the virtual clock, and returns the result.
    pub fn complete(mut self, ctx: &mut RankCtx) -> R {
        let finish = self.finish.take().expect("finish closure present until complete");
        finish(ctx)
    }

    /// Post-processes the eventual result (used by the owned-value wrappers
    /// to defer their counted copies to `complete`).
    fn map<S>(mut self, f: impl FnOnce(&mut RankCtx, R) -> S + 'g) -> PendingCollective<'g, S>
    where
        R: 'g,
    {
        let finish = self.finish.take().expect("finish closure present until complete");
        PendingCollective {
            op: self.op,
            seq: self.seq,
            finish: Some(Box::new(move |ctx| {
                let r = finish(ctx);
                f(ctx, r)
            })),
        }
    }
}

impl<R> Drop for PendingCollective<'_, R> {
    fn drop(&mut self) {
        if self.finish.is_some() && !std::thread::panicking() {
            panic!("split-phase {} (seq {}) dropped without complete()", self.op.name(), self.seq);
        }
    }
}

/// Folds deposits in ascending member order (deterministic reduction),
/// consuming them: member 0's buffer becomes the accumulator in place, so
/// an n-way reduction performs zero payload copies.
fn combine_parts_in_order<P: Payload>(parts: Vec<P>) -> P {
    let mut iter = parts.into_iter();
    let mut acc = iter.next().expect("non-empty group");
    for d in iter {
        acc.combine(&d);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_ids_differ_by_ranks_and_tag() {
        let a = group_id("row", &[0, 1]);
        let b = group_id("row", &[2, 3]);
        let c = group_id("col", &[0, 1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, group_id("row", &[0, 1]));
    }

    #[test]
    fn arc_payload_delegates_size_and_combines_copy_on_write() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let base = Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)));
        assert_eq!(base.wire_size(), 16);
        // A uniquely-owned accumulator combines in place…
        let mut unique = Arc::new(DenseTensor::from_matrix(Matrix::full(2, 2, 2.0)));
        let ptr_before = Arc::as_ptr(&unique);
        unique.combine(&base);
        assert_eq!(Arc::as_ptr(&unique), ptr_before, "unique Arc must not reallocate");
        assert_eq!(unique.matrix().data(), &[3.0; 4]);
        // …while a shared one copies-on-write, leaving other holders intact.
        let mut shared = Arc::clone(&base);
        shared.combine(&base);
        assert_eq!(shared.matrix().data(), &[2.0; 4]);
        assert_eq!(base.matrix().data(), &[1.0; 4], "original holder must be untouched");
    }

    #[test]
    fn combine_parts_in_order_is_left_fold_over_member_order() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let parts: Vec<DenseTensor> =
            (0..4).map(|i| DenseTensor::from_matrix(Matrix::full(1, 2, i as f32))).collect();
        let acc = combine_parts_in_order(parts);
        assert_eq!(acc.matrix().data(), &[6.0, 6.0]);
    }

    #[test]
    fn vec_payload_sizes_and_combines() {
        use tesseract_tensor::{DenseTensor, Matrix};
        let a = vec![
            DenseTensor::from_matrix(Matrix::full(2, 2, 1.0)),
            DenseTensor::from_matrix(Matrix::full(1, 2, 2.0)),
        ];
        assert_eq!(a.wire_size(), (4 + 2) * 4);
        let mut acc = a.clone();
        acc.combine(&a);
        assert_eq!(acc[0].matrix().data(), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(acc[1].matrix().data(), &[4.0, 4.0]);
    }
}

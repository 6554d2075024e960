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
//! # One form per collective
//!
//! Each rendezvous collective exists in one form, with a split-phase
//! `*_begin` twin; the blocking call is literally
//! `*_begin(..).complete(ctx)`. `*_begin` flushes pending compute (so the
//! deposit timestamp is exact) and deposits the payload into the fabric;
//! [`PendingCollective::complete`] blocks for the rest of the group and
//! does all clock/cost/stat accounting in one routine. Compute run
//! between the two overlaps the rendezvous: at `complete` the clock only
//! advances to the collective's serial exit time (`max(entry clocks) +
//! α–β cost`) if it is not already past it, so it charges exactly the
//! *non-overlapped remainder* of the wait. The hidden portion is recorded
//! in `Meter::overlap_hidden_nanos` and
//! [`crate::stats::OpStats::hidden_time`] instead of being charged.
//!
//! Pending collectives on one group must be completed in begin order
//! (FIFO, the NCCL stream discipline). Completing out of order panics, as
//! does dropping a handle without completing it, and so does a blocking
//! call made while an older begin on the same group is outstanding.
//!
//! # Zero-copy payloads
//!
//! Read-only payloads travel as `Arc<P>`: [`CommGroup::broadcast`] and
//! [`CommGroup::all_gather`] hand every receiver an `Arc` clone of the
//! root's deposit, so the payload is materialized exactly once per
//! rendezvous regardless of group size. [`CommGroup::reduce`] and
//! [`CommGroup::all_reduce`] take deposits *by value* and fold them in
//! place (ascending member order, once per rendezvous) into one shared
//! result. A caller that needs an owned value unwraps it through
//! [`RankCtx::clone_counted`], which records the deep copy in
//! [`crate::stats::OpStats::copies`] and `Meter::payload_copies`, so every
//! copy stays observable and copy regressions stay testable. `gather`,
//! `scatter` and `shift` return owned values and count their copies the
//! same way.
//!
//! Ownership rule: an `Arc` returned from a collective may be read freely
//! but must never be mutated through `Arc::get_mut` — other ranks (or the
//! fabric slot, transiently) may hold clones. Use `Arc::make_mut` for
//! copy-on-write or [`RankCtx::clone_counted`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use tesseract_tensor::{trace, TensorLike, TraceKind};

use crate::cost::CollectiveOp;
use crate::ctx::RankCtx;
use crate::fabric::Fabric;
use crate::topology::GroupPlacement;

/// Per-collective trace observer. Opened at `complete` (with the deposit
/// timestamp as its begin) or at the entry of a point-to-point call, it
/// accumulates what the charging internals already compute — rendezvous key,
/// slowest entry, α–β cost, stats contributions — plus *deltas* of the
/// rank's lifetime wait/hidden counters, and emits one
/// [`TraceKind::Comm`] span at [`CommScope::finish`]. When tracing is
/// inactive every method is a no-op behind one bool; the observer never
/// feeds back into any charge, so traced and untraced runs are bitwise
/// identical.
struct CommScope {
    active: bool,
    op: CollectiveOp,
    /// Span start: deposit timestamp (collectives) or entry clock (p2p).
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

    /// Notes α–β cost charged on behalf of this collective.
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

    /// Flushes pending compute (so the deposit timestamp is exact), draws
    /// the next sequence number and registers it as outstanding. Returns
    /// `(seq, deposit timestamp)`.
    fn open_rendezvous(&self, ctx: &mut RankCtx) -> (u64, f64) {
        ctx.flush_compute();
        let seq = self.next_seq();
        self.outstanding.borrow_mut().push_back(seq);
        (seq, ctx.clock())
    }

    /// First half of every non-reducing collective: deposits `payload`
    /// now. At `complete`, `take` turns the deposit vector into this
    /// member's result plus the per-rank payload size the cost formulas
    /// need; `deferred_size` marks ops whose size only the root knows
    /// (broadcast, scatter — see [`CommGroup::settle`]).
    fn begin_exchange<'g, P, R>(
        &'g self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        payload: Option<P>,
        deferred_size: bool,
        take: impl FnOnce(Arc<Vec<Option<P>>>) -> (R, usize) + 'g,
    ) -> PendingCollective<'g, R>
    where
        P: Send + Sync + 'static,
        R: 'g,
    {
        let (seq, deposit_vt) = self.open_rendezvous(ctx);
        ctx.fabric().deposit((self.id, seq), self.my_index, self.size(), payload, deposit_vt);
        PendingCollective::new(op, seq, move |ctx| {
            self.settle(ctx, op, seq, deposit_vt, deferred_size, |fabric| {
                let (max_vt, deposits) = fabric.wait((self.id, seq), self.my_index, self.size());
                let (value, bytes) = take(deposits);
                (max_vt, value, bytes)
            })
        })
    }

    /// First half of every reducing collective: consumes and deposits the
    /// payload now (its wire size is captured here, before the fold eats
    /// it). The last arriver folds all deposits in ascending member order
    /// exactly once, in place — no deposit is cloned; at `complete`,
    /// `deliver` turns the shared combined value into this member's result.
    fn begin_reduce<'g, P: Payload, R: 'g>(
        &'g self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        payload: P,
        deliver: impl FnOnce(Arc<P>) -> R + 'g,
    ) -> PendingCollective<'g, R> {
        let bytes = payload.wire_size();
        let (seq, deposit_vt) = self.open_rendezvous(ctx);
        ctx.fabric().deposit_reduce(
            (self.id, seq),
            self.my_index,
            self.size(),
            payload,
            deposit_vt,
            combine_parts_in_order,
        );
        PendingCollective::new(op, seq, move |ctx| {
            self.settle(ctx, op, seq, deposit_vt, false, |fabric| {
                let (max_vt, combined) =
                    fabric.wait_reduce::<P>((self.id, seq), self.my_index, self.size());
                (max_vt, deliver(combined), bytes)
            })
        })
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

    /// The completion half of every rendezvous collective and its only
    /// charging routine. Enforces the FIFO discipline, blocks in `wait`
    /// for `(max entry clock, result, per-rank bytes)`, then charges the op
    /// once. The serial exit time is `max(entry clocks) + α–β cost`, but
    /// the clock only advances by the *non-overlapped remainder*: whatever
    /// portion of the wait the caller's compute already covered since the
    /// deposit is recorded as hidden time instead of being charged. A
    /// `deferred_size` op also pays the zero-byte latency (only the
    /// size-dependent part reaches the stats) — the exact charging the
    /// calibrated tables were produced with.
    fn settle<R>(
        &self,
        ctx: &mut RankCtx,
        op: CollectiveOp,
        seq: u64,
        deposit_vt: f64,
        deferred_size: bool,
        wait: impl FnOnce(&Fabric) -> (f64, R, usize),
    ) -> R {
        self.pop_outstanding(op, seq);
        let mut span = CommScope::open_at(ctx, op, (self.id, seq), deposit_vt);
        ctx.flush_compute();
        let (max_vt, value, bytes) = wait(ctx.fabric());
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
        span.finish(ctx);
        value
    }

    /// Synchronizes all members without moving data.
    pub fn barrier(&self, ctx: &mut RankCtx) {
        self.begin_exchange(ctx, CollectiveOp::Barrier, Some(()), false, |_| ((), 0)).complete(ctx)
    }

    /// Zero-copy broadcast: the root (by member index) deposits an `Arc` of
    /// its payload — without cloning its local block — and every member
    /// (root included) receives an `Arc` clone of that single allocation.
    pub fn broadcast<P: Payload>(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        payload: Option<Arc<P>>,
    ) -> Arc<P> {
        self.broadcast_begin(ctx, root, payload).complete(ctx)
    }

    /// Split-phase [`CommGroup::broadcast`]: deposits the root's `Arc`
    /// immediately; the handle blocks (and pays only the non-overlapped
    /// wait) at `complete`.
    pub fn broadcast_begin<'g, P: Payload>(
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
        self.begin_exchange(ctx, CollectiveOp::Broadcast, payload, true, move |deposits| {
            let value = Arc::clone(deposits[root].as_ref().expect("root deposited"));
            let bytes = value.wire_size();
            (value, bytes)
        })
    }

    /// In-place sum-reduction to `root`: every member's payload is consumed
    /// by value and folded without cloning; only the root receives the
    /// combined value (shared, not copied).
    pub fn reduce<P: Payload>(&self, ctx: &mut RankCtx, root: usize, payload: P) -> Option<Arc<P>> {
        self.reduce_begin(ctx, root, payload).complete(ctx)
    }

    /// Split-phase [`CommGroup::reduce`].
    pub fn reduce_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        root: usize,
        payload: P,
    ) -> PendingCollective<'g, Option<Arc<P>>> {
        let is_root = self.my_index == root;
        self.begin_reduce(ctx, CollectiveOp::Reduce, payload, move |c| is_root.then_some(c))
    }

    /// In-place sum-reduction delivered to every member as one shared
    /// allocation: payloads are consumed by value, folded exactly once (in
    /// ascending member order), never cloned.
    pub fn all_reduce<P: Payload>(&self, ctx: &mut RankCtx, payload: P) -> Arc<P> {
        self.all_reduce_begin(ctx, payload).complete(ctx)
    }

    /// Split-phase [`CommGroup::all_reduce`].
    pub fn all_reduce_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: P,
    ) -> PendingCollective<'g, Arc<P>> {
        self.begin_reduce(ctx, CollectiveOp::AllReduce, payload, |c| c)
    }

    /// Zero-copy all-gather: every member receives `Arc` clones of every
    /// member's deposit, in member order, so each payload is materialized
    /// once cluster-wide instead of once per receiver.
    pub fn all_gather<P: Payload>(&self, ctx: &mut RankCtx, payload: Arc<P>) -> Vec<Arc<P>> {
        self.all_gather_begin(ctx, payload).complete(ctx)
    }

    /// Split-phase [`CommGroup::all_gather`].
    pub fn all_gather_begin<'g, P: Payload>(
        &'g self,
        ctx: &mut RankCtx,
        payload: Arc<P>,
    ) -> PendingCollective<'g, Vec<Arc<P>>> {
        let bytes = payload.wire_size();
        self.begin_exchange(ctx, CollectiveOp::AllGather, Some(payload), false, move |deposits| {
            let all = deposits.iter().map(|d| Arc::clone(d.as_ref().expect("all deposited")));
            (all.collect(), bytes)
        })
    }

    /// Root receives every member's payload, in member order (`n` counted
    /// copies, all at the root).
    pub fn gather<P: Payload>(&self, ctx: &mut RankCtx, root: usize, payload: P) -> Option<Vec<P>> {
        let bytes = payload.wire_size();
        let deposits = self
            .begin_exchange(ctx, CollectiveOp::Gather, Some(payload), false, move |d| (d, bytes))
            .complete(ctx);
        (self.my_index == root).then(|| {
            deposits
                .iter()
                .map(|d| {
                    ctx.clone_counted(CollectiveOp::Gather, d.as_ref().expect("all deposited"))
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
        let me = self.my_index;
        let deposits = self
            .begin_exchange(ctx, CollectiveOp::Scatter, parts, true, move |d| {
                let bytes = d[root].as_ref().expect("root deposited")[me].wire_size();
                (d, bytes)
            })
            .complete(ctx);
        ctx.clone_counted(
            CollectiveOp::Scatter,
            &deposits[root].as_ref().expect("root deposited")[me],
        )
    }

    /// Cyclic shift: every member sends its payload `offset` positions
    /// forward (member order, wrapping) and receives from `offset` behind
    /// (one counted copy per member). `offset` may be negative. This is
    /// Cannon's primitive.
    pub fn shift<P: Payload>(&self, ctx: &mut RankCtx, offset: isize, payload: P) -> P {
        let bytes = payload.wire_size();
        let deposits = self
            .begin_exchange(ctx, CollectiveOp::Shift, Some(payload), false, move |d| (d, bytes))
            .complete(ctx);
        let src = (self.my_index as isize - offset).rem_euclid(self.size() as isize) as usize;
        ctx.clone_counted(CollectiveOp::Shift, deposits[src].as_ref().expect("all deposited"))
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

/// A collective whose payload is already deposited in the fabric.
/// Obtained from the `*_begin` methods on [`CommGroup`] (the blocking
/// methods complete one immediately); the result and all clock/cost
/// accounting are produced by [`PendingCollective::complete`].
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
    fn new(op: CollectiveOp, seq: u64, finish: impl FnOnce(&mut RankCtx) -> R + 'g) -> Self {
        Self { op, seq, finish: Some(Box::new(finish)) }
    }

    /// Blocks until the rendezvous is full, charges the non-overlapped
    /// remainder of the wait to the virtual clock, and returns the result.
    pub fn complete(mut self, ctx: &mut RankCtx) -> R {
        let finish = self.finish.take().expect("finish closure present until complete");
        finish(ctx)
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

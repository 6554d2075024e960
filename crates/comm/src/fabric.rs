//! The rendezvous fabric: the shared-memory "wire" of the simulated cluster.
//!
//! Two primitives are provided:
//!
//! * An n-way rendezvous, split-phase: [`Fabric::deposit`] publishes one
//!   member's optional payload under a `(group id, sequence)` key without
//!   blocking, and [`Fabric::wait`] blocks until all `n` members have
//!   arrived, then hands everyone the full deposit vector plus the maximum
//!   entry virtual-time (collectives synchronize clocks to the slowest
//!   participant). [`Fabric::deposit_reduce`] / [`Fabric::wait_reduce`]
//!   are the reducing twin: deposits are folded once and shared. Every
//!   collective in [`crate::group`] is built on these, so a rank can
//!   deposit a payload, go compute, and only pay the rendezvous wait when
//!   it actually needs the result.
//! * [`Fabric::send`] / [`Fabric::recv`] — ordered point-to-point channels
//!   keyed by `(group id, src, dst, tag)`, used by pipeline parallelism.
//!
//! One mutex guards all slots and channels, but every slot and every
//! channel has its own condition variable: the member that completes a
//! rendezvous (or a `send`) wakes only the ranks parked on that key, so the
//! many disjoint row, column and depth groups of a Tesseract grid never wake
//! each other.
//!
//! SPMD contract: all members of a group must invoke the same collectives
//! in the same order. A timeout (default 120 s, env-overridable)
//! converts a violated contract (or a peer that panicked) into a
//! diagnosable panic instead of a hang. The timeout is a deadline per
//! wait: a rank that starts waiting at `t` panics at `t + timeout` if its
//! rendezvous (or message) has not arrived, however much unrelated traffic
//! flows through the fabric meanwhile.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

static DEFAULT_TIMEOUT: OnceLock<Duration> = OnceLock::new();

/// Installs the process-default rendezvous timeout (first caller wins).
/// This is the setter [`crate::RunConfig::install`] applies after parsing
/// `TESSERACT_RENDEZVOUS_TIMEOUT_SECS`; clusters that need a different
/// timeout set it per instance instead of racing on process state.
pub fn set_default_rendezvous_timeout_secs(secs: u64) {
    let _ = DEFAULT_TIMEOUT.set(Duration::from_secs(secs));
}

/// How long a rank waits at a rendezvous before declaring the run wedged:
/// the installed default, or 120 s if nothing was installed. Cached — every
/// collective wait consults it.
fn rendezvous_timeout() -> Duration {
    DEFAULT_TIMEOUT.get().copied().unwrap_or(Duration::from_secs(120))
}

/// Whether a rank's panic message is a fabric wait timing out. A rank that
/// times out is usually a bystander of some other rank's failure, so the
/// cluster reports a non-timeout panic first.
pub(crate) fn is_timeout_panic(msg: &str) -> bool {
    (msg.starts_with("rendezvous ") || msg.starts_with("recv on channel "))
        && msg.contains(" timed out")
}

type SlotKey = (u64, u64);
type ChanKey = (u64, usize, usize, u64);
/// A channel's queued `(send vt, payload)` messages and its wakeup.
type Channel = (VecDeque<(f64, Box<dyn Any + Send>)>, Arc<Condvar>);

struct Slot {
    deposits: Vec<Option<Box<dyn Any + Send>>>,
    entry_vts: Vec<f64>,
    arrived: usize,
    /// `(max entry vt, downcast-ready vector)` once all members arrived.
    result: Option<(f64, Arc<dyn Any + Send + Sync>)>,
    taken: usize,
    /// Wakes this slot's waiters only; the member that publishes `result`
    /// notifies it.
    ready: Arc<Condvar>,
}

impl Slot {
    fn new(n: usize) -> Self {
        Self {
            deposits: (0..n).map(|_| None).collect(),
            entry_vts: Vec::with_capacity(n),
            arrived: 0,
            result: None,
            taken: 0,
            ready: Arc::new(Condvar::new()),
        }
    }

    /// Records member `my_index`'s deposit; returns whether it completed
    /// the slot.
    fn deposit(
        &mut self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        deposit: Box<dyn Any + Send>,
        entry_vt: f64,
    ) -> bool {
        assert_eq!(self.deposits.len(), n, "group size disagreement at rendezvous {key:?}");
        assert!(
            self.deposits[my_index].is_none() && self.result.is_none(),
            "member {my_index} deposited twice at rendezvous {key:?}"
        );
        self.deposits[my_index] = Some(deposit);
        self.entry_vts.push(entry_vt);
        self.arrived += 1;
        self.arrived == n
    }

    /// Moves every deposit out as a `T` and returns them with the maximum
    /// entry vt. Called once, by the member that completed the slot.
    fn take_deposits<T: 'static>(&mut self) -> (f64, Vec<T>) {
        let max_vt = self.entry_vts.iter().copied().fold(f64::MIN, f64::max);
        let parts = self
            .deposits
            .iter_mut()
            .map(|d| {
                *d.take()
                    .expect("all deposits present")
                    .downcast::<T>()
                    .expect("payload type mismatch within one rendezvous")
            })
            .collect();
        (max_vt, parts)
    }

    /// Publishes the rendezvous result and wakes this slot's waiters.
    fn publish(&mut self, max_vt: f64, result: Arc<dyn Any + Send + Sync>) {
        self.result = Some((max_vt, result));
        self.ready.notify_all();
    }
}

#[derive(Default)]
struct FabricState {
    slots: HashMap<SlotKey, Slot>,
    channels: HashMap<ChanKey, Channel>,
}

/// Shared rendezvous state for one cluster run.
pub struct Fabric {
    state: Mutex<FabricState>,
    /// Per-instance rendezvous timeout. Fixed at construction
    /// ([`Fabric::with_timeout`]) so failure-injection tests can shrink it
    /// without racing on the process environment.
    timeout: Duration,
}

/// Locks the fabric ignoring poisoning: a rank that panics mid-rendezvous
/// (e.g. on a sequencing assert) must not turn every surviving rank's next
/// lock into an opaque `PoisonError` — they should instead reach the timeout
/// path and report the wedged rendezvous diagnostically.
fn lock_fabric(m: &Mutex<FabricState>) -> MutexGuard<'_, FabricState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks on `ready` until notified or `deadline` passes; `None` once the
/// deadline has passed. Callers re-check their condition either way, so
/// spurious wakeups are harmless.
fn park_until<'a>(
    ready: &Condvar,
    state: MutexGuard<'a, FabricState>,
    deadline: Instant,
) -> Option<MutexGuard<'a, FabricState>> {
    let left = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())?;
    Some(ready.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0)
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// A fabric with the process-default timeout (120 s, or whatever
    /// [`set_default_rendezvous_timeout_secs`] installed).
    pub fn new() -> Self {
        Self::with_timeout(rendezvous_timeout())
    }

    /// A fabric whose rendezvous waits give up after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self { state: Mutex::new(FabricState::default()), timeout }
    }

    /// Non-blocking half of a rendezvous: publishes this member's
    /// contribution under `key` and returns immediately. The last arriver
    /// assembles the deposit vector and wakes the slot's waiters.
    ///
    /// Panics if a member deposits twice under one key (a sequencing bug).
    pub fn deposit<P: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: Option<P>,
        entry_vt: f64,
    ) {
        let mut state = lock_fabric(&self.state);
        let slot = state.slots.entry(key).or_insert_with(|| Slot::new(n));
        if slot.deposit(key, my_index, n, Box::new(payload), entry_vt) {
            let (max_vt, vec) = slot.take_deposits::<Option<P>>();
            slot.publish(max_vt, Arc::new(vec));
        }
    }

    /// Blocks until the slot under `key` has a result, takes this member's
    /// share of it and garbage-collects the slot after the last taker.
    /// The caller's own deposit keeps the slot alive until then.
    ///
    /// Panics if the result does not arrive within the timeout, or if this
    /// member never deposited under `key`.
    fn wait_erased(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
    ) -> (f64, Arc<dyn Any + Send + Sync>) {
        let deadline = Instant::now() + self.timeout;
        let mut state = lock_fabric(&self.state);
        loop {
            let slot = state.slots.get_mut(&key).unwrap_or_else(|| {
                panic!("wait on rendezvous {key:?} without a deposit (member {my_index} of {n})")
            });
            if let Some((max_vt, result)) = slot.result.clone() {
                slot.taken += 1;
                if slot.taken == n {
                    state.slots.remove(&key);
                }
                return (max_vt, result);
            }
            let ready = Arc::clone(&slot.ready);
            state = park_until(&ready, state, deadline).unwrap_or_else(|| {
                panic!(
                    "rendezvous {key:?} timed out (member {my_index} of {n}); \
                     a peer likely panicked or collectives were issued out of order"
                )
            });
        }
    }

    /// Blocking half of a rendezvous: parks until all `n` members
    /// have deposited under `key`, then returns `(max entry vt, deposits)`
    /// where `deposits[i]` is member `i`'s payload (if it deposited one).
    ///
    /// Panics if the rendezvous does not complete within the timeout.
    pub fn wait<P: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
    ) -> (f64, Arc<Vec<Option<P>>>) {
        let (max_vt, result) = self.wait_erased(key, my_index, n);
        let arc = result
            .downcast::<Vec<Option<P>>>()
            .expect("payload type mismatch within one rendezvous");
        (max_vt, arc)
    }

    /// Non-blocking half of a reducing rendezvous: deposits this
    /// member's payload *by value*; the last arriver moves all `n` deposits
    /// out of the slot and folds them with `combine` **outside the fabric
    /// lock** (a large reduction must not serialize unrelated traffic), then
    /// publishes the result as a single `Arc` that every member clones out
    /// of [`Fabric::wait_reduce`]. No deposit is ever copied: the combiner
    /// consumes them, so the fold can reuse the first part's buffer in
    /// place.
    ///
    /// The slot cannot be garbage-collected mid-combine because `taken`
    /// only advances once `result` is published.
    pub fn deposit_reduce<P, F>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
        payload: P,
        entry_vt: f64,
        combine: F,
    ) where
        P: Send + Sync + 'static,
        F: FnOnce(Vec<P>) -> P,
    {
        let mut state = lock_fabric(&self.state);
        let slot = state.slots.entry(key).or_insert_with(|| Slot::new(n));
        if slot.deposit(key, my_index, n, Box::new(payload), entry_vt) {
            let (max_vt, parts) = slot.take_deposits::<P>();
            drop(state);
            let combined = combine(parts);
            state = lock_fabric(&self.state);
            let slot = state.slots.get_mut(&key).expect("slot present until taken by all");
            slot.publish(max_vt, Arc::new(combined));
        }
    }

    /// Blocking half of a reducing rendezvous: parks until the last
    /// arriver has published the combined value, then clones the shared
    /// `Arc` out. Panics if the rendezvous does not complete within the
    /// timeout.
    pub fn wait_reduce<P: Send + Sync + 'static>(
        &self,
        key: SlotKey,
        my_index: usize,
        n: usize,
    ) -> (f64, Arc<P>) {
        let (max_vt, result) = self.wait_erased(key, my_index, n);
        let arc = result.downcast::<P>().expect("payload type mismatch within one rendezvous");
        (max_vt, arc)
    }

    /// Deposits a point-to-point message and wakes that channel's receiver;
    /// never blocks.
    pub fn send<P: Send + 'static>(&self, chan: ChanKey, payload: P, send_vt: f64) {
        let mut state = lock_fabric(&self.state);
        let (queue, ready) = state.channels.entry(chan).or_default();
        queue.push_back((send_vt, Box::new(payload)));
        ready.notify_all();
    }

    /// Receives the oldest message on a channel, blocking until one arrives.
    /// Returns `(sender's vt at send, payload)`.
    pub fn recv<P: Send + 'static>(&self, chan: ChanKey) -> (f64, P) {
        let deadline = Instant::now() + self.timeout;
        let mut state = lock_fabric(&self.state);
        loop {
            let (queue, ready) = state.channels.entry(chan).or_default();
            if let Some((vt, payload)) = queue.pop_front() {
                if queue.is_empty() {
                    state.channels.remove(&chan);
                }
                let payload = *payload.downcast::<P>().expect("p2p payload type mismatch");
                return (vt, payload);
            }
            let ready = Arc::clone(ready);
            state = park_until(&ready, state, deadline).unwrap_or_else(|| {
                panic!("recv on channel {chan:?} timed out; sender likely panicked")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    impl Fabric {
        /// Blocking n-way rendezvous: `deposit` followed by `wait`.
        fn exchange<P: Send + Sync + 'static>(
            &self,
            key: SlotKey,
            my_index: usize,
            n: usize,
            payload: Option<P>,
            entry_vt: f64,
        ) -> (f64, Arc<Vec<Option<P>>>) {
            self.deposit(key, my_index, n, payload, entry_vt);
            self.wait(key, my_index, n)
        }

        /// Blocking reducing rendezvous: `deposit_reduce` then `wait_reduce`.
        fn exchange_reduce<P, F>(
            &self,
            key: SlotKey,
            my_index: usize,
            n: usize,
            payload: P,
            entry_vt: f64,
            combine: F,
        ) -> (f64, Arc<P>)
        where
            P: Send + Sync + 'static,
            F: FnOnce(Vec<P>) -> P,
        {
            self.deposit_reduce(key, my_index, n, payload, entry_vt, combine);
            self.wait_reduce(key, my_index, n)
        }
    }

    #[test]
    fn exchange_gathers_all_payloads() {
        let fabric = Arc::new(Fabric::new());
        let n = 4;
        let results: Vec<(f64, Arc<Vec<Option<u32>>>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || f.exchange((1, 0), i, n, Some(i as u32 * 10), i as f64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (max_vt, vec) in &results {
            assert_eq!(*max_vt, 3.0);
            let vals: Vec<u32> = vec.iter().map(|v| v.unwrap()).collect();
            assert_eq!(vals, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn exchange_slot_is_reusable_after_completion() {
        let fabric = Arc::new(Fabric::new());
        for round in 0..3u64 {
            let results: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        let f = Arc::clone(&fabric);
                        s.spawn(move || f.exchange((7, round), i, 2, Some(round), 0.0))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(results[0].1.len(), 2);
        }
        assert!(lock_fabric(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
    }

    #[test]
    fn exchange_supports_none_deposits() {
        let fabric = Arc::new(Fabric::new());
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        let payload = if i == 1 { Some(99u8) } else { None };
                        f.exchange((2, 0), i, 3, payload, 0.0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (_, vec) in results {
            assert_eq!(vec.as_ref(), &vec![None, Some(99), None]);
        }
    }

    #[test]
    fn exchange_reduce_combines_once_and_shares_the_result() {
        let fabric = Arc::new(Fabric::new());
        let n = 4;
        let results: Vec<(f64, Arc<Vec<u64>>)> = thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        f.exchange_reduce((9, 0), i, n, vec![1u64 << (8 * i)], i as f64, |parts| {
                            // Fold in ascending member order, in place.
                            let mut it = parts.into_iter();
                            let mut acc = it.next().unwrap();
                            for p in it {
                                acc[0] += p[0];
                            }
                            acc
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (max_vt, v) in &results {
            assert_eq!(*max_vt, 3.0);
            assert_eq!(v[0], 0x01010101);
        }
        // Every member holds the *same* allocation, not a copy.
        assert!(Arc::ptr_eq(&results[0].1, &results[1].1));
        assert!(lock_fabric(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
    }

    #[test]
    fn exchange_reduce_slot_is_reusable() {
        let fabric = Arc::new(Fabric::new());
        for round in 0..3u64 {
            let results: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|i| {
                        let f = Arc::clone(&fabric);
                        s.spawn(move || {
                            f.exchange_reduce((11, round), i, 2, i as u64 + round, 0.0, |parts| {
                                parts.into_iter().sum::<u64>()
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(*results[0].1, 1 + 2 * round);
        }
        assert!(lock_fabric(&fabric.state).slots.is_empty());
    }

    #[test]
    fn p2p_preserves_fifo_order_and_vt() {
        let fabric = Fabric::new();
        fabric.send((0, 0, 1, 0), "first", 1.5);
        fabric.send((0, 0, 1, 0), "second", 2.5);
        let (vt1, m1): (f64, &str) = fabric.recv((0, 0, 1, 0));
        let (vt2, m2): (f64, &str) = fabric.recv((0, 0, 1, 0));
        assert_eq!((vt1, m1), (1.5, "first"));
        assert_eq!((vt2, m2), (2.5, "second"));
    }

    #[test]
    fn p2p_blocks_until_send() {
        let fabric = Arc::new(Fabric::new());
        let f2 = Arc::clone(&fabric);
        let recv = thread::spawn(move || f2.recv::<u64>((0, 0, 1, 7)));
        thread::sleep(Duration::from_millis(20));
        fabric.send((0, 0, 1, 7), 42u64, 0.0);
        let (_, v) = recv.join().unwrap();
        assert_eq!(v, 42);
        // The receiver created the channel entry to park on; it is gone
        // once the queue drains.
        assert!(lock_fabric(&fabric.state).channels.is_empty(), "channels must be collected");
    }

    #[test]
    fn timeout_is_a_deadline_despite_foreign_traffic() {
        let timeout = Duration::from_millis(300);
        let fabric = Arc::new(Fabric::with_timeout(timeout));
        let parked_done = AtomicBool::new(false);
        let (parked, elapsed) = thread::scope(|s| {
            // Another group completes a rendezvous every 50 ms for up to
            // ten timeouts, or until the parked member gives up. Member 0
            // decides each round whether to go on, so both stop together.
            let traffic: Vec<_> = (0..2)
                .map(|i| {
                    let (f, done) = (Arc::clone(&fabric), &parked_done);
                    s.spawn(move || {
                        let start = Instant::now();
                        for round in 0.. {
                            let go = (i == 0).then(|| {
                                !done.load(Ordering::SeqCst) && start.elapsed() < 10 * timeout
                            });
                            let (_, votes) = f.exchange((2, round), i, 2, go, 0.0);
                            if votes[0] != Some(true) {
                                break;
                            }
                            thread::sleep(Duration::from_millis(50));
                        }
                    })
                })
                .collect();
            // Member 0 of a 2-member group whose partner never arrives.
            let start = Instant::now();
            let parked = s
                .spawn(|| {
                    std::panic::catch_unwind(|| fabric.exchange((1, 0), 0, 2, Some(0u64), 0.0))
                })
                .join()
                .unwrap();
            let elapsed = start.elapsed();
            parked_done.store(true, Ordering::SeqCst);
            for t in traffic {
                t.join().unwrap();
            }
            (parked, elapsed)
        });
        let err = parked.expect_err("the unmatched member must time out");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(is_timeout_panic(msg), "unexpected panic: {msg}");
        assert!(elapsed >= timeout, "gave up early: {elapsed:?}");
        assert!(elapsed < 2 * timeout, "deadline postponed by foreign traffic: {elapsed:?}");
    }

    #[test]
    fn disjoint_groups_reduce_correctly_and_collect_their_slots() {
        let fabric = Arc::new(Fabric::new());
        let (groups, members, rounds) = (16u64, 4usize, 200u64);
        thread::scope(|s| {
            for g in 0..groups {
                for i in 0..members {
                    let f = Arc::clone(&fabric);
                    s.spawn(move || {
                        for round in 0..rounds {
                            let mine = g * 1000 + round * 10 + i as u64;
                            let (_, sum) =
                                f.exchange_reduce((g, round), i, members, mine, 0.0, |parts| {
                                    parts.into_iter().sum::<u64>()
                                });
                            // 4 * (g * 1000 + round * 10) + (0 + 1 + 2 + 3).
                            assert_eq!(
                                *sum,
                                4 * (g * 1000 + round * 10) + 6,
                                "group {g} round {round}"
                            );
                        }
                    });
                }
            }
        });
        assert!(lock_fabric(&fabric.state).slots.is_empty(), "slots must be garbage-collected");
    }
}

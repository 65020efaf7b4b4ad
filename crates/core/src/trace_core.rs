//! The one trace-driven core model, shared by the NMP system
//! ([`crate::system`]) and the host baseline ([`crate::host_sim`]).
//!
//! A [`TraceCore`] replays a thread's [`Op`] trace with bounded
//! memory-level parallelism: loads and stores that miss the caches occupy
//! one slot of an MLP window and the core keeps going until the window is
//! full; atomics and barriers first drain the window. Out-of-order host
//! cores and in-order NMP cores are the same state machine with different
//! window sizes. Everything the core does not own — the clock, the caches,
//! memory, the interconnect, the barrier and the event queue — it reaches
//! through a [`CorePort`], which each system implements for itself.
//!
//! [`McPort`] is the memory-controller plumbing both systems share: one
//! live service tick per controller, kept outside the event queue.
//!
//! # Order
//!
//! Each system orders its events by [`EventKey`], and a core's actions
//! carry the key of its own wake, `(t, rank)`. A core starts an action on
//! shared state — the caches past its L1, memory, the interconnect, the
//! barrier — or finishes only while that key is not above the port's
//! [`horizon`](CorePort::horizon), the lowest key of anything else still
//! to happen. So every such action starts in key order, whatever the
//! host-side schedule of wakes: no result depends on where a core last
//! yielded. Compute ops and L1 hits touch only the core's own state, so
//! the core runs ahead through them without comparing keys; it yields only
//! in front of a shared action past the horizon.
//!
//! One action may lower the horizon below the core's own key and still
//! finish: a miss that evicts a dirty line writes the victim back at `t`,
//! which arms the memory tick at `(t, 1)`, and then issues its own access
//! at `t`. The miss and its victim are one action, checked once against
//! the horizon read before the lookup. The core reads the horizon again
//! after it issues, so its next shared action waits for that tick.

use dl_engine::{EventKey, Freq, Ps};
use dl_mem::{Completion, MemController, MemRequest};
use dl_workloads::Op;
use std::collections::VecDeque;

/// Where a core is in its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    /// Window full; resumes on the next completion.
    WaitWindow,
    /// Needs an empty window before executing the op at `pc` (or finishing).
    WaitDrain,
    /// Blocked on one transaction (an atomic); `remote` says whether it is
    /// served across the interconnect, for stall attribution.
    WaitTxn {
        id: u64,
        remote: bool,
    },
    /// Arrived at a barrier, waiting for release.
    WaitBarrier,
    Done,
}

/// The system side of one core: the hooks [`TraceCore`] calls while it
/// advances. Implemented by a short-lived view that knows which core it
/// serves, so every hook acts on behalf of that core.
pub(crate) trait CorePort {
    /// The core clock.
    fn clock(&self) -> Freq;
    /// The MLP window: outstanding memory transactions allowed at once.
    fn mlp(&self) -> usize;
    /// The rank of this core's wakes among events at the same time. It is
    /// unique to the core.
    fn rank(&self) -> u64;
    /// The lowest key of anything else still to happen. The core may act
    /// on shared state at `t` while `(t, rank)` is not above it; past it,
    /// the core yields. (An equal key can only be this core's own wake.)
    fn horizon(&self) -> EventKey;
    /// A cacheable load or store that hits the core's private L1: does
    /// what [`lookup`](CorePort::lookup) does on that hit and returns its
    /// latency. On a miss it changes nothing and returns `None`.
    fn private_hit(&mut self, addr: u64, is_write: bool) -> Option<Ps>;
    /// Schedules this core's next [`TraceCore::advance`] at `at`.
    fn wake(&mut self, at: Ps);
    /// Looks up a load or store issued at `t` (called once per attempt,
    /// cacheable or not). `Some(latency)` is a hit; `None` sends it to
    /// memory, after the port has issued any writeback the miss evicted.
    fn lookup(&mut self, addr: u64, is_write: bool, cacheable: bool, t: Ps) -> Option<Ps>;
    /// Issues a memory access at `t`; returns its transaction id and
    /// whether it is remote. Its completion comes back via
    /// [`TraceCore::complete`].
    fn issue(&mut self, addr: u64, is_write: bool, t: Ps) -> (u64, bool);
    /// Issues an atomic at `t` (the window is empty); the core waits for
    /// the returned transaction, remote or not.
    fn atomic(&mut self, addr: u64, t: Ps) -> (u64, bool);
    /// Issues a broadcast of `bytes` at `t`; it occupies one remote slot
    /// under the returned transaction id.
    fn broadcast(&mut self, addr: u64, bytes: u16, t: Ps) -> u64;
    /// Whether barriers are local no-ops (truncated, unbalanced traces).
    fn skips_barriers(&self) -> bool;
    /// The core arrived at a barrier at `t` (the window is empty); it is
    /// released via [`TraceCore::unblock`].
    fn barrier(&mut self, t: Ps);
}

/// One trace-driven core: the position in its trace, the MLP window, what
/// it is blocked on, and where its stall time went.
#[derive(Debug)]
pub(crate) struct TraceCore {
    pc: usize,
    /// The trace ends here (a profiling run truncates it).
    limit: usize,
    /// Window slots: `(transaction id, remote)`.
    outstanding: Vec<(u64, bool)>,
    status: Status,
    /// Earliest time a `Ready` core resumes.
    ready_at: Ps,
    blocked_at: Ps,
    /// Stall time blocked on remote transactions.
    pub(crate) idc_stall: Ps,
    /// Stall time blocked on local memory.
    pub(crate) mem_stall: Ps,
    /// Stall time waiting for barrier release.
    pub(crate) sync_stall: Ps,
    /// When the trace finished and the window drained.
    pub(crate) finish: Option<Ps>,
}

impl TraceCore {
    /// A core that will run the first `limit` ops of its trace with a
    /// window of `mlp` slots.
    pub(crate) fn new(limit: usize, mlp: usize) -> Self {
        TraceCore {
            pc: 0,
            limit,
            outstanding: Vec::with_capacity(mlp),
            status: Status::Ready,
            ready_at: Ps::ZERO,
            blocked_at: Ps::ZERO,
            idc_stall: Ps::ZERO,
            mem_stall: Ps::ZERO,
            sync_stall: Ps::ZERO,
            finish: None,
        }
    }

    fn block(&mut self, status: Status, t: Ps) {
        self.status = status;
        self.blocked_at = t;
    }

    /// Runs the core from `now` until it blocks, finishes, or reaches a
    /// shared action past the port's horizon (see the module docs on
    /// order). A wake for a core that is not `Ready` is stale and does
    /// nothing. Returns whether the core finished in this call.
    // `#[inline]` here and on the transitions places each system's copy in
    // that system's codegen unit, so the port's hooks inline into the loop;
    // without it the partition-local loop ran ~10% slower.
    #[inline]
    pub(crate) fn advance<P: CorePort>(&mut self, ops: &[Op], now: Ps, port: &mut P) -> bool {
        if self.status != Status::Ready {
            return false;
        }
        let mut t = now.max(self.ready_at);
        let (period, mlp, rank) = (port.clock().period(), port.mlp(), port.rank());
        // Only this core's own actions can lower the horizon while it keeps
        // running: a hit schedules nothing; a miss (with the victim write it
        // may start) is followed by its `issue`, or it blocks; an atomic and
        // a barrier return. So it is read again only after `issue` and
        // `broadcast`, and under the auditor checked fresh at every step.
        let mut horizon = port.horizon();
        loop {
            if dl_engine::AUDIT {
                assert_eq!(horizon, port.horizon(), "the core's horizon went stale");
            }
            let op = ops[..self.limit].get(self.pc);
            if EventKey::new(t, rank) > horizon {
                // Past the horizon the core runs only through what touches
                // just its own state: compute, an L1 hit, a skipped barrier.
                // Those change only its L1 and the commutative profile
                // counts. A completion that arrives meanwhile for a `Ready`
                // core only frees a window slot, which the next shared
                // access sees: this check runs before it.
                let private = match op {
                    Some(Op::Comp(_)) => true,
                    Some(Op::Barrier) => port.skips_barriers(),
                    Some(
                        &(Op::Load {
                            addr,
                            cacheable: true,
                        }
                        | Op::Store {
                            addr,
                            cacheable: true,
                        }),
                    ) => {
                        let is_write = matches!(op, Some(Op::Store { .. }));
                        if let Some(latency) = port.private_hit(addr.get(), is_write) {
                            self.pc += 1;
                            t += latency;
                            continue;
                        }
                        false
                    }
                    _ => false,
                };
                if !private {
                    self.ready_at = t;
                    port.wake(t);
                    return false;
                }
            }
            let Some(&op) = op else {
                if self.outstanding.is_empty() {
                    self.status = Status::Done;
                    self.finish = Some(t);
                    return true;
                }
                self.block(Status::WaitDrain, t);
                return false;
            };
            match op {
                Op::Comp(cycles) => {
                    self.pc += 1;
                    t += period * u64::from(cycles);
                }
                Op::Load { addr, cacheable } | Op::Store { addr, cacheable } => {
                    let (addr, is_write) = (addr.get(), matches!(op, Op::Store { .. }));
                    // A blocked access repeats its lookup when it resumes.
                    if let Some(latency) = port.lookup(addr, is_write, cacheable, t) {
                        self.pc += 1;
                        t += latency;
                        continue;
                    }
                    if self.outstanding.len() >= mlp {
                        self.block(Status::WaitWindow, t);
                        return false;
                    }
                    self.pc += 1;
                    let slot = port.issue(addr, is_write, t);
                    self.outstanding.push(slot);
                    horizon = port.horizon();
                    t += period;
                }
                Op::Atomic { addr } => {
                    if !self.outstanding.is_empty() {
                        self.block(Status::WaitDrain, t);
                        return false;
                    }
                    self.pc += 1;
                    let (id, remote) = port.atomic(addr.get(), t);
                    self.block(Status::WaitTxn { id, remote }, t);
                    return false;
                }
                Op::Broadcast { addr, bytes } => {
                    if self.outstanding.len() >= mlp {
                        self.block(Status::WaitWindow, t);
                        return false;
                    }
                    self.pc += 1;
                    let id = port.broadcast(addr.get(), bytes, t);
                    self.outstanding.push((id, true));
                    horizon = port.horizon();
                    t += period * 2;
                }
                Op::Barrier if port.skips_barriers() => {
                    self.pc += 1;
                    t += period * 10;
                }
                Op::Barrier => {
                    if !self.outstanding.is_empty() {
                        self.block(Status::WaitDrain, t);
                        return false;
                    }
                    self.pc += 1;
                    self.block(Status::WaitBarrier, t);
                    port.barrier(t);
                    return false;
                }
            }
        }
    }

    /// Resumes a blocked core at `at`, charging the stall to remote
    /// traffic, local memory, or synchronization.
    #[inline]
    pub(crate) fn unblock<P: CorePort>(&mut self, at: Ps, remote: bool, port: &mut P) {
        let stall = at.saturating_sub(self.blocked_at);
        match self.status {
            Status::WaitWindow | Status::WaitDrain | Status::WaitTxn { .. } => {
                if remote {
                    self.idc_stall += stall;
                } else {
                    self.mem_stall += stall;
                }
            }
            Status::WaitBarrier => self.sync_stall += stall,
            Status::Ready | Status::Done => {}
        }
        self.status = Status::Ready;
        self.ready_at = at;
        port.wake(at);
    }

    /// Transaction `id` completed at `at`: wakes a core waiting on exactly
    /// it, or frees its window slot and wakes a core waiting for a slot or
    /// for the drain. An unknown id is ignored.
    #[inline]
    pub(crate) fn complete<P: CorePort>(&mut self, id: u64, at: Ps, port: &mut P) {
        if let Status::WaitTxn { id: waited, remote } = self.status {
            if waited == id {
                self.unblock(at, remote, port);
                return;
            }
        }
        let Some(pos) = self.outstanding.iter().position(|&(slot, _)| slot == id) else {
            return;
        };
        let (_, remote) = self.outstanding.swap_remove(pos);
        match self.status {
            Status::WaitWindow => self.unblock(at, remote, port),
            Status::WaitDrain if self.outstanding.is_empty() => self.unblock(at, remote, port),
            _ => {}
        }
    }
}

/// A memory controller plus the time of its one live service tick. The
/// tick is not an event in the owner's queue: the owner keeps it as a
/// keyed slot, compares it with the queue's head, and calls
/// [`McPort::service`] when it comes first. Moving the tick never leaves a
/// stale one behind.
#[derive(Debug)]
pub(crate) struct McPort {
    pub(crate) mc: MemController,
    /// When the live tick fires (`Ps::MAX`: none armed).
    next: Ps,
    /// The completion buffer, lent out by `service` and returned by `rearm`.
    done: Vec<Completion>,
}

impl McPort {
    pub(crate) fn new(mc: MemController) -> Self {
        McPort {
            mc,
            next: Ps::MAX,
            done: Vec::new(),
        }
    }

    /// When the live tick fires (`Ps::MAX`: none armed).
    pub(crate) fn tick(&self) -> Ps {
        self.next
    }

    /// Enqueues `req` arriving at `at`, moving the tick earlier if the
    /// request needs one before it: to when the request or a pending
    /// refresh can first change the controller's state
    /// ([`MemController::next_wake`]), not to its arrival, and never
    /// before `now`.
    pub(crate) fn enqueue(&mut self, now: Ps, at: Ps, req: MemRequest) {
        self.mc.enqueue(at, req);
        let wake = self.mc.next_wake().expect("a request is pending");
        self.arm(wake.max(now));
    }

    /// Services the controller on its tick, firing at `now`. After
    /// handling the completions, the owner hands the buffer back to
    /// [`McPort::rearm`].
    #[must_use]
    pub(crate) fn service(&mut self, now: Ps) -> Vec<Completion> {
        assert_eq!(now, self.next, "a memory tick fired off its time");
        self.next = Ps::MAX;
        let mut done = std::mem::take(&mut self.done);
        self.mc.service_into(now, &mut done);
        done
    }

    /// Takes back the buffer [`McPort::service`] lent out and arms the next
    /// tick, if the controller has work pending.
    pub(crate) fn rearm(&mut self, mut done: Vec<Completion>) {
        done.clear();
        self.done = done;
        if let Some(w) = self.mc.next_wake() {
            self.arm(w);
        }
    }

    fn arm(&mut self, wake: Ps) {
        self.next = self.next.min(wake);
    }
}

/// The transactions in flight, by id. Ids come from one counter that only
/// increases, and each is inserted when it is handed out, so the table is a
/// ring: id `i` sits at `i - base`, ids handed out for other tables leave
/// empty slots, and the empty slots at the front are dropped as the oldest
/// transactions finish. A lookup is an index, not a search; the ring spans
/// the ids handed out during the oldest live transaction.
#[derive(Debug)]
pub(crate) struct TxnTable<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> TxnTable<T> {
    pub(crate) fn new() -> Self {
        TxnTable {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Records transaction `id`, which must be newer than every id recorded
    /// before.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "transaction {id} recorded out of order");
        self.slots.extend((end..id).map(|_| None));
        self.slots.push_back(Some(value));
    }

    /// Whether transaction `id` is recorded.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.index(id)
            .and_then(|i| self.slots.get(i))
            .is_some_and(Option::is_some)
    }

    /// Removes and returns transaction `id`, if it is recorded.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let value = self.slots.get_mut(self.index(id)?)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_workloads::Addr;

    /// A port that records what the core asks of it. Loads hit when the
    /// address is below `hit_below`; every miss is a new transaction whose
    /// remoteness is the address's low bit. A `lookup` hit moves the
    /// horizon to `horizon_after_hit`, if set.
    #[derive(Default)]
    struct FakePort {
        mlp: usize,
        horizon: Option<EventKey>,
        horizon_after_hit: Option<EventKey>,
        hit_below: u64,
        next_id: u64,
        wakes: Vec<Ps>,
        issued: Vec<(u64, u64)>,
        barriers: Vec<Ps>,
    }

    impl FakePort {
        fn new(mlp: usize) -> Self {
            FakePort {
                mlp,
                ..FakePort::default()
            }
        }
    }

    impl CorePort for FakePort {
        fn clock(&self) -> Freq {
            Freq::from_ghz(1.0)
        }
        fn mlp(&self) -> usize {
            self.mlp
        }
        fn rank(&self) -> u64 {
            1
        }
        fn horizon(&self) -> EventKey {
            self.horizon.unwrap_or(EventKey::MAX)
        }
        fn private_hit(&mut self, addr: u64, _: bool) -> Option<Ps> {
            (addr < self.hit_below).then_some(Ps::from_ns(1))
        }
        fn wake(&mut self, at: Ps) {
            self.wakes.push(at);
        }
        fn lookup(&mut self, addr: u64, _: bool, cacheable: bool, _: Ps) -> Option<Ps> {
            let hit = cacheable && addr < self.hit_below;
            if hit && self.horizon_after_hit.is_some() {
                self.horizon = self.horizon_after_hit;
            }
            hit.then_some(Ps::from_ns(1))
        }
        fn issue(&mut self, addr: u64, _: bool, _: Ps) -> (u64, bool) {
            self.next_id += 1;
            self.issued.push((self.next_id, addr));
            (self.next_id, addr & 1 == 1)
        }
        fn atomic(&mut self, addr: u64, t: Ps) -> (u64, bool) {
            self.issue(addr, true, t)
        }
        fn broadcast(&mut self, addr: u64, _: u16, t: Ps) -> u64 {
            self.issue(addr, true, t).0
        }
        fn skips_barriers(&self) -> bool {
            false
        }
        fn barrier(&mut self, t: Ps) {
            self.barriers.push(t);
        }
    }

    fn load(addr: u64) -> Op {
        Op::Load {
            addr: Addr::new(addr),
            cacheable: false,
        }
    }

    fn ns(n: u64) -> Ps {
        Ps::from_ns(n)
    }

    #[test]
    fn full_window_blocks_until_the_next_completion() {
        let ops = [load(2), load(4), load(6), Op::Comp(5)];
        let mut port = FakePort::new(2);
        let mut core = TraceCore::new(ops.len(), 2);
        assert!(!core.advance(&ops, Ps::ZERO, &mut port));
        // Two loads issued 1 ns apart; the third finds the window full.
        assert_eq!(port.issued, vec![(1, 2), (2, 4)]);
        assert_eq!(core.status, Status::WaitWindow);
        assert_eq!(core.blocked_at, ns(2));
        // An unknown id changes nothing; a real completion reopens the
        // window and wakes the core.
        core.complete(99, ns(5), &mut port);
        assert_eq!(core.status, Status::WaitWindow);
        core.complete(1, ns(10), &mut port);
        assert_eq!(core.status, Status::Ready);
        assert_eq!(port.wakes, vec![ns(10)]);
        assert_eq!(core.mem_stall, ns(8));
        // The resumed core issues the third load, then must drain the
        // window before it can finish.
        assert!(!core.advance(&ops, ns(10), &mut port));
        assert_eq!(port.issued.len(), 3);
        assert_eq!(core.status, Status::WaitDrain);
        core.complete(2, ns(20), &mut port);
        assert_eq!(core.status, Status::WaitDrain, "one slot still busy");
        core.complete(3, ns(30), &mut port);
        assert!(core.advance(&ops, ns(30), &mut port));
        assert_eq!(core.status, Status::Done);
        assert_eq!(core.finish, Some(ns(30)));
    }

    #[test]
    fn hits_and_compute_advance_without_slots() {
        let ops = [
            Op::Load {
                addr: Addr::new(0),
                cacheable: true,
            },
            Op::Comp(4),
        ];
        let mut port = FakePort {
            hit_below: 64,
            ..FakePort::new(1)
        };
        let mut core = TraceCore::new(ops.len(), 1);
        assert!(core.advance(&ops, Ps::ZERO, &mut port));
        assert!(port.issued.is_empty());
        assert_eq!(core.finish, Some(ns(5)));
    }

    #[test]
    fn atomics_and_barriers_wait_for_the_window_to_drain() {
        let ops = [
            load(2),
            Op::Atomic { addr: Addr::new(9) },
            load(4),
            Op::Barrier,
        ];
        let mut port = FakePort::new(4);
        let mut core = TraceCore::new(ops.len(), 4);
        core.advance(&ops, Ps::ZERO, &mut port);
        assert_eq!(core.status, Status::WaitDrain);
        assert_eq!(port.issued, vec![(1, 2)], "atomic held back");
        core.complete(1, ns(10), &mut port);
        core.advance(&ops, ns(10), &mut port);
        assert_eq!(port.issued[1], (2, 9));
        assert_eq!(
            core.status,
            Status::WaitTxn {
                id: 2,
                remote: true
            }
        );
        core.complete(2, ns(50), &mut port);
        core.advance(&ops, ns(50), &mut port);
        assert_eq!(core.status, Status::WaitDrain);
        assert!(port.barriers.is_empty(), "barrier held back");
        core.complete(3, ns(60), &mut port);
        core.advance(&ops, ns(60), &mut port);
        assert_eq!(core.status, Status::WaitBarrier);
        assert_eq!(port.barriers, vec![ns(60)]);
    }

    #[test]
    fn stale_wakes_are_ignored() {
        let ops = [Op::Atomic { addr: Addr::new(2) }, Op::Comp(1)];
        let mut port = FakePort::new(2);
        let mut core = TraceCore::new(ops.len(), 2);
        core.advance(&ops, Ps::ZERO, &mut port);
        let before = (core.pc, core.status, port.issued.len(), port.wakes.len());
        assert!(!core.advance(&ops, ns(3), &mut port));
        assert_eq!(
            before,
            (core.pc, core.status, port.issued.len(), port.wakes.len())
        );
        core.complete(1, ns(5), &mut port);
        assert!(core.advance(&ops, ns(5), &mut port));
        assert!(!core.advance(&ops, ns(9), &mut port), "finished already");
    }

    #[test]
    fn past_the_horizon_only_a_shared_access_yields() {
        let hit = |addr| Op::Load {
            addr: Addr::new(addr),
            cacheable: true,
        };
        let ops = [
            Op::Comp(10),
            hit(0),
            Op::Comp(10),
            hit(8),
            load(70),
            Op::Comp(1),
        ];
        let mut port = FakePort {
            hit_below: 64,
            horizon: Some(EventKey::new(ns(5), 0)),
            ..FakePort::new(1)
        };
        let mut core = TraceCore::new(ops.len(), 1);
        assert!(!core.advance(&ops, Ps::ZERO, &mut port));
        // Compute and L1 hits ran past 5 ns without a wake; the miss at
        // 22 ns yields in front of its access.
        assert_eq!((core.pc, core.status), (4, Status::Ready));
        assert_eq!(port.wakes, [ns(22)]);
        assert!(port.issued.is_empty());
        port.horizon = None;
        // Woken early, the core still resumes where it left off.
        assert!(!core.advance(&ops, ns(6), &mut port));
        assert_eq!(port.issued, [(1, 70)]);
        assert_eq!((core.status, core.blocked_at), (Status::WaitDrain, ns(24)));
        core.complete(1, ns(30), &mut port);
        assert!(core.advance(&ops, ns(30), &mut port));
        assert_eq!(core.finish, Some(ns(30)));
    }

    #[test]
    fn an_equal_time_event_goes_first_only_if_it_ranks_lower() {
        // The fake core's rank is 1; the load is issued at 5 ns.
        let ops = [Op::Comp(5), load(2)];
        for (rank, yields) in [(0, true), (1, false), (2, false)] {
            let mut port = FakePort {
                horizon: Some(EventKey::new(ns(5), rank)),
                ..FakePort::new(1)
            };
            let mut core = TraceCore::new(ops.len(), 1);
            core.advance(&ops, Ps::ZERO, &mut port);
            assert_eq!(port.issued.is_empty(), yields, "rank {rank}");
            // Either way the core stops at the horizon, before the load or
            // before finishing after it.
            let stop = if yields { ns(5) } else { ns(6) };
            assert_eq!(port.wakes, [stop], "rank {rank}");
        }
    }

    #[test]
    fn the_auditor_catches_a_hit_that_moves_the_horizon() {
        // A hit schedules nothing, so the core keeps the horizon it read;
        // a port whose hit moves it breaks that, and only the auditor's
        // freshness check notices.
        let ops = [
            Op::Load {
                addr: Addr::new(0),
                cacheable: true,
            },
            Op::Comp(1),
        ];
        let run = std::panic::catch_unwind(|| {
            let mut port = FakePort {
                hit_below: 64,
                horizon_after_hit: Some(EventKey::new(Ps::ZERO, 0)),
                ..FakePort::new(1)
            };
            TraceCore::new(ops.len(), 1).advance(&ops, Ps::ZERO, &mut port)
        });
        match (run, dl_engine::AUDIT) {
            (Ok(finished), false) => assert!(finished),
            (Err(panic), true) => {
                let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.contains("the core's horizon went stale"), "{msg}");
            }
            (run, audit) => panic!("audit {audit}, but the run panicked: {}", run.is_err()),
        }
    }

    #[test]
    fn a_controller_has_one_live_tick() {
        let cfg = dl_mem::DramConfig::ddr4_2400_lrdimm();
        let map = dl_mem::DimmAddressMap::new(&cfg);
        let mut port = McPort::new(MemController::new("mc", &cfg));
        let read = |id| MemRequest::new(id, dl_mem::AccessKind::Read, map.decode(id * 64));
        assert_eq!(port.tick(), Ps::MAX, "idle");
        port.enqueue(Ps::ZERO, ns(10), read(1));
        assert_eq!(port.tick(), ns(10));
        port.enqueue(Ps::ZERO, ns(20), read(2));
        assert_eq!(port.tick(), ns(10), "covered");
        // An earlier arrival moves the one tick; nothing is left at 10 ns.
        port.enqueue(Ps::ZERO, ns(5), read(3));
        assert_eq!(port.tick(), ns(5));
        // A request arriving in the past is due now.
        let now = ns(5);
        port.enqueue(now, Ps::ZERO, read(4));
        assert_eq!(port.tick(), now);
        let done = port.service(now);
        assert_eq!(port.tick(), Ps::MAX, "disarmed until rearmed");
        port.rearm(done);
        assert!(port.tick() > now, "requests still pending");
    }

    #[test]
    #[should_panic(expected = "a memory tick fired off its time")]
    fn a_tick_fires_only_at_its_time() {
        let cfg = dl_mem::DramConfig::ddr4_2400_lrdimm();
        let map = dl_mem::DimmAddressMap::new(&cfg);
        let mut port = McPort::new(MemController::new("mc", &cfg));
        port.enqueue(
            Ps::ZERO,
            ns(10),
            MemRequest::new(1, dl_mem::AccessKind::Read, map.decode(0)),
        );
        let _ = port.service(ns(9));
    }

    #[test]
    fn a_txn_table_indexes_ids_and_drops_finished_ones() {
        let mut t = TxnTable::new();
        t.insert(3, 'a');
        // Ids 4 and 5 went to another table.
        t.insert(6, 'b');
        t.insert(7, 'c');
        assert!(t.contains(6) && !t.contains(5) && !t.contains(2));
        // Out of order: the ring keeps its span until the oldest finishes.
        assert_eq!(t.remove(6), Some('b'));
        assert_eq!(t.remove(6), None, "removed once");
        assert_eq!(t.slots.len(), 5);
        assert_eq!(t.remove(3), Some('a'));
        assert_eq!((t.base, t.slots.len()), (7, 1));
        assert_eq!(t.remove(99), None);
        assert_eq!(t.remove(7), Some('c'));
        assert!(t.slots.is_empty());
        // An empty table restarts at the next id.
        t.insert(40, 'd');
        assert_eq!((t.base, t.remove(40)), (40, Some('d')));
    }

    #[test]
    #[should_panic(expected = "recorded out of order")]
    fn a_txn_table_rejects_an_old_id() {
        let mut t = TxnTable::new();
        t.insert(5, ());
        t.insert(5, ());
    }

    #[test]
    fn stalls_are_attributed_to_remote_local_and_sync() {
        // Odd addresses are remote in the fake port.
        let ops = [load(3), load(2), Op::Barrier];
        let mut port = FakePort::new(1);
        let mut core = TraceCore::new(ops.len(), 1);
        core.advance(&ops, Ps::ZERO, &mut port);
        // Blocked at 1 ns behind the remote load.
        core.complete(1, ns(100), &mut port);
        assert_eq!((core.idc_stall, core.mem_stall), (ns(99), Ps::ZERO));
        core.advance(&ops, ns(100), &mut port);
        // Blocked at 101 ns draining the local load before the barrier.
        core.complete(2, ns(140), &mut port);
        assert_eq!((core.idc_stall, core.mem_stall), (ns(99), ns(39)));
        core.advance(&ops, ns(140), &mut port);
        assert_eq!(core.status, Status::WaitBarrier);
        core.unblock(ns(200), false, &mut port);
        assert_eq!(core.sync_stall, ns(60));
        assert_eq!((core.idc_stall, core.mem_stall), (ns(99), ns(39)));
        assert!(core.advance(&ops, ns(200), &mut port));
    }
}

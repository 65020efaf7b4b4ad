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
//! live service tick per controller.

use dl_engine::{Freq, Ps};
use dl_mem::{Completion, MemController, MemRequest};
use dl_workloads::Op;

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
    /// The core may run up to and including this time; past it, it yields
    /// (something else may happen first).
    fn horizon(&self) -> Ps;
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

    /// Runs the core from `now` until it blocks, finishes, or passes the
    /// port's horizon. A wake for a core that is not `Ready` is stale and
    /// does nothing. Returns whether the core finished in this call.
    // `#[inline]` here and on the transitions places each system's copy in
    // that system's codegen unit, so the port's hooks inline into the loop;
    // without it the partition-local loop ran ~10% slower.
    #[inline]
    pub(crate) fn advance<P: CorePort>(&mut self, ops: &[Op], now: Ps, port: &mut P) -> bool {
        if self.status != Status::Ready {
            return false;
        }
        let mut t = now.max(self.ready_at);
        let (clock, mlp) = (port.clock(), port.mlp());
        loop {
            if t > port.horizon() {
                self.ready_at = t;
                port.wake(t);
                return false;
            }
            if self.pc >= self.limit {
                if self.outstanding.is_empty() {
                    self.status = Status::Done;
                    self.finish = Some(t);
                    return true;
                }
                self.block(Status::WaitDrain, t);
                return false;
            }
            let op = ops[self.pc];
            match op {
                Op::Comp(cycles) => {
                    self.pc += 1;
                    t += clock.cycles(cycles as u64);
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
                    t += clock.cycles(1);
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
                    t += clock.cycles(2);
                }
                Op::Barrier if port.skips_barriers() => {
                    self.pc += 1;
                    t += clock.cycles(10);
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

/// A memory controller plus the time of its one live service tick. Ticks
/// are events in the owner's queue; the owner schedules the times this
/// returns and hands every tick back to [`McPort::service`].
#[derive(Debug)]
pub(crate) struct McPort {
    pub(crate) mc: MemController,
    /// When the live tick fires (`Ps::MAX`: none pending).
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

    /// Enqueues `req` arriving at `at`. Returns the time of a tick to
    /// schedule, when the request needs one earlier than the live tick.
    #[must_use]
    pub(crate) fn enqueue(&mut self, now: Ps, at: Ps, req: MemRequest) -> Option<Ps> {
        self.mc.enqueue(at, req);
        self.arm(at.max(now))
    }

    /// Services the controller on a tick firing at `now`. A stale tick —
    /// not the live one — returns `None` and must spawn no successor (that
    /// would chain ticks forever). After handling the completions, the
    /// owner hands the buffer back to [`McPort::rearm`] and schedules the
    /// successor tick it returns.
    #[must_use]
    pub(crate) fn service(&mut self, now: Ps) -> Option<Vec<Completion>> {
        if now != self.next {
            return None;
        }
        self.next = Ps::MAX;
        let mut done = std::mem::take(&mut self.done);
        self.mc.service_into(now, &mut done);
        Some(done)
    }

    /// Takes back the buffer [`McPort::service`] lent out and returns the
    /// successor tick to schedule after a live tick, if any.
    #[must_use]
    pub(crate) fn rearm(&mut self, mut done: Vec<Completion>) -> Option<Ps> {
        done.clear();
        self.done = done;
        self.mc.next_wake().and_then(|w| self.arm(w))
    }

    fn arm(&mut self, wake: Ps) -> Option<Ps> {
        (self.next > wake).then(|| {
            self.next = wake;
            wake
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_workloads::Addr;

    /// A port that records what the core asks of it. Loads hit when the
    /// address is below `hit_below`; every miss is a new transaction whose
    /// remoteness is the address's low bit.
    #[derive(Default)]
    struct FakePort {
        mlp: usize,
        horizon: Option<Ps>,
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
        fn horizon(&self) -> Ps {
            self.horizon.unwrap_or(Ps::MAX)
        }
        fn wake(&mut self, at: Ps) {
            self.wakes.push(at);
        }
        fn lookup(&mut self, addr: u64, _: bool, cacheable: bool, _: Ps) -> Option<Ps> {
            (cacheable && addr < self.hit_below).then_some(Ps::from_ns(1))
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
    fn a_core_yields_at_the_horizon() {
        let ops = [Op::Comp(10), Op::Comp(10)];
        let mut port = FakePort {
            horizon: Some(ns(5)),
            ..FakePort::new(1)
        };
        let mut core = TraceCore::new(ops.len(), 1);
        assert!(!core.advance(&ops, Ps::ZERO, &mut port));
        assert_eq!((core.pc, core.status), (1, Status::Ready));
        assert_eq!(port.wakes, vec![ns(10)]);
        port.horizon = None;
        // Woken early, the core still resumes where it left off.
        assert!(core.advance(&ops, ns(6), &mut port));
        assert_eq!(core.finish, Some(ns(20)));
    }

    #[test]
    fn a_controller_has_one_live_tick() {
        let cfg = dl_mem::DramConfig::ddr4_2400_lrdimm();
        let map = dl_mem::DimmAddressMap::new(&cfg);
        let mut port = McPort::new(MemController::new("mc", &cfg));
        let read = |id| MemRequest::new(id, dl_mem::AccessKind::Read, map.decode(id * 64));
        assert_eq!(port.enqueue(Ps::ZERO, ns(10), read(1)), Some(ns(10)));
        assert_eq!(port.enqueue(Ps::ZERO, ns(20), read(2)), None, "covered");
        // An earlier arrival moves the live tick; the 10 ns one goes stale.
        assert_eq!(port.enqueue(Ps::ZERO, ns(5), read(3)), Some(ns(5)));
        assert!(port.service(ns(10)).is_none());
        // A request arriving in the past is due now.
        let now = ns(5);
        assert_eq!(port.enqueue(now, Ps::ZERO, read(4)), None, "due at 5 ns");
        let done = port.service(now).expect("live tick");
        assert!(port.service(now).is_none(), "one service per live tick");
        let next = port.rearm(done).expect("requests still pending");
        assert!(next > now);
        assert_eq!(port.rearm(Vec::new()), None, "already armed");
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

//! The one trace-driven core model, shared by the NMP system
//! ([`crate::system`]) and the host baseline ([`crate::host_sim`]).
//!
//! A [`TraceCore`] replays a thread's [`ThreadTrace`] with bounded
//! memory-level parallelism: loads and stores that miss the caches occupy
//! one slot of an MLP window and the core keeps going until the window is
//! full; atomics and barriers first drain the window, and an atomic then
//! holds the window alone. Out-of-order host cores and in-order NMP cores
//! are the same state machine with different clocks and window sizes.
//! Everything the core does not own — the caches, memory, the
//! interconnect, the barrier and the event queue — it reaches through a
//! [`CorePort`], which each system implements for itself. The core walks
//! the trace's compact form in place: a call runs its block's ops where it
//! stands, a sweep runs its iterations there, each its access and then its
//! chosen block's ops, and the expanded sequence is never built.
//!
//! [`Schedule`] is the event order both systems share: one event queue,
//! one live service tick per memory controller beside it, the clock, and
//! the end of the current run of pops.
//!
//! # Order
//!
//! Events pop by [`EventKey`]: time, then a rank fixed by the event's
//! class, then push order. At equal times deliveries and completions go
//! first (rank 0), so what arrives at `t` is in place before anything else
//! at `t` looks; then each memory controller's tick, by controller
//! (`1 + ch`), so a controller serves `t` once `t`'s arrivals are queued
//! and its completions land before the cores act; then the cores' wakes,
//! by id (`1 + controllers + id`).
//!
//! A core's actions carry the key of its own wake, `(t, rank)`. A core
//! starts an action on shared state — the caches past its L1, memory, the
//! interconnect, the barrier — or finishes only while that key is not
//! above the schedule's [`horizon`](Schedule::horizon), the lowest key of
//! anything else still to happen. So every such action starts in key
//! order, whatever the host-side schedule of wakes: no result depends on
//! where a core last yielded. Compute ops, L1 hits and skipped barriers
//! touch only the core's own state, so the core runs through them first,
//! whatever the horizon; it yields only in front of a shared action past
//! the horizon.
//!
//! One action may lower the horizon below the core's own key and still
//! finish: a miss that evicts a dirty line writes the victim back at `t`,
//! which arms a memory tick at `(t, 1 + ch)`, and then issues its own
//! access at `t`. The miss and its victim are one action, checked once
//! against the horizon read before the lookup. The core reads the horizon
//! again after it issues, so its next shared action waits for that tick.

use dl_engine::{EventKey, EventQueue, Freq, Ps};
use dl_mem::{Completion, MemController, MemRequest};
use dl_workloads::{Block, Iterations, Op, Step, Sweep, ThreadTrace};
use std::collections::VecDeque;

/// Where a core is in its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    /// Window full; resumes on the next completion, and no earlier than
    /// where it blocked.
    WaitWindow,
    /// Needs an empty window before executing the op it stands at (or
    /// finishing), or waits for the atomic that holds the window alone.
    WaitDrain,
    /// Arrived at a barrier, waiting for release.
    WaitBarrier,
    Done,
}

/// The system side of one core: the hooks [`TraceCore`] calls while it
/// advances. Implemented by a short-lived view that knows which core it
/// serves, so every hook acts on behalf of that core.
pub(crate) trait CorePort {
    /// The lowest key of anything else still to happen. The core may act
    /// on shared state at `t` while `(t, rank)` is not above it; past it,
    /// the core yields. (An equal key can only be this core's own wake.)
    fn horizon(&self) -> EventKey;
    /// A cacheable load or store that hits the core's private L1: touches
    /// the line and returns the hit latency. On a miss it changes nothing
    /// and returns `None`.
    fn l1_hit(&mut self, addr: u64, is_write: bool) -> Option<Ps>;
    /// Schedules this core's next [`TraceCore::advance`] at `at`.
    fn wake(&mut self, at: Ps);
    /// Looks up a load or store issued at `t` that did not hit the L1
    /// (called once per attempt, cacheable or not): a cacheable access
    /// fills its L1 line and goes on to the next level. `Some(latency)` is
    /// a hit there; `None` sends it to memory, after the port has issued
    /// any writeback the miss evicted.
    fn past_l1(&mut self, addr: u64, is_write: bool, cacheable: bool, t: Ps) -> Option<Ps>;
    /// Issues a memory access at `t`; returns its transaction id and
    /// whether it is remote. Its completion comes back via
    /// [`TraceCore::complete`].
    fn issue(&mut self, addr: u64, is_write: bool, t: Ps) -> (u64, bool);
    /// Issues an atomic at `t` (the window is empty); it holds the window
    /// alone under the returned transaction id, remote or not.
    fn atomic(&mut self, addr: u64, t: Ps) -> (u64, bool);
    /// Issues a broadcast of `bytes` at `t`; it occupies one remote slot
    /// under the returned transaction id.
    fn broadcast(&mut self, addr: u64, bytes: u16, t: Ps) -> u64;
    /// The core arrived at a barrier at `t` (the window is empty); it is
    /// released via [`TraceCore::unblock`].
    fn barrier(&mut self, t: Ps);
}

/// What a core's current run is, as it walks its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// The trace's steps.
    Steps,
    /// The ops of a block: the one a call runs, or the one the current
    /// iteration of a sweep calls.
    Block,
    /// The access that starts the current iteration of a sweep.
    Access,
}

/// One trace-driven core: its clock, window size and rank, the position in
/// its trace, the MLP window, what it is blocked on, and where its stall
/// time went.
#[derive(Debug)]
pub(crate) struct TraceCore {
    /// The position: the trace's step `pc`, and among the ops that step
    /// runs, the one at offset `sub` (0 for an op).
    pc: usize,
    sub: u32,
    /// The trace stops after its first `stop` steps (a profiling run
    /// truncates it) ...
    stop: usize,
    /// ... and step `stop - 1`, a call or a sweep, after its first `cut`
    /// ops (0: in full).
    cut: u32,
    /// The core clock's period.
    period: Ps,
    /// The MLP window: outstanding memory transactions allowed at once.
    mlp: u32,
    /// The rank of this core's wakes among events at the same time
    /// ([`Schedule::wake_rank`]); unique to the core.
    rank: u64,
    /// Barriers are local no-ops (truncated, unbalanced traces).
    skips_barriers: bool,
    /// Blocked at a yield, in front of an access it has not tried yet.
    deferred: bool,
    /// The deferral skipped a lookup of the access it stands at (a slot
    /// freed only after the yield): its retry makes it.
    skipped: bool,
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
    /// A core clocked at `clock` that will run the first `limit` ops of
    /// `trace` (expanded; the stop may fall inside a call or a sweep) with
    /// a window of `mlp` slots, waking under `rank`.
    pub(crate) fn new(
        trace: &ThreadTrace,
        limit: usize,
        clock: Freq,
        mlp: usize,
        rank: u64,
        skips_barriers: bool,
    ) -> Self {
        let (pc, sub) = trace.position(limit);
        TraceCore {
            pc: 0,
            sub: 0,
            stop: pc + usize::from(sub > 0),
            cut: u32::try_from(sub).expect("a step runs fewer than 2^32 ops"),
            period: clock.period(),
            mlp: u32::try_from(mlp).expect("a window of fewer than 2^32 slots"),
            rank,
            skips_barriers,
            deferred: false,
            skipped: false,
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

    /// Whether every window slot is taken.
    fn window_full(&self) -> bool {
        self.outstanding.len() >= self.mlp as usize
    }

    /// Whether the stop cuts step `pc` short.
    #[inline]
    fn cuts(&self, pc: usize) -> bool {
        self.cut > 0 && pc + 1 == self.stop
    }

    /// The ops of block `b` that the call at step `pc` runs: all of them,
    /// unless the stop cuts that call short.
    #[inline]
    fn called<'t>(&self, trace: &'t ThreadTrace, b: Block, pc: usize) -> &'t [Step] {
        let ops = trace.block(b);
        if self.cuts(pc) {
            &ops[..self.cut as usize]
        } else {
            ops
        }
    }

    /// The iterations of the sweep `s` at step `pc` that the core runs
    /// from iteration `from` on: all of them, unless the stop cuts the
    /// sweep short.
    fn iterations<'t>(
        &self,
        trace: &'t ThreadTrace,
        s: Sweep,
        pc: usize,
        from: u32,
    ) -> Iterations<'t> {
        let (count, per) = trace.sweep_shape(s);
        let end = if self.cuts(pc) {
            (self.cut as usize).div_ceil(per) as u32
        } else {
            count
        };
        trace.iterations(s, from..end)
    }

    /// The next of `its`, iterations of the sweep at step `pc`: its access
    /// and the ops of its block that run after it, all of them unless the
    /// stop cuts the last iteration short.
    #[inline]
    fn next_iteration<'t>(
        &self,
        its: &mut Iterations<'t>,
        pc: usize,
    ) -> Option<(Step, &'t [Step])> {
        let (access, ops) = its.next()?;
        let ops = if its.len() == 0 && self.cuts(pc) {
            &ops[..(self.cut as usize - 1) % (1 + ops.len())]
        } else {
            ops
        };
        Some((Step::Op(access), ops))
    }

    /// Runs the core from `now` until it blocks, finishes, or reaches a
    /// shared action past the port's horizon (see the module docs on
    /// order). A wake for a core that is not `Ready` is stale and does
    /// nothing. Returns whether the core finished in this call.
    // `#[inline]` here and on the transitions places each system's copy in
    // that system's codegen unit, so the port's hooks inline into the loop;
    // without it the partition-local loop ran ~10% slower.
    #[inline]
    pub(crate) fn advance<P: CorePort>(
        &mut self,
        trace: &ThreadTrace,
        now: Ps,
        port: &mut P,
    ) -> bool {
        if self.status != Status::Ready {
            return false;
        }
        let mut t = now.max(self.ready_at);
        let period = self.period;
        // Only this core's own actions can lower the horizon while it keeps
        // running: a hit schedules nothing; a miss (with the victim write it
        // may start) is followed by its `issue`, or it blocks; an atomic and
        // a barrier return. So it is read again only after `issue` and
        // `broadcast`, and under the auditor checked fresh at every step.
        let mut horizon = port.horizon();
        // The current run, the index `i` in it, and what the run is; written
        // back once, on return. In the sweep at step `pc` the core walks
        // `its`, the sweep's iterations: the run of the current one is first
        // its `access` and then its `body`, the ops of the block it calls.
        let steps = &trace.steps()[..self.stop];
        let mut pc = self.pc;
        let mut its = Iterations::default();
        let (mut access, mut body) = ([Step::Op(Op::Barrier)], &[][..]);
        let (mut run, mut i, mut at) = match steps.get(pc) {
            Some(&Step::Call(b)) => (self.called(trace, b, pc), self.sub as usize, Run::Block),
            Some(&Step::Sweep(s)) => {
                let per = trace.sweep_shape(s).1;
                its = self.iterations(trace, s, pc, (self.sub as usize / per) as u32);
                match self.next_iteration(&mut its, pc) {
                    Some(next) => {
                        (access[0], body) = next;
                        match self.sub as usize % per {
                            0 => (&access[..], 0, Run::Access),
                            k => (body, k - 1, Run::Block),
                        }
                    }
                    // Stopped right after the sweep's last op.
                    None => (steps, pc + 1, Run::Steps),
                }
            }
            _ => (steps, pc, Run::Steps),
        };
        let finished = loop {
            if dl_engine::AUDIT {
                assert_eq!(horizon, port.horizon(), "the core's horizon went stale");
            }
            let step = run.get(i);
            // What touches only the core's own state runs whatever the
            // horizon: compute, an L1 hit, a skipped barrier, and entering
            // or leaving a block, a sweep or an iteration. Those change only
            // its L1 and the commutative profile counts. A completion that
            // arrives meanwhile for a `Ready` core only frees a window slot,
            // which the next shared access sees: the horizon check below
            // runs before it.
            match step {
                Some(&Step::Op(Op::Comp(cycles))) => {
                    i += 1;
                    t += period * u64::from(cycles);
                    continue;
                }
                Some(Step::Op(Op::Barrier)) if self.skips_barriers => {
                    i += 1;
                    t += period * 10;
                    continue;
                }
                Some(&Step::Op(
                    op @ (Op::Load {
                        addr,
                        cacheable: true,
                    }
                    | Op::Store {
                        addr,
                        cacheable: true,
                    }),
                )) => {
                    let is_write = matches!(op, Op::Store { .. });
                    if let Some(latency) = port.l1_hit(addr.get(), is_write) {
                        i += 1;
                        t += latency;
                        continue;
                    }
                }
                Some(&Step::Call(b)) => {
                    (pc, i, at) = (i, 0, Run::Block);
                    run = self.called(trace, b, pc);
                    continue;
                }
                Some(&Step::Sweep(s)) => {
                    (pc, its) = (i, self.iterations(trace, s, i, 0));
                    (access[0], body) =
                        self.next_iteration(&mut its, pc).expect("a sweep iterates");
                    (run, i, at) = (&access, 0, Run::Access);
                    continue;
                }
                // The end of an access, of a block, or of an iteration.
                None if at == Run::Access => {
                    (run, i, at) = (body, 0, Run::Block);
                    continue;
                }
                None if at == Run::Block => {
                    if let Some(next) = self.next_iteration(&mut its, pc) {
                        (access[0], body) = next;
                        (run, i, at) = (&access, 0, Run::Access);
                    } else {
                        (run, i, at) = (steps, pc + 1, Run::Steps);
                    }
                    continue;
                }
                _ => {}
            }
            if EventKey::new(t, self.rank) > horizon {
                // An uncacheable access in front of a full window cannot
                // start before a slot frees. Woken at `t`, the core would
                // only look it up and block, so it blocks here: no wake,
                // and `unblock` resumes it no earlier than `t`.
                if self.window_full()
                    && matches!(
                        step,
                        Some(Step::Op(
                            Op::Load {
                                cacheable: false,
                                ..
                            } | Op::Store {
                                cacheable: false,
                                ..
                            }
                        ))
                    )
                {
                    self.deferred = true;
                    self.block(Status::WaitWindow, t);
                    break false;
                }
                self.ready_at = t;
                port.wake(t);
                break false;
            }
            let op = match step {
                Some(&Step::Op(op)) => op,
                Some(Step::Call(_) | Step::Sweep(_)) => {
                    unreachable!("a call or a sweep is entered before the horizon check")
                }
                None if self.outstanding.is_empty() => {
                    self.status = Status::Done;
                    self.finish = Some(t);
                    break true;
                }
                None => {
                    self.block(Status::WaitDrain, t);
                    break false;
                }
            };
            match op {
                Op::Load { addr, cacheable } | Op::Store { addr, cacheable } => {
                    let (addr, is_write) = (addr.get(), matches!(op, Op::Store { .. }));
                    // A blocked access repeats its lookup when it resumes.
                    // A deferred one is uncacheable: the skipped lookup
                    // only counts in the profile.
                    if std::mem::take(&mut self.skipped) {
                        port.past_l1(addr, is_write, cacheable, t);
                    }
                    if let Some(latency) = port.past_l1(addr, is_write, cacheable, t) {
                        i += 1;
                        t += latency;
                        continue;
                    }
                    if self.window_full() {
                        self.block(Status::WaitWindow, t);
                        break false;
                    }
                    i += 1;
                    let slot = port.issue(addr, is_write, t);
                    self.outstanding.push(slot);
                    horizon = port.horizon();
                    t += period;
                }
                Op::Atomic { addr } => {
                    if !self.outstanding.is_empty() {
                        self.block(Status::WaitDrain, t);
                        break false;
                    }
                    i += 1;
                    let slot = port.atomic(addr.get(), t);
                    self.outstanding.push(slot);
                    self.block(Status::WaitDrain, t);
                    break false;
                }
                Op::Broadcast { addr, bytes } => {
                    if self.window_full() {
                        self.block(Status::WaitWindow, t);
                        break false;
                    }
                    i += 1;
                    let id = port.broadcast(addr.get(), bytes, t);
                    self.outstanding.push((id, true));
                    horizon = port.horizon();
                    t += period * 2;
                }
                Op::Barrier => {
                    if !self.outstanding.is_empty() {
                        self.block(Status::WaitDrain, t);
                        break false;
                    }
                    i += 1;
                    self.block(Status::WaitBarrier, t);
                    port.barrier(t);
                    break false;
                }
                Op::Comp(_) => unreachable!("compute runs before the horizon check"),
            }
        };
        (self.pc, self.sub) = match (at, steps.get(pc)) {
            (Run::Steps, _) => (i, 0),
            (_, Some(&Step::Sweep(s))) => {
                let done = if at == Run::Access { i } else { 1 + i };
                let j = its.next_index() as usize - 1;
                let sub = j * trace.sweep_shape(s).1 + done;
                (
                    pc,
                    u32::try_from(sub).expect("a sweep holds fewer than 2^32 ops"),
                )
            }
            _ => (
                pc,
                u32::try_from(i).expect("a block holds fewer than 2^32 ops"),
            ),
        };
        finished
    }

    /// Resumes a blocked core at `at`, or where it blocked if that is
    /// later, charging the stall to remote traffic, local memory, or
    /// synchronization.
    ///
    /// A core that deferred its access at a yield had not looked it up yet.
    /// Had it woken there instead, it would have looked it up once more if
    /// the window was still full, that is if the slot frees after the
    /// yield: its retry counts that attempt.
    #[inline]
    pub(crate) fn unblock<P: CorePort>(&mut self, at: Ps, remote: bool, port: &mut P) {
        let at = at.max(self.blocked_at);
        let stall = at - self.blocked_at;
        self.skipped = std::mem::take(&mut self.deferred) && stall > Ps::ZERO;
        match self.status {
            Status::WaitWindow | Status::WaitDrain => {
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

    /// The address of the access this core deferred at a yield before `t`,
    /// if any. A run cut off at `t` has not looked it up, where a core woken
    /// at the yield would have, once.
    pub(crate) fn deferred_before(&self, trace: &ThreadTrace, t: Ps) -> Option<u64> {
        if !self.deferred || self.blocked_at >= t {
            return None;
        }
        match trace.op_at(self.pc, self.sub as usize) {
            Op::Load { addr, .. } | Op::Store { addr, .. } => Some(addr.get()),
            _ => unreachable!("only an access is deferred"),
        }
    }

    /// Transaction `id` completed at `at`: frees its window slot and wakes
    /// a core waiting for a slot or for the drain. An unknown id is
    /// ignored.
    #[inline]
    pub(crate) fn complete<P: CorePort>(&mut self, id: u64, at: Ps, port: &mut P) {
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

/// The fraction of `threads` cores' time over `elapsed` that `stall`
/// covers (0 for an empty run).
pub(crate) fn stall_frac(stall: Ps, elapsed: Ps, threads: f64) -> f64 {
    if elapsed == Ps::ZERO {
        0.0
    } else {
        stall.as_ps() as f64 / (elapsed.as_ps() as f64 * threads)
    }
}

/// What [`Schedule::pop`] hands back.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Next<E> {
    /// Memory controller `ch`'s tick fires now: call
    /// [`Schedule::service`].
    Tick(usize),
    /// A queued event fires now.
    Event(E),
}

/// One partition's event order (see the module docs on order): the event
/// queue, the memory controllers with one live service tick each, the
/// clock, and the end of the current run of pops. A tick is not an event
/// in the queue but a keyed slot beside it, so moving a tick never leaves
/// a stale one behind.
#[derive(Debug)]
pub(crate) struct Schedule<E> {
    events: EventQueue<E>,
    /// The memory controllers, by channel.
    mcs: Vec<MemController>,
    /// When each controller's live tick fires (`Ps::MAX`: none armed).
    ticks: Vec<Ps>,
    /// The earliest live tick as a key (at `Ps::MAX`: none).
    tick: EventKey,
    /// The clock: the time of the last pop.
    now: Ps,
    /// The exclusive end of the current run of pops (`Ps::MAX` when
    /// unbounded): the horizon never reaches past it.
    end: Ps,
    /// The completion buffer, lent out by `service` and returned by `rearm`.
    done: Vec<Completion>,
}

impl<E> Schedule<E> {
    /// A schedule over the controllers `mcs`, with nothing queued or armed.
    pub(crate) fn new(mcs: Vec<MemController>) -> Self {
        Schedule {
            events: EventQueue::new(),
            ticks: vec![Ps::MAX; mcs.len()],
            mcs,
            tick: EventKey::MAX,
            now: Ps::ZERO,
            end: Ps::MAX,
            done: Vec::new(),
        }
    }

    /// Queues `ev` at `at` under `rank`: 0 for a delivery or completion,
    /// [`Schedule::wake_rank`] for a wake.
    pub(crate) fn push(&mut self, at: Ps, rank: u64, ev: E) {
        self.events.push_ranked(at, rank, ev);
    }

    /// The rank of core `id`'s wakes: after every tick at the same time.
    pub(crate) fn wake_rank(&self, id: usize) -> u64 {
        (1 + self.mcs.len() + id) as u64
    }

    /// Events queued so far (ticks not included).
    pub(crate) fn pushed(&self) -> u64 {
        self.events.total_scheduled()
    }

    /// The clock: the time of the last pop.
    pub(crate) fn now(&self) -> Ps {
        self.now
    }

    /// The memory controllers, by channel.
    pub(crate) fn mcs(&self) -> &[MemController] {
        &self.mcs
    }

    /// The next thing to happen: the queue's head or the earliest tick.
    pub(crate) fn next_key(&self) -> EventKey {
        let tick = self.tick;
        self.events.peek_key().map_or(tick, |head| head.min(tick))
    }

    /// The next thing to happen or the end of the run of pops, ranked below
    /// every event at that time: a core acts strictly before it.
    pub(crate) fn horizon(&self) -> EventKey {
        self.next_key().min(EventKey::new(self.end, 0))
    }

    /// Pops the next thing to happen before `end` and moves the clock to
    /// it; `None` once nothing is left before `end`.
    ///
    /// # Panics
    /// Panics if the next event is behind the clock: an event was pushed
    /// into the past, and the results would be garbage.
    #[inline]
    pub(crate) fn pop(&mut self, end: Ps) -> Option<Next<E>> {
        self.end = end;
        let next = self.next_key();
        if next.at >= end {
            return None;
        }
        // A real (not debug) assert: on the NMP side this means
        // cross-partition clamping failed.
        assert!(
            next.at >= self.now,
            "time went backwards: event at {} behind clock {}",
            next.at,
            self.now
        );
        self.now = next.at;
        if next == self.tick {
            // The rank names the controller.
            return Some(Next::Tick((next.rank - 1) as usize));
        }
        let (_, ev) = self.events.pop().expect("peeked event vanished");
        Some(Next::Event(ev))
    }

    /// Enqueues `req` arriving at `at` at controller `ch`, moving its tick
    /// earlier if the request needs one before it: to when the request or a
    /// pending refresh can first change the controller's state
    /// ([`MemController::next_wake`]), not to its arrival, and never before
    /// `now`.
    pub(crate) fn enqueue(&mut self, ch: usize, at: Ps, req: MemRequest) {
        self.mcs[ch].enqueue(at, req);
        let wake = self.mcs[ch].next_wake().expect("a request is pending");
        self.arm(ch, wake.max(self.now));
    }

    /// Services controller `ch` on its tick, firing now. After handling
    /// the completions, the owner hands the buffer back to
    /// [`Schedule::rearm`].
    #[must_use]
    pub(crate) fn service(&mut self, ch: usize) -> Vec<Completion> {
        assert_eq!(self.now, self.ticks[ch], "a memory tick fired off its time");
        self.ticks[ch] = Ps::MAX;
        self.tick = self
            .ticks
            .iter()
            .enumerate()
            .map(|(ch, &at)| EventKey::new(at, 1 + ch as u64))
            .min()
            .unwrap_or(EventKey::MAX);
        let mut done = std::mem::take(&mut self.done);
        self.mcs[ch].service_into(self.now, &mut done);
        done
    }

    /// Takes back the buffer [`Schedule::service`] lent out and arms
    /// controller `ch`'s next tick, if it has work pending.
    pub(crate) fn rearm(&mut self, ch: usize, mut done: Vec<Completion>) {
        done.clear();
        self.done = done;
        if let Some(w) = self.mcs[ch].next_wake() {
            self.arm(ch, w);
        }
    }

    fn arm(&mut self, ch: usize, wake: Ps) {
        self.ticks[ch] = self.ticks[ch].min(wake);
        self.tick = self.tick.min(EventKey::new(self.ticks[ch], 1 + ch as u64));
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

    /// A port that records what the core asks of it. Loads hit the L1
    /// when the address is below `hit_below`; every other access is a new
    /// transaction whose remoteness is the address's low bit. An L1 hit
    /// moves the horizon to `horizon_after_hit`, if set.
    #[derive(Default)]
    struct FakePort {
        horizon: Option<EventKey>,
        horizon_after_hit: Option<EventKey>,
        hit_below: u64,
        next_id: u64,
        wakes: Vec<Ps>,
        issued: Vec<(u64, u64)>,
        barriers: Vec<Ps>,
        /// Each `past_l1` call's address.
        lookups: Vec<u64>,
    }

    impl CorePort for FakePort {
        fn horizon(&self) -> EventKey {
            self.horizon.unwrap_or(EventKey::MAX)
        }
        fn l1_hit(&mut self, addr: u64, _: bool) -> Option<Ps> {
            let hit = addr < self.hit_below;
            if hit && self.horizon_after_hit.is_some() {
                self.horizon = self.horizon_after_hit;
            }
            hit.then_some(Ps::from_ns(1))
        }
        fn wake(&mut self, at: Ps) {
            self.wakes.push(at);
        }
        fn past_l1(&mut self, addr: u64, _: bool, _: bool, _: Ps) -> Option<Ps> {
            self.lookups.push(addr);
            None
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
        fn barrier(&mut self, t: Ps) {
            self.barriers.push(t);
        }
    }

    /// A trace of `ops`, with no blocks.
    fn trace<const N: usize>(ops: [Op; N]) -> ThreadTrace {
        ops.into_iter().collect()
    }

    /// A 1 GHz core of rank 1 over all of `ops`, with a window of `mlp`.
    fn new_core(ops: &ThreadTrace, mlp: usize) -> TraceCore {
        TraceCore::new(ops, ops.len(), Freq::from_ghz(1.0), mlp, 1, false)
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
        let ops = trace([load(2), load(4), load(6), Op::Comp(5)]);
        let mut port = FakePort::default();
        let mut core = new_core(&ops, 2);
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
        let ops = trace([
            Op::Load {
                addr: Addr::new(0),
                cacheable: true,
            },
            Op::Comp(4),
        ]);
        let mut port = FakePort {
            hit_below: 64,
            ..FakePort::default()
        };
        let mut core = new_core(&ops, 1);
        assert!(core.advance(&ops, Ps::ZERO, &mut port));
        assert!(port.issued.is_empty());
        assert_eq!(core.finish, Some(ns(5)));
    }

    #[test]
    fn atomics_and_barriers_wait_for_the_window_to_drain() {
        let ops = trace([
            load(2),
            Op::Atomic { addr: Addr::new(9) },
            load(4),
            Op::Barrier,
        ]);
        let mut port = FakePort::default();
        let mut core = new_core(&ops, 4);
        core.advance(&ops, Ps::ZERO, &mut port);
        assert_eq!(core.status, Status::WaitDrain);
        assert_eq!(port.issued, vec![(1, 2)], "atomic held back");
        core.complete(1, ns(10), &mut port);
        core.advance(&ops, ns(10), &mut port);
        assert_eq!(port.issued[1], (2, 9));
        // The atomic holds the window alone.
        assert_eq!(core.status, Status::WaitDrain);
        assert_eq!(core.outstanding, [(2, true)]);
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
        let ops = trace([Op::Atomic { addr: Addr::new(2) }, Op::Comp(1)]);
        let mut port = FakePort::default();
        let mut core = new_core(&ops, 2);
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
        let ops = trace([
            Op::Comp(10),
            hit(0),
            Op::Comp(10),
            hit(8),
            load(70),
            Op::Comp(1),
        ]);
        let mut port = FakePort {
            hit_below: 64,
            horizon: Some(EventKey::new(ns(5), 0)),
            ..FakePort::default()
        };
        let mut core = new_core(&ops, 1);
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

    /// A window of one, a load issued at 0 ns, 9 ns of compute, and a
    /// second uncacheable load at 10 ns, past a horizon at 5 ns: the core
    /// defers it there.
    fn deferred_at_10ns(ops: &ThreadTrace) -> (TraceCore, FakePort) {
        let mut port = FakePort {
            horizon: Some(EventKey::new(ns(5), 0)),
            ..FakePort::default()
        };
        let mut core = new_core(ops, 1);
        assert!(!core.advance(ops, Ps::ZERO, &mut port));
        assert_eq!(port.issued, [(1, 2)]);
        assert_eq!(port.lookups, [2]);
        port.lookups.clear();
        (core, port)
    }

    #[test]
    fn a_full_window_defers_an_uncacheable_access_at_the_yield() {
        let ops = trace([load(2), Op::Comp(9), load(4)]);
        let (mut core, mut port) = deferred_at_10ns(&ops);
        assert_eq!((core.status, core.blocked_at), (Status::WaitWindow, ns(10)));
        assert!(port.wakes.is_empty(), "no wake while blocked");
        assert!(port.lookups.is_empty(), "not looked up yet");
        // A stale wake changes nothing.
        assert!(!core.advance(&ops, ns(10), &mut port));
        assert!(port.wakes.is_empty() && port.lookups.is_empty());
        // A cacheable access yields with a wake: its lookup may hit past
        // the L1 and need no slot.
        let cached = trace([
            load(2),
            Op::Comp(9),
            Op::Load {
                addr: Addr::new(4),
                cacheable: true,
            },
        ]);
        let (core, port) = deferred_at_10ns(&cached);
        assert_eq!(
            (core.status, port.wakes.as_slice()),
            (Status::Ready, &[ns(10)][..])
        );
    }

    #[test]
    fn a_slot_freed_before_the_yield_resumes_at_the_yield() {
        let ops = trace([load(2), Op::Comp(9), load(4)]);
        let (mut core, mut port) = deferred_at_10ns(&ops);
        core.complete(1, ns(6), &mut port);
        assert_eq!((core.status, core.ready_at), (Status::Ready, ns(10)));
        assert_eq!(port.wakes, [ns(10)]);
        assert_eq!(core.mem_stall, Ps::ZERO);
        port.horizon = None;
        assert!(!core.advance(&ops, ns(10), &mut port));
        // One lookup, as if the core had woken at the yield and found the
        // slot free: no extra profile entry.
        assert_eq!(port.lookups, [4]);
        assert_eq!(port.issued, [(1, 2), (2, 4)]);
    }

    #[test]
    fn a_slot_freed_after_the_yield_charges_the_stall_and_one_attempt() {
        let ops = trace([load(2), Op::Comp(9), load(4)]);
        let (mut core, mut port) = deferred_at_10ns(&ops);
        core.complete(1, ns(25), &mut port);
        assert_eq!(port.wakes, [ns(25)]);
        assert_eq!(core.mem_stall, ns(15));
        port.horizon = None;
        assert!(!core.advance(&ops, ns(25), &mut port));
        // The attempt a wake at the yield would have made, then the retry.
        assert_eq!(port.lookups, [4, 4]);
        assert_eq!(port.issued, [(1, 2), (2, 4)]);
    }

    #[test]
    fn two_deferrals_count_two_attempts() {
        let ops = trace([load(2), Op::Comp(9), load(5), Op::Comp(9), load(6)]);
        let (mut core, mut port) = deferred_at_10ns(&ops);
        core.complete(1, ns(20), &mut port);
        // The retry issues the remote load at 20 ns; the next load defers
        // at 30 ns, past a horizon at 25 ns.
        port.horizon = Some(EventKey::new(ns(25), 0));
        assert!(!core.advance(&ops, ns(20), &mut port));
        assert_eq!((core.status, core.blocked_at), (Status::WaitWindow, ns(30)));
        assert_eq!(port.wakes, [ns(20)]);
        core.complete(2, ns(40), &mut port);
        assert_eq!((core.mem_stall, core.idc_stall), (ns(10), ns(10)));
        port.horizon = None;
        assert!(!core.advance(&ops, ns(40), &mut port));
        assert_eq!(port.lookups, [5, 5, 6, 6]);
    }

    /// A trace that calls a block of `block` once per entry of `calls`,
    /// each call after the op given there, if any.
    fn with_block<const N: usize>(block: [Op; N], calls: &[Option<Op>]) -> ThreadTrace {
        let mut t = ThreadTrace::new();
        let b = t.add_block(block.into_iter().collect());
        for &op in calls {
            t.extend(op);
            t.call(b);
        }
        t
    }

    #[test]
    fn a_core_yields_inside_a_block_and_resumes_there() {
        let hit = |addr| Op::Load {
            addr: Addr::new(addr),
            cacheable: true,
        };
        let block = [Op::Comp(10), hit(0), Op::Comp(10), hit(8), load(70)];
        let ops = with_block(block, &[None, Some(Op::Comp(1))]);
        let mut port = FakePort {
            hit_below: 64,
            horizon: Some(EventKey::new(ns(5), 0)),
            ..FakePort::default()
        };
        let mut core = new_core(&ops, 1);
        assert!(!core.advance(&ops, Ps::ZERO, &mut port));
        // In front of the first call's load, as in the flat trace.
        assert_eq!((core.pc, core.sub, core.status), (0, 4, Status::Ready));
        assert_eq!(port.wakes, [ns(22)]);
        port.horizon = None;
        assert!(!core.advance(&ops, ns(6), &mut port));
        // The load issued; the second call's load finds the window full.
        assert_eq!(port.issued, [(1, 70)]);
        assert_eq!((core.pc, core.sub, core.status), (2, 4, Status::WaitWindow));
        assert_eq!(core.blocked_at, ns(24 + 22));
        core.complete(1, ns(50), &mut port);
        assert!(!core.advance(&ops, ns(50), &mut port));
        assert_eq!(port.issued, [(1, 70), (2, 70)]);
        assert_eq!((core.pc, core.sub, core.status), (3, 0, Status::WaitDrain));
    }

    #[test]
    fn a_full_window_blocks_inside_a_block_and_resumes_there() {
        let ops = with_block([load(2), load(4), load(6)], &[None, None]);
        let mut port = FakePort::default();
        let mut core = new_core(&ops, 2);
        assert!(!core.advance(&ops, Ps::ZERO, &mut port));
        assert_eq!((core.pc, core.sub, core.status), (0, 2, Status::WaitWindow));
        core.complete(1, ns(10), &mut port);
        assert!(!core.advance(&ops, ns(10), &mut port));
        // The third load, then the second call's first finds it full again.
        assert_eq!(port.issued, [(1, 2), (2, 4), (3, 6)]);
        assert_eq!((core.pc, core.sub, core.status), (1, 0, Status::WaitWindow));
        assert_eq!(core.blocked_at, ns(11));
    }

    #[test]
    fn a_deferral_inside_a_block_resumes_at_the_same_op() {
        let ops = with_block([load(2), Op::Comp(9), load(4)], &[None]);
        let (mut core, mut port) = deferred_at_10ns(&ops);
        assert_eq!((core.pc, core.sub), (0, 2));
        assert_eq!((core.status, core.blocked_at), (Status::WaitWindow, ns(10)));
        assert_eq!(core.deferred_before(&ops, ns(11)), Some(4));
        core.complete(1, ns(25), &mut port);
        port.horizon = None;
        assert!(!core.advance(&ops, ns(25), &mut port));
        assert_eq!(port.lookups, [4, 4]);
        assert_eq!(port.issued, [(1, 2), (2, 4)]);
        assert_eq!((core.pc, core.sub), (1, 0));
    }

    #[test]
    fn a_stop_may_cut_a_call_short() {
        let ops = with_block([load(2), Op::Comp(1), load(4)], &[None, None]);
        for (limit, issued) in [
            (4, &[2, 4, 2][..]),
            (3, &[2, 4]),
            (2, &[2]),
            (9, &[2, 4, 2, 4]),
        ] {
            let mut port = FakePort::default();
            let mut core = TraceCore::new(&ops, limit, Freq::from_ghz(1.0), 8, 1, false);
            assert!(!core.advance(&ops, Ps::ZERO, &mut port));
            let addrs: Vec<u64> = port.issued.iter().map(|&(_, addr)| addr).collect();
            assert_eq!(addrs, issued, "limit {limit}");
            assert_eq!(core.status, Status::WaitDrain, "limit {limit}");
        }
    }

    /// Two sweeps over blocks of three ops, between plain ops: the first's
    /// accesses are cacheable loads at 32 + 16 j (two L1 hits, then
    /// misses), the second's uncacheable stores at 5 + 64 j (remote); the
    /// blocks mix compute, a hit and misses.
    fn with_sweeps() -> ThreadTrace {
        let cached = |addr| Op::Load {
            addr: Addr::new(addr),
            cacheable: true,
        };
        let mut t = ThreadTrace::new();
        let a = t.add_block([Op::Comp(1), load(1001), Op::Comp(2)].into_iter().collect());
        let b = t.add_block([cached(8), Op::Comp(4), load(2000)].into_iter().collect());
        t.comp(2);
        t.sweep(cached(32), 16, [a, b], [false, true, true, false, true]);
        t.push(load(3));
        let store = Op::Store {
            addr: Addr::new(5),
            cacheable: false,
        };
        t.sweep(store, 64, [a, b], [true, false, false]);
        t.extend([Op::Comp(1), Op::Atomic { addr: Addr::new(7) }, Op::Barrier]);
        t
    }

    /// Runs the first `limit` ops of `trace` with a window of `mlp` on a
    /// port whose horizon stays `ahead` ns ahead of the clock, completing the
    /// oldest transaction 7 ns after each block, and returns everything
    /// the core asked of the port, its stalls and finish, and the address
    /// it had deferred whenever it blocked.
    fn drive(trace: &ThreadTrace, limit: usize, mlp: usize, ahead: u64) -> String {
        let mut port = FakePort {
            hit_below: 64,
            ..FakePort::default()
        };
        let mut core = TraceCore::new(trace, limit, Freq::from_ghz(1.0), mlp, 1, false);
        let mut deferred = Vec::new();
        let mut now = Ps::ZERO;
        loop {
            port.horizon = Some(EventKey::new(now + ns(ahead), 0));
            if core.advance(trace, now, &mut port) {
                break;
            }
            deferred.push(core.deferred_before(trace, Ps::MAX));
            match core.status {
                Status::Ready => now = core.ready_at,
                Status::WaitWindow | Status::WaitDrain => {
                    now = now.max(core.blocked_at) + ns(7);
                    core.complete(core.outstanding[0].0, now, &mut port);
                    now = core.ready_at;
                }
                Status::WaitBarrier => {
                    now = core.blocked_at + ns(3);
                    core.unblock(now, false, &mut port);
                }
                Status::Done => unreachable!("advance reports the finish"),
            }
        }
        format!(
            "issued {:?} lookups {:?} wakes {:?} barriers {:?} deferred {deferred:?} \
             stalls {:?} finish {:?}",
            port.issued,
            port.lookups,
            port.wakes,
            port.barriers,
            (core.idc_stall, core.mem_stall, core.sync_stall),
            core.finish
        )
    }

    #[test]
    fn a_sweep_runs_as_its_flattened_copy_from_every_stop() {
        let t = with_sweeps();
        let flat: ThreadTrace = t.ops().iter().copied().collect();
        assert_eq!(t.steps().len(), 7);
        for limit in 0..=t.len() + 1 {
            // The first two defer both inside blocks and at the second
            // sweep's accesses.
            for (mlp, ahead) in [(1, 2), (2, 2), (1, 13), (8, 40)] {
                assert_eq!(
                    drive(&t, limit, mlp, ahead),
                    drive(&flat, limit, mlp, ahead),
                    "limit {limit}, window {mlp}, horizon {ahead} ns ahead"
                );
            }
        }
    }

    #[test]
    fn a_core_defers_inside_a_sweep_and_resumes_there() {
        // A window of one: the first iteration's store issues, its block's
        // load (`a`, remote) defers at 10 ns past a horizon at 5 ns.
        let mut t = ThreadTrace::new();
        let a = t.add_block([Op::Comp(9), load(11)].into_iter().collect());
        let store = Op::Store {
            addr: Addr::new(2),
            cacheable: false,
        };
        t.sweep(store, 64, [a, a], [false, false]);
        let (mut core, mut port) = deferred_at_10ns(&t);
        assert_eq!((core.pc, core.sub, core.status), (0, 2, Status::WaitWindow));
        assert_eq!(core.deferred_before(&t, ns(11)), Some(11));
        core.complete(1, ns(12), &mut port);
        port.horizon = None;
        assert!(!core.advance(&t, ns(12), &mut port));
        // The load issues at 12 ns; the second iteration's store finds the
        // window full.
        assert_eq!(port.issued, [(1, 2), (2, 11)]);
        assert_eq!((core.pc, core.sub, core.status), (0, 3, Status::WaitWindow));
        core.complete(2, ns(20), &mut port);
        assert!(!core.advance(&t, ns(20), &mut port));
        assert_eq!(port.issued, [(1, 2), (2, 11), (3, 66)]);
        assert_eq!(core.deferred_before(&t, Ps::MAX), None);
    }

    #[test]
    fn a_core_keeps_its_size() {
        // The deferral state sits in padding: a core stays two host cache
        // lines (EXPERIMENTS.md, "Two set-up regimes", on why its size was
        // watched).
        assert_eq!(std::mem::size_of::<TraceCore>(), 128);
    }

    #[test]
    fn an_equal_time_event_goes_first_only_if_it_ranks_lower() {
        // The fake core's rank is 1; the load is issued at 5 ns.
        let ops = trace([Op::Comp(5), load(2)]);
        for (rank, yields) in [(0, true), (1, false), (2, false)] {
            let mut port = FakePort {
                horizon: Some(EventKey::new(ns(5), rank)),
                ..FakePort::default()
            };
            let mut core = new_core(&ops, 1);
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
        let ops = trace([
            Op::Load {
                addr: Addr::new(0),
                cacheable: true,
            },
            Op::Comp(1),
        ]);
        let run = std::panic::catch_unwind(|| {
            let mut port = FakePort {
                hit_below: 64,
                horizon_after_hit: Some(EventKey::new(Ps::ZERO, 0)),
                ..FakePort::default()
            };
            new_core(&ops, 1).advance(&ops, Ps::ZERO, &mut port)
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

    fn read(id: u64) -> MemRequest {
        let map = dl_mem::DimmAddressMap::new(&dl_mem::DramConfig::ddr4_2400_lrdimm());
        MemRequest::new(id, dl_mem::AccessKind::Read, map.decode(id * 64))
    }

    /// A schedule over `channels` idle controllers.
    fn schedule<E>(channels: usize) -> Schedule<E> {
        let cfg = dl_mem::DramConfig::ddr4_2400_lrdimm();
        Schedule::new(
            (0..channels)
                .map(|ch| MemController::new(format!("ch{ch}"), &cfg))
                .collect(),
        )
    }

    #[test]
    fn a_controller_has_one_live_tick() {
        // Nothing is queued, so the next key is the tick's.
        let mut s = schedule::<()>(1);
        assert_eq!(s.next_key().at, Ps::MAX, "idle");
        s.enqueue(0, ns(10), read(1));
        assert_eq!(s.next_key(), EventKey::new(ns(10), 1));
        s.enqueue(0, ns(20), read(2));
        assert_eq!(s.next_key().at, ns(10), "covered");
        // An earlier arrival moves the one tick; nothing is left at 10 ns.
        s.enqueue(0, ns(5), read(3));
        assert_eq!(s.next_key().at, ns(5));
        assert_eq!(s.pop(Ps::MAX), Some(Next::Tick(0)));
        // A request arriving in the past is due now.
        let now = ns(5);
        s.enqueue(0, Ps::ZERO, read(4));
        assert_eq!(s.next_key().at, now);
        let done = s.service(0);
        assert_eq!(s.next_key().at, Ps::MAX, "disarmed until rearmed");
        s.rearm(0, done);
        assert!(s.next_key().at > now, "requests still pending");
    }

    #[test]
    #[should_panic(expected = "a memory tick fired off its time")]
    fn a_tick_fires_only_at_its_time() {
        let mut s = schedule(1);
        s.enqueue(0, ns(10), read(1));
        s.push(ns(9), 0, ());
        assert_eq!(s.pop(Ps::MAX), Some(Next::Event(())));
        let _ = s.service(0);
    }

    #[test]
    fn equal_times_pop_deliveries_then_ticks_by_controller_then_wakes_by_id() {
        let at = ns(10);
        let mut s = schedule(2);
        assert_eq!(s.wake_rank(0), 3, "after both ticks");
        s.push(at, s.wake_rank(1), "wake 1");
        s.push(at, s.wake_rank(0), "wake 0");
        s.enqueue(1, at, read(1));
        s.enqueue(0, at, read(2));
        s.push(at, 0, "delivery");
        // The run of pops ends before `at`: nothing pops, and the horizon
        // stops below every event at `at`.
        assert_eq!(s.pop(at), None);
        assert_eq!(s.horizon(), EventKey::new(at, 0));
        let mut order = Vec::new();
        while s.now() <= at {
            match s.pop(Ps::MAX).expect("events pending") {
                Next::Tick(ch) => {
                    let done = s.service(ch);
                    s.rearm(ch, done);
                    order.push(if ch == 0 { "tick 0" } else { "tick 1" });
                }
                Next::Event(ev) => order.push(ev),
            }
        }
        // The last pop is the first tick after `at`.
        let after = order.pop();
        assert!(s.now() > at && after.is_some_and(|ev| ev.starts_with("tick")));
        assert_eq!(order, ["delivery", "tick 0", "tick 1", "wake 0", "wake 1"]);
        // An event behind the clock is a hard error.
        s.push(at, 0, "late");
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.pop(Ps::MAX)));
        let panic = late.expect_err("an event behind the clock must panic");
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("time went backwards"), "{msg}");
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
        let ops = trace([load(3), load(2), Op::Barrier]);
        let mut port = FakePort::default();
        let mut core = new_core(&ops, 1);
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

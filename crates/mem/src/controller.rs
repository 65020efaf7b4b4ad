//! Per-DIMM memory controller: FR-FCFS scheduling over DDR4 bank/rank state.
//!
//! The controller is event-driven. Callers [`enqueue`](MemController::enqueue)
//! requests, then repeatedly call [`service`](MemController::service) with the
//! current time, which never goes backwards; `service` issues every command
//! sequence that is legal at that time, returns the requests whose data
//! bursts have finished, and caches the next time the controller needs
//! attention ([`next_wake`](MemController::next_wake)).
//!
//! Modelled constraints: open-page row-buffer policy with row hit / empty /
//! conflict timing (tRCD/tRP/tRAS/tCL/tCWL/tCCD/tRTP/tWR), activation
//! throttling (tRRD, tFAW), write-to-read turnaround (tWTR), per-rank data-bus
//! serialization of bursts, and periodic refresh (tREFI/tRFC). FR-FCFS
//! prefers row hits over older requests, with a configurable hit-streak cap
//! to avoid starving row-conflict requests.

use crate::address::DimmAddr;
use crate::timing::{DramConfig, RowPolicy};
use dl_engine::stats::{Histogram, StatSet};
use dl_engine::{Ps, Resource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access; completes when the data burst has returned.
    Read,
    /// A write access; completes when the data burst has been consumed.
    Write,
}

/// One line-sized DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned in the [`Completion`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Decoded DRAM coordinates.
    pub addr: DimmAddr,
}

impl MemRequest {
    /// Convenience constructor.
    pub fn new(id: u64, kind: AccessKind, addr: DimmAddr) -> Self {
        MemRequest { id, kind, addr }
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The identifier given at enqueue time.
    pub id: u64,
    /// Time the data burst finished.
    pub at: Ps,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u32>,
    /// Earliest time a CAS may issue to the open row.
    cas_ready: Ps,
    /// Earliest time a PRE may issue.
    pre_ready: Ps,
    /// Consecutive row hits served (FR-FCFS starvation cap).
    hit_streak: u32,
}

impl Bank {
    fn closed() -> Self {
        Bank {
            open_row: None,
            cas_ready: Ps::ZERO,
            pre_ready: Ps::ZERO,
            hit_streak: 0,
        }
    }
}

#[derive(Debug)]
struct Rank {
    /// Issue times of the most recent activations (tFAW window).
    act_window: VecDeque<Ps>,
    /// Earliest time a READ CAS may issue after a write burst (tWTR).
    wtr_ready: Ps,
    /// Data path for bursts.
    bus: Resource,
    /// Start of the next refresh window.
    next_refresh: Ps,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    arrival: Ps,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    first_cmd_at: Ps,
    hit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Finish {
    at: Ps,
    id: u64,
    row_hit: bool,
}

impl PartialOrd for Finish {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Finish {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.id.cmp(&other.id))
    }
}

/// FR-FCFS memory controller for one DIMM.
///
/// See the [module documentation](self) for the driving protocol.
#[derive(Debug)]
pub struct MemController {
    name: String,
    cfg: DramConfig,
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    queue: VecDeque<Pending>,
    /// [`MemController::pick`]'s per-bank candidate table: flat bank ->
    /// chosen queue index (oldest or oldest-hit). All `None` between calls:
    /// `pick` empties each entry as it reads it.
    candidates: Vec<Option<usize>>,
    /// The flat banks `pick` filled in `candidates`, so it sweeps only those.
    touched: Vec<usize>,
    finishes: BinaryHeap<Reverse<Finish>>,
    /// The earliest planned first command of any queued request, as of the
    /// last FR-FCFS pass, lowered by each `enqueue` to the new request's
    /// (`Ps::MAX`: none). Requests blocked behind their bank's candidate,
    /// legal at the pass, do not count: the candidate covers their bank.
    queue_wake: Ps,
    next_wake: Option<Ps>,
    // statistics
    reads: u64,
    writes: u64,
    activates: u64,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
    queue_latency: Histogram,
}

impl MemController {
    /// Creates a controller with all banks closed.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (see [`DramConfig::validate`]).
    pub fn new(name: impl Into<String>, cfg: &DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM configuration");
        let name = name.into();
        let ranks = (0..cfg.ranks)
            .map(|r| Rank {
                act_window: VecDeque::with_capacity(4),
                wtr_ready: Ps::ZERO,
                bus: Resource::new(format!("{name}.rank{r}.bus")),
                next_refresh: cfg.timing.t(cfg.timing.refi),
            })
            .collect();
        MemController {
            cfg: *cfg,
            banks: vec![Bank::closed(); cfg.total_banks() as usize],
            ranks,
            queue: VecDeque::new(),
            candidates: vec![None; cfg.total_banks() as usize],
            touched: Vec::with_capacity(cfg.total_banks() as usize),
            finishes: BinaryHeap::new(),
            queue_wake: Ps::MAX,
            next_wake: None,
            reads: 0,
            writes: 0,
            activates: 0,
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
            queue_latency: Histogram::new(),
            name,
        }
    }

    /// Queues a request arriving at `arrival`, which may be later than the
    /// controller's current time: the request is not eligible to issue
    /// before it.
    ///
    /// [`next_wake`](MemController::next_wake) moves no later than the
    /// first time the new request could change state: its first command
    /// as planned from `arrival` against the current bank and rank state,
    /// or the earliest refresh not yet applied, whichever comes first.
    /// Until then only a `service` call can change that state, and every
    /// `service` call recomputes the wake; a refresh can close the
    /// request's row and so move its plan either way, hence the cap. A
    /// call at the arrival itself, while the bank is still busy, would
    /// make no progress.
    pub fn enqueue(&mut self, arrival: Ps, req: MemRequest) {
        let first = self.plan_for(&req, arrival).first_cmd_at;
        let wake = first.min(self.next_refresh());
        self.queue_wake = self.queue_wake.min(first);
        self.queue.push_back(Pending { req, arrival });
        self.next_wake = Some(self.next_wake.map_or(wake, |w| w.min(wake)));
    }

    /// Number of requests waiting or in flight.
    pub fn inflight(&self) -> usize {
        self.queue.len() + self.finishes.len()
    }

    /// Issues every command sequence legal at `now` and returns requests
    /// whose data bursts completed at or before `now`.
    pub fn service(&mut self, now: Ps) -> Vec<Completion> {
        let mut done = Vec::new();
        self.service_into(now, &mut done);
        done
    }

    /// [`service`](MemController::service), appending the completions to
    /// `done` so a caller can reuse one buffer across calls.
    ///
    /// A call before both the queue's wake and the next refresh only
    /// completes: no request can issue yet. A request's plan from `t` is
    /// `max(t, K)`, where `K` comes from bank and rank state that changes
    /// only at an issue or a refresh, and a bank's FR-FCFS candidate
    /// changes only when a request arrives, which `enqueue` has planned
    /// already. So the last pass's plans, and the wake they give, still
    /// hold, and the scheduling pass is skipped.
    pub fn service_into(&mut self, now: Ps, done: &mut Vec<Completion>) {
        let replan = now >= self.queue_wake || now >= self.next_refresh();
        self.serve(now, replan, done);
    }

    /// Serves the controller at `now`, running the FR-FCFS pass only if
    /// `replan`; see [`service_into`](MemController::service_into) for
    /// when skipping it is exact.
    fn serve(&mut self, now: Ps, replan: bool, done: &mut Vec<Completion>) {
        if replan {
            self.schedule(now);
        } else if dl_engine::AUDIT {
            assert!(
                self.pick(now).is_none(),
                "controller '{}': a completion-only tick at {now} skipped an issue",
                self.name
            );
        }

        // Pop completions.
        while let Some(&Reverse(f)) = self.finishes.peek() {
            if f.at > now {
                break;
            }
            self.finishes.pop();
            done.push(Completion {
                id: f.id,
                at: f.at,
                row_hit: f.row_hit,
            });
        }

        // Cache the next interesting time: each is after `now`.
        let mut wake = self.queue_wake;
        if let Some(Reverse(f)) = self.finishes.peek() {
            wake = wake.min(f.at);
        }
        if !self.queue.is_empty() || !self.finishes.is_empty() {
            // Refresh only matters while work is pending.
            wake = wake.min(self.next_refresh());
        }
        self.next_wake = (wake < Ps::MAX).then_some(wake);
    }

    /// The FR-FCFS pass at `now`: applies due refreshes, issues as long as
    /// something can start, and re-plans the queue's wake.
    fn schedule(&mut self, now: Ps) {
        self.apply_refreshes(now);
        // A burst issued from here on starts after `now`: tCL or tCWL after
        // a CAS no earlier than `now`. So what a bus held until `now` can
        // place no burst again.
        for rank in &mut self.ranks {
            rank.bus.forget_until(now);
        }

        // Issue as long as something can start now.
        while let Some((idx, plan)) = self.pick(now) {
            let pending = self.queue.remove(idx).expect("picked index in range");
            self.issue(pending, plan);
        }

        // Times at or before `now` are ignored: they belong to requests
        // blocked behind their bank's chosen candidate, whose own future
        // time, or a pending completion, covers the bank's progress. A
        // request that has not arrived yet is planned from its arrival.
        self.queue_wake = self
            .queue
            .iter()
            .map(|p| self.plan_for(&p.req, now.max(p.arrival)).first_cmd_at)
            .filter(|&t| t > now)
            .min()
            .unwrap_or(Ps::MAX);
    }

    /// The next time a `service` call could make progress: issue a
    /// request, complete one, or apply a refresh while work is pending.
    /// Computed by the last `service` call and lowered by each `enqueue` to
    /// when the new request or a pending refresh can first change state
    /// (not to its arrival). After an `enqueue` it may lie before the
    /// caller's clock, for a request that arrived in the past or a refresh
    /// overdue on an idle controller: serve it at the clock then. `None`
    /// when idle.
    pub fn next_wake(&self) -> Option<Ps> {
        self.next_wake
    }

    /// The earliest refresh not yet applied.
    fn next_refresh(&self) -> Ps {
        self.ranks
            .iter()
            .map(|r| r.next_refresh)
            .min()
            .expect("a controller has ranks")
    }

    fn apply_refreshes(&mut self, now: Ps) {
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.banks_per_rank() as usize;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            while rank.next_refresh <= now {
                let start = rank.next_refresh;
                let end = start + t.t(t.rfc);
                for b in 0..banks_per_rank {
                    let bank = &mut self.banks[r * banks_per_rank + b];
                    bank.open_row = None;
                    bank.hit_streak = 0;
                    bank.cas_ready = bank.cas_ready.max(end);
                    bank.pre_ready = bank.pre_ready.max(end);
                }
                rank.next_refresh = start + t.t(t.refi);
                self.refreshes += 1;
            }
        }
    }

    /// Earliest time an ACT may issue on `rank`, requested at `at`.
    fn act_ok(&self, rank: usize, at: Ps) -> Ps {
        let t = self.cfg.timing;
        let w = &self.ranks[rank].act_window;
        let mut earliest = at;
        if let Some(&last) = w.back() {
            earliest = earliest.max(last + t.t(t.rrd));
        }
        if w.len() >= 4 {
            earliest = earliest.max(w[w.len() - 4] + t.t(t.faw));
        }
        earliest
    }

    fn plan_for(&self, req: &MemRequest, now: Ps) -> Plan {
        let bank = &self.banks[req.addr.flat_bank(&self.cfg)];
        let rank = req.addr.rank as usize;
        match bank.open_row {
            Some(row) if row == req.addr.row => Plan {
                first_cmd_at: now.max(bank.cas_ready).max(self.read_wtr(req, rank)),
                hit: true,
            },
            Some(_) => {
                let pre_at = now.max(bank.pre_ready);
                Plan {
                    first_cmd_at: pre_at,
                    hit: false,
                }
            }
            None => {
                let act_at = self.act_ok(rank, now.max(bank.pre_ready));
                Plan {
                    first_cmd_at: act_at,
                    hit: false,
                }
            }
        }
    }

    fn read_wtr(&self, req: &MemRequest, rank: usize) -> Ps {
        match req.kind {
            AccessKind::Read => self.ranks[rank].wtr_ready,
            AccessKind::Write => Ps::ZERO,
        }
    }

    /// FR-FCFS pick with per-bank fairness.
    ///
    /// Each bank independently selects its next request: the oldest row hit
    /// while the bank's hit streak is below the cap, otherwise the oldest
    /// request for that bank (so capped banks drain conflicts instead of
    /// starving them behind an endless stream of ready hits). Among the
    /// per-bank candidates, the first one legal at `now` is issued.
    /// Requests arriving after `now` are not yet candidates.
    fn pick(&mut self, now: Ps) -> Option<(usize, Plan)> {
        for (i, p) in self.queue.iter().enumerate() {
            if p.arrival > now {
                continue;
            }
            let flat = p.req.addr.flat_bank(&self.cfg);
            let bank = &self.banks[flat];
            let is_hit = bank.open_row == Some(p.req.addr.row);
            let hits_allowed = bank.hit_streak < self.cfg.hit_streak_cap;
            match self.candidates[flat] {
                None => {
                    self.candidates[flat] = Some(i);
                    self.touched.push(flat);
                }
                Some(cur) => {
                    // Upgrade the oldest non-hit to the oldest hit while the
                    // streak cap permits hit-first scheduling.
                    let cur_hit = bank.open_row == Some(self.queue[cur].req.addr.row);
                    if hits_allowed && is_hit && !cur_hit {
                        self.candidates[flat] = Some(i);
                    }
                }
            }
        }
        // `best` is the lowest queue index, so the sweep order is immaterial.
        let mut best: Option<(usize, Plan)> = None;
        for k in 0..self.touched.len() {
            let Some(i) = self.candidates[self.touched[k]].take() else {
                continue;
            };
            let plan = self.plan_for(&self.queue[i].req, now);
            if plan.first_cmd_at > now {
                continue;
            }
            // Prefer the oldest issuable candidate for determinism.
            if best.is_none_or(|(b, _)| i < b) {
                best = Some((i, plan));
            }
        }
        self.touched.clear();
        best
    }

    fn issue(&mut self, pending: Pending, plan: Plan) {
        if dl_engine::AUDIT {
            assert!(
                plan.first_cmd_at >= pending.arrival,
                "controller '{}': request {} issues at {} before it arrives at {}",
                self.name,
                pending.req.id,
                plan.first_cmd_at,
                pending.arrival
            );
        }
        let t = self.cfg.timing;
        let req = pending.req;
        let rank_idx = req.addr.rank as usize;
        let flat = req.addr.flat_bank(&self.cfg);

        // Command schedule.
        let cas_at = if plan.hit {
            plan.first_cmd_at
        } else {
            let (pre_extra, base) = match self.banks[flat].open_row {
                Some(_) => (t.t(t.rp), plan.first_cmd_at), // PRE then ACT
                None => (Ps::ZERO, plan.first_cmd_at),
            };
            let act_at = self.act_ok(rank_idx, base + pre_extra);
            let rank = &mut self.ranks[rank_idx];
            rank.act_window.push_back(act_at);
            while rank.act_window.len() > 4 {
                rank.act_window.pop_front();
            }
            self.activates += 1;
            let bank = &mut self.banks[flat];
            bank.open_row = Some(req.addr.row);
            // tRAS lower-bounds the next precharge.
            bank.pre_ready = act_at + t.t(t.ras);
            let mut cas = act_at + t.t(t.rcd);
            if matches!(req.kind, AccessKind::Read) {
                cas = cas.max(self.ranks[rank_idx].wtr_ready);
            }
            cas
        };

        // Data burst on the rank data path.
        let data_start = match req.kind {
            AccessKind::Read => cas_at + t.t(t.cl),
            AccessKind::Write => cas_at + t.t(t.cwl),
        };
        // With `bus_per_rank` (DIMM-NMP: each rank has an independent data
        // path) bursts of different ranks overlap; otherwise all ranks share
        // one data bus (a conventional DIMM/channel).
        let bus_rank = if self.cfg.bus_per_rank { rank_idx } else { 0 };
        let burst_end = self.ranks[bus_rank].bus.reserve(data_start, t.t(t.bl));

        // Bank bookkeeping.
        let bank = &mut self.banks[flat];
        bank.cas_ready = cas_at + t.t(t.ccd);
        match req.kind {
            AccessKind::Read => {
                bank.pre_ready = bank.pre_ready.max(cas_at + t.t(t.rtp));
                self.reads += 1;
            }
            AccessKind::Write => {
                bank.pre_ready = bank.pre_ready.max(burst_end + t.t(t.wr));
                self.ranks[rank_idx].wtr_ready = burst_end + t.t(t.wtr);
                self.writes += 1;
            }
        }
        let bank = &mut self.banks[flat];
        if plan.hit {
            bank.hit_streak += 1;
            self.row_hits += 1;
        } else {
            bank.hit_streak = 1;
            self.row_misses += 1;
        }
        if matches!(self.cfg.row_policy, RowPolicy::Closed) {
            // Auto-precharge: the row closes immediately after the access;
            // the next activation waits for the implicit precharge to
            // finish (the accumulated pre_ready constraints plus tRP).
            bank.open_row = None;
            bank.hit_streak = 0;
            bank.pre_ready += t.t(t.rp);
        }

        self.queue_latency
            .record((burst_end - pending.arrival).as_ps());
        self.finishes.push(Reverse(Finish {
            at: burst_end,
            id: req.id,
            row_hit: plan.hit,
        }));
    }

    /// Total bytes moved (reads + writes, one line each).
    pub fn bytes_moved(&self) -> u64 {
        (self.reads + self.writes) * self.cfg.line_bytes as u64
    }

    /// Number of row activations issued.
    pub fn activates(&self) -> u64 {
        self.activates
    }

    /// Reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hit-rate over all serviced requests (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Request latency distribution (enqueue to burst completion, in ps).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.queue_latency
    }

    /// Exports counters as named statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("reads", self.reads as f64);
        s.set("writes", self.writes as f64);
        s.set("activates", self.activates as f64);
        s.set("row_hits", self.row_hits as f64);
        s.set("row_misses", self.row_misses as f64);
        s.set("refreshes", self.refreshes as f64);
        s.set("bytes_moved", self.bytes_moved() as f64);
        s.set("row_hit_rate", self.row_hit_rate());
        s.set("avg_latency_ps", self.queue_latency.mean());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DimmAddressMap;

    fn setup() -> (DramConfig, DimmAddressMap, MemController) {
        let cfg = DramConfig::ddr4_2400_lrdimm();
        let map = DimmAddressMap::new(&cfg);
        let mc = MemController::new("t", &cfg);
        (cfg, map, mc)
    }

    /// Drives the controller until all `n` requests complete; returns
    /// completions in finish order.
    fn drain(mc: &mut MemController, n: usize) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = Ps::ZERO;
        let mut guard = 0;
        while done.len() < n {
            done.extend(mc.service(now));
            if done.len() >= n {
                break;
            }
            now = mc
                .next_wake()
                .expect("controller stalled with work pending");
            guard += 1;
            assert!(guard < 1_000_000, "runaway drain loop");
        }
        done
    }

    #[test]
    fn single_read_latency_is_rcd_cl_bl() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        let done = drain(&mut mc, 1);
        let expected = t.t(t.rcd + t.cl + t.bl);
        assert_eq!(done[0].at, expected);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn a_request_does_not_issue_before_it_arrives() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        let arrival = Ps::from_ns(100);
        mc.enqueue(arrival, MemRequest::new(1, AccessKind::Read, map.decode(0)));
        // A tick before the arrival (another request's, say) issues nothing.
        assert!(mc.service(Ps::ZERO).is_empty());
        assert_eq!(mc.next_wake(), Some(arrival));
        let done = drain(&mut mc, 1);
        assert!(done[0].at >= arrival + t.t(t.rcd + t.cl + t.bl));
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let (cfg, map, mut mc) = setup();
        // Two accesses to the same row: second is a hit.
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(64)),
        );
        let done = drain(&mut mc, 2);
        assert!(done[1].row_hit);
        let hit_gap = done[1].at - done[0].at;

        // Conflict: same bank, different row.
        let mut mc2 = MemController::new("t2", &cfg);
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        mc2.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        mc2.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(row_stride)),
        );
        let done2 = drain(&mut mc2, 2);
        assert!(!done2[1].row_hit);
        let miss_gap = done2[1].at - done2[0].at;
        assert!(
            miss_gap > hit_gap * 3,
            "conflict gap {miss_gap} should dwarf hit gap {hit_gap}"
        );
    }

    #[test]
    fn streaming_reads_reach_near_peak_bandwidth() {
        let (cfg, map, mut mc) = setup();
        // 512 sequential lines in one rank: row hits dominate.
        let n = 512u64;
        for i in 0..n {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * 64)),
            );
        }
        let done = drain(&mut mc, n as usize);
        let end = done.iter().map(|c| c.at).max().unwrap();
        let bytes = n * 64;
        let achieved = bytes as f64 / end.as_secs_f64();
        let peak = cfg.timing.peak_bandwidth(64) as f64;
        assert!(
            achieved > 0.8 * peak,
            "streaming bandwidth {:.2} GB/s vs peak {:.2} GB/s",
            achieved / 1e9,
            peak / 1e9
        );
        assert!(mc.row_hit_rate() > 0.9);
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        let (cfg, map, mut mc) = setup();
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        // 16 conflicting accesses to one bank.
        for i in 0..16u64 {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * row_stride)),
            );
        }
        let serial_end = drain(&mut mc, 16).iter().map(|c| c.at).max().unwrap();

        // 16 accesses spread over 16 banks (row-conflict-free).
        let mut mc2 = MemController::new("t2", &cfg);
        for i in 0..16u64 {
            mc2.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * cfg.row_bytes as u64)),
            );
        }
        let parallel_end = drain(&mut mc2, 16).iter().map(|c| c.at).max().unwrap();
        assert!(
            serial_end.as_ps() > 3 * parallel_end.as_ps(),
            "serial {serial_end} vs parallel {parallel_end}"
        );
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        // 8 activations to 8 different banks in the same rank: the 5th..8th
        // must respect tFAW. Banks within one rank are row_bytes apart,
        // every other bank lands in rank 1, so use stride of two banks.
        let mut acts = Vec::new();
        for i in 0..8u64 {
            let addr = map.decode(i * cfg.row_bytes as u64 * 2);
            assert_eq!(addr.rank, 0);
            acts.push(addr);
        }
        for (i, a) in acts.iter().enumerate() {
            mc.enqueue(Ps::ZERO, MemRequest::new(i as u64, AccessKind::Read, *a));
        }
        let done = drain(&mut mc, 8);
        let last = done.iter().map(|c| c.at).max().unwrap();
        // Without tFAW, 8 ACTs at tRRD spacing finish around
        // 7*tRRD + tRCD + tCL + tBL. With tFAW, the 8th ACT cannot issue
        // before tFAW + ... (two full FAW windows for 8 ACTs).
        let lower_bound = t.t(t.faw) + t.t(t.rcd + t.cl + t.bl);
        assert!(
            last >= lower_bound,
            "last completion {last} should be >= tFAW-bound {lower_bound}"
        );
    }

    #[test]
    fn writes_then_read_respects_turnaround() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Write, map.decode(0)),
        );
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(64)),
        );
        let done = drain(&mut mc, 2);
        let write_end = done[0].at;
        let read_end = done[1].at;
        // Read CAS must wait for tWTR after write data.
        assert!(read_end >= write_end + t.t(t.wtr) + t.t(t.cl));
    }

    #[test]
    fn refresh_happens_and_closes_rows() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        drain(&mut mc, 1);
        // Advance beyond several refresh intervals with a new request.
        let late = t.t(t.refi) * 3 + Ps::from_ns(10);
        mc.enqueue(late, MemRequest::new(2, AccessKind::Read, map.decode(0)));
        let done: Vec<_> = {
            let mut out = mc.service(late);
            while out.is_empty() {
                let now = mc.next_wake().unwrap();
                out = mc.service(now);
            }
            out
        };
        // The row was closed by refresh, so this is a miss again.
        assert!(!done[0].row_hit);
        let s = mc.stats();
        assert!(s.get("refreshes").unwrap() >= 3.0);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_but_caps_streak() {
        let (cfg, map, mut mc) = setup();
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        // One conflicting request enqueued first, then many hits to row 0.
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(0, AccessKind::Read, map.decode(0)),
        );
        // Prime: open row 0 first.
        let _ = drain(&mut mc, 1);
        let t0 = Ps::from_us(1);
        mc.enqueue(
            t0,
            MemRequest::new(100, AccessKind::Read, map.decode(row_stride)),
        );
        for i in 0..16u64 {
            mc.enqueue(
                t0,
                MemRequest::new(i + 1, AccessKind::Read, map.decode(64 * (i + 1))),
            );
        }
        let done = drain(&mut mc, 17);
        let conflict_pos = done.iter().position(|c| c.id == 100).unwrap();
        // The conflict is served after at most hit_streak_cap hits, not last.
        assert!(
            conflict_pos <= cfg.hit_streak_cap as usize,
            "conflict served at position {conflict_pos}"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let (_, map, mut mc) = setup();
        for i in 0..10u64 {
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            mc.enqueue(Ps::ZERO, MemRequest::new(i, kind, map.decode(i * 64)));
        }
        drain(&mut mc, 10);
        assert_eq!(mc.reads(), 5);
        assert_eq!(mc.writes(), 5);
        assert_eq!(mc.bytes_moved(), 640);
        assert_eq!(mc.inflight(), 0);
        let s = mc.stats();
        assert_eq!(
            s.get("row_hits").unwrap() + s.get("row_misses").unwrap(),
            10.0
        );
        assert!(mc.latency_histogram().count() == 10);
    }

    #[test]
    fn next_wake_none_when_idle() {
        let (_, map, mut mc) = setup();
        assert!(mc.next_wake().is_none());
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        assert!(mc.next_wake().is_some());
        drain(&mut mc, 1);
        // After completion pops and queue empties, wake should clear.
        let _ = mc.service(Ps::from_ms(1));
        assert!(mc.next_wake().is_none());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::{DramConfig, MappingScheme, RowPolicy};
    use dl_engine::Ps;

    fn run_stream(cfg: &DramConfig, offsets: &[u64]) -> Ps {
        let map = DimmAddressMap::new(cfg);
        let mut mc = MemController::new("p", cfg);
        for (i, &off) in offsets.iter().enumerate() {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i as u64, AccessKind::Read, map.decode(off)),
            );
        }
        let mut end = Ps::ZERO;
        let mut got = 0;
        let mut now = Ps::ZERO;
        while got < offsets.len() {
            for c in mc.service(now) {
                end = end.max(c.at);
                got += 1;
            }
            if got < offsets.len() {
                now = mc.next_wake().expect("pending");
            }
        }
        end
    }

    #[test]
    fn closed_page_sacrifices_sequential_streams() {
        let seq: Vec<u64> = (0..128u64).map(|i| i * 64).collect();
        let open = run_stream(&DramConfig::ddr4_2400_lrdimm(), &seq);
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.row_policy = RowPolicy::Closed;
        let closed = run_stream(&cfg, &seq);
        assert!(
            closed.as_ps() > open.as_ps() * 2,
            "closed {closed} should be much slower than open {open} on a stream"
        );
    }

    #[test]
    fn closed_page_counts_no_row_hits() {
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.row_policy = RowPolicy::Closed;
        let map = DimmAddressMap::new(&cfg);
        let mut mc = MemController::new("p", &cfg);
        for i in 0..32u64 {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * 64)),
            );
        }
        let mut got = 0;
        let mut now = Ps::ZERO;
        while got < 32 {
            got += mc.service(now).len();
            if got < 32 {
                now = mc.next_wake().expect("pending");
            }
        }
        assert_eq!(mc.row_hit_rate(), 0.0);
    }

    #[test]
    fn bank_xor_breaks_row_stride_conflicts() {
        // A row*banks stride hits the same bank every time under the plain
        // mapping; XOR folding spreads it.
        let plain = DramConfig::ddr4_2400_lrdimm();
        let stride = plain.total_banks() as u64 * plain.row_bytes as u64;
        let offsets: Vec<u64> = (0..32u64).map(|i| i * stride).collect();
        let t_plain = run_stream(&plain, &offsets);
        let mut xor = plain;
        xor.mapping = MappingScheme::BankXor;
        let t_xor = run_stream(&xor, &offsets);
        assert!(
            t_plain.as_ps() > 2 * t_xor.as_ps(),
            "plain {t_plain} should lose to xor {t_xor} on a conflict stride"
        );
    }

    #[test]
    fn bank_xor_roundtrips() {
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.mapping = MappingScheme::BankXor;
        let m = DimmAddressMap::new(&cfg);
        for off in [0u64, 64, 8192, 1 << 20, (1 << 28) + 64 * 5] {
            let a = m.decode(off);
            assert_eq!(m.encode(a), off & !63, "offset {off:#x}");
        }
    }
}

#[cfg(test)]
mod shared_bus_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::DramConfig;

    #[test]
    fn shared_bus_halves_two_rank_bandwidth() {
        let mut nmp = DramConfig::ddr4_2400_lrdimm();
        nmp.bus_per_rank = true;
        let mut host = nmp;
        host.bus_per_rank = false;
        let map = DimmAddressMap::new(&nmp);

        let run = |cfg: &DramConfig| {
            let mut mc = MemController::new("b", cfg);
            // Stream both ranks concurrently (rank bit flips at bank stride).
            let rank_stride = cfg.banks_per_rank() as u64 * cfg.row_bytes as u64;
            for i in 0..256u64 {
                let off = (i / 2) * 64 + (i % 2) * rank_stride;
                mc.enqueue(
                    Ps::ZERO,
                    MemRequest::new(i, AccessKind::Read, map.decode(off)),
                );
            }
            let mut end = Ps::ZERO;
            let mut got = 0;
            let mut now = Ps::ZERO;
            while got < 256 {
                for c in mc.service(now) {
                    end = end.max(c.at);
                    got += 1;
                }
                if got < 256 {
                    now = mc.next_wake().expect("pending");
                }
            }
            end
        };
        let t_nmp = run(&nmp);
        let t_host = run(&host);
        // Two ranks, one bank each: tCCD limits a single bank to ~80 % of
        // burst bandwidth, so per-rank buses give ~1.3x, and the shared bus
        // is pinned at the channel's peak.
        assert!(
            t_host.as_ps() > t_nmp.as_ps() * 5 / 4,
            "shared bus {t_host} should be slower than per-rank {t_nmp}"
        );
    }
}

#[cfg(test)]
mod wake_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::{DramConfig, MappingScheme, RowPolicy};
    use dl_engine::DetRng;

    /// The wake rule before `enqueue` planned the request: it lowered the
    /// wake to the arrival, so a busy bank cost a tick that issued nothing.
    /// Kept only as the oracle of the differential test below. The queue's
    /// wake drops to the arrival too, a lower bound of the plan, so the
    /// tick there runs the FR-FCFS pass.
    fn enqueue_at_arrival(mc: &mut MemController, arrival: Ps, req: MemRequest) {
        mc.queue.push_back(Pending { req, arrival });
        mc.next_wake = Some(mc.next_wake.map_or(arrival, |w| w.min(arrival)));
        mc.queue_wake = mc.queue_wake.min(arrival);
    }

    /// A controller that runs the FR-FCFS pass on every tick: the oracle of
    /// the completion-only ticks.
    fn service_full(mc: &mut MemController, now: Ps, done: &mut Vec<Completion>) {
        mc.serve(now, true, done);
    }

    /// A request handed to the controller at `at`, before a tick at `at`
    /// or, if `late`, after it; it arrives at `arrival`.
    struct Send {
        at: Ps,
        late: bool,
        arrival: Ps,
        req: MemRequest,
    }

    struct Drive {
        /// Each completion with the time of the tick that returned it.
        completions: Vec<(Ps, Completion)>,
        /// The controller's wake after every call, enqueue or tick.
        wakes: Vec<Option<Ps>>,
        ticks: u64,
        /// Ticks that skipped the FR-FCFS pass.
        completion_only: u64,
        refreshes: u64,
        row_hits: u64,
        row_misses: u64,
    }

    /// Drives a controller the way a system's memory port does: one live
    /// tick, armed at the controller's wake but never before the sender's
    /// clock, served at its time.
    fn drive(
        cfg: &DramConfig,
        sends: &[Send],
        enqueue: fn(&mut MemController, Ps, MemRequest),
        service: fn(&mut MemController, Ps, &mut Vec<Completion>),
    ) -> Drive {
        let mut mc = MemController::new("w", cfg);
        let (mut tick, mut next, mut ticks, mut completion_only) = (Ps::MAX, 0, 0, 0);
        let (mut completions, mut wakes, mut done) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            match sends.get(next) {
                Some(s) if (s.at, 2 * u8::from(s.late)) < (tick, 1) => {
                    enqueue(&mut mc, s.arrival, s.req);
                    let wake = mc.next_wake().expect("a request is pending");
                    tick = tick.min(wake.max(s.at));
                    next += 1;
                }
                _ if tick < Ps::MAX => {
                    ticks += 1;
                    completion_only += u64::from(tick < mc.queue_wake && tick < mc.next_refresh());
                    service(&mut mc, tick, &mut done);
                    completions.extend(done.drain(..).map(|c| (tick, c)));
                    tick = mc.next_wake().unwrap_or(Ps::MAX);
                }
                _ => break,
            }
            wakes.push(mc.next_wake());
        }
        assert_eq!(completions.len(), sends.len(), "every request completes");
        Drive {
            completions,
            wakes,
            ticks,
            completion_only,
            refreshes: mc.refreshes,
            row_hits: mc.row_hits,
            row_misses: mc.row_misses,
        }
    }

    /// The configurations the differential tests cover.
    fn configs() -> [(&'static str, DramConfig); 5] {
        let open = DramConfig::ddr4_2400_lrdimm();
        [
            ("open", open),
            (
                "closed",
                DramConfig {
                    row_policy: RowPolicy::Closed,
                    ..open
                },
            ),
            (
                "xor",
                DramConfig {
                    mapping: MappingScheme::BankXor,
                    ..open
                },
            ),
            (
                "streak cap 1",
                DramConfig {
                    hit_streak_cap: 1,
                    ..open
                },
            ),
            (
                "shared bus",
                DramConfig {
                    bus_per_rank: false,
                    ..open
                },
            ),
        ]
    }

    /// A seeded request stream over a few rows of five banks in both
    /// ranks: reads and writes, row hits and conflicts, bursts to one row
    /// (long enough to reach the hit-streak cap), arrivals now, in the
    /// future and in the past, and idle gaps that cross refreshes.
    fn stream(cfg: &DramConfig, seed: u64, n: usize) -> Vec<Send> {
        let map = DimmAddressMap::new(cfg);
        let bpr = u64::from(cfg.banks_per_rank());
        let banks = [0, 1, 2, bpr, bpr + 1];
        let row_stride = u64::from(cfg.total_banks()) * u64::from(cfg.row_bytes);
        let mut rng = DetRng::seed(seed);
        let mut clock = Ps::ZERO;
        let mut sends = Vec::with_capacity(n);
        while sends.len() < n {
            clock += match rng.below(60) {
                0 => Ps::from_ns(2_000 + rng.below(12_000)),
                _ => Ps::from_ns(rng.below(25)),
            };
            let bank = banks[rng.below(banks.len() as u64) as usize];
            let row = rng.below(3);
            let burst = if rng.chance(0.08) { 10 } else { 1 };
            for _ in 0..burst {
                let offset =
                    row * row_stride + bank * u64::from(cfg.row_bytes) + rng.below(32) * 64;
                let arrival = match rng.below(20) {
                    0 => clock.saturating_sub(Ps::from_ns(30)),
                    1..=9 => clock,
                    _ => clock + Ps::from_ns(rng.below(300)),
                };
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let id = sends.len() as u64;
                sends.push(Send {
                    at: clock,
                    late: rng.chance(0.5),
                    arrival,
                    req: MemRequest::new(id, kind, map.decode(offset)),
                });
            }
        }
        sends
    }

    /// Planning the wake at `enqueue` only drops ticks that make no
    /// progress: every completion, with its row-hit flag and the tick that
    /// returns it, is the same as under the arrival-armed rule, and no
    /// configuration needs more ticks.
    #[test]
    fn planned_wakes_match_arrival_wakes_with_fewer_ticks() {
        let (mut old_ticks, mut new_ticks) = (0, 0);
        for (name, cfg) in configs() {
            for seed in 0..3 {
                let sends = stream(&cfg, seed, 2_000);
                let old = drive(
                    &cfg,
                    &sends,
                    enqueue_at_arrival,
                    MemController::service_into,
                );
                let new = drive(
                    &cfg,
                    &sends,
                    MemController::enqueue,
                    MemController::service_into,
                );
                assert_eq!(new.completions, old.completions, "{name}, seed {seed}");
                assert!(
                    new.ticks <= old.ticks,
                    "{name}, seed {seed}: {} ticks vs {}",
                    new.ticks,
                    old.ticks
                );
                assert!(new.refreshes > 0, "{name}: no refresh crossed");
                assert!(new.row_misses > 0, "{name}: no conflicts");
                if !matches!(cfg.row_policy, RowPolicy::Closed) {
                    assert!(new.row_hits > 0, "{name}: no row hits");
                }
                old_ticks += old.ticks;
                new_ticks += new.ticks;
            }
        }
        assert!(new_ticks < old_ticks, "no tick was saved");
    }

    /// A tick that skips the FR-FCFS pass changes nothing a full pass
    /// would not: the completions, the ticks that return them and the
    /// wake after every call are the same as with a pass on every tick.
    #[test]
    fn completion_only_ticks_match_full_passes() {
        for (name, cfg) in configs() {
            for seed in 0..3 {
                let sends = stream(&cfg, seed, 2_000);
                let full = drive(&cfg, &sends, MemController::enqueue, service_full);
                let fast = drive(
                    &cfg,
                    &sends,
                    MemController::enqueue,
                    MemController::service_into,
                );
                assert_eq!(fast.completions, full.completions, "{name}, seed {seed}");
                assert_eq!(fast.wakes, full.wakes, "{name}, seed {seed}");
                assert!(
                    fast.completion_only > 0 && fast.completion_only < fast.ticks,
                    "{name}, seed {seed}: {} of {} ticks skipped the pass",
                    fast.completion_only,
                    fast.ticks
                );
            }
        }
    }

    /// A refresh can bring a request's first command forward: here a read
    /// hit waits out a long write-to-read turnaround, but the refresh closes
    /// its row, and the activation it then needs may start right after the
    /// refresh. So `enqueue` wakes no later than the refresh, and serving
    /// it there finishes the read as early as the arrival-armed rule does.
    #[test]
    fn a_refresh_before_the_planned_command_is_a_wake() {
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.timing.wtr = 2_000;
        cfg.timing.refi = 1_000;
        cfg.timing.rfc = 1;
        let map = DimmAddressMap::new(&cfg);
        let send = |id, at, kind, offset| Send {
            at,
            late: false,
            arrival: at,
            req: MemRequest::new(id, kind, map.decode(offset)),
        };
        // The write finishes long before the refresh; the read reaches an
        // idle controller.
        let sends = [
            send(0, Ps::ZERO, AccessKind::Write, 0),
            send(1, cfg.timing.t(40), AccessKind::Read, 64),
        ];
        let old = drive(
            &cfg,
            &sends,
            enqueue_at_arrival,
            MemController::service_into,
        );
        let new = drive(
            &cfg,
            &sends,
            MemController::enqueue,
            MemController::service_into,
        );
        assert_eq!(new.completions, old.completions);
        let (_, read) = new.completions[1];
        let t = cfg.timing;
        assert_eq!(read.at, t.t(t.rcd + t.cwl + t.bl + t.wtr + t.cl + t.bl));
        assert!(!read.row_hit, "the refresh closed the row");
    }
}

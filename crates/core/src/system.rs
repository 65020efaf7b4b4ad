//! The DIMM-NMP system simulator: trace-driven NMP cores with bounded
//! memory-level parallelism, private L1s and a shared per-DIMM L2, per-DIMM
//! DDR4 controllers, and one of the four IDC mechanisms for remote traffic.
//!
//! The cores are the shared `trace_core` model with the NMP clock and the
//! small in-order MLP window, and each partition's events and its DIMM's
//! memory tick follow its `Schedule`. What is the NMP system's own is its
//! `CorePort`, `DimmPort`: the L1→L2 path, access profiling for
//! Algorithm 1, local accesses versus remote ones staged for the
//! coordinator, and barrier arrivals handed to it likewise.
//!
//! The paper's coarse-grained execution flow is assumed: the host has
//! already loaded data and kernels, DIMMs are in NMP-Access mode, and the
//! host only participates through polling and packet forwarding
//! ([`crate::host::HostPath`]).
//!
//! # Partitioned engine
//!
//! The simulator is a conservative partitioned DES, advanced sequentially.
//! System state is split into one `DimmPart` per DIMM — cores, caches,
//! memory controller, atomic unit, and a local event queue — plus one
//! `Coordinator` owning every genuinely shared model (the interconnect,
//! the host path, the sync masters, the barrier). Partitions advance in
//! bounded time *epochs*, the cells of a fixed grid of width `W`, the
//! lookahead ([`crate::idc::min_cross_latency`], the cheapest possible
//! cross-partition message). Each epoch spans `[m, (⌊m / W⌋ + 1)·W)`,
//! where `m` is the earliest pending event across all partitions; a
//! message sent at `t` in the cell arrives no earlier than `t + W`, past
//! its end. Within an epoch each partition, in partition
//! order, processes only its own events and stages anything
//! cross-partition as a timestamped `Intent` in its `Uncore`'s outbox.
//! At the epoch barrier the coordinator appends the outboxes, in partition
//! order, to one buffer it reuses across epochs and stably sorts it by
//! timestamp (`merge_outboxes`). Each outbox is in emission order, so the
//! result is the total order `(timestamp, source partition, emission
//! order)`. The coordinator performs the interconnect and host-path
//! reservations in that order and pushes the resulting deliveries into the
//! target partitions no earlier than the epoch boundary.
//!
//! The epochs are part of the model, not a scheduling device: the merged
//! order fixes the order of shared-resource reservations, and the boundary
//! clamp fixes delivery times, so every simulated result depends on them.
//!
//! # Event order
//!
//! Each partition pops its events in `trace_core`'s one order, the host
//! baseline's too: by [`EventKey`], time, then a rank fixed by the event's
//! class, then push order. With one controller per partition the ranks
//! are:
//!
//! 1. `Deliver` (rank 0). What arrives at `t` — a response, a release, a
//!    request at its home DIMM — is in place before anything else at `t`
//!    looks: a core acting at `t` sees the slot it frees, and the memory
//!    tick at `t` sees the request it enqueues. Deliveries are pushed in
//!    the coordinator's merged order, or by a local atomic as it acts, so
//!    push order among them is already canonical.
//! 2. The memory tick (rank 1): the controller serves `t` once `t`'s
//!    arrivals are queued, and its completions land before the cores act.
//!    The one live tick is a keyed slot beside the queue, so a tick moved
//!    earlier leaves no stale event behind.
//! 3. `Wake(g)` (rank `2 + g`): the cores act last, by global thread id.
//!
//! A partition pops only events strictly before `epoch_end`, and its
//! schedule's horizon stops there too, so a core starts a shared action
//! only while its wake's key is not above the next queued key and its
//! time is before the epoch's end (see `trace_core`). So every action on
//! shared state starts in key order. An L2 miss is one action with the
//! victim it evicts: the victim's write arms the memory tick at `(t, 1)`,
//! below the core's key, and the miss's own access still issues at `t`.
//! Where a core yields decides only when its wakes are pushed, never
//! where they pop. Nor does it move the epochs: a pending wake can only
//! start an epoch in the grid cell of its own time. So no simulated result
//! depends on where a core yields, and a core runs through compute ops and
//! L1 hits without comparing keys: it yields only in front of a shared
//! action past the horizon.

use crate::config::{SyncScheme, SystemConfig, CORES_PER_DIMM};
use crate::host::HostPath;
use crate::idc::{
    distance_matrix, min_cross_latency, wire_bytes, Interconnect, Route, NOTIFY_BYTES,
};
use crate::trace_core::{stall_frac, CorePort, Next, Schedule, TraceCore, TxnTable};
use dl_engine::stats::{Histogram, StatSet};
use dl_engine::{BudgetKind, EventKey, Freq, Ps, Resource, RunStatus};
use dl_mem::{
    AccessKind, Cache, CacheConfig, CacheOutcome, DimmAddressMap, MemController, MemRequest,
};
use dl_placement::AccessProfile;
use dl_workloads::Workload;

/// NMP core clock (paper Table V: 2 GHz).
const NMP_FREQ: Freq = Freq::from_ghz(2.0);
/// Maximum outstanding memory requests per NMP core (in-order, small).
const NMP_MLP: usize = 8;
/// Shared per-DIMM L2 (paper Table V: 128 KB).
const NMP_L2: CacheConfig = CacheConfig::l2_128k();
/// Latency of intra-DIMM core synchronization (via shared L2).
const LOCAL_SYNC_LATENCY: Ps = Ps::from_ns(25);
/// Serialized processing per message at a synchronization master core
/// (aggregation, counter update, release initiation).
const SYNC_MASTER_PROC: Ps = Ps::from_ns(15);
/// Home-DIMM service time of one atomic operation.
const ATOMIC_SERVICE: Ps = Ps::from_ns(20);
/// Cycles of local bookkeeping at each synchronization stage.
const SYNC_PROC: Ps = Ps::from_ns(5);
/// Sync message payload (a flag/sequence number): one flit on the wire.
const SYNC_BYTES: u64 = NOTIFY_BYTES;
/// Hard backstop on total scheduled events: catches runaway simulations
/// even when the run has no simulated-time cap.
const EVENT_BUDGET: u64 = 2_000_000_000;

#[derive(Debug, Clone, Copy)]
enum TxnClass {
    /// A local DRAM access a core is waiting on (`thread` is global).
    LocalMem { thread: usize },
    /// DRAM access nobody waits for (writes, writebacks, remote-write
    /// landings).
    Background,
    /// A remote read being serviced at this (home) DIMM; on completion the
    /// response is sent back to the issuer, which knows the transaction as
    /// `origin`.
    RemoteReadAtHome { thread: usize, origin: u64 },
}

/// A cross-partition event delivered into a partition's local queue.
/// Transaction ids are partition-local, so every variant that must resolve
/// a transaction at the *issuing* partition carries the issuer's id as
/// `origin`.
#[derive(Debug, Clone, Copy)]
enum XEvent {
    /// A remote read request arrived at its home DIMM: start the DRAM read.
    StartRemoteRead {
        thread: usize,
        addr: u64,
        origin: u64,
    },
    /// A remote write arrived at its home DIMM: write DRAM in the
    /// background. `thread == usize::MAX` marks a posted write nobody waits
    /// for; otherwise the coordinator also acknowledges it to the issuer.
    LandRemoteWrite {
        thread: usize,
        addr: u64,
        origin: u64,
    },
    /// A response, an acknowledgement, or a broadcast's last delivery
    /// reached the issuing core: free its window slot.
    Complete { thread: usize, origin: u64 },
    /// An atomic request arrived at its home DIMM: serialize and respond.
    AtomicAtHome {
        thread: usize,
        addr: u64,
        origin: u64,
    },
    /// A barrier release reached this core.
    BarrierRelease { thread: usize },
}

/// A cross-partition action staged in a partition's outbox, applied by the
/// coordinator at the epoch barrier in deterministic merged order.
#[derive(Debug, Clone, Copy)]
enum Intent {
    /// A message whose arrival delivers `then` at `dst`.
    Unicast {
        src: usize,
        dst: usize,
        bytes: u64,
        then: XEvent,
    },
    Broadcast {
        src: usize,
        thread: usize,
        origin: u64,
        bytes: u64,
    },
    BarrierArrive {
        thread: usize,
    },
}

/// A partition-local event (see "Event order" in the module docs).
#[derive(Debug)]
enum Ev {
    /// Wake global thread `usize` (resident on this partition), ranked by
    /// thread.
    Wake(usize),
    /// A cross-partition event (or a local completion modeled as one), at
    /// rank 0.
    Deliver(XEvent),
}

#[derive(Debug, Default, Clone)]
struct BarrierGroupAgg {
    arrived: usize,
    ready_at: Ps,
}

#[derive(Debug)]
struct BarrierState {
    /// Threads participating (all of them; traces have balanced barriers).
    total: usize,
    arrived: usize,
    /// Per-DIMM aggregation (hierarchical), indexed by DIMM: count and
    /// latest local arrival.
    dimm_agg: Vec<BarrierGroupAgg>,
    /// Per-group aggregation, indexed by group: count of completed DIMMs
    /// and latest arrival at the group master.
    group_agg: Vec<BarrierGroupAgg>,
    /// Threads per DIMM and DIMMs (with ≥1 thread) per group, fixed per
    /// placement. A zero entry takes no part in the barrier.
    threads_on_dimm: Vec<usize>,
    dimms_in_group: Vec<usize>,
    global_ready: Ps,
    /// Threads waiting for release.
    waiting: Vec<usize>,
}

/// What the coordinator decided at the top of an epoch.
enum Plan {
    /// The run is over (completed or out of budget).
    Stop(RunStatus),
    /// Run one epoch ending (exclusively) at this time.
    Run(Ps),
}

/// Aggregate outcome of one simulation.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// End-to-end simulated time.
    pub elapsed: Ps,
    /// All counters.
    pub stats: StatSet,
    /// Per-thread × per-DIMM traffic counts (Algorithm 1's `M` table).
    pub profile: AccessProfile,
    /// Whether the run finished or was cut off by the configured
    /// simulated-time cap (or the event backstop).
    pub status: RunStatus,
}

/// Read-only state every partition needs: configuration, the workload, and
/// the placement maps, passed by reference into every partition step.
struct Shared<'w> {
    cfg: SystemConfig,
    workload: &'w Workload,
    /// `placement[t]` = DIMM (partition) of global thread `t`.
    placement: Vec<usize>,
    /// `local_of[t]` = index of thread `t` within its partition's cores.
    local_of: Vec<usize>,
    map: DimmAddressMap,
    /// L1 and L2 hit latencies at the core clock.
    l1_hit: Ps,
    l2_hit: Ps,
}

impl Shared<'_> {
    fn decode(&self, addr: u64) -> dl_mem::DimmAddr {
        self.map.decode(self.workload.layout().offset_of(addr))
    }
}

/// One DIMM's slice of the system: its cores and its [`Uncore`]. Never
/// touches another partition's state.
struct DimmPart {
    /// Resident threads' cores, ascending global id (`cores[local_of[g]]`).
    cores: Vec<TraceCore>,
    done: usize,
    ev_wake: u64,
    ev_mem: u64,
    ev_net: u64,
    uncore: Uncore,
}

/// Everything on a DIMM but its cores: caches, the schedule with the
/// memory controller, atomic unit, and outbox.
struct Uncore {
    dimm: usize,
    l1: Vec<Cache>,
    l2: Cache,
    /// The local events and the DIMM's controller (channel 0) with its
    /// tick.
    sched: Schedule<Ev>,
    atomic_unit: Resource,
    /// Cross-partition intents staged this epoch, in emission order, each
    /// with the time it takes effect; drained at every barrier.
    outbox: Vec<(Ps, Intent)>,
    /// This DIMM's memory transactions, by id.
    txn_mem: TxnTable<TxnClass>,
    /// The last transaction id handed out: ids are partition-local and
    /// increasing, which the id-indexed tables rely on.
    next_txn: u64,
    local_bytes: u64,
    remote_reads: u64,
    remote_writes: u64,
    atomic_ops: u64,
    /// Issue times of this DIMM's remote reads in flight, by id.
    remote_issue: TxnTable<Ps>,
    remote_rtt: Histogram,
    /// Full-size table; merged across partitions at collection.
    profile: AccessProfile,
}

/// Thread `g`'s view of its DIMM's [`Uncore`]; `l` is its local index.
struct DimmPort<'a, 'w> {
    uncore: &'a mut Uncore,
    sh: &'a Shared<'w>,
    g: usize,
    l: usize,
}

/// The genuinely shared models, owned by the coordinator and touched only
/// between epochs, in merged deterministic order.
struct Coordinator {
    idc: Interconnect,
    host: HostPath,
    /// Per-DIMM synchronization master core: processes one sync message at
    /// a time (the serialization hierarchical sync alleviates).
    sync_units: Vec<Resource>,
    barrier: BarrierState,
    link_unicast_bytes: u64,
    fwd_unicast_bytes: u64,
    bus_unicast_bytes: u64,
    cxl_unicast_bytes: u64,
    broadcast_bytes: u64,
    barriers_passed: u64,
    /// The epoch's drained intents in merged order; emptied after each
    /// barrier and reused so barriers do not allocate.
    merged: Vec<(Ps, Intent)>,
    /// Deliveries produced by the epoch's intents, reused likewise.
    deliveries: Vec<(usize, Ps, XEvent)>,
}

/// The NMP system simulator. Construct with [`NmpSystem::new`], run with
/// [`NmpSystem::run`].
pub struct NmpSystem<'w> {
    shared: Shared<'w>,
    parts: Vec<DimmPart>,
    coord: Coordinator,
    /// Epoch width `W`: the cheapest possible cross-partition latency.
    lookahead: Ps,
}

impl<'w> NmpSystem<'w> {
    /// Builds a system running `workload` with threads placed per
    /// `placement` (`placement[t]` = DIMM of thread `t`).
    ///
    /// `limit_ops` truncates each trace (profiling runs); barriers are
    /// treated as local no-ops in that mode since truncated traces are not
    /// barrier-balanced.
    ///
    /// # Panics
    /// Panics if the config is invalid, the placement length mismatches, or
    /// a DIMM is assigned more threads than it has cores.
    pub fn new(
        workload: &'w Workload,
        cfg: &SystemConfig,
        placement: &[usize],
        limit_ops: Option<usize>,
    ) -> Self {
        cfg.validate().expect("invalid system configuration");
        let threads = workload.traces().len();
        assert_eq!(placement.len(), threads, "one DIMM per thread");
        let mut load = vec![0usize; cfg.dimms];
        for &d in placement {
            assert!(d < cfg.dimms, "placement targets DIMM {d} out of range");
            load[d] += 1;
        }
        assert!(
            load.iter().all(|&l| l <= CORES_PER_DIMM),
            "placement exceeds per-DIMM core count: {load:?}"
        );
        assert!(
            workload.layout().dimms() == cfg.dimms,
            "workload was generated for {} DIMMs, system has {}",
            workload.layout().dimms(),
            cfg.dimms
        );

        let idc = Interconnect::new(cfg);
        let host = HostPath::new(cfg, &idc.proxy_channels(cfg));
        // Barriers are meaningless on truncated profiling traces.
        let profiling = limit_ops.is_some();
        let lookahead = min_cross_latency(cfg);

        // Resident threads per partition, ascending global id; `local_of`
        // is each thread's index within its partition.
        let mut resident: Vec<Vec<usize>> = vec![Vec::new(); cfg.dimms];
        let mut local_of = vec![0usize; threads];
        for (g, &d) in placement.iter().enumerate() {
            local_of[g] = resident[d].len();
            resident[d].push(g);
        }

        let mut dimms_in_group = vec![0usize; cfg.groups];
        for d in (0..cfg.dimms).filter(|&d| load[d] > 0) {
            dimms_in_group[cfg.group_of(d)] += 1;
        }

        let parts = resident
            .into_iter()
            .enumerate()
            .map(|(d, residents)| {
                let mc = MemController::new(format!("dimm{d}"), &cfg.dram);
                let mut sched = Schedule::new(vec![mc]);
                let mut cores = Vec::with_capacity(residents.len());
                for &g in &residents {
                    let rank = sched.wake_rank(g);
                    sched.push(Ps::ZERO, rank, Ev::Wake(g));
                    let trace = &workload.traces()[g];
                    let limit = limit_ops.unwrap_or(trace.len());
                    let core = TraceCore::new(trace, limit, NMP_FREQ, NMP_MLP, rank, profiling);
                    cores.push(core);
                }
                DimmPart {
                    cores,
                    done: 0,
                    ev_wake: 0,
                    ev_mem: 0,
                    ev_net: 0,
                    uncore: Uncore {
                        dimm: d,
                        l1: residents.iter().map(|_| Cache::new(cfg.nmp_l1)).collect(),
                        l2: Cache::new(NMP_L2),
                        sched,
                        atomic_unit: Resource::new(format!("dimm{d}.atomic")),
                        outbox: Vec::new(),
                        txn_mem: TxnTable::new(),
                        next_txn: 0,
                        local_bytes: 0,
                        remote_reads: 0,
                        remote_writes: 0,
                        atomic_ops: 0,
                        remote_issue: TxnTable::new(),
                        remote_rtt: Histogram::new(),
                        profile: AccessProfile::new(threads, cfg.dimms),
                    },
                }
            })
            .collect();

        NmpSystem {
            shared: Shared {
                cfg: cfg.clone(),
                workload,
                placement: placement.to_vec(),
                local_of,
                map: DimmAddressMap::new(&cfg.dram),
                l1_hit: NMP_FREQ.cycles(u64::from(cfg.nmp_l1.hit_latency_cycles)),
                l2_hit: NMP_FREQ.cycles(u64::from(NMP_L2.hit_latency_cycles)),
            },
            parts,
            coord: Coordinator {
                idc,
                host,
                sync_units: (0..cfg.dimms)
                    .map(|d| Resource::new(format!("dimm{d}.sync-master")))
                    .collect(),
                barrier: BarrierState {
                    total: threads,
                    arrived: 0,
                    dimm_agg: vec![BarrierGroupAgg::default(); cfg.dimms],
                    group_agg: vec![BarrierGroupAgg::default(); cfg.groups],
                    threads_on_dimm: load,
                    dimms_in_group,
                    global_ready: Ps::ZERO,
                    waiting: Vec::new(),
                },
                link_unicast_bytes: 0,
                fwd_unicast_bytes: 0,
                bus_unicast_bytes: 0,
                cxl_unicast_bytes: 0,
                broadcast_bytes: 0,
                barriers_passed: 0,
                merged: Vec::new(),
                deliveries: Vec::new(),
            },
            lookahead,
        }
    }

    /// The epoch width `W` (the minimum cross-partition latency).
    pub fn lookahead(&self) -> Ps {
        self.lookahead
    }

    /// Runs to completion (or to the configured [`SystemConfig::max_sim`])
    /// and collects results.
    ///
    /// A capped run is cut off at the end of the epoch-grid cell (of width
    /// [`NmpSystem::lookahead`]) that holds the cap: every event before it
    /// runs, none after, so where a run stops depends on simulated time
    /// alone, not on which events the engine happens to schedule. A runaway
    /// run stops with [`BudgetKind::Backstop`] instead of panicking.
    ///
    /// # Panics
    /// Panics on deadlock (all event queues drained with live threads —
    /// e.g. barrier-unbalanced traces).
    pub fn run(mut self) -> RawRun {
        let status = self.run_inline();
        self.collect(status)
    }

    /// The epoch loop: plan, advance every partition in partition order,
    /// then apply the merged cross-partition effects.
    fn run_inline(&mut self) -> RunStatus {
        loop {
            match epoch_plan(&self.parts, &self.shared.cfg, self.lookahead) {
                Plan::Stop(status) => return status,
                Plan::Run(epoch_end) => {
                    for part in &mut self.parts {
                        part.run_epoch(&self.shared, epoch_end);
                    }
                    run_barrier_phase(&mut self.parts, &self.shared, &mut self.coord, epoch_end);
                }
            }
        }
    }

    /// Test hook: inject an extra wake event for `thread` at time `at`
    /// (exercises the stale-wake path deterministically).
    #[cfg(test)]
    fn inject_wake(&mut self, thread: usize, at: Ps) {
        let sched = &mut self.parts[self.shared.placement[thread]].uncore.sched;
        sched.push(at, sched.wake_rank(thread), Ev::Wake(thread));
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn collect(self, status: RunStatus) -> RawRun {
        let NmpSystem {
            shared: sh,
            mut parts,
            mut coord,
            lookahead,
        } = self;
        let threads_total = sh.placement.len();

        // Cores still running when a budget cut the run short are charged
        // up to the cut-off time: the cap's [`cut_off`], or for the backstop
        // the furthest partition clock. A completed run always has every
        // finish time.
        let cut = match (status, sh.cfg.max_sim) {
            (RunStatus::BudgetExceeded(BudgetKind::SimTime), Some(cap)) => cut_off(cap, lookahead),
            _ => parts
                .iter()
                .map(|p| p.uncore.sched.now())
                .max()
                .unwrap_or(Ps::ZERO),
        };
        let mut elapsed = Ps::ZERO;
        for g in 0..threads_total {
            let part = &mut parts[sh.placement[g]];
            let core = &part.cores[sh.local_of[g]];
            elapsed = elapsed.max(core.finish.unwrap_or(cut));
            // A core woken at its yield would have looked up the access it
            // deferred there (see `TraceCore::advance`).
            if let Some(addr) = core.deferred_before(&sh.workload.traces()[g], cut) {
                part.uncore.record_profile(&sh, g, addr);
            }
        }
        coord.host.finalize(elapsed);

        let events_scheduled: u64 = parts.iter().map(DimmPart::scheduled).sum();
        let ev_wake: u64 = parts.iter().map(|p| p.ev_wake).sum();
        let ev_mem: u64 = parts.iter().map(|p| p.ev_mem).sum();
        let ev_net: u64 = parts.iter().map(|p| p.ev_net).sum();
        let local_bytes: u64 = parts.iter().map(|p| p.uncore.local_bytes).sum();
        let remote_reads: u64 = parts.iter().map(|p| p.uncore.remote_reads).sum();
        let remote_writes: u64 = parts.iter().map(|p| p.uncore.remote_writes).sum();
        let atomic_ops: u64 = parts.iter().map(|p| p.uncore.atomic_ops).sum();
        let mut remote_rtt = Histogram::new();
        for p in &parts {
            remote_rtt.merge(&p.uncore.remote_rtt);
        }
        let mut profile = AccessProfile::new(threads_total, sh.cfg.dimms);
        for p in &parts {
            profile.merge(&p.uncore.profile);
        }

        let threads = threads_total as f64;
        let all_cores = || parts.iter().flat_map(|p| p.cores.iter());
        let idc_stall: Ps = all_cores().map(|c| c.idc_stall).sum();
        let mem_stall: Ps = all_cores().map(|c| c.mem_stall).sum();
        let sync_stall: Ps = all_cores().map(|c| c.sync_stall).sum();

        let mut s = StatSet::new();
        s.set("elapsed_ps", elapsed.as_ps() as f64);
        s.set("events_scheduled", events_scheduled as f64);
        s.set(
            "run.completed",
            if status.is_complete() { 1.0 } else { 0.0 },
        );
        s.set("events.wake", ev_wake as f64);
        s.set("events.mem", ev_mem as f64);
        s.set("events.net", ev_net as f64);
        s.set("remote_read_rtt_mean_ns", remote_rtt.mean() / 1e3);
        s.set(
            "remote_read_rtt_p99_ns",
            remote_rtt.percentile(0.99) as f64 / 1e3,
        );
        s.set("remote_read_rtt_max_ns", remote_rtt.max() as f64 / 1e3);
        if let Some(dl) = coord.idc.dimm_link() {
            s.set("dl.notify_wait_mean_ns", dl.notify_wait.mean() / 1e3);
            s.set("dl.disc_wait_mean_ns", dl.disc_wait.mean() / 1e3);
            s.set("dl.fwd_wait_mean_ns", dl.fwd_wait.mean() / 1e3);
            s.set("dl.fwd_wait_max_ns", dl.fwd_wait.max() as f64 / 1e3);
            s.set("dl.disc_wait_max_ns", dl.disc_wait.max() as f64 / 1e3);
            s.set("dl.notify_wait_max_ns", dl.notify_wait.max() as f64 / 1e3);
        }
        s.set("threads", threads);
        s.set("idc_stall_frac", stall_frac(idc_stall, elapsed, threads));
        s.set("mem_stall_frac", stall_frac(mem_stall, elapsed, threads));
        s.set("sync_stall_frac", stall_frac(sync_stall, elapsed, threads));
        s.set("traffic.local_bytes", local_bytes as f64);
        s.set("traffic.link_bytes", coord.link_unicast_bytes as f64);
        s.set("traffic.fwd_bytes", coord.fwd_unicast_bytes as f64);
        s.set("traffic.bus_bytes", coord.bus_unicast_bytes as f64);
        s.set("traffic.cxl_bytes", coord.cxl_unicast_bytes as f64);
        s.set("traffic.broadcast_bytes", coord.broadcast_bytes as f64);
        s.set("remote_reads", remote_reads as f64);
        s.set("remote_writes", remote_writes as f64);
        s.set("atomics", atomic_ops as f64);
        s.set("barriers", coord.barriers_passed as f64);
        s.set("host.fwd_packets", coord.host.forwarded_packets() as f64);
        s.set("host.fwd_bytes", coord.host.forwarded_bytes() as f64);
        s.set("host.polls", coord.host.polls() as f64);
        s.set("host.interrupts", coord.host.interrupts() as f64);
        s.set("host.channel_bytes", coord.host.channel_bytes() as f64);
        s.set("host.bus_occupancy", coord.host.bus_occupancy(elapsed));
        s.set("idc.private_bytes", coord.idc.private_bytes() as f64);

        let mut activates = 0u64;
        let mut dram_reads = 0u64;
        let mut dram_writes = 0u64;
        for p in &parts {
            let mc = &p.uncore.sched.mcs()[0];
            activates += mc.activates();
            dram_reads += mc.reads();
            dram_writes += mc.writes();
        }
        s.set("dram.activates", activates as f64);
        for (d, p) in parts.iter().enumerate() {
            let mc = &p.uncore.sched.mcs()[0];
            s.set(format!("dram.dimm{d}.reads"), mc.reads() as f64);
            s.set(
                format!("dram.dimm{d}.lat_ns"),
                mc.latency_histogram().mean() / 1e3,
            );
        }
        s.set("dram.reads", dram_reads as f64);
        s.set("dram.writes", dram_writes as f64);
        // L1 rates are summed in *global* thread order, not partition order:
        // f64 addition is order-sensitive, and this order fixes the mean.
        let mut l1h = 0.0;
        for g in 0..threads_total {
            l1h += parts[sh.placement[g]].uncore.l1[sh.local_of[g]].hit_rate();
        }
        s.set("cache.l1_hit_rate_mean", l1h / threads);

        RawRun {
            elapsed,
            stats: s,
            profile,
            status,
        }
    }
}

/// Decides what the next epoch is: inspects every partition's clock, queue,
/// and progress counters and applies the run-level checks in a fixed order
/// — done, backstop, deadlock (which panics), simulated-time cap.
fn epoch_plan(parts: &[DimmPart], cfg: &SystemConfig, lookahead: Ps) -> Plan {
    let mut done = 0;
    let mut total = 0;
    let mut scheduled = 0u64;
    let mut next = Ps::MAX;
    for p in parts {
        done += p.done;
        total += p.cores.len();
        scheduled += p.scheduled();
        next = next.min(p.uncore.sched.next_key().at);
    }
    if done == total {
        return Plan::Stop(RunStatus::Completed);
    }
    if scheduled >= EVENT_BUDGET {
        return Plan::Stop(RunStatus::BudgetExceeded(BudgetKind::Backstop));
    }
    assert!(
        next != Ps::MAX,
        "deadlock: {done} of {total} threads finished (unbalanced barriers?)"
    );
    if cfg
        .max_sim
        .is_some_and(|cap| next >= cut_off(cap, lookahead))
    {
        return Plan::Stop(RunStatus::BudgetExceeded(BudgetKind::SimTime));
    }
    // Epochs are cells of a fixed grid of width W: which actions share an
    // epoch depends only on their times, not on which events happen to be
    // pending.
    let w = lookahead.as_ps();
    Plan::Run(Ps::from_ps((next.as_ps() / w + 1) * w))
}

/// Where a run capped at `cap` stops: the end of the epoch-grid cell (of
/// width `lookahead`) that holds the cap, or the end of time for a cap in
/// the last cell.
fn cut_off(cap: Ps, lookahead: Ps) -> Ps {
    let w = lookahead.as_ps();
    Ps::from_ps((cap.as_ps() / w).saturating_add(1).saturating_mul(w))
}

/// The epoch barrier: drains every outbox, merges the intents into the
/// canonical `(time, source partition, emission order)` order, performs the
/// shared-model reservations in that order, and pushes the resulting
/// deliveries into the target partitions — never earlier than the epoch
/// boundary, so the next epoch's plan sees a consistent frontier.
fn run_barrier_phase(
    parts: &mut [DimmPart],
    sh: &Shared<'_>,
    coord: &mut Coordinator,
    epoch_end: Ps,
) {
    // The buffers are taken out while `apply` borrows the coordinator and
    // handed back empty, capacity intact.
    let mut merged = std::mem::take(&mut coord.merged);
    let mut deliveries = std::mem::take(&mut coord.deliveries);
    merge_outboxes(parts.iter_mut().map(|p| &mut p.uncore.outbox), &mut merged);
    for (at, intent) in merged.drain(..) {
        coord.apply(sh, at, intent, &mut deliveries);
    }
    for (dimm, at, x) in deliveries.drain(..) {
        let sched = &mut parts[dimm].uncore.sched;
        sched.push(at.max(epoch_end), 0, Ev::Deliver(x));
    }
    coord.merged = merged;
    coord.deliveries = deliveries;
}

/// Appends every outbox, in the order given, to `merged` and stably sorts
/// it by time. Each outbox is in emission order and is left empty with its
/// capacity intact, so with the outboxes in partition order the result is
/// ordered by `(time, source partition, emission order)`.
fn merge_outboxes<'a, T: 'a>(
    outboxes: impl Iterator<Item = &'a mut Vec<(Ps, T)>>,
    merged: &mut Vec<(Ps, T)>,
) {
    for outbox in outboxes {
        merged.append(outbox);
    }
    merged.sort_by_key(|&(at, _)| at);
}

impl DimmPart {
    /// Events scheduled so far: queued ones and memory ticks served.
    fn scheduled(&self) -> u64 {
        self.uncore.sched.pushed() + self.ev_mem
    }

    /// Processes every local event strictly before `epoch_end`.
    fn run_epoch(&mut self, sh: &Shared<'_>, epoch_end: Ps) {
        while let Some(next) = self.uncore.sched.pop(epoch_end) {
            match next {
                Next::Tick(_) => {
                    self.ev_mem += 1;
                    self.mem_tick(sh);
                }
                Next::Event(Ev::Wake(g)) => {
                    self.ev_wake += 1;
                    let trace = &sh.workload.traces()[g];
                    let now = self.uncore.sched.now();
                    let (core, mut port) = self.core(sh, g);
                    if core.advance(trace, now, &mut port) {
                        self.done += 1;
                    }
                }
                Next::Event(Ev::Deliver(x)) => {
                    self.ev_net += 1;
                    self.deliver(sh, x);
                }
            }
        }
    }

    /// Thread `g`'s core and its port.
    fn core<'a, 'w>(
        &'a mut self,
        sh: &'a Shared<'w>,
        g: usize,
    ) -> (&'a mut TraceCore, DimmPort<'a, 'w>) {
        let l = sh.local_of[g];
        let port = DimmPort {
            uncore: &mut self.uncore,
            sh,
            g,
            l,
        };
        (&mut self.cores[l], port)
    }

    fn mem_tick(&mut self, sh: &Shared<'_>) {
        let completions = self.uncore.sched.service(0);
        for &comp in &completions {
            match self.uncore.txn_mem.remove(comp.id) {
                None | Some(TxnClass::Background) => {}
                Some(TxnClass::LocalMem { thread }) => {
                    let (core, mut port) = self.core(sh, thread);
                    core.complete(comp.id, comp.at, &mut port);
                }
                Some(TxnClass::RemoteReadAtHome { thread, origin }) => {
                    // Ship the data back to the requesting core, carrying
                    // the issuer's transaction id so its slot is freed.
                    self.uncore.unicast(
                        comp.at,
                        sh.placement[thread],
                        wire_bytes(64),
                        XEvent::Complete { thread, origin },
                    );
                }
            }
        }
        self.uncore.sched.rearm(0, completions);
    }

    fn deliver(&mut self, sh: &Shared<'_>, x: XEvent) {
        let u = &mut self.uncore;
        let now = u.sched.now();
        match x {
            XEvent::StartRemoteRead {
                thread,
                addr,
                origin,
            } => {
                u.local_bytes += 64;
                let id = u.alloc_txn();
                u.txn_mem
                    .insert(id, TxnClass::RemoteReadAtHome { thread, origin });
                let req = MemRequest::new(id, AccessKind::Read, sh.decode(addr));
                u.sched.enqueue(0, now, req);
            }
            XEvent::LandRemoteWrite { addr, .. } => {
                u.local_bytes += 64;
                u.background_mem(sh, now, addr, AccessKind::Write);
            }
            XEvent::AtomicAtHome {
                thread,
                addr,
                origin,
            } => {
                let done = u.atomic_unit.reserve(now, ATOMIC_SERVICE);
                u.local_bytes += 128;
                u.background_mem(sh, done, addr, AccessKind::Write);
                u.unicast(
                    done,
                    sh.placement[thread],
                    wire_bytes(8),
                    XEvent::Complete { thread, origin },
                );
            }
            XEvent::Complete { thread, origin } => {
                if let Some(issued) = u.remote_issue.remove(origin) {
                    u.remote_rtt.record((now.saturating_sub(issued)).as_ps());
                }
                let (core, mut port) = self.core(sh, thread);
                core.complete(origin, now, &mut port);
            }
            XEvent::BarrierRelease { thread } => {
                let (core, mut port) = self.core(sh, thread);
                core.unblock(now, false, &mut port);
            }
        }
    }
}

impl Uncore {
    fn alloc_txn(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    /// Stages a message from this DIMM to `dst`, sent at `t`.
    fn unicast(&mut self, t: Ps, dst: usize, bytes: u64, then: XEvent) {
        let src = self.dimm;
        self.outbox.push((
            t,
            Intent::Unicast {
                src,
                dst,
                bytes,
                then,
            },
        ));
    }

    fn record_profile(&mut self, sh: &Shared<'_>, g: usize, addr: u64) {
        self.profile
            .record(g, sh.workload.layout().dimm_of(addr), 1);
    }

    fn background_write(&mut self, sh: &Shared<'_>, addr: u64, t: Ps) {
        let target = sh.workload.layout().dimm_of(addr);
        if target == self.dimm {
            self.local_bytes += 64;
            self.background_mem(sh, t, addr, AccessKind::Write);
        } else {
            // Dirty line belonging to a remote DIMM: posted remote write
            // that nobody waits for.
            self.remote_writes += 1;
            self.unicast(
                t,
                target,
                wire_bytes(64),
                XEvent::LandRemoteWrite {
                    thread: usize::MAX,
                    addr,
                    origin: 0,
                },
            );
        }
    }

    fn background_mem(&mut self, sh: &Shared<'_>, at: Ps, addr: u64, kind: AccessKind) {
        let id = self.alloc_txn();
        self.txn_mem.insert(id, TxnClass::Background);
        let req = MemRequest::new(id, kind, sh.decode(addr));
        self.sched.enqueue(0, at, req);
    }
}

/// The NMP side of the core model: private L1 then the DIMM's shared L2,
/// profiling, local accesses to this DIMM's controller or remote ones
/// through the outbox, and barrier arrivals staged for the coordinator.
impl CorePort for DimmPort<'_, '_> {
    /// The next local event or the epoch boundary (cross-partition events
    /// can arrive there): ranked below every wake, so a core acts strictly
    /// before it.
    fn horizon(&self) -> EventKey {
        self.uncore.sched.horizon()
    }

    fn l1_hit(&mut self, addr: u64, is_write: bool) -> Option<Ps> {
        if !self.uncore.l1[self.l].hit(addr, is_write) {
            return None;
        }
        let sh = self.sh;
        self.uncore.record_profile(sh, self.g, addr);
        Some(sh.l1_hit)
    }

    fn wake(&mut self, at: Ps) {
        let sched = &mut self.uncore.sched;
        sched.push(at, sched.wake_rank(self.g), Ev::Wake(self.g));
    }

    fn past_l1(&mut self, addr: u64, is_write: bool, cacheable: bool, t: Ps) -> Option<Ps> {
        let (sh, u) = (self.sh, &mut *self.uncore);
        u.record_profile(sh, self.g, addr);
        if !cacheable {
            return None;
        }
        // Fill the private L1, then the shared L2, then memory. L1 victims
        // land in the shared L2.
        let mut victim_to_mem = None;
        if let Some(v) = u.l1[self.l].fill(addr, is_write) {
            if let CacheOutcome::Miss {
                writeback: Some(v2),
            } = u.l2.access(v, true)
            {
                victim_to_mem = Some(v2);
            }
        }
        match u.l2.access(addr, is_write) {
            // A victim evicted by the L1-writeback insertion is absorbed on
            // the hit path (modeling simplification: its memory write
            // happens off the critical path).
            CacheOutcome::Hit => Some(sh.l1_hit + sh.l2_hit),
            CacheOutcome::Miss { writeback } => {
                if let Some(victim) = writeback.or(victim_to_mem) {
                    u.background_write(sh, victim, t);
                }
                None
            }
        }
    }

    fn issue(&mut self, addr: u64, is_write: bool, t: Ps) -> (u64, bool) {
        let (sh, u, g) = (self.sh, &mut *self.uncore, self.g);
        let target = sh.workload.layout().dimm_of(addr);
        let id = u.alloc_txn();
        if target == u.dimm {
            u.local_bytes += 64;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            u.txn_mem.insert(id, TxnClass::LocalMem { thread: g });
            let req = MemRequest::new(id, kind, sh.decode(addr));
            u.sched.enqueue(0, t, req);
            return (id, false);
        }
        if is_write {
            u.remote_writes += 1;
            let then = XEvent::LandRemoteWrite {
                thread: g,
                addr,
                origin: id,
            };
            u.unicast(t, target, wire_bytes(64), then);
        } else {
            u.remote_reads += 1;
            u.remote_issue.insert(id, t);
            let then = XEvent::StartRemoteRead {
                thread: g,
                addr,
                origin: id,
            };
            u.unicast(t, target, wire_bytes(0), then);
        }
        (id, true)
    }

    fn atomic(&mut self, addr: u64, t: Ps) -> (u64, bool) {
        let (sh, u, g) = (self.sh, &mut *self.uncore, self.g);
        u.record_profile(sh, g, addr);
        u.atomic_ops += 1;
        let target = sh.workload.layout().dimm_of(addr);
        let id = u.alloc_txn();
        if target == u.dimm {
            let done = u.atomic_unit.reserve(t, ATOMIC_SERVICE);
            u.local_bytes += 128; // read + write of the line
            u.background_mem(sh, done, addr, AccessKind::Write);
            let then = XEvent::Complete {
                thread: g,
                origin: id,
            };
            u.sched.push(done, 0, Ev::Deliver(then));
            (id, false)
        } else {
            let then = XEvent::AtomicAtHome {
                thread: g,
                addr,
                origin: id,
            };
            u.unicast(t, target, wire_bytes(8), then);
            (id, true)
        }
    }

    fn broadcast(&mut self, addr: u64, payload: u16, t: Ps) -> u64 {
        let (sh, u, g) = (self.sh, &mut *self.uncore, self.g);
        u.record_profile(sh, g, addr);
        let src = sh.workload.layout().dimm_of(addr);
        let bytes = wire_bytes(u64::from(payload));
        let id = u.alloc_txn();
        u.outbox.push((
            t,
            Intent::Broadcast {
                src,
                thread: g,
                origin: id,
                bytes,
            },
        ));
        id
    }

    fn barrier(&mut self, t: Ps) {
        self.uncore
            .outbox
            .push((t, Intent::BarrierArrive { thread: self.g }));
    }
}

impl Coordinator {
    /// Applies one merged cross-partition intent, taking effect at `at`, to
    /// the shared models and records the deliveries it produces as `(target
    /// partition, time, event)` triples.
    fn apply(
        &mut self,
        sh: &Shared<'_>,
        at: Ps,
        intent: Intent,
        out: &mut Vec<(usize, Ps, XEvent)>,
    ) {
        match intent {
            Intent::Unicast {
                src,
                dst,
                bytes,
                then,
            } => {
                let (arrival, route) =
                    self.idc
                        .unicast(&mut self.host, &sh.cfg, at, src, dst, bytes);
                self.count_route(route, bytes);
                out.push((dst, arrival, then));
                // A waited-on remote write is acknowledged on arrival.
                if let XEvent::LandRemoteWrite { thread, origin, .. } = then {
                    if thread != usize::MAX {
                        let ack = XEvent::Complete { thread, origin };
                        out.push((sh.placement[thread], arrival, ack));
                    }
                }
            }
            Intent::Broadcast {
                src,
                thread,
                origin,
                bytes,
            } => {
                let arrivals = self.idc.broadcast(&mut self.host, &sh.cfg, at, src, bytes);
                self.broadcast_bytes += bytes * (sh.cfg.dimms as u64 - 1);
                let done = arrivals.into_iter().max().unwrap_or(at);
                // Delivered everywhere: the broadcast's slot is freed.
                let then = XEvent::Complete { thread, origin };
                out.push((sh.placement[thread], done, then));
            }
            Intent::BarrierArrive { thread } => self.barrier_arrive(sh, thread, at, out),
        }
    }

    fn count_route(&mut self, route: Route, bytes: u64) {
        match route {
            Route::Link => self.link_unicast_bytes += bytes,
            Route::HostForward => self.fwd_unicast_bytes += bytes,
            Route::Bus => self.bus_unicast_bytes += bytes,
            Route::Cxl => self.cxl_unicast_bytes += bytes,
        }
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    fn barrier_arrive(
        &mut self,
        sh: &Shared<'_>,
        c: usize,
        t: Ps,
        out: &mut Vec<(usize, Ps, XEvent)>,
    ) {
        self.barrier.arrived += 1;
        self.barrier.waiting.push(c);
        let dimm = sh.placement[c];
        match sh.cfg.sync {
            SyncScheme::Central => {
                let master = self.global_master();
                let at_master = self.sync_hop(sh, t, dimm, master);
                let absorbed = self.master_absorb(master, at_master);
                self.barrier.global_ready = self.barrier.global_ready.max(absorbed);
            }
            SyncScheme::Hierarchical => {
                // Stage 1: core -> DIMM master (local, serialized at the
                // master core).
                let local = t + LOCAL_SYNC_LATENCY;
                let absorbed = self.master_absorb(dimm, local);
                let agg = &mut self.barrier.dimm_agg[dimm];
                agg.arrived += 1;
                agg.ready_at = agg.ready_at.max(absorbed);
                if agg.arrived == self.barrier.threads_on_dimm[dimm] {
                    let dimm_done = agg.ready_at + SYNC_PROC;
                    self.barrier.dimm_agg[dimm] = BarrierGroupAgg::default();
                    // Stage 2: DIMM master -> group master.
                    let group = sh.cfg.group_of(dimm);
                    let gmaster = self.group_master(group);
                    let at_gm = self.sync_hop(sh, dimm_done, dimm, gmaster);
                    let at_gm = self.master_absorb(gmaster, at_gm);
                    let gagg = &mut self.barrier.group_agg[group];
                    gagg.arrived += 1;
                    gagg.ready_at = gagg.ready_at.max(at_gm);
                    if gagg.arrived == self.barrier.dimms_in_group[group] {
                        let group_done = gagg.ready_at + SYNC_PROC;
                        self.barrier.group_agg[group] = BarrierGroupAgg::default();
                        // Stage 3: group master -> global master.
                        let at_global =
                            self.sync_hop(sh, group_done, gmaster, self.global_master());
                        let at_global = self.master_absorb(self.global_master(), at_global);
                        self.barrier.global_ready = self.barrier.global_ready.max(at_global);
                    }
                }
            }
        }
        if self.barrier.arrived == self.barrier.total {
            self.barrier_release(sh, out);
        }
    }

    fn barrier_release(&mut self, sh: &Shared<'_>, out: &mut Vec<(usize, Ps, XEvent)>) {
        self.barriers_passed += 1;
        let release_from = self.barrier.global_ready + SYNC_PROC;
        let waiting = std::mem::take(&mut self.barrier.waiting);
        self.barrier.arrived = 0;
        self.barrier.global_ready = Ps::ZERO;
        let master = self.global_master();
        match sh.cfg.sync {
            SyncScheme::Central => {
                let mut waiting = waiting;
                waiting.sort_unstable();
                for c in waiting {
                    let dimm = sh.placement[c];
                    // The master initiates release messages one at a time.
                    let sent = self.master_absorb(master, release_from);
                    let at = self.sync_hop(sh, sent, master, dimm);
                    out.push((dimm, at, XEvent::BarrierRelease { thread: c }));
                }
            }
            SyncScheme::Hierarchical => {
                // global master -> group masters -> DIMM masters -> cores.
                // Groups and DIMMs are visited in ascending id, skipping
                // those without threads; that fixes the reservation order.
                let mut group_release = vec![Ps::ZERO; sh.cfg.groups];
                for (g, release) in group_release.iter_mut().enumerate() {
                    if self.barrier.dimms_in_group[g] == 0 {
                        continue;
                    }
                    let gm = self.group_master(g);
                    let sent = self.master_absorb(master, release_from);
                    let at = self.sync_hop(sh, sent, master, gm);
                    *release = at + SYNC_PROC;
                }
                let mut dimm_release = vec![Ps::ZERO; sh.cfg.dimms];
                for (d, release) in dimm_release.iter_mut().enumerate() {
                    if self.barrier.threads_on_dimm[d] == 0 {
                        continue;
                    }
                    let g = sh.cfg.group_of(d);
                    let gm = self.group_master(g);
                    let sent = self.master_absorb(gm, group_release[g]);
                    let at = self.sync_hop(sh, sent, gm, d);
                    *release = at + SYNC_PROC;
                }
                let mut waiting = waiting;
                waiting.sort_unstable();
                for c in waiting {
                    let d = sh.placement[c];
                    let sent = self.master_absorb(d, dimm_release[d]);
                    let at = sent + LOCAL_SYNC_LATENCY;
                    out.push((d, at, XEvent::BarrierRelease { thread: c }));
                }
            }
        }
    }

    /// Sends a synchronization message from DIMM `a` to DIMM `b`.
    fn sync_hop(&mut self, sh: &Shared<'_>, t: Ps, a: usize, b: usize) -> Ps {
        if a == b {
            return t + SYNC_PROC;
        }
        let (arrival, route) = self
            .idc
            .sync_unicast(&mut self.host, &sh.cfg, t, a, b, SYNC_BYTES);
        self.count_route(route, SYNC_BYTES);
        arrival
    }

    /// The master core on `dimm` processes one sync message arriving at
    /// `at`; returns when it has been absorbed.
    fn master_absorb(&mut self, dimm: usize, at: Ps) -> Ps {
        self.sync_units[dimm].reserve(at, SYNC_MASTER_PROC)
    }

    /// The global synchronization master: the proxy of group 0 for
    /// DIMM-Link, DIMM 0 otherwise.
    fn global_master(&self) -> usize {
        self.idc.dimm_link().map_or(0, |dl| dl.proxies()[0])
    }

    fn group_master(&self, group: usize) -> usize {
        self.idc
            .dimm_link()
            .map_or(0, |dl| dl.proxies().get(group).copied().unwrap_or(0))
    }
}

/// Convenience: the natural placement (thread on its data's home DIMM).
pub fn natural_placement(workload: &Workload) -> Vec<usize> {
    workload.home_dimm().to_vec()
}

/// Random placement respecting per-DIMM core capacity (the starting point
/// of the profiling run in Algorithm 1).
pub fn random_placement(workload: &Workload, cfg: &SystemConfig, seed: u64) -> Vec<usize> {
    let threads = workload.traces().len();
    let mut slots: Vec<usize> = (0..cfg.dimms)
        .flat_map(|d| std::iter::repeat_n(d, CORES_PER_DIMM))
        .collect();
    let mut rng = dl_engine::DetRng::seed(seed).stream("placement");
    rng.shuffle(&mut slots);
    slots.truncate(threads);
    slots
}

/// Runs Algorithm 1 end to end: profile on a random placement, solve the
/// min-cost max-flow, return the optimized placement plus the profiling
/// run's elapsed time (which the paper charges to the end-to-end result).
pub fn optimized_placement(cfg: &SystemConfig, profile_run: &RawRun) -> Vec<usize> {
    let idc = Interconnect::new(cfg);
    let dist = distance_matrix(cfg, &idc);
    dl_placement::place_threads(&profile_run.profile, &dist, CORES_PER_DIMM)
        .expect("threads fit on cores by construction")
        .assignment()
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdcKind;
    use dl_workloads::{synth, Addr, DataLayout, Op, ThreadTrace, WorkloadKind, WorkloadParams};

    fn quick_params(dimms: usize) -> WorkloadParams {
        WorkloadParams {
            scale: 8,
            ..WorkloadParams::small(dimms)
        }
    }

    fn run(cfg: &SystemConfig, wl: &Workload) -> RawRun {
        let placement = natural_placement(wl);
        NmpSystem::new(wl, cfg, &placement, None).run()
    }

    #[test]
    fn local_only_workload_has_no_idc() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 200, 0.0);
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let r = run(&cfg, &wl);
        assert!(r.elapsed > Ps::ZERO);
        assert_eq!(r.stats.get("remote_reads"), Some(0.0));
        assert_eq!(r.stats.get("remote_writes"), Some(0.0));
        // Only the final barrier's sync messages ride the links.
        assert!(r.stats.get("traffic.link_bytes").unwrap() < 200.0);
        assert_eq!(r.stats.get("idc_stall_frac"), Some(0.0));
    }

    #[test]
    fn a_cap_at_the_end_of_time_cuts_nothing() {
        let wl = WorkloadKind::KMeans.build(&quick_params(4));
        let mut cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let full = run(&cfg, &wl);
        cfg.max_sim = Some(Ps::MAX);
        let capped = run(&cfg, &wl);
        assert_eq!(capped.status, RunStatus::Completed);
        assert_eq!(capped.elapsed, full.elapsed);
    }

    /// At scale 13 K-Means's L2 misses evict dirty victims: each victim's
    /// write arms the memory tick below the missing core's own key just
    /// before that core issues its access. The auditor must accept the
    /// miss and its victim as one action.
    #[test]
    fn k_means_misses_with_victim_writes_pass_the_auditor() {
        let params = WorkloadParams {
            scale: 13,
            ..WorkloadParams::small(4)
        };
        let wl = WorkloadKind::KMeans.build(&params);
        let mut cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        cfg.max_sim = Some(Ps::from_us(60));
        let r = run(&cfg, &wl);
        assert!(r.elapsed > Ps::ZERO);
    }

    #[test]
    fn remote_traffic_rides_the_links_for_dimm_link() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 200, 0.8);
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let r = run(&cfg, &wl);
        assert!(r.stats.get("remote_reads").unwrap() > 0.0);
        assert!(r.stats.get("traffic.link_bytes").unwrap() > 0.0);
        // Single group: nothing is host-forwarded.
        assert_eq!(r.stats.get("traffic.fwd_bytes"), Some(0.0));
        assert!(r.stats.get("idc_stall_frac").unwrap() > 0.0);
    }

    #[test]
    fn mcn_is_slower_than_dimm_link_on_remote_traffic() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 300, 0.8);
        let dl = run(&SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink), &wl);
        let mcn = run(
            &SystemConfig::nmp(4, 2).with_idc(IdcKind::CpuForwarding),
            &wl,
        );
        assert!(
            mcn.elapsed.as_ps() > 2 * dl.elapsed.as_ps(),
            "MCN {} vs DIMM-Link {}",
            mcn.elapsed,
            dl.elapsed
        );
    }

    #[test]
    fn barriers_complete_on_all_schemes() {
        let params = quick_params(4);
        let wl = synth::sync_sweep(&params, 1000, 20);
        for idc in [
            IdcKind::CpuForwarding,
            IdcKind::DedicatedBus,
            IdcKind::DimmLink,
        ] {
            let cfg = SystemConfig::nmp(4, 2).with_idc(idc);
            let r = run(&cfg, &wl);
            assert_eq!(r.stats.get("barriers"), Some(20.0), "{idc}");
        }
    }

    #[test]
    fn hierarchical_sync_beats_central_on_dimm_link() {
        let params = quick_params(16);
        let wl = synth::sync_sweep(&params, 500, 30);
        let mut central = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        central.sync = SyncScheme::Central;
        let mut hier = central.clone();
        hier.sync = SyncScheme::Hierarchical;
        let rc = run(&central, &wl);
        let rh = run(&hier, &wl);
        assert!(
            rh.elapsed < rc.elapsed,
            "hierarchical {} vs central {}",
            rh.elapsed,
            rc.elapsed
        );
    }

    #[test]
    fn profiling_run_is_shorter_and_fills_profile() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 500, 0.5);
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let placement = random_placement(&wl, &cfg, 1);
        let full = NmpSystem::new(&wl, &cfg, &placement, None).run();
        let prof = NmpSystem::new(&wl, &cfg, &placement, Some(50)).run();
        assert!(prof.elapsed < full.elapsed / 2);
        assert!(prof.profile.total() > 0);
    }

    #[test]
    fn optimized_placement_reduces_remote_traffic() {
        let params = quick_params(4);
        // Heavily local workload: random placement scatters threads away
        // from their data; Algorithm 1 must bring them home.
        let wl = synth::uniform_random(&params, 400, 0.1);
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let rand_place = random_placement(&wl, &cfg, 7);
        let prof = NmpSystem::new(&wl, &cfg, &rand_place, Some(100)).run();
        let opt = optimized_placement(&cfg, &prof);
        let r_rand = NmpSystem::new(&wl, &cfg, &rand_place, None).run();
        let r_opt = NmpSystem::new(&wl, &cfg, &opt, None).run();
        let remote = |r: &RawRun| {
            r.stats.get("remote_reads").unwrap() + r.stats.get("remote_writes").unwrap()
        };
        assert!(
            remote(&r_opt) < remote(&r_rand),
            "optimized placement did not reduce remote traffic: {} vs {}",
            remote(&r_opt),
            remote(&r_rand)
        );
        assert!(r_opt.elapsed <= r_rand.elapsed);
    }

    #[test]
    fn random_placement_respects_capacity() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 10, 0.0);
        let cfg = SystemConfig::nmp(4, 2);
        let p = random_placement(&wl, &cfg, 3);
        assert_eq!(p.len(), 16);
        for d in 0..4 {
            assert!(p.iter().filter(|&&x| x == d).count() <= CORES_PER_DIMM);
        }
    }

    #[test]
    #[should_panic(expected = "placement exceeds")]
    fn overloaded_placement_rejected() {
        let params = quick_params(4);
        let wl = synth::uniform_random(&params, 10, 0.0);
        let cfg = SystemConfig::nmp(4, 2);
        let placement = vec![0; 16]; // 16 threads on DIMM 0's 4 cores
        let _ = NmpSystem::new(&wl, &cfg, &placement, None);
    }

    /// The dense barrier tables hold an entry for every DIMM and group; the
    /// hierarchical barrier must skip the empty ones — here three DIMMs of
    /// one group (the global master's DIMM 4 among them) and every DIMM of
    /// the other group, in both orientations.
    #[test]
    fn hierarchical_barriers_skip_empty_dimms_and_groups() {
        let params = WorkloadParams {
            threads_per_dimm: 1,
            ..quick_params(16)
        };
        let sweep = synth::sync_sweep(&params, 200, 12);
        // Without its loads the sweep's only interconnect traffic is sync
        // messages, so the byte counters below count barrier-tree hops.
        let traces = sweep
            .traces()
            .iter()
            .map(|tr| {
                let mut bare = ThreadTrace::new();
                for &op in tr.ops().iter().filter(|op| !matches!(op, Op::Load { .. })) {
                    bare.push(op);
                }
                bare
            })
            .collect();
        let wl = Workload::new(
            "sync-bare",
            traces,
            sweep.layout().clone(),
            sweep.home_dimm().to_vec(),
        );
        let barriers = wl.traces()[0]
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Barrier))
            .count() as f64;
        let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        cfg.sync = SyncScheme::Hierarchical;
        assert_eq!(cfg.groups, 2);
        // 16 threads on DIMMs 0, 2, 3, 5, 6 of group 0 (4 + 3 + 4 + 2 + 3);
        // the group masters (proxies) are DIMMs 4 and 12, both left empty.
        let group0: Vec<usize> = [(0, 4), (2, 3), (3, 4), (5, 2), (6, 3)]
            .iter()
            .flat_map(|&(d, n)| std::iter::repeat_n(d, n))
            .collect();
        let group1: Vec<usize> = group0.iter().map(|d| d + 8).collect();
        let sync = SYNC_BYTES as f64 * barriers;
        // Per barrier: 5 DIMM -> group master arrivals and 5 releases ride
        // the links; group 1's master reaches the global master (DIMM 4)
        // and back through the host. Empty DIMMs and groups send nothing.
        for (placement, link_msgs, fwd_msgs) in [(group0, 10.0, 0.0), (group1, 10.0, 2.0)] {
            let run = || NmpSystem::new(&wl, &cfg, &placement, None).run();
            let a = run();
            assert_eq!(a.status, RunStatus::Completed, "{placement:?}");
            assert_eq!(a.stats.get("barriers"), Some(barriers));
            assert_eq!(a.stats.get("traffic.link_bytes"), Some(link_msgs * sync));
            assert_eq!(a.stats.get("traffic.fwd_bytes"), Some(fwd_msgs * sync));
            let b = run();
            assert_eq!(
                (a.elapsed, format!("{:?}", a.stats)),
                (b.elapsed, format!("{:?}", b.stats)),
                "{placement:?}"
            );
        }
    }

    /// A duplicate wake must not run a core's trace twice. A wake landing
    /// while the core is blocked is stale: it is counted in `events.wake`
    /// but has no other observable effect. A duplicate at the very time
    /// the core is released may split the core's run differently across
    /// the wakes, but the simulated results stay the same.
    #[test]
    fn stale_wake_is_counted_but_changes_nothing() {
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let mut layout = DataLayout::new(4);
        let regions: Vec<_> = (0..4).map(|d| layout.alloc(d, 4096)).collect();
        let mut traces = Vec::new();
        for region in &regions {
            let mut tr = ThreadTrace::new();
            // The atomic holds the window alone from t=0 until the atomic
            // unit finishes — any wake landing in that window finds the
            // thread blocked and is stale by construction.
            tr.push(Op::Atomic {
                addr: Addr::new(region.line_of(0, 64)),
            });
            tr.comp(10);
            tr.push(Op::Load {
                addr: Addr::new(region.line_of(1, 64)),
                cacheable: false,
            });
            traces.push(tr);
        }
        let wl = Workload::new("stale-wake", traces, layout, vec![0, 1, 2, 3]);
        let placement = natural_placement(&wl);
        let base = NmpSystem::new(&wl, &cfg, &placement, None).run();
        let stat = |r: &RawRun, k: &str| r.stats.get(k).unwrap();

        // Mid-service: thread 0 still waits for its atomic, so the stale
        // path must swallow the wake.
        // At the completion time: the delivery pops first and releases
        // the core; the injected wake, pushed earlier with an equal key,
        // runs it.
        for (at, stale) in [(ATOMIC_SERVICE / 2, true), (ATOMIC_SERVICE, false)] {
            let mut sys = NmpSystem::new(&wl, &cfg, &placement, None);
            sys.inject_wake(0, at);
            let poked = sys.run();
            let extra = stat(&poked, "events.wake") - stat(&base, "events.wake");
            if stale {
                assert_eq!(extra, 1.0, "both deliveries must be counted");
                assert_eq!(
                    stat(&poked, "events_scheduled"),
                    stat(&base, "events_scheduled") + 1.0
                );
            } else {
                assert!(extra >= 1.0, "both deliveries must be counted");
            }
            // ...but the trace ran exactly once: identical timing and DRAM
            // work.
            assert_eq!(poked.elapsed, base.elapsed, "{at}");
            assert_eq!(poked.stats.get("dram.reads"), base.stats.get("dram.reads"));
            assert_eq!(poked.stats.get("atomics"), Some(4.0));
            assert_eq!(poked.stats.get("barriers"), base.stats.get("barriers"));
        }
    }

    /// Merges `outboxes` (in partition order) into a fresh buffer and
    /// returns the payloads in merged order.
    fn merged_payloads<T: Copy>(outboxes: &mut [Vec<(Ps, T)>]) -> Vec<T> {
        let mut merged = Vec::new();
        merge_outboxes(outboxes.iter_mut(), &mut merged);
        merged.iter().map(|&(_, x)| x).collect()
    }

    #[test]
    fn merge_puts_the_lower_partition_first_at_equal_times() {
        let at = Ps::from_ns(5);
        let mut outboxes = [vec![(at, "p0")], vec![(at, "p1")], vec![(at, "p2")]];
        assert_eq!(merged_payloads(&mut outboxes), ["p0", "p1", "p2"]);
    }

    #[test]
    fn merge_keeps_emission_order_within_a_partition() {
        let at = Ps::from_ns(5);
        let mut outboxes = [vec![(at, 'a'), (at, 'b'), (at, 'c')], vec![(at, 'd')]];
        assert_eq!(merged_payloads(&mut outboxes), ['a', 'b', 'c', 'd']);
    }

    #[test]
    fn merge_lets_an_earlier_time_win_regardless_of_send_order() {
        let ns = Ps::from_ns;
        let mut outboxes = [
            vec![(ns(5), "a0@5"), (ns(2), "a1@2")],
            vec![(ns(5), "b0@5"), (ns(1), "b1@1")],
        ];
        assert_eq!(
            merged_payloads(&mut outboxes),
            ["b1@1", "a1@2", "a0@5", "b0@5"]
        );
    }

    #[test]
    fn reused_merge_buffer_holds_nothing_from_the_previous_epoch() {
        // The barrier's pattern: merge, consume, repeat with the same
        // buffer. The second epoch sees only its own intents, and the
        // drained outboxes start the next epoch empty.
        let mut outboxes = [(0..8).map(|i| (Ps::from_ns(i), i)).collect(), Vec::new()];
        let mut merged = Vec::new();
        merge_outboxes(outboxes.iter_mut(), &mut merged);
        assert_eq!(merged.len(), 8);
        merged.clear();
        assert!(outboxes.iter().all(Vec::is_empty));
        outboxes[1].push((Ps::from_ns(9), 100));
        outboxes[0].push((Ps::from_ns(9), 200));
        merge_outboxes(outboxes.iter_mut(), &mut merged);
        let order: Vec<u64> = merged.iter().map(|&(_, x)| x).collect();
        assert_eq!(order, [200, 100]);
        assert!(merged.capacity() >= 8, "the buffer kept its capacity");
    }
}

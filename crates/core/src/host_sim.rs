//! The fixed 16-core host-CPU baseline of Fig. 10.
//!
//! Runs the same workload traces on out-of-order host cores: every memory
//! access misses through a private L1 and a shared LLC onto one of eight
//! DDR4-2400 channels (line-interleaved), modelled by per-channel memory
//! controllers with a shared data bus. There is no IDC — the host sees one
//! flat physical address space — but it also has none of the NMP system's
//! aggregate rank-level bandwidth, which is exactly the gap near-memory
//! processing exploits.
//!
//! The cores are the shared `trace_core` model with the host's clock and
//! large MLP window, and the events and channel ticks follow its
//! `Schedule`, one tick slot per channel. What is the host's own is its
//! `CorePort`, `HostPort`: the L1→LLC path with its victim handling, the
//! line-interleaved channels, the global atomic unit, and the
//! shared-memory barrier. Every slot is local, so all memory stall counts
//! as memory stall.

use crate::config::HostConfig;
use crate::trace_core::{stall_frac, CorePort, Next, Schedule, TraceCore, TxnTable};
use dl_engine::stats::StatSet;
use dl_engine::{EventKey, Freq, Ps, Resource};
use dl_mem::{
    AccessKind, Cache, CacheConfig, CacheOutcome, DimmAddressMap, DramConfig, MemController,
    MemRequest,
};
use dl_workloads::Workload;

// Two deliberate calibrations for the scaled-down inputs (see DESIGN.md):
// the LLC is shrunk to preserve the paper's working-set to cache ratio
// (LiveJournal-class inputs exceed a server LLC by more than an order of
// magnitude), and the per-access channel latency uses a loaded-system
// value rather than an unloaded pin-to-pin figure.

/// Host core clock.
const FREQ: Freq = Freq::from_ghz(3.0);
/// Outstanding-miss window (OoO cores hide much more latency).
const MLP: usize = 10;
/// Private L1.
const L1: CacheConfig = CacheConfig::l1_32k();
/// Shared last-level cache.
const LLC: CacheConfig = CacheConfig::llc_512k();
/// One-way channel latency under load, paid by a request on its way to
/// memory and by its data on the way back. The NMP system's host path
/// crosses a channel in `host::CHANNEL_LATENCY`.
const LOADED_CHANNEL_LATENCY: Ps = Ps::from_ns(30);
/// DRAM configuration per channel: the NMP system's DIMMs, with the ranks
/// of a channel sharing one data bus.
const DRAM: DramConfig = DramConfig {
    bus_per_rank: false,
    ..DramConfig::ddr4_2400_lrdimm()
};

/// A queued event: a core's wake (ranked by core) or a completion (rank
/// 0, ahead of the channel ticks).
#[derive(Debug)]
enum Ev {
    Wake(usize),
    Done(u64),
}

/// Result of a host-baseline run.
#[derive(Debug, Clone)]
pub struct HostRun {
    /// End-to-end simulated time.
    pub elapsed: Ps,
    /// Counters.
    pub stats: StatSet,
}

/// Simulates `workload` on the host CPU baseline. One thread per core; the
/// workload should therefore be generated with `cfg.cores` threads (the
/// runner does this).
///
/// # Panics
/// Panics if the workload has more threads than the host has cores, if a
/// trace broadcasts (host workloads are built without broadcasts), or on
/// deadlock.
pub fn simulate_host(workload: &Workload, cfg: &HostConfig) -> HostRun {
    assert!(
        workload.traces().len() <= cfg.cores,
        "host has {} cores but the workload has {} threads",
        cfg.cores,
        workload.traces().len()
    );
    HostSystem::new(workload, cfg).run()
}

struct HostSystem<'w> {
    workload: &'w Workload,
    cores: Vec<TraceCore>,
    done: usize,
    uncore: Uncore,
}

/// Everything but the cores: caches, channels, the atomic unit, the
/// barrier, and the schedule.
struct Uncore {
    channels: usize,
    /// The events and the channels with their ticks.
    sched: Schedule<Ev>,
    l1: Vec<Cache>,
    llc: Cache,
    /// L1 and LLC hit latencies at the core clock.
    l1_hit: Ps,
    llc_hit: Ps,
    map: DimmAddressMap,
    atomic_unit: Resource,
    /// Transaction -> the core waiting for it.
    txns: TxnTable<usize>,
    next_txn: u64,
    /// Cores arrived at the current barrier, in arrival order.
    waiting: Vec<usize>,
    barrier_ready: Ps,
    barriers_passed: u64,
}

/// Core `c`'s view of the [`Uncore`].
struct HostPort<'a> {
    uncore: &'a mut Uncore,
    c: usize,
}

impl<'w> HostSystem<'w> {
    fn new(workload: &'w Workload, cfg: &HostConfig) -> Self {
        let threads = workload.traces().len();
        let mut sched = Schedule::new(
            (0..cfg.channels)
                .map(|c| MemController::new(format!("host-ch{c}"), &DRAM))
                .collect(),
        );
        let mut cores = Vec::with_capacity(threads);
        for (c, tr) in workload.traces().iter().enumerate() {
            let rank = sched.wake_rank(c);
            sched.push(Ps::ZERO, rank, Ev::Wake(c));
            cores.push(TraceCore::new(tr, tr.len(), FREQ, MLP, rank, false));
        }
        HostSystem {
            workload,
            cores,
            done: 0,
            uncore: Uncore {
                channels: cfg.channels,
                sched,
                l1: (0..threads).map(|_| Cache::new(L1)).collect(),
                llc: Cache::new(LLC),
                l1_hit: FREQ.cycles(u64::from(L1.hit_latency_cycles)),
                llc_hit: FREQ.cycles(u64::from(LLC.hit_latency_cycles)),
                map: DimmAddressMap::new(&DRAM),
                atomic_unit: Resource::new("host-atomics"),
                txns: TxnTable::new(),
                next_txn: 0,
                waiting: Vec::new(),
                barrier_ready: Ps::ZERO,
                barriers_passed: 0,
            },
        }
    }

    fn run(mut self) -> HostRun {
        while let Some(next) = self.uncore.sched.pop(Ps::MAX) {
            let t = self.uncore.sched.now();
            match next {
                Next::Tick(ch) => self.mem_tick(ch),
                Next::Event(Ev::Wake(c)) => {
                    let trace = &self.workload.traces()[c];
                    let (core, mut port) = self.core(c);
                    if core.advance(trace, t, &mut port) {
                        self.done += 1;
                    }
                    if self.uncore.waiting.len() == self.cores.len() {
                        self.release_barrier();
                    }
                }
                Next::Event(Ev::Done(id)) => {
                    if let Some(c) = self.uncore.txns.remove(id) {
                        let (core, mut port) = self.core(c);
                        core.complete(id, t, &mut port);
                    }
                }
            }
            if self.done == self.cores.len() {
                break;
            }
        }
        assert_eq!(self.done, self.cores.len(), "host simulation deadlocked");
        self.collect()
    }

    /// Shared-memory barrier: tens of ns once everyone is in.
    fn release_barrier(&mut self) {
        self.uncore.barriers_passed += 1;
        let release = self.uncore.barrier_ready + Ps::from_ns(60);
        self.uncore.barrier_ready = Ps::ZERO;
        for c in std::mem::take(&mut self.uncore.waiting) {
            let (core, mut port) = self.core(c);
            core.unblock(release, false, &mut port);
        }
    }

    /// Core `c` and its port.
    fn core(&mut self, c: usize) -> (&mut TraceCore, HostPort<'_>) {
        let port = HostPort {
            uncore: &mut self.uncore,
            c,
        };
        (&mut self.cores[c], port)
    }

    fn mem_tick(&mut self, ch: usize) {
        let u = &mut self.uncore;
        let completions = u.sched.service(ch);
        // The data return crosses the channel too: deliver completions with
        // the return-path latency added.
        let at = u.sched.now() + LOADED_CHANNEL_LATENCY;
        for comp in &completions {
            if u.txns.contains(comp.id) {
                u.sched.push(at, 0, Ev::Done(comp.id));
            }
        }
        u.sched.rearm(ch, completions);
    }

    fn collect(self) -> HostRun {
        let elapsed = self
            .cores
            .iter()
            .map(|c| c.finish.expect("finished"))
            .max()
            .unwrap_or(Ps::ZERO);
        let mut s = StatSet::new();
        s.set("elapsed_ps", elapsed.as_ps() as f64);
        s.set("threads", self.cores.len() as f64);
        s.set("barriers", self.uncore.barriers_passed as f64);
        let mut activates = 0.0;
        let mut bytes = 0.0;
        for mc in self.uncore.sched.mcs() {
            activates += mc.activates() as f64;
            bytes += mc.bytes_moved() as f64;
        }
        s.set("dram.activates", activates);
        s.set("dram.bytes", bytes);
        let threads = self.cores.len() as f64;
        let mem_stall: Ps = self.cores.iter().map(|c| c.mem_stall).sum();
        s.set("mem_stall_frac", stall_frac(mem_stall, elapsed, threads));
        HostRun { elapsed, stats: s }
    }
}

impl Uncore {
    /// Sends a line access at `t` down its channel; returns the transaction.
    fn send_line(&mut self, addr: u64, kind: AccessKind, t: Ps) -> u64 {
        self.next_txn += 1;
        // Line-interleaved channels (maximizes host channel parallelism);
        // the address folds into the channel's local space.
        let channels = self.channels as u64;
        let ch = ((addr / 64) % channels) as usize;
        let req = MemRequest::new(self.next_txn, kind, self.map.decode(addr / channels));
        // Channel command/IO latency folded into the request arrival.
        let arrival = t + LOADED_CHANNEL_LATENCY;
        self.sched.enqueue(ch, arrival, req);
        self.next_txn
    }
}

/// The host's side of the core model: private L1 then shared LLC,
/// line-interleaved channels, a global atomic unit, and a shared-memory
/// barrier released by [`HostSystem::release_barrier`].
impl CorePort for HostPort<'_> {
    fn horizon(&self) -> EventKey {
        self.uncore.sched.horizon()
    }

    fn l1_hit(&mut self, addr: u64, is_write: bool) -> Option<Ps> {
        let u = &mut *self.uncore;
        u.l1[self.c].hit(addr, is_write).then_some(u.l1_hit)
    }

    fn wake(&mut self, at: Ps) {
        let sched = &mut self.uncore.sched;
        sched.push(at, sched.wake_rank(self.c), Ev::Wake(self.c));
    }

    fn past_l1(&mut self, addr: u64, is_write: bool, cacheable: bool, t: Ps) -> Option<Ps> {
        if !cacheable {
            return None;
        }
        // Fill the private L1, then the shared LLC, then memory.
        let u = &mut *self.uncore;
        if let Some(v) = u.l1[self.c].fill(addr, is_write) {
            u.llc.access(v, true);
        }
        match u.llc.access(addr, is_write) {
            CacheOutcome::Hit => Some(u.l1_hit + u.llc_hit),
            CacheOutcome::Miss { writeback } => {
                if let Some(v) = writeback {
                    u.send_line(v, AccessKind::Write, t);
                }
                None
            }
        }
    }

    fn issue(&mut self, addr: u64, is_write: bool, t: Ps) -> (u64, bool) {
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let id = self.uncore.send_line(addr, kind, t);
        self.uncore.txns.insert(id, self.c);
        (id, false)
    }

    fn atomic(&mut self, _addr: u64, t: Ps) -> (u64, bool) {
        // LLC-resident atomic: fast but serialized globally.
        let u = &mut *self.uncore;
        let done = u.atomic_unit.reserve(t, Ps::from_ns(25));
        u.next_txn += 1;
        u.txns.insert(u.next_txn, self.c);
        u.sched.push(done, 0, Ev::Done(u.next_txn));
        (u.next_txn, false)
    }

    fn broadcast(&mut self, _addr: u64, _bytes: u16, _t: Ps) -> u64 {
        panic!("host baseline runs non-broadcast traces");
    }

    fn barrier(&mut self, t: Ps) {
        let u = &mut *self.uncore;
        u.waiting.push(self.c);
        u.barrier_ready = u.barrier_ready.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use dl_workloads::{synth, WorkloadKind, WorkloadParams};

    /// A host-shaped workload: 16 threads over 8 partitions.
    fn host_params() -> WorkloadParams {
        WorkloadParams {
            dimms: 8,
            threads_per_dimm: 2,
            scale: 8,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    #[test]
    fn host_runs_synthetic_workload() {
        let wl = synth::uniform_random(&host_params(), 300, 0.5);
        let r = simulate_host(&wl, &HostConfig::xeon_16core());
        assert!(r.elapsed > Ps::ZERO);
        assert_eq!(r.stats.get("barriers"), Some(1.0));
    }

    #[test]
    fn host_runs_real_workloads() {
        for kind in [
            WorkloadKind::Bfs,
            WorkloadKind::KMeans,
            WorkloadKind::Hotspot,
        ] {
            let wl = kind.build(&host_params());
            let r = simulate_host(&wl, &HostConfig::xeon_16core());
            assert!(r.elapsed > Ps::ZERO, "{kind}");
        }
    }

    #[test]
    fn host_location_of_data_does_not_matter() {
        // On the host everything crosses the same channels: remote fraction
        // in the NMP sense has no effect.
        let local = synth::uniform_random(&host_params(), 400, 0.0);
        let remote = synth::uniform_random(&host_params(), 400, 1.0);
        let cfg = HostConfig::xeon_16core();
        let a = simulate_host(&local, &cfg);
        let b = simulate_host(&remote, &cfg);
        let ratio = a.elapsed.as_ps() as f64 / b.elapsed.as_ps() as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "host has 16 cores")]
    fn too_many_threads_rejected() {
        let params = WorkloadParams::small(8); // 32 threads
        let wl = synth::uniform_random(&params, 10, 0.0);
        let _ = simulate_host(&wl, &HostConfig::xeon_16core());
    }

    #[test]
    #[should_panic(expected = "host baseline runs non-broadcast traces")]
    fn broadcast_traces_rejected() {
        let params = WorkloadParams {
            broadcast: true,
            ..host_params()
        };
        let wl = WorkloadKind::Pagerank.build(&params);
        let _ = simulate_host(&wl, &HostConfig::xeon_16core());
    }
}

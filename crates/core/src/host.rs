//! The host side of the memory system: channels, polling, and the
//! CPU-forwarding engine (paper Sections III-D "Inter-Group Transmission"
//! and IV-A).
//!
//! Memory channels are FIFO bandwidth resources. Polling is modelled
//! faithfully as standing channel occupancy: with the `Base` strategy the
//! host scans every DIMM of every channel each polling period, so the
//! channel is busy `dimms_per_channel × poll_cost` out of every
//! `poll_period` — this is exactly the "memory bus occupation" series of
//! Fig. 15-b. Interrupt strategies have no standing polls but pay an
//! interrupt latency plus a scan burst per request; the proxy strategy keeps
//! standing polls on one DIMM per DL group only. The DIMM-Link+CXL
//! organization's host forwards nothing, so it polls nothing either.

use crate::config::{IdcKind, PollingStrategy, SystemConfig};
use dl_engine::{BandwidthResource, Ps, Resource};

/// One-way memory-channel latency (command + IO path).
pub(crate) const CHANNEL_LATENCY: Ps = Ps::from_ns(15);

/// Interrupt delivery + context switch latency (ALERT_N path).
const INTERRUPT_LATENCY: Ps = Ps::from_ns(400);

/// Serialized initiation interval of the host forwarding thread: the host
/// can start a new forward only this often (its pipeline throughput), even
/// though each packet takes `fwd_proc` to emerge.
pub(crate) const FWD_OCCUPANCY: Ps = Ps::from_ns(4);

/// Serialized host-CPU occupancy per synchronization message it forwards:
/// unlike bulk data, which moves through DMA burst engines at
/// [`FWD_OCCUPANCY`], sync flags are register-level operations performed by
/// the polling thread itself.
pub(crate) const SYNC_FWD_OCCUPANCY: Ps = Ps::from_ns(80);

/// Channels + polling + forwarding state of the host CPU.
#[derive(Debug)]
pub struct HostPath {
    channels: Vec<BandwidthResource>,
    strategy: PollingStrategy,
    poll_period: Ps,
    poll_cost: Ps,
    fwd_proc: Ps,
    /// The host's forwarding thread: starts one packet per [`FWD_OCCUPANCY`].
    cpu: Resource,
    /// Standing poll targets per channel (0 = no periodic polling there).
    standing: Vec<usize>,
    /// Time up to which standing polls have been reserved, per channel.
    polled_until: Vec<Ps>,
    /// Pending interrupt-scan completion per channel (interrupt strategies
    /// coalesce: one ALERT_N scan discovers every request registered before
    /// it fires).
    pending_scan: Vec<Ps>,
    forwarded_packets: u64,
    forwarded_bytes: u64,
    polls: u64,
    interrupts: u64,
}

impl HostPath {
    /// Builds the host path for a system configuration.
    ///
    /// `proxy_channels` lists the channels hosting a polling-proxy DIMM
    /// (used by the `Proxy` strategy; pass an empty slice otherwise).
    pub fn new(cfg: &SystemConfig, proxy_channels: &[usize]) -> Self {
        let channels = (0..cfg.channels)
            .map(|c| BandwidthResource::new(format!("channel{c}"), cfg.channel_bandwidth))
            .collect();
        let standing = (0..cfg.channels)
            .map(|c| match cfg.polling {
                _ if cfg.idc == IdcKind::DimmLinkCxl => 0,
                PollingStrategy::Base => cfg.dimms_per_channel(),
                PollingStrategy::Proxy => proxy_channels.iter().filter(|&&p| p == c).count(),
                PollingStrategy::BaseInterrupt | PollingStrategy::ProxyInterrupt => 0,
            })
            .collect();
        HostPath {
            channels,
            cpu: Resource::new("host-fwd-thread"),
            strategy: cfg.polling,
            poll_period: cfg.poll_period,
            poll_cost: cfg.poll_cost,
            fwd_proc: cfg.fwd_proc,
            standing,
            polled_until: vec![Ps::ZERO; cfg.channels],
            pending_scan: vec![Ps::ZERO; cfg.channels],
            forwarded_packets: 0,
            forwarded_bytes: 0,
            polls: 0,
            interrupts: 0,
        }
    }

    /// Reserves standing poll occupancy on `channel` up to `now`.
    ///
    /// When far behind (idle stretches), whole runs of polling periods are
    /// reserved as one block — identical occupancy accounting, and the
    /// block sits in an interval no transfer used anyway.
    fn advance_polls(&mut self, channel: usize, now: Ps) {
        let n = self.standing[channel];
        if n == 0 {
            return;
        }
        let period = self.poll_period;
        let behind = now.saturating_sub(self.polled_until[channel]).as_ps() / period.as_ps();
        if behind > 8 {
            // Backlogged periods: the channel had idle time then (or the
            // host skipped/deferred polling while it was busy). Either way,
            // polls from the stale past must count toward occupancy but not
            // steal *future* channel time from data transfers.
            let bulk = behind - 4; // leave the recent past fine-grained
            self.channels[channel].account_busy(self.poll_cost * n as u64 * bulk);
            self.polls += n as u64 * bulk;
            self.polled_until[channel] += period * bulk;
        }
        // Recent periods contend with in-flight data for real.
        while self.polled_until[channel] + period <= now {
            let at = self.polled_until[channel];
            self.channels[channel].occupy(at, self.poll_cost * n as u64);
            self.polls += n as u64;
            self.polled_until[channel] += period;
        }
    }

    /// When the host notices a forwarding request registered at `registered`
    /// on `channel` (scanning `scan_dimms` DIMMs for interrupt strategies).
    pub fn discover(&mut self, registered: Ps, channel: usize, scan_dimms: usize) -> Ps {
        self.advance_polls(channel, registered);
        match self.strategy {
            PollingStrategy::Base | PollingStrategy::Proxy => {
                // Next periodic scan boundary after registration.
                let period = self.poll_period.as_ps();
                let k = registered.as_ps().div_ceil(period);
                Ps::from_ps(k * period) + self.poll_cost
            }
            PollingStrategy::BaseInterrupt | PollingStrategy::ProxyInterrupt => {
                // Coalescing: if a scan triggered by an earlier request has
                // not fired yet, this request is discovered by it; only
                // otherwise does a new interrupt + scan get scheduled.
                if self.pending_scan[channel] > registered {
                    return self.pending_scan[channel];
                }
                self.interrupts += 1;
                let scan_start = registered + INTERRUPT_LATENCY;
                let scan = self.poll_cost * scan_dimms.max(1) as u64;
                self.channels[channel].occupy(scan_start, scan);
                self.polls += scan_dimms.max(1) as u64;
                self.pending_scan[channel] = scan_start + scan;
                scan_start + scan
            }
        }
    }

    /// Forwards a packet: read `bytes` from `src_channel`, process on the
    /// (serialized) forwarding thread, write to `dst_channel`. Returns the
    /// arrival time at the destination DIMM.
    ///
    /// The host runs a single forwarding thread (the paper's polling-thread
    /// assumption) whose pipeline starts one packet per `FWD_OCCUPANCY`;
    /// each packet additionally takes `fwd_proc` of latency to emerge. This
    /// bounds CPU-forwarding throughput without charging the full
    /// cache-hierarchy round trip serially per packet. A `sync` flag holds
    /// the thread for `SYNC_FWD_OCCUPANCY` instead: the polling thread
    /// itself shuttles sync flags, so they serialize hard (the inefficiency
    /// hierarchical synchronization exists to avoid, paper Section III-D).
    pub fn forward(
        &mut self,
        t: Ps,
        src_channel: usize,
        dst_channel: usize,
        bytes: u64,
        sync: bool,
    ) -> Ps {
        let occupancy = if sync {
            SYNC_FWD_OCCUPANCY
        } else {
            FWD_OCCUPANCY
        };
        let read_done = self.channel_transfer(src_channel, t, bytes);
        let slot_end = self.cpu.reserve(read_done, occupancy);
        let processed = slot_end + self.fwd_proc;
        let written = self.channel_transfer(dst_channel, processed, bytes);
        self.forwarded_packets += 1;
        self.forwarded_bytes += bytes;
        written
    }

    /// A raw data transfer on one channel (host memory traffic, ABC-DIMM
    /// broadcast writes). Returns the completion time including latency.
    ///
    /// Standing polls are accounted both before the transfer and through its
    /// duration: polling steals channel bandwidth continuously, so the polls
    /// that would interleave with the transfer are reserved right after it —
    /// over a run, channel time = data + polls, exactly as on real hardware.
    pub fn channel_transfer(&mut self, channel: usize, t: Ps, bytes: u64) -> Ps {
        self.advance_polls(channel, t);
        let end = self.channels[channel].transfer(t, bytes);
        self.advance_polls(channel, end);
        end + CHANNEL_LATENCY
    }

    /// Occupies the host forwarding thread for one packet operation
    /// starting no earlier than `t`; returns when the host is done with it.
    /// Used by the broadcast paths (MCN-BC per-DIMM writes, ABC-DIMM
    /// per-channel broadcast-writes), which are host-driven just like
    /// point-to-point forwarding.
    pub fn host_process(&mut self, t: Ps) -> Ps {
        self.cpu.reserve(t, FWD_OCCUPANCY) + self.fwd_proc
    }

    /// Accounts standing polls up to the end of the run. Call once before
    /// reading occupancy.
    pub fn finalize(&mut self, end: Ps) {
        for c in 0..self.channels.len() {
            self.advance_polls(c, end);
        }
    }

    /// Mean channel occupancy over `[0, end]`.
    pub fn bus_occupancy(&self, end: Ps) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.utilization(end))
            .sum::<f64>()
            / self.channels.len() as f64
    }

    /// Total bytes moved over all channels.
    pub fn channel_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes_moved()).sum()
    }

    /// Packets forwarded by the host CPU.
    pub fn forwarded_packets(&self) -> u64 {
        self.forwarded_packets
    }

    /// Bytes forwarded by the host CPU (counted once, not per channel
    /// crossing).
    pub fn forwarded_bytes(&self) -> u64 {
        self.forwarded_bytes
    }

    /// Poll operations performed.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Interrupts taken.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IdcKind, SystemConfig};

    fn cfg(polling: PollingStrategy) -> SystemConfig {
        let mut c = SystemConfig::nmp(16, 8).with_idc(match polling {
            PollingStrategy::Proxy | PollingStrategy::ProxyInterrupt => IdcKind::DimmLink,
            _ => IdcKind::CpuForwarding,
        });
        c.polling = polling;
        c
    }

    #[test]
    fn base_polling_occupies_about_30_percent() {
        let c = cfg(PollingStrategy::Base);
        let mut h = HostPath::new(&c, &[]);
        let end = Ps::from_us(100);
        h.finalize(end);
        let occ = h.bus_occupancy(end);
        // 2 DIMMs x 30 ns per 200 ns = 30 %.
        assert!((occ - 0.30).abs() < 0.02, "occupancy {occ}");
    }

    #[test]
    fn interrupt_strategy_has_no_standing_polls() {
        let c = cfg(PollingStrategy::BaseInterrupt);
        let mut h = HostPath::new(&c, &[]);
        let end = Ps::from_us(100);
        h.finalize(end);
        assert_eq!(h.bus_occupancy(end), 0.0);
        // But a discovery costs interrupt latency + a channel scan.
        let d = h.discover(Ps::from_us(1), 0, 2);
        assert_eq!(d, Ps::from_us(1) + INTERRUPT_LATENCY + c.poll_cost * 2);
        assert_eq!(h.interrupts(), 1);
    }

    #[test]
    fn proxy_polls_only_proxy_channels() {
        let c = cfg(PollingStrategy::Proxy);
        // Proxies on channels 1 and 5 (one per group).
        let mut h = HostPath::new(&c, &[1, 5]);
        let end = Ps::from_us(100);
        h.finalize(end);
        let occ = h.bus_occupancy(end);
        // 2 of 8 channels at 1 x 30/200 = 15 %; average = 3.75 %.
        assert!((occ - 0.0375).abs() < 0.01, "occupancy {occ}");
    }

    #[test]
    fn base_discovery_waits_for_next_scan() {
        let c = cfg(PollingStrategy::Base);
        let mut h = HostPath::new(&c, &[]);
        let d = h.discover(Ps::from_ns(250), 0, 2);
        // Next boundary at 400 ns + 30 ns read-out.
        assert_eq!(d, Ps::from_ns(430));
        // Registration exactly on a boundary is picked up by that scan.
        let d2 = h.discover(Ps::from_ns(600), 0, 2);
        assert_eq!(d2, Ps::from_ns(630));
    }

    #[test]
    fn forward_crosses_both_channels() {
        let c = cfg(PollingStrategy::BaseInterrupt);
        let mut h = HostPath::new(&c, &[]);
        let arrival = h.forward(Ps::ZERO, 0, 3, 80, false);
        // 80 B at 19.2 GB/s ~ 4.17 ns per crossing + 2x latency + proc.
        let min = c.fwd_proc + CHANNEL_LATENCY * 2;
        assert!(arrival > min);
        assert!(arrival < min + Ps::from_ns(20));
        assert_eq!(h.forwarded_packets(), 1);
        assert_eq!(h.forwarded_bytes(), 80);
        assert_eq!(h.channel_bytes(), 160); // both crossings
    }

    #[test]
    fn polls_compete_with_data_transfers() {
        let c = cfg(PollingStrategy::Base);
        let mut h = HostPath::new(&c, &[]);
        // Back-to-back 1-us transfers: the second queues behind the polls
        // that interleave with the first (2 x 30 ns per 200 ns ~ 30 %).
        let a = h.channel_transfer(0, Ps::ZERO, 19_200);
        let b = h.channel_transfer(0, Ps::ZERO, 19_200);
        assert!(a >= Ps::from_us(1));
        assert!(
            b > a + Ps::from_us(1) + Ps::from_ns(250),
            "second transfer unaffected by polling: {a} then {b}"
        );
    }
}

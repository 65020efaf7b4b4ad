//! The benchmark's workloads: how each builds its inputs, which public
//! simulator calls it makes, and how its result is checked.

use crate::trace::Tracer;
use dimm_link::config::{IdcKind, SystemConfig};
use dimm_link::host_sim::HostRun;
use dimm_link::runner::{host_baseline_for, simulate};
use dimm_link::system::{natural_placement, optimized_placement, random_placement, NmpSystem};
use dl_engine::stats::StatSet;
use dl_engine::{Ps, RunStatus};
use dl_workloads::{Workload, WorkloadKind, WorkloadParams};

/// R-MAT / evaluation scale of every workload.
const SCALE: u32 = 14;
/// The 16D-8C system of the paper's Fig. 10.
const DIMMS: usize = 16;
const CHANNELS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// PageRank on DIMM-Link: bound by the serial epoch coordinator
    /// (link reservations and polling-proxy forwarding).
    PrDl,
    /// K-Means on DIMM-Link: bound by the partition-local event loop
    /// (cores, caches, memory controllers, trace replay).
    KmDl,
}

impl Bench {
    pub const ALL: [Bench; 2] = [Bench::PrDl, Bench::KmDl];

    pub fn name(self) -> &'static str {
        match self {
            Bench::PrDl => "pr-dl",
            Bench::KmDl => "km-dl",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    fn kind(self) -> WorkloadKind {
        match self {
            Bench::PrDl => WorkloadKind::Pagerank,
            Bench::KmDl => WorkloadKind::KMeans,
        }
    }
}

/// Parameters of the host-shaped twin of a workload: 16 threads over the
/// host's 8 channels, the same total work as the NMP build.
fn host_params(seed: u64) -> WorkloadParams {
    let host = dimm_link::HostConfig::xeon_16core();
    WorkloadParams {
        dimms: host.channels,
        threads_per_dimm: host.cores / host.channels,
        scale: SCALE,
        seed,
        ..WorkloadParams::evaluation(host.channels)
    }
}

/// Everything a workload's simulation calls read. The program sees only
/// these generated inputs.
pub struct Inputs {
    pub bench: Bench,
    pub cfg: SystemConfig,
    pub nmp: Workload,
}

impl Inputs {
    /// Builds the inputs for `seed`, recording `workloads.*` spans.
    pub fn build(bench: Bench, seed: u64, tr: &mut Tracer) -> Inputs {
        let params = WorkloadParams {
            scale: SCALE,
            seed,
            ..WorkloadParams::evaluation(DIMMS)
        };
        let s = tr.enter("workloads.build");
        let nmp = bench.kind().build(&params);
        tr.exit(s);
        let mut cfg = SystemConfig::nmp(DIMMS, CHANNELS).with_idc(IdcKind::DimmLink);
        cfg.seed = seed;
        Inputs { bench, cfg, nmp }
    }

    /// Constructs the simulated system once (the rest of set-up) and
    /// returns its lookahead.
    pub fn construct(&self, tr: &mut Tracer) -> Ps {
        let s = tr.enter("system.new");
        let sys = NmpSystem::new(&self.nmp, &self.cfg, &natural_placement(&self.nmp), None);
        tr.exit(s);
        sys.lookahead()
    }

    /// Whether `other` holds exactly the same generated inputs.
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.nmp.traces() == other.nmp.traces() && self.nmp.home_dimm() == other.nmp.home_dimm()
    }

    /// Trace ops one simulation call replays.
    pub fn trace_ops(&self) -> u64 {
        self.nmp.total_ops()
    }

    /// The workload's simulation call through the runner's entry point.
    pub fn run(&self) -> Outcome {
        let r = simulate(&self.nmp, &self.cfg);
        Outcome {
            elapsed: r.elapsed,
            status: r.status,
            stats: r.stats,
        }
    }

    /// The same simulation as [`Inputs::run`], made through the layers the
    /// runner calls, with a span around each call. The result must carry
    /// the same fingerprint as [`Inputs::run`].
    pub fn run_layered(&self, tr: &mut Tracer) -> Outcome {
        let s = tr.enter("system.new");
        let sys = NmpSystem::new(&self.nmp, &self.cfg, &natural_placement(&self.nmp), None);
        tr.exit(s);
        let s = tr.enter("system.run");
        let raw = sys.run();
        tr.exit(s);
        Outcome {
            elapsed: raw.elapsed,
            status: raw.status,
            stats: raw.stats,
        }
    }

    /// Algorithm 1's first two steps, as `simulate_optimized` takes them:
    /// a profiling run over a prefix of each trace on a random placement,
    /// then the min-cost max-flow placement.
    pub fn place_optimized(&self, tr: &mut Tracer) -> (dimm_link::system::RawRun, Vec<usize>) {
        let s = tr.enter("placement.profile_run");
        let start = random_placement(&self.nmp, &self.cfg, self.cfg.seed);
        let max_len = self.nmp.traces().iter().map(|t| t.len()).max().unwrap_or(0);
        let limit = ((max_len as f64 * self.cfg.profile_fraction) as usize).max(32);
        let profile = NmpSystem::new(&self.nmp, &self.cfg, &start, Some(limit)).run();
        tr.exit(s);
        let s = tr.enter("placement.solve");
        let placement = optimized_placement(&self.cfg, &profile);
        tr.exit(s);
        (profile, placement)
    }

    /// Builds the host-shaped twin of this workload and runs the 16-core
    /// host baseline on it.
    pub fn host_baseline_aside(&self, tr: &mut Tracer) -> HostRun {
        let s = tr.enter("workloads.build_host");
        let w = self.bench.kind().build(&host_params(self.cfg.seed));
        tr.exit(s);
        let s = tr.enter("host_sim.run");
        let r = host_baseline_for(&w);
        tr.exit(s);
        r
    }
}

/// What a workload's simulation call produced.
#[derive(Debug)]
pub struct Outcome {
    /// Simulated end-to-end time.
    pub elapsed: Ps,
    pub status: RunStatus,
    pub stats: StatSet,
}

impl Outcome {
    /// FNV-1a over the simulated time, the status and every statistic. A
    /// change that only speeds up the simulator keeps it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.elapsed.as_ps().to_le_bytes());
        for (k, v) in self.stats.iter() {
            eat(k.as_bytes());
            eat(&v.to_bits().to_le_bytes());
        }
        eat(format!("{:?}", self.status).as_bytes());
        h
    }

    /// Checks what a correct run must satisfy on its own.
    pub fn check(&self) -> Result<(), String> {
        if self.status != RunStatus::Completed {
            return Err(format!("run ended {:?}", self.status));
        }
        if self.elapsed == Ps::ZERO || self.stats.get("events_scheduled").unwrap_or(0.0) <= 0.0 {
            return Err("run simulated nothing".into());
        }
        let bytes = ["local", "link", "fwd", "bus"]
            .map(|k| self.stats.get(&format!("traffic.{k}_bytes")).unwrap_or(0.0));
        let total: f64 = bytes.iter().sum();
        let fractions: f64 = bytes.iter().map(|b| b / total).sum();
        // NaN (no traffic at all) fails too.
        let sums_to_one = (fractions - 1.0).abs() < 1e-9;
        if !sums_to_one {
            return Err(format!("traffic fractions sum to {fractions}"));
        }
        Ok(())
    }
}

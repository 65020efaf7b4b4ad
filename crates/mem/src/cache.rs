//! Set-associative write-back caches.
//!
//! Used for the NMP cores' private L1s, the per-DIMM shared L2 (128 KB in the
//! paper's configuration) and the host LLC. Coherence follows the paper's
//! software-assisted scheme: shared read-write data is accessed with
//! `cacheable = false` and bypasses these structures entirely, so the cache
//! model never needs invalidation traffic.

use dl_engine::stats::StatSet;
use serde::Serialize;

/// Cache geometry and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in the owning core's cycles.
    pub hit_latency_cycles: u32,
}

impl CacheConfig {
    /// A 32 KB, 8-way, 64 B-line L1 with 2-cycle hits.
    pub const fn l1_32k() -> Self {
        CacheConfig {
            capacity_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency_cycles: 2,
        }
    }

    /// The paper's 128 KB shared L2 (8-way, 10-cycle hits).
    pub const fn l2_128k() -> Self {
        CacheConfig {
            capacity_bytes: 128 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency_cycles: 10,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("line_bytes must be a non-zero power of two".into());
        }
        if self.ways == 0 {
            return Err("ways must be >= 1".into());
        }
        if !self
            .capacity_bytes
            .is_multiple_of(self.ways * self.line_bytes)
        {
            return Err("capacity must be divisible by ways * line_bytes".into());
        }
        let sets = self.sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "set count must be a non-zero power of two, got {sets}"
            ));
        }
        Ok(())
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled. If a dirty victim was
    /// evicted, its line-aligned address must be written back.
    Miss {
        /// Dirty victim to write back, if any.
        writeback: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use dl_mem::{Cache, CacheConfig, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::l1_32k());
/// assert!(matches!(c.access(0x1000, false), CacheOutcome::Miss { .. }));
/// assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1030, true), CacheOutcome::Hit); // same 64 B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    /// log2 of the set count: the line-address bits below the tag.
    set_shift: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        Cache {
            lines: vec![Line::default(); (cfg.sets() * cfg.ways) as usize],
            set_mask: (cfg.sets() - 1) as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: cfg.sets().trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            cfg,
        }
    }

    /// The set `addr` maps to and its tag within the set.
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        (set, line_addr >> self.set_shift)
    }

    /// Accesses `addr` if its line is present: touches the line, marks it
    /// dirty on a write, counts the hit and returns `true`. A miss changes
    /// nothing: no LRU, dirty, hit/miss or allocation state.
    pub fn hit(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.cfg.ways as usize;
        let Some(line) = self.lines[set * ways..(set + 1) * ways]
            .iter_mut()
            .find(|line| line.valid && line.tag == tag)
        else {
            return false;
        };
        self.tick += 1;
        line.lru = self.tick;
        line.dirty |= is_write;
        self.hits += 1;
        true
    }

    /// Accesses `addr`; on a miss, allocates the line (write-allocate).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        if self.hit(addr, is_write) {
            return CacheOutcome::Hit;
        }
        CacheOutcome::Miss {
            writeback: self.fill(addr, is_write),
        }
    }

    /// Allocates the line of `addr`, which must be absent (a [`Cache::hit`]
    /// just missed), and counts the miss: evicts an invalid way first, else
    /// the least recent, and returns the dirty victim's address, if any.
    /// [`Cache::access`] is `hit`, then `fill` on a miss.
    pub fn fill(&mut self, addr: u64, is_write: bool) -> Option<u64> {
        self.tick += 1;
        self.misses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        let victim = (base..base + ways)
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid {
                    (1, l.lru)
                } else {
                    (0, 0)
                }
            })
            .expect("ways >= 1");
        let line = &mut self.lines[victim];
        let writeback = if line.valid && line.dirty {
            self.writebacks += 1;
            // Reconstruct victim line address.
            let victim_line = (line.tag << self.set_shift) | set as u64;
            Some(victim_line << self.line_shift)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        writeback
    }

    /// Fraction of accesses that hit.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Exports counters as named statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("hits", self.hits as f64);
        s.set("misses", self.misses as f64);
        s.set("writebacks", self.writebacks as f64);
        s.set("hit_rate", self.hit_rate());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_presets_are_valid() {
        for cfg in [CacheConfig::l1_32k(), CacheConfig::l2_128k()] {
            cfg.validate().unwrap();
            assert!(cfg.sets().is_power_of_two());
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = CacheConfig::l1_32k();
        c.ways = 0;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1_32k();
        c.line_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = CacheConfig::l1_32k();
        c.capacity_bytes = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        assert!(matches!(
            c.access(0, false),
            CacheOutcome::Miss { writeback: None }
        ));
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert_eq!(c.access(63, false), CacheOutcome::Hit);
        assert!(matches!(c.access(64, false), CacheOutcome::Miss { .. }));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way tiny cache: 2 sets of 2 ways, 64 B lines.
        let cfg = CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        let set_stride = 128; // two sets * 64 B
        c.access(0, false); // set 0, A
        c.access(set_stride as u64, false); // set 0, B
        c.access(0, false); // touch A -> B is LRU
        c.access(2 * set_stride as u64, false); // evicts B
        assert_eq!(c.access(0, false), CacheOutcome::Hit);
        assert!(matches!(
            c.access(set_stride as u64, false),
            CacheOutcome::Miss { .. }
        ));
    }

    #[test]
    fn a_failed_hit_changes_no_lru_dirty_or_hit_state() {
        // 2 sets of 2 ways, 64 B lines: 0, 128 and 256 share set 0.
        let cfg = CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(0, false); // clean A
        c.access(128, true); // dirty B, now most recent
        let before = format!("{:?}", c.stats());
        for _ in 0..3 {
            assert!(!c.hit(256, true), "absent");
        }
        assert_eq!(format!("{:?}", c.stats()), before, "no hit/miss counted");
        assert!(!c.hit(256, false), "a failed hit allocates nothing");
        // A stays least recent and clean: it is evicted without a writeback.
        assert_eq!(c.access(256, false), CacheOutcome::Miss { writeback: None });
        assert!(!c.hit(0, false));
        // B is still dirty: evicting it writes it back.
        assert_eq!(
            c.access(0, false),
            CacheOutcome::Miss {
                writeback: Some(128)
            }
        );
    }

    /// `access` before the one-search hit path, kept as the oracle of
    /// `hit` followed by the miss fill.
    fn access_reference(c: &mut Cache, addr: u64, is_write: bool) -> CacheOutcome {
        c.tick += 1;
        let tick = c.tick;
        let line_addr = addr >> c.line_shift;
        let set = (line_addr & c.set_mask) as usize;
        let tag = line_addr >> c.set_mask.count_ones();
        let ways = c.cfg.ways as usize;
        let base = set * ways;
        for i in base..base + ways {
            let line = &mut c.lines[i];
            if line.valid && line.tag == tag {
                line.lru = tick;
                line.dirty |= is_write;
                c.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        c.misses += 1;
        let victim = (base..base + ways)
            .min_by_key(|&i| {
                let l = &c.lines[i];
                if l.valid {
                    (1, l.lru)
                } else {
                    (0, 0)
                }
            })
            .expect("ways >= 1");
        let line = &mut c.lines[victim];
        let writeback = if line.valid && line.dirty {
            c.writebacks += 1;
            let victim_line = (line.tag << c.set_mask.count_ones()) | set as u64;
            Some(victim_line << c.line_shift)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: tick,
        };
        CacheOutcome::Miss { writeback }
    }

    /// Property: on seeded streams over a few times each geometry's
    /// capacity, `hit` then the miss fill gives the reference `access`'s
    /// outcome, writeback and hit/miss/writeback counts on every access,
    /// whether the caller asks `hit` first or goes straight to `access`.
    #[test]
    fn hit_then_fill_matches_the_reference_access() {
        for cfg in [CacheConfig::l1_32k(), CacheConfig::l2_128k()] {
            for seed in 0..8 {
                let mut rng = dl_engine::DetRng::seed(seed);
                let (mut new, mut old) = (Cache::new(cfg), Cache::new(cfg));
                let span = u64::from(cfg.capacity_bytes) * 3;
                for _ in 0..20_000 {
                    let addr = rng.below(span) + (rng.below(4) << 40);
                    let is_write = rng.chance(0.3);
                    let got = if rng.chance(0.5) && new.hit(addr, is_write) {
                        CacheOutcome::Hit
                    } else {
                        new.access(addr, is_write)
                    };
                    assert_eq!(got, access_reference(&mut old, addr, is_write));
                }
                assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()));
                assert!(new.hits > 0 && new.writebacks > 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let cfg = CacheConfig {
            capacity_bytes: 128,
            ways: 1,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(0x80, true); // set 0 (two sets: bit 6 selects), dirty
        match c.access(0x180, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x80)),
            CacheOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn capacity_thrash_misses() {
        let cfg = CacheConfig::l1_32k();
        let mut c = Cache::new(cfg);
        // Touch 2x capacity sequentially, twice: second pass still misses
        // (LRU with a working set 2x the capacity).
        let lines = (2 * cfg.capacity_bytes / cfg.line_bytes) as u64;
        for pass in 0..2 {
            for i in 0..lines {
                let out = c.access(i * 64, false);
                assert!(
                    matches!(out, CacheOutcome::Miss { .. }),
                    "pass {pass} line {i} unexpectedly hit"
                );
            }
        }
    }
}

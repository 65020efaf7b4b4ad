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

    /// The host baseline's shared 512 KB, 16-way LLC with 35-cycle hits.
    pub const fn llc_512k() -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            ways: 16,
            line_bytes: 64,
            hit_latency_cycles: 35,
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
        if self.ways > 16 {
            return Err(format!(
                "ways must be <= 16 (a set's recency word holds 16 4-bit way indices), got {}",
                self.ways
            ));
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

/// The tag of an empty way. A line address shifted right by the set bits
/// never reaches it unless the cache has one set of 1-byte lines and the
/// access is to the last byte of the address space.
const INVALID: u64 = u64::MAX;
/// A one in every nibble of a recency word.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;
/// The top bit of every nibble of a recency word.
const NIBBLE_TOPS: u64 = 0x8888_8888_8888_8888;

/// A set-associative, write-back, write-allocate cache with exact LRU
/// replacement.
///
/// A way holds only its 8-byte tag (`u64::MAX` if empty), so a set's tags
/// are one row (64 B at 8 ways). Each set keeps one recency word, its way
/// indices as 4-bit nibbles from the most recent (the low nibble) to the
/// least recent (nibble `ways - 1`), and a mask of its dirty ways. The
/// word starts as `ways-1 … 1 0` from most to least recent and a hit never
/// touches an empty way, so the empty ways sit at the least-recent end in
/// index order: a fill takes the lowest empty way, else the least recent.
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
    /// `ways` tags per set, set after set.
    tags: Vec<u64>,
    /// Per set: the ways in recency order, one nibble each, most recent low.
    recency: Vec<u64>,
    /// Per set: bit `w` is set when way `w` holds a dirty line.
    dirty: Vec<u16>,
    set_mask: u64,
    line_shift: u32,
    /// log2 of the set count: the line-address bits below the tag.
    set_shift: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// `order` with its nibble at bit `shift`, which holds `way`, moved to the
/// front and the nibbles below it moved one place back.
fn to_front(order: u64, shift: u32, way: u64) -> u64 {
    let below = (1u64 << shift) - 1;
    (order & !((below << 4) | 0xF)) | ((order & below) << 4) | way
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache configuration");
        let sets = cfg.sets() as usize;
        let fill_order = (0..u64::from(cfg.ways)).fold(0, |word, way| (word << 4) | way);
        Cache {
            tags: vec![INVALID; sets * cfg.ways as usize],
            recency: vec![fill_order; sets],
            dirty: vec![0; sets],
            set_mask: (cfg.sets() - 1) as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: cfg.sets().trailing_zeros(),
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
        let tag = line_addr >> self.set_shift;
        debug_assert_ne!(tag, INVALID, "address {addr:#x} has the empty tag");
        (set, tag)
    }

    /// Accesses `addr` if its line is present: touches the line, marks it
    /// dirty on a write, counts the hit and returns `true`. A miss changes
    /// nothing: no LRU, dirty, hit/miss or allocation state.
    pub fn hit(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.cfg.ways as usize;
        let row = &self.tags[set * ways..(set + 1) * ways];
        let order = self.recency[set];
        // Most hits go to the most recent way (98 % of K-Means' and 81 % of
        // PageRank's at scale 14), and such a hit leaves the word as it is:
        // probing that way first skips the row search.
        let mru = (order & 0xF) as usize;
        let way = if row[mru] == tag {
            mru
        } else {
            let Some(way) = row.iter().position(|&t| t == tag) else {
                return false;
            };
            // `way`'s nibble is the lowest zero nibble of `x`: a borrow can
            // only flag nibbles above a zero one.
            let x = order ^ (way as u64 * NIBBLE_ONES);
            let flags = x.wrapping_sub(NIBBLE_ONES) & !x & NIBBLE_TOPS;
            self.recency[set] = to_front(order, flags.trailing_zeros() - 3, way as u64);
            way
        };
        if is_write {
            self.dirty[set] |= 1 << way;
        }
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
        self.misses += 1;
        let (set, tag) = self.set_and_tag(addr);
        let lru_shift = 4 * (self.cfg.ways - 1);
        let order = self.recency[set];
        let way = (order >> lru_shift) & 0xF;
        self.recency[set] = to_front(order, lru_shift, way);
        let victim = std::mem::replace(
            &mut self.tags[set * self.cfg.ways as usize + way as usize],
            tag,
        );
        let bit = 1u16 << way;
        let writeback = (self.dirty[set] & bit != 0).then(|| {
            self.writebacks += 1;
            ((victim << self.set_shift) | set as u64) << self.line_shift
        });
        self.dirty[set] = (self.dirty[set] & !bit) | (u16::from(is_write) << way);
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
        for cfg in [
            CacheConfig::l1_32k(),
            CacheConfig::l2_128k(),
            CacheConfig::llc_512k(),
        ] {
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

    /// The cache before the recency words: 24-byte lines with a valid and
    /// a dirty flag and a global access stamp, evicting the first invalid
    /// way, else the smallest stamp. The oracle of [`Cache`].
    struct ReferenceCache {
        ways: usize,
        lines: Vec<ReferenceLine>,
        set_mask: u64,
        line_shift: u32,
        set_shift: u32,
        tick: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    #[derive(Clone, Copy, Default)]
    struct ReferenceLine {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    impl ReferenceCache {
        fn new(cfg: CacheConfig) -> Self {
            ReferenceCache {
                ways: cfg.ways as usize,
                lines: vec![ReferenceLine::default(); (cfg.sets() * cfg.ways) as usize],
                set_mask: u64::from(cfg.sets() - 1),
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_shift: cfg.sets().trailing_zeros(),
                tick: 0,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
            self.tick += 1;
            let line_addr = addr >> self.line_shift;
            let set = (line_addr & self.set_mask) as usize;
            let tag = line_addr >> self.set_shift;
            let set_lines = &mut self.lines[set * self.ways..(set + 1) * self.ways];
            if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = self.tick;
                line.dirty |= is_write;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
            self.misses += 1;
            let line = set_lines
                .iter_mut()
                .min_by_key(|l| if l.valid { (1, l.lru) } else { (0, 0) })
                .expect("ways >= 1");
            let writeback = (line.valid && line.dirty).then(|| {
                self.writebacks += 1;
                ((line.tag << self.set_shift) | set as u64) << self.line_shift
            });
            *line = ReferenceLine {
                tag,
                valid: true,
                dirty: is_write,
                lru: self.tick,
            };
            CacheOutcome::Miss { writeback }
        }
    }

    /// Property: on seeded streams over a few times each geometry's
    /// capacity, the cache gives the reference cache's outcome, writeback
    /// and hit/miss/writeback counts on every access, whether the caller
    /// goes straight to `access`, asks `hit` and fills on a miss, or asks
    /// `hit` and then calls `access` on a miss. The geometries cover 1, 2,
    /// 8 and 16 ways.
    #[test]
    fn hit_then_fill_matches_the_reference_access() {
        let tiny = |capacity_bytes, ways| CacheConfig {
            capacity_bytes,
            ways,
            line_bytes: 64,
            hit_latency_cycles: 1,
        };
        for cfg in [
            tiny(128, 1),
            tiny(256, 2),
            CacheConfig::l1_32k(),
            CacheConfig::l2_128k(),
            CacheConfig::llc_512k(),
        ] {
            let lines = u64::from(cfg.capacity_bytes / cfg.line_bytes);
            for seed in 0..8 {
                let mut rng = dl_engine::DetRng::seed(seed);
                let (mut cache, mut reference) = (Cache::new(cfg), ReferenceCache::new(cfg));
                let span = u64::from(cfg.capacity_bytes) * 3;
                for _ in 0..(lines * 8).max(20_000) {
                    let addr = rng.below(span) + (rng.below(4) << 40);
                    let is_write = rng.chance(0.3);
                    let got = match rng.below(3) {
                        0 => cache.access(addr, is_write),
                        1 if cache.hit(addr, is_write) => CacheOutcome::Hit,
                        1 => CacheOutcome::Miss {
                            writeback: cache.fill(addr, is_write),
                        },
                        _ if cache.hit(addr, is_write) => CacheOutcome::Hit,
                        _ => cache.access(addr, is_write),
                    };
                    assert_eq!(got, reference.access(addr, is_write), "{cfg:?} seed {seed}");
                    assert_eq!(
                        (cache.hits, cache.misses, cache.writebacks),
                        (reference.hits, reference.misses, reference.writebacks)
                    );
                }
                assert!(
                    cache.hits > 0 && cache.writebacks > 0,
                    "{cfg:?} seed {seed}"
                );
            }
        }
    }

    /// Heap bytes a cache holds per line. The exhaustive pattern makes a
    /// new field fail to compile here until it is counted.
    fn heap_bytes_per_line(c: &Cache) -> f64 {
        let Cache {
            cfg,
            tags,
            recency,
            dirty,
            set_mask: _,
            line_shift: _,
            set_shift: _,
            hits: _,
            misses: _,
            writebacks: _,
        } = c;
        let bytes = std::mem::size_of::<u64>() * (tags.capacity() + recency.capacity())
            + std::mem::size_of::<u16>() * dirty.capacity();
        bytes as f64 / f64::from(cfg.capacity_bytes / cfg.line_bytes)
    }

    #[test]
    fn a_line_costs_at_most_ten_heap_bytes() {
        for cfg in [CacheConfig::l1_32k(), CacheConfig::l2_128k()] {
            let per_line = heap_bytes_per_line(&Cache::new(cfg));
            assert!(per_line <= 10.0, "{cfg:?}: {per_line} B per line");
        }
    }

    #[test]
    fn validate_caps_ways_at_the_recency_word() {
        let mut c = CacheConfig::llc_512k();
        c.validate().unwrap();
        c.ways = 32;
        let err = c.validate().unwrap_err();
        assert!(err.contains("ways must be <= 16"), "{err}");
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

//! Contended, utilization-tracked resources.
//!
//! Memory channels, the AIM dedicated bus, and DIMM-Link SerDes links are all
//! modelled as shared resources: a transfer occupies the resource for a
//! duration; overlapping transfers queue. The resource additionally
//! integrates its busy time, which is how the paper's "memory bus
//! occupation" metric (Fig. 15-b) is measured.
//!
//! Scheduling is **work-conserving** (gap-filling): a reservation starts at
//! the earliest instant at or after its request time with enough idle
//! capacity. This matters because multi-stage transactions (read a channel,
//! cross the host, write another channel) reserve later stages at future
//! times; a naive single-cursor FIFO would permanently waste the idle gap in
//! front of every future reservation, silently serializing pipelined
//! traffic.

use crate::time::Ps;
use std::collections::VecDeque;

/// Reservations older than this (relative to the newest request time) are
/// pruned; requests are assumed never to arrive more than this far in the
/// past (event-driven callers are near-time-ordered).
const RETENTION: Ps = Ps::from_us(50);

/// A shared, capacity-1 resource (bus, link, port) with gap-filling
/// reservation.
///
/// A reservation costs a search from the tail for the first busy interval
/// ending after the request time, plus a step over each busy interval the
/// request overlaps before it finds room, plus the insertion of the result
/// (found by the same tail search). The intervals behind the request time
/// are never visited, so a retention window full of standing polls does not
/// slow down a request near its tail.
///
/// # Examples
///
/// ```
/// use dl_engine::{Resource, Ps};
///
/// let mut bus = Resource::new("memory-bus");
/// let first = bus.reserve(Ps::from_ns(0), Ps::from_ns(10));
/// assert_eq!(first, Ps::from_ns(10));
/// // A transfer requested at t=5 queues behind the first one.
/// let second = bus.reserve(Ps::from_ns(5), Ps::from_ns(10));
/// assert_eq!(second, Ps::from_ns(20));
/// assert_eq!(bus.busy_time(), Ps::from_ns(20));
/// // A reservation far in the future leaves the gap usable:
/// bus.reserve(Ps::from_us(1), Ps::from_ns(10));
/// let gap_fill = bus.reserve(Ps::from_ns(20), Ps::from_ns(10));
/// assert_eq!(gap_fill, Ps::from_ns(30));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    /// Sorted, disjoint busy intervals `[start, end)`.
    intervals: VecDeque<(Ps, Ps)>,
    /// Segment buffer of [`Resource::reserve_split_with_start`], kept
    /// between calls so a split reservation allocates nothing.
    segments: Vec<(Ps, Ps)>,
    /// Largest request time seen (drives pruning).
    high_water: Ps,
    /// End of the latest busy interval ever pruned: the schedule before
    /// this instant is forgotten, including its idle gaps.
    pruned_until: Ps,
    busy: Ps,
    reservations: u64,
    /// Reservations requested before [`Resource::pruned_until`]. The idle
    /// gaps such a request could have filled are already discarded, so it
    /// is scheduled pessimistically (possibly later than a perfect
    /// schedule would allow). Always zero in a well-behaved simulation.
    out_of_window: u64,
}

impl Resource {
    /// Creates an idle resource with a diagnostic `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            intervals: VecDeque::new(),
            segments: Vec::new(),
            high_water: Ps::ZERO,
            pruned_until: Ps::ZERO,
            busy: Ps::ZERO,
            reservations: 0,
            out_of_window: 0,
        }
    }

    /// Reserves the resource for `dur`, starting at the earliest idle gap at
    /// or after `now`. Returns the completion time.
    pub fn reserve(&mut self, now: Ps, dur: Ps) -> Ps {
        self.reserve_with_start(now, dur).1
    }

    /// Like [`Resource::reserve`] but also returns the start time, which is
    /// useful when the caller needs the queueing delay separately.
    pub fn reserve_with_start(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
        self.busy += dur;
        self.reservations += 1;
        self.high_water = self.high_water.max(now);
        self.prune();
        self.check_window(now);
        if dur == Ps::ZERO {
            return (now, now);
        }
        // Find the first gap of length >= dur starting at or after `now`.
        // Ends are sorted (the intervals are sorted and disjoint), so every
        // interval from `first` on ends after the candidate start.
        let first = self.first_ending_after(now);
        let mut start = now;
        for &(s, e) in self.intervals.range(first..) {
            if s >= start + dur {
                break;
            }
            start = e;
        }
        let end = start + dur;
        self.insert_interval(start, end);
        (start, end)
    }

    /// Like [`reserve_with_start`](Resource::reserve_with_start), but the
    /// occupancy may **split across idle gaps** instead of requiring one
    /// contiguous slot: the work starts in the earliest idle instant at or
    /// after `now` and fills forward, skipping already-reserved intervals,
    /// until `dur` of idle time is consumed.
    ///
    /// Returns `(start_of_first_segment, end_of_last_segment)`.
    ///
    /// This models resources that time-multiplex at fine granularity
    /// (flit-interleaved links with virtual-channel buffers): a short
    /// transfer requested early is not forced to queue behind a long
    /// reservation whose traffic arrives later, which is exactly how a
    /// contiguous-slot model diverges from cycle-accurate wormhole routing
    /// under contention.
    pub fn reserve_split_with_start(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
        self.busy += dur;
        self.reservations += 1;
        self.high_water = self.high_water.max(now);
        self.prune();
        self.check_window(now);
        if dur == Ps::ZERO {
            return (now, now);
        }
        // Every interval from `idx` on ends after the cursor: true for
        // `first_ending_after(now)`, and kept by each step below (intervals
        // are non-empty, disjoint and sorted).
        let mut idx = self.first_ending_after(now);
        let mut remaining = dur;
        let mut cursor = now;
        let mut segments = std::mem::take(&mut self.segments);
        while remaining > Ps::ZERO {
            match self.intervals.get(idx) {
                Some(&(s, e)) if s <= cursor => {
                    // Cursor sits inside a busy interval: hop over it.
                    cursor = e;
                    idx += 1;
                }
                next => {
                    let gap_end = next.map_or(Ps::MAX, |&(s, _)| s);
                    let take = remaining.min(gap_end - cursor);
                    segments.push((cursor, cursor + take));
                    remaining -= take;
                    cursor = gap_end;
                }
            }
        }
        let start = segments[0].0;
        let end = segments[segments.len() - 1].1;
        for &(s, e) in &segments {
            self.insert_interval(s, e);
        }
        segments.clear();
        self.segments = segments;
        (start, end)
    }

    /// Index of the first busy interval ending after `now`: the intervals
    /// before it lie wholly behind a request at `now` and cannot affect
    /// where it is placed.
    fn first_ending_after(&self, now: Ps) -> usize {
        tail_partition_point(&self.intervals, |&(_, e)| e <= now)
    }

    /// Inserts busy interval `[start, end)`, merging with neighbours.
    ///
    /// Under `feature = "audit"`, panics if the interval strictly overlaps
    /// an existing reservation: this is a capacity-1 resource, so both
    /// reservation paths place work in idle gaps only, and an overlap means
    /// the schedule was double-booked.
    fn insert_interval(&mut self, start: Ps, end: Ps) {
        #[cfg(feature = "audit")]
        for &(s, e) in self.intervals.iter() {
            assert!(
                e <= start || end <= s,
                "resource '{}': reservation [{start}, {end}) overlaps busy [{s}, {e}) — \
                 capacity-1 schedule double-booked",
                self.name
            );
        }
        let mut pos = tail_partition_point(&self.intervals, |&(s, _)| s < start);
        // Walk back over intervals that touch `start`.
        while pos > 0 && self.intervals[pos - 1].1 >= start {
            pos -= 1;
        }
        let mut new_s = start;
        let mut new_e = end;
        while pos < self.intervals.len() && self.intervals[pos].0 <= new_e {
            let (s, e) = self.intervals[pos];
            if e < new_s {
                pos += 1;
                continue;
            }
            new_s = new_s.min(s);
            new_e = new_e.max(e);
            self.intervals.remove(pos);
        }
        self.intervals.insert(pos, (new_s, new_e));
    }

    fn prune(&mut self) {
        let watermark = self.high_water.saturating_sub(RETENTION);
        while let Some(&(_, e)) = self.intervals.front() {
            if e < watermark && self.intervals.len() > 1 {
                self.intervals.pop_front();
                self.pruned_until = self.pruned_until.max(e);
            } else {
                break;
            }
        }
    }

    /// Forgets the busy intervals that end at or before `now`, all but the
    /// latest, for a caller that promises to request nothing before `now`
    /// again: no such request's placement looks at them. A request that
    /// breaks the promise counts in
    /// [`out_of_window`](Resource::out_of_window).
    pub fn forget_until(&mut self, now: Ps) {
        while self.intervals.len() > 1 && self.intervals[0].1 <= now {
            let (_, e) = self.intervals.pop_front().expect("a busy interval");
            self.pruned_until = self.pruned_until.max(e);
        }
    }

    /// Contract check: a request predating the pruned schedule horizon may
    /// have lost the idle gap it would have filled — the reservation is
    /// still scheduled, but possibly later than the true gap-filling
    /// schedule. Catch that loudly instead of silently.
    fn check_window(&mut self, now: Ps) {
        if now < self.pruned_until {
            self.out_of_window += 1;
            // The audit build makes this a hard error even with
            // debug_assertions off; otherwise debug builds assert and
            // release builds count (telemetry for long sweeps).
            #[cfg(feature = "audit")]
            panic!(
                "resource '{}': reservation requested at {now} predates the \
                 pruned schedule horizon {} — idle gaps it could have filled \
                 were already discarded, so it may be mis-scheduled",
                self.name, self.pruned_until
            );
            #[cfg(not(feature = "audit"))]
            debug_assert!(
                false,
                "resource '{}': reservation requested at {now} predates the \
                 pruned schedule horizon {} — idle gaps it could have filled \
                 were already discarded, so it may be mis-scheduled",
                self.name, self.pruned_until
            );
        }
    }

    /// The end of the last scheduled reservation (the time after which the
    /// resource is certainly idle).
    pub fn free_at(&self) -> Ps {
        self.intervals.back().map_or(Ps::ZERO, |&(_, e)| e)
    }

    /// Total time the resource has been occupied.
    pub fn busy_time(&self) -> Ps {
        self.busy
    }

    /// Number of reservations made so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Reservations requested before the pruned schedule horizon (intervals
    /// more than 50 µs older than the high-water mark, and those
    /// [`forget_until`](Resource::forget_until) drops, are discarded
    /// together with the idle gaps around them). Non-zero means
    /// some reservations may have been scheduled later than a perfect
    /// gap-filling schedule would allow; debug builds additionally
    /// `debug_assert!` on the first offence.
    pub fn out_of_window(&self) -> u64 {
        self.out_of_window
    }

    /// Fraction of `[0, total]` this resource was occupied.
    ///
    /// Returns 0 for a zero-length window.
    pub fn utilization(&self, total: Ps) -> f64 {
        if total == Ps::ZERO {
            0.0
        } else {
            self.busy.as_ps() as f64 / total.as_ps() as f64
        }
    }

    /// Counts `dur` of occupancy without scheduling it: used for work that
    /// provably happened during past idle time (e.g. backlogged polling
    /// periods) and therefore must contribute to utilization statistics but
    /// must not delay future reservations.
    pub fn account_busy(&mut self, dur: Ps) {
        self.busy += dur;
        self.reservations += 1;
    }
}

/// [`VecDeque::partition_point`], searched from the back: `pred` holds on a
/// prefix of `v`, and the result is the prefix's length. Requests land near
/// the newest reservations, so the search gallops back from the tail in
/// doubling steps and then bisects the last step. It costs O(log d) probes
/// for an answer d intervals from the tail, and one probe for the tail
/// itself, instead of a bisection of the whole retention window.
fn tail_partition_point<T>(v: &VecDeque<T>, pred: impl Fn(&T) -> bool) -> usize {
    // `pred` fails on every element from `hi` on, and holds below `lo`.
    let mut hi = v.len();
    let mut step = 1;
    let mut lo = loop {
        if hi == 0 {
            return 0;
        }
        let probe = hi.saturating_sub(step);
        if pred(&v[probe]) {
            break probe + 1;
        }
        hi = probe;
        step *= 2;
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&v[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A [`Resource`] with an associated bandwidth, reserving by transfer size.
///
/// # Examples
///
/// ```
/// use dl_engine::{BandwidthResource, Ps};
///
/// // A 25 GB/s DIMM-Link lane: 256 bytes take ~10.24 ns to serialize.
/// let mut link = BandwidthResource::new("dl-lane", 25_000_000_000);
/// let done = link.transfer(Ps::ZERO, 256);
/// assert_eq!(done, Ps::from_ps(10_240));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    inner: Resource,
    bytes_per_sec: u64,
    bytes_moved: u64,
}

impl BandwidthResource {
    /// Creates a resource moving `bytes_per_sec` bytes per second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(name: impl Into<String>, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
        BandwidthResource {
            inner: Resource::new(name),
            bytes_per_sec,
            bytes_moved: 0,
        }
    }

    /// Duration needed to move `bytes` at this resource's bandwidth
    /// (rounded up to a whole picosecond, minimum 1 ps for non-empty
    /// transfers).
    pub fn duration_of(&self, bytes: u64) -> Ps {
        if bytes == 0 {
            return Ps::ZERO;
        }
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(self.bytes_per_sec as u128);
        Ps::from_ps(ps as u64)
    }

    /// Reserves the resource to move `bytes` starting no earlier than `now`;
    /// returns the completion time.
    pub fn transfer(&mut self, now: Ps, bytes: u64) -> Ps {
        self.bytes_moved += bytes;
        let dur = self.duration_of(bytes);
        self.inner.reserve(now, dur)
    }

    /// Reserves for `bytes`, allowing the occupancy to split across idle
    /// gaps (see [`Resource::reserve_split_with_start`]); returns
    /// `(start_of_first_segment, end_of_last_segment)`.
    pub fn transfer_split_with_start(&mut self, now: Ps, bytes: u64) -> (Ps, Ps) {
        self.bytes_moved += bytes;
        let dur = self.duration_of(bytes);
        self.inner.reserve_split_with_start(now, dur)
    }

    /// Occupies the resource for a fixed duration unrelated to bandwidth
    /// (e.g. a polling register read on a memory channel).
    pub fn occupy(&mut self, now: Ps, dur: Ps) -> Ps {
        self.inner.reserve(now, dur)
    }

    /// See [`Resource::account_busy`].
    pub fn account_busy(&mut self, dur: Ps) {
        self.inner.account_busy(dur);
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// The earliest time a new reservation could start.
    pub fn free_at(&self) -> Ps {
        self.inner.free_at()
    }

    /// Total time occupied.
    pub fn busy_time(&self) -> Ps {
        self.inner.busy_time()
    }

    /// Fraction of `[0, total]` occupied.
    pub fn utilization(&self, total: Ps) -> f64 {
        self.inner.utilization(total)
    }

    /// Number of reservations made so far.
    pub fn reservations(&self) -> u64 {
        self.inner.reservations()
    }

    /// See [`Resource::out_of_window`].
    pub fn out_of_window(&self) -> u64 {
        self.inner.out_of_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    #[test]
    fn fifo_serialization() {
        let mut r = Resource::new("r");
        assert_eq!(r.reserve(Ps::from_ns(0), Ps::from_ns(4)), Ps::from_ns(4));
        assert_eq!(r.reserve(Ps::from_ns(1), Ps::from_ns(4)), Ps::from_ns(8));
        // A late request starts immediately once the resource is free.
        assert_eq!(
            r.reserve(Ps::from_ns(100), Ps::from_ns(1)),
            Ps::from_ns(101)
        );
        assert_eq!(r.reservations(), 3);
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(25));
        assert!((r.utilization(Ps::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Ps::ZERO), 0.0);
    }

    #[test]
    fn reserve_with_start_reports_queueing() {
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        let (start, end) = r.reserve_with_start(Ps::from_ns(2), Ps::from_ns(5));
        assert_eq!(start, Ps::from_ns(10));
        assert_eq!(end, Ps::from_ns(15));
    }

    #[test]
    fn bandwidth_duration_rounds_up() {
        let link = BandwidthResource::new("l", 1_000_000_000_000); // 1 byte/ps
        assert_eq!(link.duration_of(0), Ps::ZERO);
        assert_eq!(link.duration_of(7), Ps::from_ps(7));
        let slow = BandwidthResource::new("s", 3); // 3 bytes/sec
                                                   // 1 byte at 3 B/s = 333.33... ms, rounded up.
        assert_eq!(slow.duration_of(1), Ps::from_ps(333_333_333_334));
    }

    #[test]
    fn transfers_queue_and_count_bytes() {
        let mut link = BandwidthResource::new("l", 1_000_000_000_000);
        let a = link.transfer(Ps::ZERO, 100);
        let b = link.transfer(Ps::ZERO, 100);
        assert_eq!(a, Ps::from_ps(100));
        assert_eq!(b, Ps::from_ps(200));
        assert_eq!(link.bytes_moved(), 200);
    }

    #[test]
    fn gap_filling_backfills_idle_time() {
        let mut r = Resource::new("r");
        // A future reservation leaves the earlier gap usable.
        assert_eq!(
            r.reserve(Ps::from_ns(1000), Ps::from_ns(10)),
            Ps::from_ns(1010)
        );
        assert_eq!(r.reserve(Ps::from_ns(0), Ps::from_ns(10)), Ps::from_ns(10));
        // A gap too small is skipped.
        let end = r.reserve(Ps::from_ns(995), Ps::from_ns(10));
        assert_eq!(end, Ps::from_ns(1020));
        assert_eq!(r.busy_time(), Ps::from_ns(30));
    }

    #[test]
    fn pipelined_stages_do_not_serialize() {
        // The regression behind this design: stage-2 reservations at
        // now+offset must not consume the idle time before them.
        let mut r = Resource::new("cpu");
        let mut last = Ps::ZERO;
        for i in 0..100u64 {
            let stage2_at = Ps::from_ns(10 * i + 150);
            last = r.reserve(stage2_at, Ps::from_ns(5));
        }
        // 100 x 5 ns of work arriving every 10 ns: finishes ~ last arrival,
        // not 100 x 150 ns.
        assert!(
            last < Ps::from_ns(10 * 100 + 150 + 20),
            "serialized: {last}"
        );
    }

    #[test]
    fn account_busy_counts_without_scheduling() {
        let mut r = Resource::new("r");
        r.account_busy(Ps::from_ns(100));
        assert_eq!(r.busy_time(), Ps::from_ns(100));
        assert_eq!(r.free_at(), Ps::ZERO);
        assert_eq!(r.reserve(Ps::ZERO, Ps::from_ns(5)), Ps::from_ns(5));
    }

    #[test]
    fn adjacent_reservations_merge() {
        let mut r = Resource::new("r");
        for i in 0..1000u64 {
            r.reserve(Ps::from_ns(i), Ps::from_ns(1));
        }
        assert_eq!(r.free_at(), Ps::from_ns(1000));
        assert_eq!(r.busy_time(), Ps::from_ns(1000));
    }

    #[test]
    fn requests_inside_retention_window_are_in_contract() {
        // The documented contract: a request exactly RETENTION behind the
        // high-water mark is still in-window and schedules normally.
        let mut r = Resource::new("r");
        let far = Ps::from_us(200);
        r.reserve(far, Ps::from_ns(10));
        let edge = far.saturating_sub(RETENTION);
        let end = r.reserve(edge, Ps::from_ns(10));
        assert_eq!(end, edge + Ps::from_ns(10), "in-window gap fill");
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn late_requests_without_pruning_are_in_contract() {
        // Regression: a request far behind the high-water mark is fine as
        // long as nothing has been pruned — the full schedule (and its
        // gaps) is still known. The AIM dedicated bus hits this: one long
        // transfer pushes the high-water mark out, and the next request
        // still arrives at t=0.
        let mut r = Resource::new("aim-bus");
        r.reserve(Ps::ZERO, Ps::from_us(120));
        let end = r.reserve(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(end, Ps::from_us(120) + Ps::from_ns(10));
        assert_eq!(r.out_of_window(), 0);
    }

    // Requests predating the pruned schedule horizon violate the contract:
    // the gap they would fill is already discarded. Debug builds assert;
    // release builds count (telemetry for long sweeps).
    fn prune_then_request_before_horizon(r: &mut Resource) {
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        r.reserve(Ps::from_us(200), Ps::from_ns(10));
        // This call's prune discards [0, 10 ns) — then the request at 5 ns
        // lands before the pruned horizon.
        let _ = r.reserve(Ps::from_ns(5), Ps::from_ns(10));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pruned schedule horizon")]
    fn out_of_window_request_asserts_in_debug() {
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
    }

    #[test]
    #[cfg(all(not(debug_assertions), not(feature = "audit")))]
    fn out_of_window_request_is_counted_in_release() {
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
        assert_eq!(r.out_of_window(), 1);
    }

    #[test]
    #[cfg(feature = "audit")]
    #[should_panic(expected = "pruned schedule horizon")]
    fn audit_makes_out_of_window_a_hard_error() {
        // Unlike the plain build (debug_assert), the audit build panics
        // even with debug_assertions off.
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
    }

    #[test]
    #[cfg(feature = "audit")]
    #[should_panic(expected = "double-booked")]
    fn audit_catches_double_booking() {
        // No public path double-books (both reservation paths fill idle
        // gaps only) — drive the internal insert directly to prove the
        // auditor would catch a future scheduling bug.
        let mut r = Resource::new("r");
        r.insert_interval(Ps::from_ns(0), Ps::from_ns(10));
        r.insert_interval(Ps::from_ns(5), Ps::from_ns(7));
    }

    #[test]
    fn heavy_mixed_usage_stays_overlap_free() {
        // Exercised under the audit feature in CI: contiguous, split, and
        // gap-filling reservations interleaved must never double-book.
        let mut r = Resource::new("r");
        for i in 0..200u64 {
            r.reserve(Ps::from_ns(7 * i), Ps::from_ns(3));
            r.reserve_split_with_start(Ps::from_ns(5 * i), Ps::from_ns(2));
            r.reserve_with_start(Ps::from_ns(11 * i + 1), Ps::from_ns(1));
        }
        assert!(r.busy_time() > Ps::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = BandwidthResource::new("z", 0);
    }

    #[test]
    fn split_reservation_matches_contiguous_when_uncontended() {
        let mut a = Resource::new("a");
        let mut b = Resource::new("b");
        let plain = a.reserve_with_start(Ps::from_ns(3), Ps::from_ns(10));
        let split = b.reserve_split_with_start(Ps::from_ns(3), Ps::from_ns(10));
        assert_eq!(plain, split);
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn split_reservation_uses_gap_too_small_for_contiguous() {
        // A 10 ns transfer requested at t=0 against a busy window [6, 20):
        // contiguous scheduling must wait until 20; split scheduling starts
        // at 0, runs 6 ns, and finishes the remaining 4 ns after 20.
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(6), Ps::from_ns(14));
        let (start, end) = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(start, Ps::ZERO);
        assert_eq!(end, Ps::from_ns(24));
        // Occupancy is conserved: [0, 24) is now fully busy.
        assert_eq!(r.free_at(), Ps::from_ns(24));
        assert_eq!(r.busy_time(), Ps::from_ns(24));
    }

    #[test]
    fn split_reservation_spans_multiple_gaps() {
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(2), Ps::from_ns(2)); // busy [2, 4)
        r.reserve(Ps::from_ns(6), Ps::from_ns(2)); // busy [6, 8)
                                                   // 7 ns of work from t=0: gaps [0,2) + [4,6) + [8, 11).
        let (start, end) = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(7));
        assert_eq!(start, Ps::ZERO);
        assert_eq!(end, Ps::from_ns(11));
        assert_eq!(r.free_at(), Ps::from_ns(11));
    }

    #[test]
    fn split_reservation_zero_duration_is_noop() {
        let mut r = Resource::new("r");
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(5), Ps::ZERO);
        assert_eq!((s, e), (Ps::from_ns(5), Ps::from_ns(5)));
        assert_eq!(r.free_at(), Ps::ZERO);
    }

    #[test]
    fn split_zero_duration_inside_busy_interval_schedules_nothing() {
        // Edge case under the overlap auditor: a zero-length request whose
        // `now` lands inside a busy interval must not insert a degenerate
        // interval (which would look like a double-booking).
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(0), Ps::from_ns(10));
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(5), Ps::ZERO);
        assert_eq!((s, e), (Ps::from_ns(5), Ps::from_ns(5)));
        assert_eq!(r.free_at(), Ps::from_ns(10));
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn split_reservation_exactly_at_pruned_horizon_is_legal() {
        // The pruned-horizon contract is `now < pruned_until` = violation;
        // a request at exactly the horizon still sees every surviving gap
        // and must schedule normally (no panic under audit, no counter).
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        // Push the high-water mark far enough that prune() discards
        // [0, 10 ns): pruned_until becomes 10 ns.
        r.reserve(Ps::from_us(200), Ps::from_ns(10));
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(10), Ps::from_ns(5));
        assert_eq!((s, e), (Ps::from_ns(10), Ps::from_ns(15)));
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn fully_overlapping_split_requests_serialize() {
        // Two identical split requests: the second must queue entirely
        // behind the first (capacity 1), not share its segments. Under
        // `--features audit` the insert-time overlap assert also proves no
        // double-booking happened.
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(4), Ps::from_ns(4)); // busy [4, 8)
        let a = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(6));
        let b = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(6));
        // First: [0,4) + [8,10); second fills what's left: [10, 16).
        assert_eq!(a, (Ps::ZERO, Ps::from_ns(10)));
        assert_eq!(b, (Ps::from_ns(10), Ps::from_ns(16)));
        // Occupancy conserved: [0, 16) fully busy, 4+6+6 ns accounted.
        assert_eq!(r.free_at(), Ps::from_ns(16));
        assert_eq!(r.busy_time(), Ps::from_ns(16));
    }

    /// The scheduler before reservations started their scan at the request
    /// time: both paths walk the busy intervals from the front of the
    /// window. Kept only as the oracle of the differential test below.
    #[derive(Default)]
    struct FrontScan {
        intervals: Vec<(Ps, Ps)>,
        high_water: Ps,
        pruned_until: Ps,
        busy: Ps,
        out_of_window: u64,
    }

    impl FrontScan {
        fn admit(&mut self, now: Ps, dur: Ps) {
            self.busy += dur;
            self.high_water = self.high_water.max(now);
            let watermark = self.high_water.saturating_sub(RETENTION);
            while self.intervals.len() > 1 && self.intervals[0].1 < watermark {
                let (_, e) = self.intervals.remove(0);
                self.pruned_until = self.pruned_until.max(e);
            }
            if now < self.pruned_until {
                self.out_of_window += 1;
            }
        }

        fn insert(&mut self, start: Ps, end: Ps) {
            let mut i = self.intervals.partition_point(|&(s, _)| s < start);
            self.intervals.insert(i, (start, end));
            if i > 0 && self.intervals[i - 1].1 >= start {
                i -= 1;
            }
            while i + 1 < self.intervals.len() && self.intervals[i].1 >= self.intervals[i + 1].0 {
                self.intervals[i].1 = self.intervals[i].1.max(self.intervals[i + 1].1);
                self.intervals.remove(i + 1);
            }
        }

        fn reserve(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
            self.admit(now, dur);
            if dur == Ps::ZERO {
                return (now, now);
            }
            let mut start = now;
            for &(s, e) in &self.intervals {
                if e <= start {
                    continue;
                }
                if s >= start + dur {
                    break;
                }
                start = e;
            }
            self.insert(start, start + dur);
            (start, start + dur)
        }

        fn reserve_split(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
            self.admit(now, dur);
            if dur == Ps::ZERO {
                return (now, now);
            }
            let mut remaining = dur;
            let mut cursor = now;
            let mut segments: Vec<(Ps, Ps)> = Vec::new();
            let mut idx = 0;
            while remaining > Ps::ZERO {
                while idx < self.intervals.len() && self.intervals[idx].1 <= cursor {
                    idx += 1;
                }
                if idx < self.intervals.len() && self.intervals[idx].0 <= cursor {
                    cursor = self.intervals[idx].1;
                    idx += 1;
                    continue;
                }
                let gap_end = self.intervals.get(idx).map_or(Ps::MAX, |&(s, _)| s);
                let take = remaining.min(gap_end.saturating_sub(cursor));
                segments.push((cursor, cursor + take));
                remaining = remaining.saturating_sub(take);
                cursor = gap_end;
            }
            for &(s, e) in &segments {
                self.insert(s, e);
            }
            (segments[0].0, segments[segments.len() - 1].1)
        }
    }

    /// Drives a [`Resource`] and the front-scanning oracle with the same
    /// seeded request stream and requires identical schedules. Requests
    /// mix in-order arrivals, gap-filling arrivals in the past, arrivals
    /// exactly at the pruned horizon and pipelined arrivals in the future;
    /// each is contiguous or split, and some are zero-length. All times sit
    /// on a nanosecond grid, so requests often start or end exactly at an
    /// interval boundary. `step` bounds how many nanoseconds the clock
    /// advances per request: small steps keep the 50 µs window crowded,
    /// large ones make pruning frequent.
    fn differential(seed: u64, requests: usize, step: u64) {
        let mut rng = DetRng::seed(seed);
        let mut r = Resource::new("diff");
        let mut oracle = FrontScan::default();
        let mut clock = Ps::ZERO;
        for i in 0..requests {
            clock += Ps::from_ns(rng.below(step));
            // Pruning waits while only one interval is left, so the horizon
            // can move without a new high-water mark: settle it first so
            // requests aimed at it (or just after it) stay in contract. The
            // oracle prunes the same intervals on its next call.
            r.prune();
            let now = match rng.below(10) {
                0..=3 => clock,
                4..=6 => {
                    let back = clock.saturating_sub(r.pruned_until).as_ps() / 1000;
                    clock - Ps::from_ns(rng.below(back.clamp(1, 5_000)))
                }
                7 => r.pruned_until,
                _ => clock + Ps::from_ns(rng.below(2_000)),
            };
            let dur = if rng.below(10) == 0 {
                Ps::ZERO
            } else {
                Ps::from_ns(1 + rng.below(40))
            };
            let (got, want) = if rng.chance(0.5) {
                (
                    r.reserve_split_with_start(now, dur),
                    oracle.reserve_split(now, dur),
                )
            } else {
                (r.reserve_with_start(now, dur), oracle.reserve(now, dur))
            };
            assert_eq!(got, want, "seed {seed}, request {i} at {now} for {dur}");
            assert_eq!(r.busy_time(), oracle.busy, "busy_time, request {i}");
            assert_eq!(
                r.free_at(),
                oracle.intervals.last().map_or(Ps::ZERO, |&(_, e)| e),
                "free_at, request {i}"
            );
            assert_eq!(r.out_of_window(), oracle.out_of_window);
            assert_eq!(r.pruned_until, oracle.pruned_until);
            assert!(r.intervals.iter().eq(oracle.intervals.iter()));
        }
        assert!(
            r.pruned_until > Ps::ZERO,
            "the stream never reached pruning"
        );
    }

    /// A bus that forgets what ends by the clock before each request, and
    /// an unpruned twin, under a seeded stream whose requests all start
    /// after the clock (as a controller's bursts start after its service
    /// clock), contiguous or split: identical schedules, and the pruned
    /// bus stays a few intervals long.
    #[test]
    fn forgetting_behind_the_clock_changes_no_placement() {
        for seed in [1, 2, 3] {
            let mut rng = DetRng::seed(seed);
            let (mut pruned, mut twin) = (Resource::new("pruned"), Resource::new("twin"));
            let (mut clock, mut longest) = (Ps::ZERO, 0);
            for i in 0..20_000 {
                clock += Ps::from_ns(rng.below(8));
                let now = clock + Ps::from_ns(1 + rng.below(60));
                let dur = Ps::from_ns(1 + rng.below(4));
                pruned.forget_until(clock);
                longest = longest.max(pruned.intervals.len());
                let (got, want) = if rng.chance(0.3) {
                    let got = pruned.reserve_split_with_start(now, dur);
                    (got, twin.reserve_split_with_start(now, dur))
                } else {
                    (
                        pruned.reserve_with_start(now, dur),
                        twin.reserve_with_start(now, dur),
                    )
                };
                assert_eq!(got, want, "seed {seed}, request {i} at {now} for {dur}");
                assert_eq!(pruned.free_at(), twin.free_at(), "request {i}");
            }
            assert_eq!((pruned.out_of_window(), twin.out_of_window()), (0, 0));
            assert!(pruned.pruned_until > twin.pruned_until, "seed {seed}");
            assert!(
                longest < 40 && twin.intervals.len() > 1000,
                "{longest} vs {}",
                twin.intervals.len()
            );
        }
    }

    /// Forgets `[0, 10 ns)` behind a clock at 15 ns, then everything but
    /// the latest interval, `[20, 30 ns)`.
    fn forget_behind_the_clock(r: &mut Resource) {
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        r.reserve(Ps::from_ns(20), Ps::from_ns(10));
        r.forget_until(Ps::from_ns(15));
        assert_eq!((r.intervals.len(), r.pruned_until), (1, Ps::from_ns(10)));
        r.forget_until(Ps::from_ns(99));
        assert_eq!(r.intervals.len(), 1);
    }

    #[test]
    fn forgetting_keeps_the_latest_interval() {
        let mut r = Resource::new("r");
        forget_behind_the_clock(&mut r);
        assert_eq!(r.free_at(), Ps::from_ns(30));
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    #[cfg(all(not(debug_assertions), not(feature = "audit")))]
    fn a_request_behind_the_forgotten_schedule_is_counted_in_release() {
        let mut r = Resource::new("r");
        forget_behind_the_clock(&mut r);
        r.reserve(Ps::from_ns(5), Ps::from_ns(1));
        assert_eq!(r.out_of_window(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pruned schedule horizon")]
    fn a_request_behind_the_forgotten_schedule_asserts_in_debug() {
        let mut r = Resource::new("r");
        forget_behind_the_clock(&mut r);
        r.reserve(Ps::from_ns(5), Ps::from_ns(1));
    }

    #[test]
    fn scan_from_now_matches_front_scan_in_a_crowded_window() {
        for seed in 0..4 {
            differential(seed, 4_000, 60);
        }
    }

    #[test]
    fn scan_from_now_matches_front_scan_under_heavy_pruning() {
        for seed in 10..14 {
            differential(seed, 4_000, 200);
        }
    }

    /// The tail search returns `partition_point`'s index for both of
    /// [`Resource`]'s predicates, on random sorted interval sets and on the
    /// edge cases: no interval, one interval, a request before the first
    /// interval and one after the last.
    #[test]
    fn tail_search_matches_partition_point() {
        fn check(v: &VecDeque<(Ps, Ps)>, at: Ps) {
            let ends = |&(_, e): &(Ps, Ps)| e <= at;
            let starts = |&(s, _): &(Ps, Ps)| s < at;
            assert_eq!(
                tail_partition_point(v, ends),
                v.partition_point(ends),
                "ends, {} intervals, at {at}",
                v.len()
            );
            assert_eq!(
                tail_partition_point(v, starts),
                v.partition_point(starts),
                "starts, {} intervals, at {at}",
                v.len()
            );
        }
        let ns = Ps::from_ns;
        for at in [0, 5, 10] {
            check(&VecDeque::new(), ns(at));
        }
        let one = VecDeque::from([(ns(10), ns(20))]);
        for at in [0, 9, 10, 15, 19, 20, 21, 100] {
            check(&one, ns(at));
        }
        let mut rng = DetRng::seed(17);
        for _ in 0..400 {
            let mut v = VecDeque::new();
            let mut t = ns(rng.below(50));
            for _ in 0..rng.below(300) {
                t += ns(rng.below(6));
                let end = t + ns(1 + rng.below(20));
                v.push_back((t, end));
                t = end;
            }
            let last = v.back().map_or(Ps::ZERO, |&(_, e)| e);
            check(&v, Ps::ZERO);
            check(&v, last);
            check(&v, last + ns(1));
            for &(s, e) in &v {
                check(&v, s);
                check(&v, e);
            }
            for _ in 0..20 {
                check(&v, ns(rng.below(last.as_ps() / 1000 + 10)));
            }
        }
    }

    #[test]
    fn many_interleaved_split_requests_never_double_book() {
        // Stress the splitter against the audit overlap assert: staggered
        // arrivals, varied durations, plus contiguous traffic in between.
        let mut r = Resource::new("r");
        for i in 0..100u64 {
            r.reserve(Ps::from_ns(13 * i), Ps::from_ns(4));
            r.reserve_split_with_start(Ps::from_ns(3 * i), Ps::from_ns(1 + i % 5));
        }
        let expected: u64 = 100 * 4 + (0..100u64).map(|i| 1 + i % 5).sum::<u64>();
        assert_eq!(r.busy_time(), Ps::from_ns(expected));
    }
}

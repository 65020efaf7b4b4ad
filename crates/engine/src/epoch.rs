//! Conservative partitioned-DES building blocks: cross-partition envelopes,
//! per-partition outboxes, and the deterministic epoch merge.
//!
//! The simulation core partitions system state (one partition per DIMM) and
//! advances all partitions in bounded time *epochs*. Within an epoch a
//! partition only processes events strictly before the epoch boundary and
//! never touches another partition's state; anything that must cross a
//! partition boundary is recorded in the partition's [`Outbox`]. At the
//! epoch barrier every outbox is drained into one buffer and the collected
//! [`Envelope`]s are sorted into a total order by
//! `(timestamp, source partition id, source sequence number)` — see
//! [`merge_epoch`]. The buffer and the outboxes keep their capacity, so a
//! barrier allocates nothing once the run has warmed up. Each component of
//! that key is deterministic (virtual time, fixed partitioning, per-source
//! FIFO counter), so the merged order — and with it the order in which
//! shared resources are reserved — is a pure function of the simulated
//! run, not of the order in which partitions were advanced.
//!
//! # Examples
//!
//! ```
//! use dl_engine::epoch::{merge_epoch, Outbox};
//! use dl_engine::Ps;
//!
//! let mut a = Outbox::new(0);
//! let mut b = Outbox::new(1);
//! a.send(Ps::from_ns(5), "a-first");
//! b.send(Ps::from_ns(5), "b-first");
//! a.send(Ps::from_ns(3), "a-second");
//! let mut batch = Vec::new();
//! a.drain_into(&mut batch);
//! b.drain_into(&mut batch);
//! merge_epoch(&mut batch);
//! let order: Vec<&str> = batch.iter().map(|e| e.payload).collect();
//! // Same timestamp: partition 0 before partition 1; the earlier
//! // timestamp wins regardless of send order.
//! assert_eq!(order, ["a-second", "a-first", "b-first"]);
//! ```

use crate::Ps;

/// One cross-partition message: a payload stamped with the virtual time it
/// takes effect, the partition that emitted it, and that partition's
/// per-run sequence number (its position among everything the source ever
/// sent). The triple `(at, src, seq)` is a total order over all envelopes
/// of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Virtual time the message takes effect at the destination.
    pub at: Ps,
    /// Source partition id (the fixed logical partition, not an OS thread).
    pub src: usize,
    /// Monotone per-source sequence number; breaks `(at, src)` ties in
    /// emission order.
    pub seq: u64,
    /// The message itself.
    pub payload: T,
}

/// A partition's staging buffer for outbound cross-partition messages.
///
/// The outbox assigns sequence numbers in emission order and never reorders
/// or drops; the coordinator drains it at each epoch barrier. Sequence
/// numbers continue across epochs so the total order is stable over the
/// whole run.
#[derive(Debug)]
pub struct Outbox<T> {
    src: usize,
    next_seq: u64,
    pending: Vec<Envelope<T>>,
}

impl<T> Outbox<T> {
    /// An empty outbox owned by partition `src`.
    pub fn new(src: usize) -> Self {
        Outbox {
            src,
            next_seq: 0,
            pending: Vec::new(),
        }
    }

    /// Stages a message taking effect at virtual time `at`.
    pub fn send(&mut self, at: Ps, payload: T) {
        self.pending.push(Envelope {
            at,
            src: self.src,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Appends everything staged since the last drain to `out`, in
    /// emission order, and keeps the staging buffer's capacity for the next
    /// epoch. Sequence numbering continues where it left off.
    pub fn drain_into(&mut self, out: &mut Vec<Envelope<T>>) {
        out.append(&mut self.pending);
    }

    /// Number of messages currently staged.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total messages ever sent (drained or not).
    pub fn total_sent(&self) -> u64 {
        self.next_seq
    }
}

/// Sorts an epoch's drained envelopes, in place, into the canonical epoch
/// order: ascending `(timestamp, source partition id, source sequence
/// number)`.
///
/// The result is independent of how the envelopes were gathered (which
/// partition was drained first, or whether a partition's batch was split),
/// because the sort key is carried inside each envelope. The sort is a
/// total order — no two envelopes share `(at, src, seq)` since `seq` is
/// unique per source — so the unstable sort is deterministic here.
pub fn merge_epoch<T>(batch: &mut [Envelope<T>]) {
    batch.sort_unstable_by_key(|x| (x.at, x.src, x.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads<T: Copy>(batch: &[Envelope<T>]) -> Vec<T> {
        batch.iter().map(|e| e.payload).collect()
    }

    #[test]
    fn outbox_assigns_sequence_numbers_in_emission_order() {
        let mut o = Outbox::new(3);
        o.send(Ps::from_ns(10), "x");
        o.send(Ps::from_ns(1), "y");
        assert_eq!(o.len(), 2);
        let mut batch = Vec::new();
        o.drain_into(&mut batch);
        assert!(o.is_empty());
        assert_eq!(batch[0].seq, 0);
        assert_eq!(batch[1].seq, 1);
        assert!(batch.iter().all(|e| e.src == 3));
        // Numbering continues across drains.
        o.send(Ps::from_ns(2), "z");
        batch.clear();
        o.drain_into(&mut batch);
        assert_eq!(batch[0].seq, 2);
        assert_eq!(o.total_sent(), 3);
    }

    #[test]
    fn drain_into_appends_and_sequence_numbers_continue() {
        // Two drains into the same buffer without clearing: the second
        // appends behind the first, and its envelopes carry the sequence
        // numbers that follow the first drain's.
        let mut o = Outbox::new(0);
        let mut batch = Vec::new();
        o.send(Ps::from_ns(4), 'a');
        o.send(Ps::from_ns(4), 'b');
        o.drain_into(&mut batch);
        o.send(Ps::from_ns(4), 'c');
        o.drain_into(&mut batch);
        let seqs: Vec<u64> = batch.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        merge_epoch(&mut batch);
        assert_eq!(payloads(&batch), ['a', 'b', 'c']);
        // Draining an empty outbox appends nothing.
        o.drain_into(&mut batch);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn reused_buffer_holds_nothing_from_the_previous_epoch() {
        // The barrier's pattern: drain, merge, consume, clear, repeat with
        // the same buffer. The second epoch sees only its own envelopes,
        // in canonical order, even though the first epoch's were larger.
        let mut a = Outbox::new(0);
        let mut b = Outbox::new(1);
        let mut batch = Vec::new();
        for i in 0..8 {
            a.send(Ps::from_ns(i), i);
        }
        a.drain_into(&mut batch);
        merge_epoch(&mut batch);
        assert_eq!(batch.len(), 8);
        batch.clear();
        b.send(Ps::from_ns(9), 100);
        a.send(Ps::from_ns(9), 200);
        b.drain_into(&mut batch);
        a.drain_into(&mut batch);
        merge_epoch(&mut batch);
        assert_eq!(payloads(&batch), [200, 100]);
        assert_eq!(batch[0].seq, 8, "partition 0 continues its numbering");
        assert!(batch.capacity() >= 8, "the buffer kept its capacity");
    }

    #[test]
    fn merge_orders_by_time_then_source_then_sequence() {
        let mut a = Outbox::new(0);
        let mut b = Outbox::new(1);
        b.send(Ps::from_ns(5), "b0@5");
        b.send(Ps::from_ns(5), "b1@5");
        a.send(Ps::from_ns(5), "a0@5");
        a.send(Ps::from_ns(2), "a1@2");
        let mut merged = Vec::new();
        b.drain_into(&mut merged);
        a.drain_into(&mut merged);
        merge_epoch(&mut merged);
        assert_eq!(payloads(&merged), ["a1@2", "a0@5", "b0@5", "b1@5"]);
    }

    #[test]
    fn merge_is_independent_of_batch_arrangement() {
        let envelopes: Vec<Envelope<u32>> = vec![
            Envelope {
                at: Ps::from_ns(7),
                src: 1,
                seq: 0,
                payload: 10,
            },
            Envelope {
                at: Ps::from_ns(7),
                src: 0,
                seq: 4,
                payload: 20,
            },
            Envelope {
                at: Ps::from_ns(1),
                src: 2,
                seq: 9,
                payload: 30,
            },
            Envelope {
                at: Ps::from_ns(7),
                src: 0,
                seq: 2,
                payload: 40,
            },
        ];
        let mut forward = envelopes.clone();
        merge_epoch(&mut forward);
        let mut reversed = envelopes;
        reversed.reverse();
        merge_epoch(&mut reversed);
        assert_eq!(forward, reversed);
        assert_eq!(payloads(&forward), [30, 40, 20, 10]);
    }
}

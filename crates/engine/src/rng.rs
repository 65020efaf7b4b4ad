//! Deterministic random number generation.
//!
//! Every stochastic choice in the workspace (graph generation, initial data
//! values, randomized initial thread placement) flows through [`DetRng`] so
//! that experiments are bit-reproducible from a single seed.
//!
//! The generator is ChaCha8: the ChaCha block function with 8 rounds, a
//! 256-bit key, a 64-bit block counter in words 12–13 and a zero nonce,
//! emitting each 16-word block in order. A 64-bit seed expands into the
//! key with SplitMix64, one output per pair of key words, low word first
//! (the `seed_from_u64` expansion of rand 0.8). [`DetRng::below`] samples
//! by a widening multiply with rejection (Lemire) and [`DetRng::unit`]
//! keeps the top 53 bits of a draw. The module's known-answer tests pin the
//! resulting streams: every generated input and figure depends on them.

use crate::Fnv1a;

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// "expand 32-byte k".
const CONSTANTS: Row = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Four words of the ChaCha state: one row of its 4×4 matrix.
type Row = [u32; 4];

/// A seeded, splittable deterministic RNG.
///
/// # Examples
///
/// ```
/// use dl_engine::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Independent named streams derived from one seed:
/// let mut g = DetRng::seed(42).stream("graph");
/// let mut w = DetRng::seed(42).stream("weights");
/// assert_ne!(g.next_u64(), w.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    /// The ChaCha input block as four rows of four words: the constants,
    /// the key's low and high halves, and the block counter (words 12–13)
    /// beside the zero nonce. The counter names the next block to generate.
    state: [Row; 4],
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` means it is used up.
    /// Draws consume words in pairs, so it is always even.
    index: usize,
    seed: u64,
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut key = [0u32; 8];
        let mut state = seed;
        for pair in key.chunks_exact_mut(2) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            pair[0] = z as u32;
            pair[1] = (z >> 32) as u32;
        }
        let [k0, k1, k2, k3, k4, k5, k6, k7] = key;
        DetRng {
            state: [CONSTANTS, [k0, k1, k2, k3], [k4, k5, k6, k7], [0; 4]],
            block: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
            seed,
        }
    }

    /// Derives an independent stream keyed by `label`.
    ///
    /// Streams with different labels (or parents with different seeds)
    /// produce statistically independent sequences.
    ///
    /// Under `feature = "audit"`, a per-thread registry records which
    /// `(parent seed, label)` owns each derived seed; if a *different*
    /// origin later derives the same seed, two components would silently
    /// share one random sequence (correlated "independent" draws), and the
    /// derivation panics instead. Re-deriving the same stream from the same
    /// origin is legitimate and not flagged.
    pub fn stream(&self, label: &str) -> DetRng {
        let mut fnv = Fnv1a::from_state(Fnv1a::BASIS ^ self.seed);
        fnv.write(label.as_bytes());
        let h = fnv.finish();
        #[cfg(feature = "audit")]
        audit::record_stream(h, self.seed, label);
        DetRng::seed(h)
    }

    /// The next 64 bits of the stream: two words, low word first.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.index == BLOCK_WORDS {
            self.refill();
        }
        let lo = u64::from(self.block[self.index]);
        let hi = u64::from(self.block[self.index + 1]);
        self.index += 2;
        (hi << 32) | lo
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Generates the block the counter names into `block` and advances
    /// the counter.
    ///
    /// The block function works on whole rows: a column round is one
    /// quarter round applied lane-wise to the four rows, and a diagonal
    /// round is the same after rotating rows b, c and d left by one, two
    /// and three lanes, which lines each diagonal up in one lane.
    #[inline(never)]
    fn refill(&mut self) {
        let [mut a, mut b, mut c, mut d] = self.state;
        for _ in 0..4 {
            quarter(&mut a, &mut b, &mut c, &mut d);
            b = [b[1], b[2], b[3], b[0]];
            c = [c[2], c[3], c[0], c[1]];
            d = [d[3], d[0], d[1], d[2]];
            quarter(&mut a, &mut b, &mut c, &mut d);
            b = [b[3], b[0], b[1], b[2]];
            c = [c[2], c[3], c[0], c[1]];
            d = [d[1], d[2], d[3], d[0]];
        }
        for (out, (x, s)) in self
            .block
            .chunks_exact_mut(4)
            .zip([a, b, c, d].iter().zip(&self.state))
        {
            for ((o, x), s) in out.iter_mut().zip(x).zip(s) {
                *o = x.wrapping_add(*s);
            }
        }
        let ctr = &mut self.state[3];
        let next = (u64::from(ctr[1]) << 32 | u64::from(ctr[0])).wrapping_add(1);
        ctr[0] = next as u32;
        ctr[1] = (next >> 32) as u32;
        self.index = 0;
    }
}

/// The ChaCha quarter round on each of the four lanes of rows `a`, `b`,
/// `c`, `d` at once.
#[inline(always)]
fn quarter(a: &mut Row, b: &mut Row, c: &mut Row, d: &mut Row) {
    add(a, b);
    xor_rotate(d, a, 16);
    add(c, d);
    xor_rotate(b, c, 12);
    add(a, b);
    xor_rotate(d, a, 8);
    add(c, d);
    xor_rotate(b, c, 7);
}

/// `x += y`, lane-wise and wrapping.
#[inline(always)]
fn add(x: &mut Row, y: &Row) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = x.wrapping_add(*y);
    }
}

/// `x = (x ^ y) <<< n`, lane-wise.
#[inline(always)]
fn xor_rotate(x: &mut Row, y: &Row, n: u32) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = (*x ^ *y).rotate_left(n);
    }
}

/// Stream-collision registry for the audit build.
///
/// The registry is thread-local: simulations are single-threaded per sweep
/// point, and per-thread state keeps the parallel sweep harness free of
/// cross-point false positives.
#[cfg(feature = "audit")]
mod audit {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    thread_local! {
        /// derived seed → (parent seed, label) that first claimed it.
        static STREAMS: RefCell<BTreeMap<u64, (u64, String)>> =
            const { RefCell::new(BTreeMap::new()) };
    }

    pub(super) fn record_stream(derived: u64, parent: u64, label: &str) {
        STREAMS.with(|reg| {
            let mut reg = reg.borrow_mut();
            match reg.get(&derived) {
                Some((p, l)) if *p != parent || l != label => panic!(
                    "RNG stream collision: stream({label:?}) of seed {parent} derives \
                     {derived:#018x}, already owned by stream({l:?}) of seed {p} — \
                     two components would share one random sequence"
                ),
                Some(_) => {}
                None => {
                    reg.insert(derived, (parent, label.to_string()));
                }
            }
        });
    }

    /// Clears this thread's registry (for tests and for harnesses that
    /// reuse one thread across independent simulations).
    pub fn reset_stream_registry() {
        STREAMS.with(|reg| reg.borrow_mut().clear());
    }
}

/// See [`audit::reset_stream_registry`]: clears the audit build's
/// per-thread RNG stream registry between independent simulations.
#[cfg(feature = "audit")]
pub fn audit_reset_stream_registry() {
    audit::reset_stream_registry();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values recorded from the generator the workspace has always used;
    /// a change here moves every generated input and figure.
    #[test]
    fn known_answers() {
        let mut r = DetRng::seed(42);
        let words = [r.next_u64(), r.next_u64(), r.next_u64()];
        assert_eq!(
            words,
            [
                0x3115_9ef9_87c9_1afc,
                0x1755_9844_b416_9001,
                0xf7d0_afbf_9ad9_a69f
            ]
        );
        let mut g = DetRng::seed(42).stream("graph");
        let draws: Vec<u64> = (0..5).map(|_| g.below(1000)).collect();
        assert_eq!(draws, [798, 475, 597, 877, 15]);
        let mut u = DetRng::seed(7);
        assert_eq!(u.unit(), 0.40049503005912723);
        assert_eq!(u.unit(), 0.7743282063435831);
        let mut v: Vec<u32> = (0..10).collect();
        DetRng::seed(5).shuffle(&mut v);
        assert_eq!(v, [1, 3, 0, 4, 6, 7, 2, 8, 5, 9]);
    }

    /// FNV-1a-64 of the little-endian bytes of the first `n` draws.
    fn hash_u64s(r: &mut DetRng, n: usize) -> (u64, Vec<u64>) {
        let draws: Vec<u64> = (0..n).map(|_| r.next_u64()).collect();
        let mut h = Fnv1a::new();
        for &d in &draws {
            h.write_u64(d);
        }
        (h.finish(), draws)
    }

    /// Deep known answers: 10,000 draws cross 1,250 blocks, so the rounds,
    /// the key expansion and the counter of every later block are pinned,
    /// not only blocks 0 and 1.
    #[test]
    fn known_answers_across_many_blocks() {
        let (h, d) = hash_u64s(&mut DetRng::seed(42), 10_000);
        assert_eq!(h, 0x3f8d_0553_9f02_fc21, "got {h:#018x}");
        assert_eq!(d[8], 0xf687_5512_6b94_7e05);
        assert_eq!(d[32], 0x94ad_96ac_7e5f_1558);
        assert_eq!(d[9999], 0x7076_a2c7_20ca_6825);
        let (h, d) = hash_u64s(&mut DetRng::seed(7).stream("graph"), 10_000);
        assert_eq!(h, 0xda30_49c4_b117_e735, "got {h:#018x}");
        assert_eq!(d[33], 0x85b9_2b1c_e336_b218);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = DetRng::seed(7);
        // 19 draws, so the clone starts mid-block.
        for _ in 0..19 {
            a.next_u64();
        }
        let mut b = a.clone();
        // 50 blocks' worth of draws: the clone's own refills must follow
        // the original's counter.
        for _ in 0..50 * BLOCK_WORDS / 2 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn all_residues_reachable() {
        let mut r = DetRng::seed(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let root = DetRng::seed(9);
        let mut s1 = root.stream("alpha");
        let mut s1b = root.stream("alpha");
        let mut s2 = root.stream("beta");
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_allows_rederiving_the_same_stream() {
        crate::rng::audit_reset_stream_registry();
        let root = DetRng::seed(11);
        for _ in 0..10 {
            let _ = root.stream("placement"); // same origin every time: fine
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "RNG stream collision")]
    fn audit_catches_stream_collisions() {
        crate::rng::audit_reset_stream_registry();
        // Engineer a collision in the FNV-style derivation: with
        // multiplier p (odd, hence invertible mod 2^64), the seed
        //   seed2 = basis ^ ((basis ^ seed1) * p⁻¹ ^ 'x')
        // makes stream("x") of seed2 derive the same value as stream("")
        // of seed1 — two different origins, one random sequence.
        const BASIS: u64 = Fnv1a::BASIS;
        const P: u64 = Fnv1a::PRIME;
        let mut inv: u64 = 1;
        for _ in 0..6 {
            // Newton iteration doubles correct low bits each round.
            inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        }
        assert_eq!(P.wrapping_mul(inv), 1);
        let seed1 = 42u64;
        let target = BASIS ^ seed1;
        let seed2 = BASIS ^ (target.wrapping_mul(inv) ^ b'x' as u64);
        let _ = DetRng::seed(seed1).stream("");
        let _ = DetRng::seed(seed2).stream("x"); // derives the same seed
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_in_range_and_chance_extremes() {
        let mut r = DetRng::seed(4);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}

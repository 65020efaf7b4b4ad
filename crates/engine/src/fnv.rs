//! 64-bit FNV-1a, the workspace's one non-cryptographic hash: it derives
//! [`crate::DetRng::stream`] seeds, keys the sweep journal and folds the
//! pinned fingerprints of the determinism tests.

/// An FNV-1a-64 hash in progress.
///
/// # Examples
///
/// ```
/// use dl_engine::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The 64-bit offset basis.
    pub const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The 64-bit FNV prime.
    pub const PRIME: u64 = 0x100_0000_01b3;

    /// A hash of nothing yet.
    pub const fn new() -> Self {
        Fnv1a(Self::BASIS)
    }

    /// A hash starting from `state` instead of the offset basis.
    pub const fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Folds in `bytes`, one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in the eight little-endian bytes of `word`.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

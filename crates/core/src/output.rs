//! FANcY's output structures (§4.3).
//!
//! "FANcY uses two additional data structures to flag the entries affected
//! by packet loss: a 1-bit register array with one register for each
//! dedicated counter, and a 2-register Bloom filter associated with the
//! hash-based tree. When mismatching values are detected for a dedicated
//! counter, the corresponding register in the 1-bit array is updated. When
//! a counter in the hash-based tree reports a failure, the hash path for
//! that counter is stored in the Bloom filter."
//!
//! These structures are what data-plane applications (e.g. the fast-reroute
//! app, §6.1) consult at line rate for every forwarded packet.

use fancy_net::{seeded_hash, Prefix};

use crate::tree::TreeHasher;

/// Number of cells per Bloom-filter register in the Tofino prototype
/// (Appendix B.2: "two 1-bit registers of 100 K cells").
pub const BLOOM_CELLS: usize = 100_000;

/// A packed 1-bit register array flagging dedicated entries.
#[derive(Debug, Clone)]
pub struct FlagArray {
    bits: Vec<u64>,
    len: usize,
}

impl FlagArray {
    /// An all-clear array of `len` flags.
    pub fn new(len: usize) -> Self {
        FlagArray {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry can be flagged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flag dedicated counter `id`.
    pub fn set(&mut self, id: u16) {
        let i = usize::from(id);
        assert!(i < self.len, "flag index out of range");
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Clear dedicated counter `id` (e.g. after repair).
    pub fn clear(&mut self, id: u16) {
        let i = usize::from(id);
        assert!(i < self.len, "flag index out of range");
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Is dedicated counter `id` flagged?
    pub fn get(&self, id: u16) -> bool {
        let i = usize::from(id);
        i < self.len && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// IDs of all flagged counters.
    pub fn flagged(&self) -> Vec<u16> {
        (0..self.len as u16).filter(|&i| self.get(i)).collect()
    }

    /// Memory consumption in bits.
    pub fn memory_bits(&self) -> u64 {
        self.len as u64
    }
}

/// The 2-register Bloom filter storing failed hash paths.
///
/// Queried per packet by rerouting applications: a packet whose *full* hash
/// path was inserted tests positive. Bloom semantics mean the filter can
/// also flag colliding paths (false positives); it never misses an inserted
/// path.
#[derive(Debug, Clone)]
pub struct OutputBloom {
    regs: [Vec<u64>; 2],
    cells: usize,
    seed: u64,
    insertions: u64,
}

impl OutputBloom {
    /// A filter with `cells` cells per register.
    pub fn new(cells: usize, seed: u64) -> Self {
        assert!(cells > 0);
        OutputBloom {
            regs: [vec![0; cells.div_ceil(64)], vec![0; cells.div_ceil(64)]],
            cells,
            seed,
            insertions: 0,
        }
    }

    /// The Tofino prototype dimensions.
    pub fn tofino_default(seed: u64) -> Self {
        OutputBloom::new(BLOOM_CELLS, seed)
    }

    /// Fold one more path index into a path's cell key.
    fn fold(key: u64, index: u8) -> u64 {
        key.wrapping_mul(257).wrapping_add(u64::from(index) + 1)
    }

    fn path_key(path: &[u8]) -> u64 {
        path.iter().fold(0, |k, &i| Self::fold(k, i))
    }

    fn cell(&self, reg: usize, key: u64) -> usize {
        seeded_hash(self.seed ^ ((reg as u64) << 32), key, self.cells as u64) as usize
    }

    fn contains_key(&self, key: u64) -> bool {
        (0..2).all(|reg| {
            let c = self.cell(reg, key);
            self.regs[reg][c / 64] & (1 << (c % 64)) != 0
        })
    }

    /// Insert a failed hash path.
    pub fn insert(&mut self, path: &[u8]) {
        let key = Self::path_key(path);
        for reg in 0..2 {
            let c = self.cell(reg, key);
            self.regs[reg][c / 64] |= 1 << (c % 64);
        }
        self.insertions += 1;
    }

    /// Does `path` test positive?
    pub fn contains(&self, path: &[u8]) -> bool {
        self.contains_key(Self::path_key(path))
    }

    /// Does `entry`'s full hash path under `hasher` test positive? Equal to
    /// `contains(&hasher.hash_path(entry))` without collecting the path:
    /// this is the per-packet query of the reroute check.
    pub fn contains_entry(&self, hasher: &TreeHasher, entry: Prefix) -> bool {
        let depth = hasher.params().depth;
        self.contains_key((0..depth).fold(0, |k, l| Self::fold(k, hasher.index(l, entry))))
    }

    /// Clear the filter (failure repaired / entries re-validated).
    pub fn reset(&mut self) {
        for reg in &mut self.regs {
            reg.iter_mut().for_each(|w| *w = 0);
        }
        self.insertions = 0;
    }

    /// Number of inserted paths since the last reset.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Memory consumption in bits (two 1-bit registers).
    pub fn memory_bits(&self) -> u64 {
        2 * self.cells as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_array_set_get_clear() {
        let mut f = FlagArray::new(500);
        assert!(!f.get(499));
        f.set(499);
        f.set(0);
        f.set(64);
        assert!(f.get(499) && f.get(0) && f.get(64));
        assert!(!f.get(1));
        assert_eq!(f.flagged(), vec![0, 64, 499]);
        f.clear(64);
        assert_eq!(f.flagged(), vec![0, 499]);
        assert_eq!(f.memory_bits(), 500);
        assert_eq!(f.len(), 500);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flag_array_bounds_checked() {
        FlagArray::new(10).set(10);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = OutputBloom::new(1000, 7);
        let paths: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i, i ^ 3, 5]).collect();
        for p in &paths {
            b.insert(p);
        }
        for p in &paths {
            assert!(b.contains(p), "inserted path missing: {p:?}");
        }
        assert_eq!(b.insertions(), 50);
    }

    #[test]
    fn bloom_false_positive_rate_is_low_at_tofino_size() {
        let mut b = OutputBloom::tofino_default(3);
        for i in 0..100u8 {
            b.insert(&[i, i, i]);
        }
        // Query 10_000 never-inserted paths.
        let fps = (0..10_000u32)
            .filter(|&i| {
                b.contains(&[(i % 190) as u8, (i / 190 % 190) as u8, 200 + (i % 50) as u8])
            })
            .count();
        // With 100 insertions in 100 K cells and 2 registers, the FP
        // probability is ≈ (100/100000)² = 1e-6; allow generous slack.
        assert!(fps < 5, "too many false positives: {fps}");
    }

    #[test]
    fn contains_entry_matches_contains_of_the_collected_path() {
        use crate::tree::TreeParams;
        let hasher = TreeHasher::new(TreeParams::paper_default(), 0x5EED);
        let mut b = OutputBloom::new(2000, 9);
        // Inserted full paths plus a partial one, so both answers occur.
        for e in (0..10_000u32).step_by(97) {
            b.insert(&hasher.hash_path(Prefix(e)));
        }
        b.insert(&hasher.hash_path(Prefix(1))[..1]);
        let mut positives = 0;
        for e in (0..10_000u32).map(Prefix) {
            let want = b.contains(&hasher.hash_path(e));
            assert_eq!(b.contains_entry(&hasher, e), want, "{e:?}");
            positives += usize::from(want);
        }
        assert!(positives >= 104, "every inserted entry must test positive");
        assert!(positives < 10_000, "the filter must not be saturated");
    }

    #[test]
    fn bloom_reset_clears() {
        let mut b = OutputBloom::new(100, 1);
        b.insert(&[1, 2, 3]);
        assert!(b.contains(&[1, 2, 3]));
        b.reset();
        assert!(!b.contains(&[1, 2, 3]));
        assert_eq!(b.insertions(), 0);
    }

    #[test]
    fn memory_accounting_matches_tofino_appendix() {
        // Appendix B.2: rerouting uses 1 bit per dedicated entry/port
        // (512 × 32 ports = 2 KB) plus a Bloom filter of two 1-bit
        // registers of 100 K cells.
        let flags_32_ports: u64 = (0..32).map(|_| FlagArray::new(512).memory_bits()).sum();
        assert_eq!(flags_32_ports / 8, 2048); // 2 KB
        let bloom = OutputBloom::tofino_default(0);
        assert_eq!(bloom.memory_bits(), 200_000);
    }
}

//! A bulk-loaded, read-optimized in-memory B-tree over sorted `u64` keys.
//!
//! This is the classic baseline the learned index is compared against. The
//! tree is built once from sorted keys (the same setting the RMI assumes)
//! and serves point lookups and range scans. Every lookup reports the
//! number of nodes visited, the hardware-independent cost metric used by
//! experiment E11.

/// Default number of keys per node (fanout), sized so a node of `u64`s is
/// about one 512-byte cache-line group.
const DEFAULT_FANOUT: usize = 64;

/// An immutable B-tree index mapping each key to its position in the
/// original sorted array.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    /// Internal levels, root last. Each level stores the first key of each
    /// child node at the level below.
    levels: Vec<Vec<u64>>,
    /// The sorted leaf keys.
    keys: Vec<u64>,
    fanout: usize,
}

impl BTreeIndex {
    /// Bulk-loads from sorted, deduplicated keys.
    ///
    /// # Panics
    /// Panics when `keys` is unsorted/duplicated or `fanout < 2`.
    pub fn build(keys: Vec<u64>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted and unique"
        );
        let mut levels = Vec::new();
        let mut current: Vec<u64> = keys.chunks(fanout).map(|c| c[0]).collect();
        while current.len() > 1 {
            levels.push(current.clone());
            current = current.chunks(fanout).map(|c| c[0]).collect();
        }
        BTreeIndex {
            levels,
            keys,
            fanout,
        }
    }

    /// Bulk-load with the default fanout, `DEFAULT_FANOUT` (64).
    pub fn build_default(keys: Vec<u64>) -> Self {
        Self::build(keys, DEFAULT_FANOUT)
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Point lookup: returns `(position, nodes_visited)`; position is
    /// `None` when the key is absent.
    pub fn lookup(&self, key: u64) -> (Option<usize>, usize) {
        if self.keys.is_empty() {
            return (None, 0);
        }
        let mut visited = 0usize;
        // walk levels from the root down, narrowing the child range
        let mut node = 0usize; // node index at the current level
        for level in self.levels.iter().rev() {
            visited += 1;
            let start = node * self.fanout;
            let end = (start + self.fanout).min(level.len());
            let slice = &level[start..end];
            let child = match slice.binary_search(&key) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            node = start + child;
        }
        // leaf node
        visited += 1;
        let start = node * self.fanout;
        let end = (start + self.fanout).min(self.keys.len());
        match self.keys[start..end].binary_search(&key) {
            Ok(i) => (Some(start + i), visited),
            Err(_) => (None, visited),
        }
    }

    /// Range scan: positions of all keys in `[lo, hi]`.
    pub fn range(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi);
        start..end
    }

    /// Depth of the tree in levels (including the leaf level).
    pub fn depth(&self) -> usize {
        self.levels.len() + 1
    }

    /// Index size in bytes (internal levels only — the leaf keys are the
    /// data itself, charged to neither index).
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.len() * 8).sum()
    }

    /// The underlying sorted keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn sample_keys(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 3 + 7).collect()
    }

    #[test]
    fn lookup_finds_every_key() {
        let keys = sample_keys(10_000);
        let t = BTreeIndex::build_default(keys.clone());
        for (i, &k) in keys.iter().enumerate().step_by(97) {
            let (pos, visited) = t.lookup(k);
            assert_eq!(pos, Some(i));
            assert_eq!(visited, t.depth());
        }
    }

    #[test]
    fn lookup_misses_absent_keys() {
        let t = BTreeIndex::build_default(sample_keys(1000));
        let (pos, _) = t.lookup(8); // between 7 and 10
        assert_eq!(pos, None);
        let (pos, _) = t.lookup(0);
        assert_eq!(pos, None);
        let (pos, _) = t.lookup(u64::MAX);
        assert_eq!(pos, None);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let small = BTreeIndex::build(sample_keys(100), 10);
        let large = BTreeIndex::build(sample_keys(10_000), 10);
        assert_eq!(small.depth(), 2);
        assert_eq!(large.depth(), 4);
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let t = BTreeIndex::build_default(vec![10, 20, 30, 40, 50]);
        assert_eq!(t.range(20, 40), 1..4);
        assert_eq!(t.range(15, 45), 1..4);
        assert_eq!(t.range(0, 5), 0..0);
        assert_eq!(t.range(50, 100), 4..5);
    }

    #[test]
    fn size_counts_internal_levels_only() {
        let t = BTreeIndex::build(sample_keys(1000), 10);
        // 100 level-1 entries + 10 level-2 entries + 1... root collapses
        assert!(t.size_bytes() >= 110 * 8);
        assert!(t.size_bytes() < 1000 * 8);
    }

    #[test]
    fn single_key_tree() {
        let t = BTreeIndex::build_default(vec![42]);
        assert_eq!(t.lookup(42).0, Some(0));
        assert_eq!(t.lookup(41).0, None);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn rejects_unsorted_keys() {
        BTreeIndex::build_default(vec![3, 1, 2]);
    }

    /// Every present key is found at its exact position; every absent
    /// key misses.
    #[test]
    fn lookup_correctness() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..500);
            let raw: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..100_000)).collect();
            let probe = rng.gen_range(0u64..100_000);
            let keys: Vec<u64> = raw.into_iter().collect();
            let t = BTreeIndex::build(keys.clone(), 8);
            let (pos, _) = t.lookup(probe);
            match keys.binary_search(&probe) {
                Ok(i) => assert_eq!(pos, Some(i), "case {case}"),
                Err(_) => assert_eq!(pos, None, "case {case}"),
            }
        }
    }

    /// Range scans agree with a naive filter.
    #[test]
    fn range_correctness() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..300);
            let raw: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..10_000)).collect();
            let lo = rng.gen_range(0u64..10_000);
            let span = rng.gen_range(0u64..2_000);
            let keys: Vec<u64> = raw.into_iter().collect();
            let t = BTreeIndex::build(keys.clone(), 8);
            let hi = lo.saturating_add(span);
            let r = t.range(lo, hi);
            let expected = keys.iter().filter(|&&k| k >= lo && k <= hi).count();
            assert_eq!(r.len(), expected, "case {case}");
        }
    }
}

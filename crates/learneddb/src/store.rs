//! A SageDB-style store: a read-optimized key store whose access-path
//! components are swappable between classic and learned implementations.
//!
//! The tutorial (§3) cites SageDB as "a database system designed around
//! learned components". This module is that idea at crate scale: one
//! [`LearnedStore`] facade over the key set, with the index (B-tree vs.
//! RMI) and the negative-lookup filter (none vs. Bloom vs. learned Bloom)
//! chosen per deployment, plus cost counters so configurations can be
//! compared on the same workload.

use crate::bloom::{BloomFilter, LearnedBloom};
use crate::btree::BTreeIndex;
use crate::rmi::RecursiveModelIndex;
use dl_tensor::init;

/// Index implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Classic bulk-loaded B-tree.
    BTree,
    /// Two-stage recursive model index with the given leaf count.
    Learned {
        /// Second-stage model count.
        leaves: usize,
    },
}

/// Negative-lookup filter choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterChoice {
    /// No filter: every lookup hits the index.
    None,
    /// Classic Bloom filter at the given false-positive rate.
    Bloom {
        /// Target false-positive rate.
        fpr: f64,
    },
    /// Learned Bloom filter (model + backup) at the given FPR target.
    LearnedBloom {
        /// Target false-positive rate.
        fpr: f64,
    },
}

enum IndexImpl {
    BTree(BTreeIndex),
    Rmi(RecursiveModelIndex),
}

enum FilterImpl {
    None,
    Bloom(BloomFilter),
    Learned(Box<LearnedBloom>),
}

/// Per-store operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups answered negatively by the filter without touching the index.
    pub filtered_out: u64,
    /// Lookups that reached the index.
    pub index_probes: u64,
    /// Total index search work (nodes visited / window slots scanned).
    pub index_work: u64,
}

/// The configurable store.
///
/// ```
/// use dl_learneddb::{FilterChoice, IndexChoice, LearnedStore};
/// let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
/// let mut store = LearnedStore::build(
///     keys,
///     IndexChoice::Learned { leaves: 16 },
///     FilterChoice::Bloom { fpr: 0.01 },
///     0,
/// );
/// assert_eq!(store.get(30), Some(10));
/// assert_eq!(store.get(31), None);
/// assert_eq!(store.range(30, 36).len(), 3); // keys 30, 33, 36
/// ```
pub struct LearnedStore {
    index: IndexImpl,
    filter: FilterImpl,
    counters: StoreCounters,
}

impl LearnedStore {
    /// Builds a store over sorted, deduplicated keys with the chosen
    /// components. The learned filter trains against synthetic negatives
    /// drawn with `seed`.
    ///
    /// # Panics
    /// Panics when `keys` is empty or unsorted.
    pub fn build(keys: Vec<u64>, index: IndexChoice, filter: FilterChoice, seed: u64) -> Self {
        assert!(!keys.is_empty(), "store needs at least one key");
        let filter_impl = match filter {
            FilterChoice::None => FilterImpl::None,
            FilterChoice::Bloom { fpr } => {
                let mut f = BloomFilter::with_fpr(keys.len(), fpr);
                for &k in &keys {
                    f.insert(k);
                }
                FilterImpl::Bloom(f)
            }
            FilterChoice::LearnedBloom { fpr } => {
                let mut rng = init::rng(seed);
                let negatives = dl_data::keys::absent_keys(&keys, keys.len().min(20_000), &mut rng);
                FilterImpl::Learned(Box::new(LearnedBloom::build(&keys, &negatives, fpr, seed)))
            }
        };
        let index_impl = match index {
            IndexChoice::BTree => IndexImpl::BTree(BTreeIndex::build_default(keys)),
            IndexChoice::Learned { leaves } => {
                IndexImpl::Rmi(RecursiveModelIndex::build(keys, leaves))
            }
        };
        LearnedStore {
            index: index_impl,
            filter: filter_impl,
            counters: StoreCounters::default(),
        }
    }

    /// Point lookup: position of `key` among the sorted keys, if present.
    /// The zero-false-negative property of both filters guarantees no
    /// present key is ever filtered out.
    pub fn get(&mut self, key: u64) -> Option<usize> {
        let maybe_present = match &mut self.filter {
            FilterImpl::None => true,
            FilterImpl::Bloom(f) => f.contains(key),
            FilterImpl::Learned(f) => f.contains(key),
        };
        if !maybe_present {
            self.counters.filtered_out += 1;
            return None;
        }
        self.counters.index_probes += 1;
        match &self.index {
            IndexImpl::BTree(t) => {
                let (pos, visited) = t.lookup(key);
                self.counters.index_work += visited as u64;
                pos
            }
            IndexImpl::Rmi(r) => {
                let (pos, window) = r.lookup(key);
                self.counters.index_work += window as u64;
                pos
            }
        }
    }

    /// Range scan: positions of keys in `[lo, hi]` (always served by the
    /// sorted key array; filters don't apply).
    pub fn range(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        match &self.index {
            IndexImpl::BTree(t) => t.range(lo, hi),
            IndexImpl::Rmi(r) => {
                let start = r.partition_point(lo);
                let end = r.partition_point(hi.saturating_add(1));
                start..end
            }
        }
    }

    /// Operation counters so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::KeyDistribution;

    fn keys() -> Vec<u64> {
        KeyDistribution::Uniform.generate(20_000, 0)
    }

    fn configs() -> Vec<(IndexChoice, FilterChoice)> {
        vec![
            (IndexChoice::BTree, FilterChoice::None),
            (IndexChoice::BTree, FilterChoice::Bloom { fpr: 0.01 }),
            (IndexChoice::Learned { leaves: 128 }, FilterChoice::None),
            (
                IndexChoice::Learned { leaves: 128 },
                FilterChoice::Bloom { fpr: 0.01 },
            ),
        ]
    }

    #[test]
    fn every_config_answers_identically() {
        let ks = keys();
        let probes: Vec<u64> = ks.iter().step_by(97).copied().collect();
        let mut rng = dl_tensor::init::rng(1);
        let absent = dl_data::keys::absent_keys(&ks, 200, &mut rng);
        let mut stores: Vec<LearnedStore> = configs()
            .into_iter()
            .map(|(i, f)| LearnedStore::build(ks.clone(), i, f, 2))
            .collect();
        for &k in &probes {
            let expected = ks.binary_search(&k).ok();
            for s in &mut stores {
                assert_eq!(s.get(k), expected, "present key {k}");
            }
        }
        for &k in &absent {
            for s in &mut stores {
                assert_eq!(s.get(k), None, "absent key {k}");
            }
        }
    }

    #[test]
    fn filters_save_index_probes_on_negatives() {
        let ks = keys();
        let mut rng = dl_tensor::init::rng(3);
        let absent = dl_data::keys::absent_keys(&ks, 2000, &mut rng);
        let mut unfiltered =
            LearnedStore::build(ks.clone(), IndexChoice::BTree, FilterChoice::None, 4);
        let mut filtered = LearnedStore::build(
            ks.clone(),
            IndexChoice::BTree,
            FilterChoice::Bloom { fpr: 0.01 },
            4,
        );
        for &k in &absent {
            unfiltered.get(k);
            filtered.get(k);
        }
        assert_eq!(unfiltered.counters().index_probes, 2000);
        assert!(
            filtered.counters().filtered_out > 1900,
            "filter should absorb nearly all negatives: {:?}",
            filtered.counters()
        );
    }

    #[test]
    fn range_scans_agree_across_indexes() {
        let ks = keys();
        let bt = LearnedStore::build(ks.clone(), IndexChoice::BTree, FilterChoice::None, 6);
        let rmi = LearnedStore::build(
            ks.clone(),
            IndexChoice::Learned { leaves: 64 },
            FilterChoice::None,
            6,
        );
        for (lo, hi) in [(ks[10], ks[500]), (0, ks[0]), (ks[100], ks[100])] {
            assert_eq!(bt.range(lo, hi), rmi.range(lo, hi), "range {lo}..{hi}");
        }
    }
}

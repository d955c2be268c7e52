//! A two-stage Recursive Model Index (Kraska et al.).
//!
//! The learned index views an index as a model of the cumulative
//! distribution function: position ≈ CDF(key) * n. Stage 1 (the root) is a
//! linear model over the whole key space that routes each key to one of
//! `leaf_count` stage-2 linear models, each fit to its share of keys by
//! least squares. Every leaf records its maximum prediction error, so a
//! lookup is: predict, then binary-search the `[pred - err, pred + err]`
//! window — exactness is preserved, and the window size is the
//! hardware-independent cost metric (compared against the B-tree's node
//! visits in E11).

/// A linear model `pos = slope * key + intercept`.
#[derive(Debug, Clone, Copy)]
struct Linear {
    slope: f64,
    intercept: f64,
}

impl Linear {
    fn fit(keys: &[u64], first_pos: usize) -> Linear {
        let n = keys.len() as f64;
        if keys.is_empty() {
            return Linear {
                slope: 0.0,
                intercept: first_pos as f64,
            };
        }
        if keys.len() == 1 || keys[0] == keys[keys.len() - 1] {
            return Linear {
                slope: 0.0,
                intercept: first_pos as f64,
            };
        }
        // least squares over (key, position)
        let mean_x = keys.iter().map(|&k| k as f64).sum::<f64>() / n;
        let mean_y = first_pos as f64 + (n - 1.0) / 2.0;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (i, &k) in keys.iter().enumerate() {
            let dx = k as f64 - mean_x;
            let dy = (first_pos + i) as f64 - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
        }
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        Linear {
            slope,
            intercept: mean_y - slope * mean_x,
        }
    }

    fn predict(&self, key: u64) -> f64 {
        self.slope * key as f64 + self.intercept
    }
}

/// The two-stage learned index.
#[derive(Debug, Clone)]
pub struct RecursiveModelIndex {
    root: Linear,
    leaves: Vec<Linear>,
    /// Per-leaf maximum absolute prediction error (positions).
    errors: Vec<usize>,
    keys: Vec<u64>,
}

impl RecursiveModelIndex {
    /// Builds the index over sorted, deduplicated keys with `leaf_count`
    /// second-stage models.
    ///
    /// # Panics
    /// Panics when keys are unsorted/duplicated or `leaf_count == 0`.
    pub fn build(keys: Vec<u64>, leaf_count: usize) -> Self {
        assert!(leaf_count > 0, "need at least one leaf model");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be sorted and unique"
        );
        let n = keys.len();
        // root routes key -> leaf: fit a linear model from key to leaf id
        let root = if n == 0 {
            Linear {
                slope: 0.0,
                intercept: 0.0,
            }
        } else {
            // scale the position model into leaf space
            let pos_model = Linear::fit(&keys, 0);
            Linear {
                slope: pos_model.slope * leaf_count as f64 / n.max(1) as f64,
                intercept: pos_model.intercept * leaf_count as f64 / n.max(1) as f64,
            }
        };
        // partition keys by routed leaf
        let route = |key: u64| -> usize {
            (root.predict(key).floor().max(0.0) as usize).min(leaf_count - 1)
        };
        let mut starts = vec![usize::MAX; leaf_count];
        let mut counts = vec![0usize; leaf_count];
        for (i, &k) in keys.iter().enumerate() {
            let l = route(k);
            if starts[l] == usize::MAX {
                starts[l] = i;
            }
            counts[l] += 1;
        }
        let mut leaves = Vec::with_capacity(leaf_count);
        let mut errors = Vec::with_capacity(leaf_count);
        for l in 0..leaf_count {
            if counts[l] == 0 {
                leaves.push(Linear {
                    slope: 0.0,
                    intercept: if starts[l] == usize::MAX {
                        0.0
                    } else {
                        starts[l] as f64
                    },
                });
                errors.push(0);
                continue;
            }
            let start = starts[l];
            let slice = &keys[start..start + counts[l]];
            let model = Linear::fit(slice, start);
            // max error over this leaf's keys
            let mut max_err = 0usize;
            for (i, &k) in slice.iter().enumerate() {
                let pred = model.predict(k).round();
                let actual = (start + i) as f64;
                max_err = max_err.max((pred - actual).abs() as usize);
            }
            leaves.push(model);
            errors.push(max_err);
        }
        RecursiveModelIndex {
            root,
            leaves,
            errors,
            keys,
        }
    }

    fn route(&self, key: u64) -> usize {
        (self.root.predict(key).floor().max(0.0) as usize).min(self.leaves.len() - 1)
    }

    /// Point lookup: `(position, search_window)` where `search_window` is
    /// the number of candidate slots binary-searched — the lookup cost.
    pub fn lookup(&self, key: u64) -> (Option<usize>, usize) {
        if self.keys.is_empty() {
            return (None, 0);
        }
        let leaf = self.route(key);
        let pred = self.leaves[leaf].predict(key).round().max(0.0) as usize;
        let err = self.errors[leaf];
        let lo = pred.saturating_sub(err).min(self.keys.len() - 1);
        let hi = (pred + err + 1).min(self.keys.len());
        let lo = lo.min(hi.saturating_sub(1));
        let window = hi - lo;
        match self.keys[lo..hi].binary_search(&key) {
            Ok(i) => (Some(lo + i), window),
            Err(_) => (None, window),
        }
    }

    /// Mean and max search-window size over all indexed keys.
    pub fn error_profile(&self) -> (f64, usize) {
        if self.keys.is_empty() {
            return (0.0, 0);
        }
        let mut total = 0usize;
        let mut max = 0usize;
        for (leaf, &err) in self.errors.iter().enumerate() {
            // weight by the number of keys routed to this leaf
            let count = self.keys.iter().filter(|&&k| self.route(k) == leaf).count();
            total += count * (2 * err + 1);
            max = max.max(2 * err + 1);
        }
        (total as f64 / self.keys.len() as f64, max)
    }

    /// Index size in bytes: two `f64` per model plus one error per leaf.
    pub fn size_bytes(&self) -> usize {
        16 + self.leaves.len() * (16 + 8)
    }

    /// Number of leaf models.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of indexed keys strictly below `key` (the range-scan
    /// primitive). Uses the model prediction to bound the search window,
    /// widening on the rare miss, so results are always exact.
    pub fn partition_point(&self, key: u64) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        let leaf = self.route(key);
        let pred = self.leaves[leaf].predict(key).round().max(0.0) as usize;
        let err = self.errors[leaf];
        let mut lo = pred.saturating_sub(err).min(self.keys.len());
        let mut hi = (pred + err + 1).min(self.keys.len());
        // widen until the window provably brackets the boundary
        while lo > 0 && self.keys[lo - 1] >= key {
            lo = lo.saturating_sub(err.max(1) * 2);
        }
        while hi < self.keys.len() && self.keys[hi - 1] < key {
            hi = (hi + err.max(1) * 2).min(self.keys.len());
        }
        lo + self.keys[lo..hi].partition_point(|&k| k < key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::KeyDistribution;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn finds_every_key_on_uniform_data() {
        let keys = KeyDistribution::Uniform.generate(50_000, 0);
        let rmi = RecursiveModelIndex::build(keys.clone(), 256);
        for (i, &k) in keys.iter().enumerate().step_by(211) {
            let (pos, _) = rmi.lookup(k);
            assert_eq!(pos, Some(i), "key {k}");
        }
    }

    #[test]
    fn misses_absent_keys() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 10).collect();
        let rmi = RecursiveModelIndex::build(keys, 16);
        assert_eq!(rmi.lookup(5).0, None);
        assert_eq!(rmi.lookup(99_999).0, None);
    }

    #[test]
    fn perfect_on_arithmetic_keys() {
        // exactly linear CDF: windows collapse to 1
        let keys: Vec<u64> = (0..10_000).map(|i| i * 7).collect();
        let rmi = RecursiveModelIndex::build(keys.clone(), 64);
        let (mean, max) = rmi.error_profile();
        assert!(mean < 3.5, "mean window {mean}");
        assert!(max <= 5, "max window {max}");
        let (pos, window) = rmi.lookup(keys[5000]);
        assert_eq!(pos, Some(5000));
        assert!(window <= 5);
    }

    #[test]
    fn smaller_than_btree_on_smooth_data() {
        use crate::btree::BTreeIndex;
        let keys = KeyDistribution::Uniform.generate(100_000, 1);
        let rmi = RecursiveModelIndex::build(keys.clone(), 512);
        let bt = BTreeIndex::build_default(keys);
        assert!(
            rmi.size_bytes() < bt.size_bytes(),
            "rmi {} vs btree {}",
            rmi.size_bytes(),
            bt.size_bytes()
        );
    }

    #[test]
    fn clustered_keys_blow_up_windows() {
        let uniform = KeyDistribution::Uniform.generate(50_000, 2);
        let clustered = KeyDistribution::Clustered.generate(50_000, 2);
        let leaf = 128;
        let (mean_u, _) = RecursiveModelIndex::build(uniform, leaf).error_profile();
        let (mean_c, _) = RecursiveModelIndex::build(clustered, leaf).error_profile();
        assert!(
            mean_c > mean_u,
            "clustered ({mean_c}) should be harder than uniform ({mean_u})"
        );
    }

    #[test]
    fn more_leaves_shrink_windows() {
        let keys = KeyDistribution::Lognormal.generate(50_000, 3);
        let (coarse, _) = RecursiveModelIndex::build(keys.clone(), 16).error_profile();
        let (fine, _) = RecursiveModelIndex::build(keys, 1024).error_profile();
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn empty_and_single_key() {
        let rmi = RecursiveModelIndex::build(vec![], 4);
        assert_eq!(rmi.lookup(1).0, None);
        let rmi = RecursiveModelIndex::build(vec![9], 4);
        assert_eq!(rmi.lookup(9).0, Some(0));
        assert_eq!(rmi.lookup(8).0, None);
    }

    /// RMI lookups agree with binary search on arbitrary key sets.
    #[test]
    fn lookup_always_correct() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..400);
            let raw: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..1_000_000)).collect();
            let probe = rng.gen_range(0u64..1_000_000);
            let leaves = rng.gen_range(1usize..64);
            let keys: Vec<u64> = raw.into_iter().collect();
            let rmi = RecursiveModelIndex::build(keys.clone(), leaves);
            let (pos, _) = rmi.lookup(probe);
            match keys.binary_search(&probe) {
                Ok(i) => assert_eq!(pos, Some(i), "case {case}"),
                Err(_) => assert_eq!(pos, None, "case {case}"),
            }
        }
    }
}

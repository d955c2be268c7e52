//! Classic and learned Bloom filters.
//!
//! The learned Bloom filter (Kraska et al.) replaces most of the bit array
//! with a model: a tiny neural classifier predicts membership from key
//! features; keys the model rejects are double-checked against a small
//! **backup** Bloom filter built over the model's false negatives, which
//! restores the classic structure's zero-false-negative guarantee. When
//! the key set is learnable, the model + backup together need less memory
//! than a classic filter at the same false-positive rate (E12).

use dl_nn::{loss::one_hot, Dataset, Loss, Network, Optimizer};
use dl_tensor::{init, Tensor};

/// A classic Bloom filter over `u64` keys with double hashing.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    nbits: usize,
    k: u32,
}

impl BloomFilter {
    /// A filter with `nbits` bits and `k` hash functions.
    ///
    /// # Panics
    /// Panics when `nbits == 0` or `k == 0`.
    pub fn new(nbits: usize, k: u32) -> Self {
        assert!(nbits > 0 && k > 0, "nbits and k must be positive");
        BloomFilter {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
            k,
        }
    }

    /// Sizes a filter for `n` keys at target false-positive rate `fpr`
    /// using the standard formulas.
    pub fn with_fpr(n: usize, fpr: f64) -> Self {
        assert!(fpr > 0.0 && fpr < 1.0, "fpr must lie in (0,1)");
        let nbits = (-(n.max(1) as f64) * fpr.ln() / (2f64.ln().powi(2))).ceil() as usize;
        let k = ((nbits as f64 / n.max(1) as f64) * 2f64.ln())
            .round()
            .max(1.0) as u32;
        BloomFilter::new(nbits.max(8), k)
    }

    fn hashes(&self, key: u64) -> (u64, u64) {
        // two independent 64-bit mixes (splitmix64 variants)
        let mut h1 = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h1 = (h1 ^ (h1 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h1 = (h1 ^ (h1 >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h1 ^= h1 >> 31;
        let mut h2 = key.wrapping_add(0xD1B5_4A32_D192_ED03);
        h2 = (h2 ^ (h2 >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h2 = (h2 ^ (h2 >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h2 ^= h2 >> 33;
        (h1, h2 | 1)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = self.hashes(key);
        for i in 0..self.k {
            let bit = (h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.nbits as u64) as usize;
            self.bits[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Membership query (false positives possible, false negatives not).
    pub fn contains(&self, key: u64) -> bool {
        let (h1, h2) = self.hashes(key);
        (0..self.k).all(|i| {
            let bit = (h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.nbits as u64) as usize;
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        })
    }

    /// Filter size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Empirical false-positive rate over a set of known-absent keys.
    pub fn empirical_fpr(&self, absent: &[u64]) -> f64 {
        if absent.is_empty() {
            return 0.0;
        }
        absent.iter().filter(|&&k| self.contains(k)).count() as f64 / absent.len() as f64
    }
}

/// Feature map for keys: normalized value, byte patterns and bit parities
/// give the classifier something learnable for structured key sets.
fn key_features(key: u64, max_key: u64) -> Vec<f32> {
    let norm = key as f64 / max_key.max(1) as f64;
    vec![
        norm as f32,
        (norm * 256.0).fract() as f32,
        (norm * 65536.0).fract() as f32,
        (key % 2) as f32,
        (key % 10) as f32 / 10.0,
        (key % 1000) as f32 / 1000.0,
    ]
}

/// A learned Bloom filter: classifier + threshold + backup filter.
#[derive(Debug, Clone)]
pub struct LearnedBloom {
    model: Network,
    threshold: f32,
    backup: BloomFilter,
    max_key: u64,
}

impl LearnedBloom {
    /// Trains a learned filter over `keys`, using `negatives` as the
    /// non-member training sample, targeting roughly `target_fpr` from the
    /// model side. The backup filter is sized for the model's false
    /// negatives at the chosen threshold.
    ///
    /// # Panics
    /// Panics when `keys` or `negatives` is empty.
    pub fn build(keys: &[u64], negatives: &[u64], target_fpr: f64, seed: u64) -> Self {
        assert!(
            !keys.is_empty() && !negatives.is_empty(),
            "need keys and negatives"
        );
        let max_key = keys
            .iter()
            .chain(negatives.iter())
            .copied()
            .max()
            .expect("non-empty");
        // training set: members (1) + negatives (0)
        let mut xs: Vec<f32> = Vec::with_capacity((keys.len() + negatives.len()) * 6);
        let mut ys = Vec::with_capacity(keys.len() + negatives.len());
        for &k in keys {
            xs.extend(key_features(k, max_key));
            ys.push(1usize);
        }
        for &k in negatives {
            xs.extend(key_features(k, max_key));
            ys.push(0usize);
        }
        let x = Tensor::from_vec(xs, [ys.len(), 6]).expect("feature length");
        let data = Dataset::new(x.clone(), ys, 2);
        let mut rng = init::rng(seed);
        let mut model = Network::mlp(&[6, 12, 2], &mut rng);
        let mut opt = Optimizer::adam(0.02);
        // brief full-batch training
        let targets = one_hot(&data.y, 2);
        for _ in 0..150 {
            let logits = model.forward(&data.x, true);
            let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
            model.backward(&grad);
            let mut pg = model.params_and_grads();
            opt.step(&mut pg, 1.0);
        }
        model.clear_caches();
        // choose the threshold whose FPR on the negative sample ~ target
        let neg_scores = Self::scores(&mut model, negatives, max_key);
        let mut sorted = neg_scores.clone();
        sorted.sort_by(f32::total_cmp);
        let idx = ((sorted.len() as f64) * (1.0 - target_fpr)).floor() as usize;
        let threshold = sorted[idx.min(sorted.len() - 1)].max(0.5);
        // backup filter over false negatives
        let key_scores = Self::scores(&mut model, keys, max_key);
        let false_negatives: Vec<u64> = keys
            .iter()
            .zip(&key_scores)
            .filter(|(_, &s)| s < threshold)
            .map(|(&k, _)| k)
            .collect();
        let mut backup = BloomFilter::with_fpr(false_negatives.len().max(1), target_fpr);
        for &k in &false_negatives {
            backup.insert(k);
        }
        LearnedBloom {
            model,
            threshold,
            backup,
            max_key,
        }
    }

    fn scores(model: &mut Network, keys: &[u64], max_key: u64) -> Vec<f32> {
        let xs: Vec<f32> = keys
            .iter()
            .flat_map(|&k| key_features(k, max_key))
            .collect();
        let x = Tensor::from_vec(xs, [keys.len(), 6]).expect("feature length");
        let p = model.predict_proba(&x);
        (0..keys.len()).map(|i| p.get(&[i, 1])).collect()
    }

    /// Membership query: model says yes, or backup says yes.
    /// Guaranteed no false negatives for the build keys.
    pub fn contains(&mut self, key: u64) -> bool {
        let score = Self::scores(&mut self.model, &[key], self.max_key)[0];
        if score >= self.threshold {
            true
        } else {
            self.backup.contains(key)
        }
    }

    /// Total size: model parameters + backup filter.
    pub fn size_bytes(&self) -> usize {
        self.model.param_count() * 4 + self.backup.size_bytes()
    }

    /// Empirical FPR over known-absent keys.
    pub fn empirical_fpr(&mut self, absent: &[u64]) -> f64 {
        if absent.is_empty() {
            return 0.0;
        }
        let hits = absent.iter().filter(|&&k| self.contains(k)).count();
        hits as f64 / absent.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::keys::absent_keys;
    use rand::Rng;
    use std::collections::BTreeSet;

    #[test]
    fn bloom_never_false_negative() {
        let mut f = BloomFilter::with_fpr(1000, 0.01);
        let keys: Vec<u64> = (0..1000).map(|i| i * 17 + 3).collect();
        for &k in &keys {
            f.insert(k);
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn bloom_fpr_near_target() {
        let n = 5000;
        let mut f = BloomFilter::with_fpr(n, 0.02);
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 31 + 1).collect();
        for &k in &keys {
            f.insert(k);
        }
        let mut rng = init::rng(0);
        let absent = absent_keys(&keys, 20_000, &mut rng);
        let fpr = f.empirical_fpr(&absent);
        assert!(fpr < 0.05, "fpr {fpr} far above the 2% target");
    }

    #[test]
    fn bloom_size_grows_with_lower_fpr() {
        assert!(
            BloomFilter::with_fpr(1000, 0.001).size_bytes()
                > BloomFilter::with_fpr(1000, 0.1).size_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "fpr must lie")]
    fn bloom_rejects_bad_fpr() {
        BloomFilter::with_fpr(100, 0.0);
    }

    #[test]
    fn learned_bloom_no_false_negatives() {
        // learnable key set: all even-ish keys in a range
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 2).collect();
        let mut rng = init::rng(1);
        let negatives = absent_keys(&keys, 2000, &mut rng);
        let mut lb = LearnedBloom::build(&keys, &negatives, 0.05, 0);
        for &k in keys.iter().step_by(37) {
            assert!(lb.contains(k), "false negative on {k}");
        }
    }

    #[test]
    fn learned_bloom_fpr_reasonable() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i * 2).collect();
        let mut rng = init::rng(2);
        let train_neg = absent_keys(&keys, 2000, &mut rng);
        let test_neg = absent_keys(&keys, 4000, &mut rng);
        let mut lb = LearnedBloom::build(&keys, &train_neg, 0.05, 0);
        let fpr = lb.empirical_fpr(&test_neg);
        assert!(fpr < 0.3, "learned filter fpr {fpr} out of control");
    }

    /// The zero-false-negative guarantee holds for arbitrary key sets
    /// (the model may be useless; the backup must still catch misses).
    #[test]
    fn learned_bloom_guarantee() {
        for case in 0..256 {
            let mut rng = init::rng(case);
            let len = rng.gen_range(10..60);
            let raw: BTreeSet<u64> = (0..len).map(|_| rng.gen_range(0..100_000)).collect();
            let seed = rng.gen_range(0u64..10);
            let keys: Vec<u64> = raw.into_iter().collect();
            let negatives = absent_keys(&keys, 50, &mut rng);
            let mut lb = LearnedBloom::build(&keys, &negatives, 0.1, seed);
            for &k in &keys {
                assert!(lb.contains(k), "case {case}: false negative on {k}");
            }
        }
    }
}

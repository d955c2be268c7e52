//! Mistique-lite: a store for model intermediates.
//!
//! Mistique (Vartak et al., SIGMOD 2018) stores the activations a model
//! produces across training so diagnosis queries ("how did this neuron's
//! behaviour evolve?") don't require rerunning the model. Its two core
//! storage tricks are reproduced here:
//!
//! * **quantization** — activations are stored as 8-bit codes on a
//!   store-wide grid (analysis tolerates the precision loss),
//! * **deduplication** — identical quantized row-chunks (common across
//!   adjacent epochs, since activations drift slowly) are stored once and
//!   referenced by content hash.
//!
//! The store reports logical vs. physical bytes so experiment E19 can plot
//! the footprint saving, and per-query touched-chunk counts as the
//! latency proxy.

use dl_tensor::Tensor;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Identifies one stored intermediate: a layer's activations at a
/// training snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntermediateKey {
    /// Training snapshot (e.g. epoch).
    pub snapshot: u32,
    /// Layer index.
    pub layer: u32,
}

/// One stored matrix: geometry + per-row chunk references.
#[derive(Debug, Clone)]
struct StoredMatrix {
    rows: usize,
    cols: usize,
    /// Content hash of each row chunk.
    chunks: Vec<u64>,
}

/// The intermediate store.
///
/// Quantization uses one **store-wide** range so that a row whose values
/// did not change between snapshots produces byte-identical codes — the
/// property content deduplication depends on. Values outside the range are
/// clamped.
#[derive(Debug)]
pub struct IntermediateStore {
    matrices: HashMap<IntermediateKey, StoredMatrix>,
    /// Content-addressed chunk storage.
    chunk_data: HashMap<u64, Vec<u8>>,
    /// Logical bytes if everything were stored as f32 (for the report).
    logical_bytes: u64,
    dedup_hits: u64,
    lo: f32,
    hi: f32,
}

impl Default for IntermediateStore {
    fn default() -> Self {
        IntermediateStore::new()
    }
}

/// Footprint and behaviour statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes the intermediates would occupy as raw f32.
    pub logical_bytes: u64,
    /// Bytes actually held (quantized, deduplicated chunks + headers).
    pub physical_bytes: u64,
    /// Number of row-chunks that were deduplicated away.
    pub dedup_hits: u64,
    /// Number of stored matrices.
    pub matrices: usize,
}

impl StoreStats {
    /// Compression factor (logical / physical).
    pub fn ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.physical_bytes.max(1) as f64
    }
}

impl IntermediateStore {
    /// An empty store with the default quantization range `[-8, 8]`.
    pub fn new() -> Self {
        IntermediateStore::with_range(-8.0, 8.0)
    }

    /// An empty store quantizing into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    fn with_range(lo: f32, hi: f32) -> Self {
        assert!(lo < hi, "quantization range must be non-empty");
        IntermediateStore {
            matrices: HashMap::new(),
            chunk_data: HashMap::new(),
            logical_bytes: 0,
            dedup_hits: 0,
            lo,
            hi,
        }
    }

    fn scale(&self) -> f32 {
        (self.hi - self.lo) / 255.0
    }

    /// Stores a `[rows, cols]` activation matrix under `key`, quantizing
    /// to 8 bits and deduplicating identical rows.
    ///
    /// # Panics
    /// Panics when the key is already present or the tensor is not a
    /// matrix.
    pub fn put(&mut self, key: IntermediateKey, acts: &Tensor) {
        assert_eq!(acts.rank(), 2, "store expects [rows, cols] activations");
        assert!(
            !self.matrices.contains_key(&key),
            "key {key:?} already stored"
        );
        let (rows, cols) = (acts.dims()[0], acts.dims()[1]);
        let scale = self.scale();
        let lo = self.lo;
        let mut chunks = Vec::with_capacity(rows);
        for r in 0..rows {
            let row: Vec<u8> = (0..cols)
                .map(|c| {
                    let clamped = acts.get(&[r, c]).clamp(self.lo, self.hi);
                    (((clamped - lo) / scale).round() as u32).min(255) as u8
                })
                .collect();
            let mut hasher = DefaultHasher::new();
            row.hash(&mut hasher);
            let h = hasher.finish();
            if let Some(existing) = self.chunk_data.get(&h) {
                // hash collision check: verify content matches
                if *existing == row {
                    self.dedup_hits += 1;
                } else {
                    // extremely unlikely; fall back to salted hash
                    let mut salt = DefaultHasher::new();
                    (h, &row).hash(&mut salt);
                    let h2 = salt.finish();
                    self.chunk_data.insert(h2, row);
                    chunks.push(h2);
                    self.logical_bytes += (cols * 4) as u64;
                    continue;
                }
            } else {
                self.chunk_data.insert(h, row);
            }
            chunks.push(h);
        }
        self.logical_bytes += (rows * cols * 4) as u64;
        self.matrices
            .insert(key, StoredMatrix { rows, cols, chunks });
    }

    /// Fetches (dequantizes) a stored matrix. Returns the tensor and the
    /// number of chunks touched (the query-latency proxy).
    pub fn get(&self, key: IntermediateKey) -> Option<(Tensor, usize)> {
        let m = self.matrices.get(&key)?;
        let (lo, scale) = (self.lo, self.scale());
        let mut data = Vec::with_capacity(m.rows * m.cols);
        for &h in &m.chunks {
            let chunk = self.chunk_data.get(&h).expect("chunk must exist");
            data.extend(chunk.iter().map(|&c| lo + scale * f32::from(c)));
        }
        Some((
            Tensor::from_vec(data, [m.rows, m.cols]).expect("length matches"),
            m.chunks.len(),
        ))
    }

    /// Fetches a single row (one sample's activations) touching only one
    /// chunk — the point-query path Mistique optimizes for.
    pub fn get_row(&self, key: IntermediateKey, row: usize) -> Option<(Vec<f32>, usize)> {
        let m = self.matrices.get(&key)?;
        if row >= m.rows {
            return None;
        }
        let chunk = self.chunk_data.get(&m.chunks[row]).expect("chunk exists");
        let (lo, scale) = (self.lo, self.scale());
        Some((
            chunk.iter().map(|&c| lo + scale * f32::from(c)).collect(),
            1,
        ))
    }

    /// Current footprint statistics.
    pub fn stats(&self) -> StoreStats {
        let chunk_bytes: u64 = self.chunk_data.values().map(|b| b.len() as u64).sum();
        let header_bytes: u64 = self
            .matrices
            .values()
            .map(|m| (m.chunks.len() * 8 + 16) as u64)
            .sum();
        StoreStats {
            logical_bytes: self.logical_bytes,
            physical_bytes: chunk_bytes + header_bytes,
            dedup_hits: self.dedup_hits,
            matrices: self.matrices.len(),
        }
    }

    /// Stored snapshot/layer keys, unordered.
    pub fn keys(&self) -> Vec<IntermediateKey> {
        self.matrices.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init::{self, rng};

    fn key(s: u32, l: u32) -> IntermediateKey {
        IntermediateKey {
            snapshot: s,
            layer: l,
        }
    }

    #[test]
    fn roundtrip_within_quantization_error() {
        let mut store = IntermediateStore::new();
        let mut r = rng(0);
        let acts = init::uniform([32, 16], -1.0, 1.0, &mut r);
        store.put(key(0, 0), &acts);
        let (back, touched) = store.get(key(0, 0)).expect("stored");
        assert_eq!(back.dims(), &[32, 16]);
        assert_eq!(touched, 32);
        let max_err = (&back - &acts).map(f32::abs).max();
        // half a quantization step of the [-8, 8] store range
        assert!(max_err <= 8.0 / 255.0 + 1e-6, "max error {max_err}");
    }

    #[test]
    fn quantization_alone_gives_4x() {
        let mut store = IntermediateStore::new();
        let mut r = rng(1);
        // unique random rows: no dedup possible
        let acts = init::uniform([64, 64], -1.0, 1.0, &mut r);
        store.put(key(0, 0), &acts);
        let stats = store.stats();
        assert!(stats.ratio() > 3.0, "ratio {}", stats.ratio());
        assert_eq!(stats.dedup_hits, 0);
    }

    #[test]
    fn identical_snapshots_dedup_to_one_copy() {
        let mut store = IntermediateStore::new();
        let mut r = rng(2);
        let acts = init::uniform([50, 32], -1.0, 1.0, &mut r);
        for epoch in 0..10 {
            store.put(key(epoch, 0), &acts);
        }
        let stats = store.stats();
        assert_eq!(stats.dedup_hits, 9 * 50);
        // 10 epochs stored for one epoch's chunks (headers remain per epoch)
        assert!(stats.ratio() > 10.0, "ratio {}", stats.ratio());
    }

    #[test]
    fn drifting_activations_dedup_partially() {
        let mut store = IntermediateStore::new();
        let mut r = rng(3);
        let base = init::uniform([100, 16], -1.0, 1.0, &mut r);
        store.put(key(0, 0), &base);
        // epoch 1: only 10 rows change
        let mut drifted = base.clone();
        for i in 0..10 {
            for c in 0..16 {
                drifted.set(&[i, c], drifted.get(&[i, c]) + 0.5);
            }
        }
        store.put(key(1, 0), &drifted);
        let stats = store.stats();
        // the store-wide quantization grid keeps unchanged rows
        // byte-identical: exactly the 90 untouched rows dedup
        assert_eq!(stats.dedup_hits, 90);
    }

    #[test]
    fn point_queries_touch_one_chunk() {
        let mut store = IntermediateStore::new();
        let mut r = rng(4);
        let acts = init::uniform([20, 8], 0.0, 1.0, &mut r);
        store.put(key(0, 1), &acts);
        let (row, touched) = store.get_row(key(0, 1), 7).expect("stored");
        assert_eq!(touched, 1);
        assert_eq!(row.len(), 8);
        let step = 16.0 / 255.0; // store range [-8, 8] at 8 bits
        for (c, v) in row.iter().enumerate() {
            assert!((v - acts.get(&[7, c])).abs() <= step / 2.0 + 1e-6);
        }
        assert!(store.get_row(key(0, 1), 99).is_none());
    }

    #[test]
    fn missing_key_returns_none() {
        let store = IntermediateStore::new();
        assert!(store.get(key(9, 9)).is_none());
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn duplicate_key_rejected() {
        let mut store = IntermediateStore::new();
        let acts = Tensor::ones([2, 2]);
        store.put(key(0, 0), &acts);
        store.put(key(0, 0), &acts);
    }
}

//! Data Canopy: reusable statistics for exploratory analysis.
//!
//! Part 2's data-exploration thread cites the authors' own Data Canopy
//! (Wasay et al., SIGMOD 2017): exploratory statistics (means, variances,
//! correlations over arbitrary column ranges) decompose into *basic
//! aggregates* over fixed-size chunks — sums, sums of squares, sums of
//! products — which can be computed once, cached, and stitched together,
//! so repeated exploration stops re-scanning the data.
//!
//! This module implements that decomposition: a [`DataCanopy`] over a
//! numeric table caches per-chunk basic aggregates lazily and answers
//! range statistics from them, counting how many chunk aggregates were
//! served from cache vs. computed — the reuse the paper's speedups come
//! from.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Basic aggregates of one chunk of one column (or column pair).
#[derive(Debug, Clone, Copy, Default)]
struct ChunkAgg {
    sum: f64,
    sum_sq: f64,
    count: usize,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CanopyStats {
    /// Chunk aggregates served from cache.
    pub cache_hits: u64,
    /// Chunk aggregates computed by scanning.
    pub cache_misses: u64,
    /// Raw values scanned (the work a naive engine would do every query).
    pub values_scanned: u64,
}

/// A lazily-built canopy of basic aggregates over a column-major table.
pub struct DataCanopy {
    /// Column-major data: `columns[c][row]`.
    columns: Vec<Vec<f32>>,
    chunk: usize,
    /// `(column, chunk_index) -> aggregates`, built on demand.
    cache: Mutex<HashMap<(usize, usize), ChunkAgg>>,
    /// `(col_a, col_b, chunk_index) -> sum of products`, built on demand.
    prod_cache: Mutex<HashMap<(usize, usize, usize), f64>>,
    stats: Mutex<CanopyStats>,
}

/// Locks a cache. A panic while holding the lock cannot leave a cached
/// aggregate half-written, so a poisoned lock's data is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DataCanopy {
    /// Builds a canopy over column-major data with the given chunk size.
    ///
    /// # Panics
    /// Panics when columns are empty or ragged, or `chunk == 0`.
    pub fn new(columns: Vec<Vec<f32>>, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(!columns.is_empty(), "need at least one column");
        let rows = columns[0].len();
        assert!(rows > 0, "need at least one row");
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "columns must have equal length"
        );
        DataCanopy {
            columns,
            chunk,
            cache: Mutex::new(HashMap::new()),
            prod_cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(CanopyStats::default()),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns[0].len()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CanopyStats {
        *lock(&self.stats)
    }

    /// Chunk aggregate for `(col, chunk_idx)`, cached.
    fn chunk_agg(&self, col: usize, chunk_idx: usize) -> ChunkAgg {
        if let Some(&agg) = lock(&self.cache).get(&(col, chunk_idx)) {
            lock(&self.stats).cache_hits += 1;
            return agg;
        }
        let start = chunk_idx * self.chunk;
        let end = (start + self.chunk).min(self.rows());
        let slice = &self.columns[col][start..end];
        let mut agg = ChunkAgg {
            count: slice.len(),
            ..ChunkAgg::default()
        };
        for &v in slice {
            agg.sum += f64::from(v);
            agg.sum_sq += f64::from(v) * f64::from(v);
        }
        {
            let mut stats = lock(&self.stats);
            stats.cache_misses += 1;
            stats.values_scanned += slice.len() as u64;
        }
        lock(&self.cache).insert((col, chunk_idx), agg);
        agg
    }

    /// Sum of products over a chunk for a column pair, cached.
    fn chunk_prod(&self, a: usize, b: usize, chunk_idx: usize) -> f64 {
        let key = (a.min(b), a.max(b), chunk_idx);
        if let Some(&p) = lock(&self.prod_cache).get(&key) {
            lock(&self.stats).cache_hits += 1;
            return p;
        }
        let start = chunk_idx * self.chunk;
        let end = (start + self.chunk).min(self.rows());
        let p: f64 = self.columns[a][start..end]
            .iter()
            .zip(&self.columns[b][start..end])
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        {
            let mut stats = lock(&self.stats);
            stats.cache_misses += 1;
            stats.values_scanned += (end - start) as u64;
        }
        lock(&self.prod_cache).insert(key, p);
        p
    }

    /// Aggregates for `col` over row range `lo..hi`, stitched from chunks
    /// (partial edge chunks are scanned directly, as in the paper).
    fn range_agg(&self, col: usize, lo: usize, hi: usize) -> ChunkAgg {
        assert!(col < self.cols(), "column {col} out of range");
        assert!(lo < hi && hi <= self.rows(), "bad row range {lo}..{hi}");
        let mut total = ChunkAgg::default();
        let add_scan = |total: &mut ChunkAgg, a: usize, b: usize| {
            for &v in &self.columns[col][a..b] {
                total.sum += f64::from(v);
                total.sum_sq += f64::from(v) * f64::from(v);
            }
            total.count += b - a;
            lock(&self.stats).values_scanned += (b - a) as u64;
        };
        let first_full = lo.div_ceil(self.chunk);
        let last_full = hi / self.chunk;
        if first_full >= last_full {
            // range inside one or two chunks: scan directly
            add_scan(&mut total, lo, hi);
            return total;
        }
        if lo < first_full * self.chunk {
            add_scan(&mut total, lo, first_full * self.chunk);
        }
        for c in first_full..last_full {
            let agg = self.chunk_agg(col, c);
            total.sum += agg.sum;
            total.sum_sq += agg.sum_sq;
            total.count += agg.count;
        }
        if last_full * self.chunk < hi {
            add_scan(&mut total, last_full * self.chunk, hi);
        }
        total
    }

    /// Mean of `col` over rows `lo..hi`.
    pub fn mean(&self, col: usize, lo: usize, hi: usize) -> f64 {
        let a = self.range_agg(col, lo, hi);
        a.sum / a.count as f64
    }

    /// Population variance of `col` over rows `lo..hi`.
    fn variance(&self, col: usize, lo: usize, hi: usize) -> f64 {
        let a = self.range_agg(col, lo, hi);
        let mean = a.sum / a.count as f64;
        (a.sum_sq / a.count as f64 - mean * mean).max(0.0)
    }

    /// Standard deviation of `col` over rows `lo..hi`.
    pub fn std(&self, col: usize, lo: usize, hi: usize) -> f64 {
        self.variance(col, lo, hi).sqrt()
    }

    /// Pearson correlation of two columns over rows `lo..hi` (chunk-aligned
    /// product aggregates are cached; edges scanned).
    pub fn correlation(&self, a: usize, b: usize, lo: usize, hi: usize) -> f64 {
        assert!(a < self.cols() && b < self.cols(), "column out of range");
        assert!(lo < hi && hi <= self.rows(), "bad row range");
        let agg_a = self.range_agg(a, lo, hi);
        let agg_b = self.range_agg(b, lo, hi);
        // sum of products over the range
        let first_full = lo.div_ceil(self.chunk);
        let last_full = hi / self.chunk;
        let mut sum_prod = 0.0f64;
        let scan = |acc: &mut f64, s: usize, e: usize| {
            *acc += self.columns[a][s..e]
                .iter()
                .zip(&self.columns[b][s..e])
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum::<f64>();
            lock(&self.stats).values_scanned += (e - s) as u64;
        };
        if first_full >= last_full {
            scan(&mut sum_prod, lo, hi);
        } else {
            if lo < first_full * self.chunk {
                scan(&mut sum_prod, lo, first_full * self.chunk);
            }
            for c in first_full..last_full {
                sum_prod += self.chunk_prod(a, b, c);
            }
            if last_full * self.chunk < hi {
                scan(&mut sum_prod, last_full * self.chunk, hi);
            }
        }
        let n = (hi - lo) as f64;
        let cov = sum_prod / n - (agg_a.sum / n) * (agg_b.sum / n);
        let var_a = agg_a.sum_sq / n - (agg_a.sum / n).powi(2);
        let var_b = agg_b.sum_sq / n - (agg_b.sum / n).powi(2);
        let denom = (var_a * var_b).sqrt();
        if denom <= 1e-300 {
            0.0
        } else {
            cov / denom
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init;
    use rand::Rng;

    fn table(rows: usize, cols: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = init::rng(seed);
        (0..cols)
            .map(|_| init::uniform([rows], -5.0, 5.0, &mut rng).data().to_vec())
            .collect()
    }

    fn naive_mean(col: &[f32], lo: usize, hi: usize) -> f64 {
        col[lo..hi].iter().map(|&v| f64::from(v)).sum::<f64>() / (hi - lo) as f64
    }

    #[test]
    fn mean_matches_naive() {
        let data = table(1000, 2, 0);
        let canopy = DataCanopy::new(data.clone(), 64);
        for (lo, hi) in [(0, 1000), (13, 977), (100, 101), (0, 64), (63, 65)] {
            let got = canopy.mean(0, lo, hi);
            let want = naive_mean(&data[0], lo, hi);
            assert!((got - want).abs() < 1e-6, "{lo}..{hi}: {got} vs {want}");
        }
    }

    #[test]
    fn variance_and_std_match_naive() {
        let data = table(500, 1, 1);
        let canopy = DataCanopy::new(data.clone(), 32);
        let (lo, hi) = (17, 483);
        let mean = naive_mean(&data[0], lo, hi);
        let want: f64 = data[0][lo..hi]
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / (hi - lo) as f64;
        assert!((canopy.variance(0, lo, hi) - want).abs() < 1e-6);
        assert!((canopy.std(0, lo, hi) - want.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn correlation_matches_naive() {
        // strongly correlated pair
        let mut rng = init::rng(2);
        let base = init::uniform([800], -1.0, 1.0, &mut rng).data().to_vec();
        let noisy: Vec<f32> = base
            .iter()
            .map(|&v| v + 0.1 * init::uniform([1], -1.0, 1.0, &mut rng).data()[0])
            .collect();
        let canopy = DataCanopy::new(vec![base.clone(), noisy.clone()], 64);
        let got = canopy.correlation(0, 1, 0, 800);
        assert!(got > 0.95, "correlation {got}");
        // symmetric
        assert!((canopy.correlation(1, 0, 0, 800) - got).abs() < 1e-12);
    }

    #[test]
    fn repeated_queries_reuse_chunks() {
        let data = table(10_000, 1, 3);
        let canopy = DataCanopy::new(data, 128);
        canopy.mean(0, 0, 10_000);
        let after_first = canopy.stats();
        assert!(after_first.cache_misses > 70);
        assert_eq!(after_first.cache_hits, 0);
        // overlapping follow-up: almost all chunks come from cache
        canopy.mean(0, 0, 9_000);
        let after_second = canopy.stats();
        assert!(
            after_second.cache_hits >= 69,
            "expected reuse, stats {after_second:?}"
        );
        // naive engine would have scanned 19k values; the canopy far less
        assert!(after_second.values_scanned < 11_000);
    }

    #[test]
    fn variance_queries_reuse_mean_chunks() {
        // mean and variance share the same basic aggregates
        let data = table(4096, 1, 4);
        let canopy = DataCanopy::new(data, 64);
        canopy.mean(0, 0, 4096);
        let before = canopy.stats().values_scanned;
        canopy.variance(0, 0, 4096);
        let after = canopy.stats().values_scanned;
        assert_eq!(before, after, "variance re-scanned data it already had");
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn rejects_empty_range() {
        let canopy = DataCanopy::new(table(10, 1, 5), 4);
        canopy.mean(0, 5, 5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_columns() {
        DataCanopy::new(vec![vec![1.0, 2.0], vec![1.0]], 4);
    }

    /// Canopy means equal naive means on arbitrary ranges/chunk sizes.
    #[test]
    fn mean_always_matches() {
        for case in 0..256 {
            let mut rng = init::rng(case);
            let rows = rng.gen_range(2usize..300);
            let chunk = rng.gen_range(1usize..64);
            let seed = rng.gen_range(0u64..50);
            let frac_lo = rng.gen_range(0.0f64..0.9);
            let frac_len = rng.gen_range(0.01f64..1.0);
            let data = table(rows, 1, seed);
            let lo = ((rows - 1) as f64 * frac_lo) as usize;
            let hi = (lo + 1 + ((rows - lo - 1) as f64 * frac_len) as usize).min(rows);
            let canopy = DataCanopy::new(data.clone(), chunk);
            let got = canopy.mean(0, lo, hi);
            let want = naive_mean(&data[0], lo, hi);
            assert!((got - want).abs() < 1e-5, "case {case}");
        }
    }
}

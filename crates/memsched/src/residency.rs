//! Residency pricing for a memory-budgeted model store.
//!
//! The weight store in `dl-serve` hosts many model families under one
//! byte budget; when a cold model must come in, something resident has to
//! go. Evicting is free — reloading is not. This module prices that
//! choice with the same bandwidth-plus-latency arithmetic the rest of
//! the crate uses (offload transfers, checkpoint storage): the cost of
//! evicting a model is the expected seconds of reload delay it pushes
//! onto future requests.
//!
//! [`eviction_score`] folds the reload price together with observed
//! access behaviour (recency and frequency): the best victim is the
//! model that is cheap to bring back and unlikely to be asked for soon.
//! Lower score = better victim.

/// What it costs to bring one artifact back from storage.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a reload price is pure data; dropping it discards the estimate"]
pub struct ReloadCost {
    /// Artifact size in bytes.
    pub bytes: u64,
    /// Seconds to read the artifact back at the link's bandwidth,
    /// including fixed per-operation latency.
    pub seconds: f64,
}

/// Prices one reload of `bytes` over a link sustaining `read_bandwidth`
/// bytes/s with `latency` seconds of fixed per-operation overhead —
/// the same `latency + bytes / bandwidth` model `dl-distributed` charges
/// for checkpoint restores.
///
/// # Panics
/// Panics unless `read_bandwidth` is positive and `latency` is
/// non-negative.
pub fn reload_cost(bytes: u64, read_bandwidth: f64, latency: f64) -> ReloadCost {
    assert!(read_bandwidth > 0.0, "read bandwidth must be positive");
    assert!(latency >= 0.0, "latency must be non-negative");
    ReloadCost {
        bytes,
        seconds: latency + bytes as f64 / read_bandwidth,
    }
}

/// Access history of one resident model, as seen by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Requests served since the model became resident.
    pub hits: u64,
    /// Logical tick (store access counter) of the most recent hit;
    /// the tick at load time when the model has not been hit yet.
    pub last_access: u64,
}

/// Scores a resident model as an eviction victim; **lower is a better
/// victim**.
///
/// The score is the reload price discounted by how stale the model is
/// and amplified by how hot it has been:
///
/// ```text
/// score = reload_seconds * (1 + hits) / (1 + age)
/// ```
///
/// where `age = now_tick - last_access` in store accesses. A model that
/// was just used (age 0) keeps its full weighted reload price; one idle
/// for many accesses sees its price melt away regardless of size. Pure
/// LRU is the special case of ignoring the price and hit count and
/// evicting the largest `age`.
///
/// # Panics
/// Panics if `now_tick` precedes `stats.last_access` (ticks never
/// rewind).
#[must_use]
pub fn eviction_score(cost: ReloadCost, stats: ResidencyStats, now_tick: u64) -> f64 {
    assert!(
        now_tick >= stats.last_access,
        "store ticks never rewind: now {now_tick} < last access {}",
        stats.last_access
    );
    let age = now_tick - stats.last_access;
    cost.seconds * (1.0 + stats.hits as f64) / (1.0 + age as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reload_matches_bandwidth_plus_latency() {
        let c = reload_cost(2_000_000_000, 2.0e9, 1.0e-4);
        assert!((c.seconds - 1.0001).abs() < 1e-12);
        assert_eq!(c.bytes, 2_000_000_000);
    }

    #[test]
    fn zero_bytes_still_pays_latency() {
        let c = reload_cost(0, 1e9, 2e-3);
        assert_eq!(c.seconds, 2e-3);
    }

    #[test]
    fn staler_models_are_better_victims() {
        let c = reload_cost(100_000_000, 1e9, 1e-4);
        let hot = ResidencyStats {
            hits: 5,
            last_access: 100,
        };
        let cold = ResidencyStats {
            hits: 5,
            last_access: 10,
        };
        assert!(eviction_score(c, cold, 100) < eviction_score(c, hot, 100));
    }

    #[test]
    fn cheaper_reloads_are_better_victims() {
        let small = reload_cost(1_000_000, 1e9, 1e-4);
        let big = reload_cost(1_000_000_000, 1e9, 1e-4);
        let s = ResidencyStats {
            hits: 3,
            last_access: 50,
        };
        assert!(eviction_score(small, s, 60) < eviction_score(big, s, 60));
    }

    #[test]
    fn hotter_models_are_worse_victims() {
        let c = reload_cost(50_000_000, 1e9, 1e-4);
        let rare = ResidencyStats {
            hits: 1,
            last_access: 40,
        };
        let hot = ResidencyStats {
            hits: 100,
            last_access: 40,
        };
        assert!(eviction_score(c, rare, 50) < eviction_score(c, hot, 50));
    }

    #[test]
    #[should_panic(expected = "never rewind")]
    fn rewinding_ticks_panic() {
        let c = reload_cost(1, 1e9, 0.0);
        let s = ResidencyStats {
            hits: 0,
            last_access: 10,
        };
        let _ = eviction_score(c, s, 5);
    }
}

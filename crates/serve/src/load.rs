//! Seeded open-loop load generation.
//!
//! Open-loop means arrivals are scheduled by an external Poisson process
//! that does not wait for responses — the regime where queueing delay
//! actually shows up (a closed loop self-throttles and hides saturation).
//! Everything is drawn from one seeded `StdRng`, so a load schedule is a
//! pure function of its config and two engine runs see identical traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stable id (arrival order).
    pub id: u64,
    /// Arrival time in simulated seconds.
    pub arrival_s: f64,
    /// Row index into the serving dataset this request asks about.
    pub sample: usize,
}

/// Open-loop generator config.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Mean arrival rate, requests per simulated second.
    pub rate_rps: f64,
    /// Total requests to generate.
    pub requests: usize,
    /// RNG seed (inter-arrival gaps and sample choice).
    pub seed: u64,
}

/// Generates a Poisson arrival schedule: exponential inter-arrival gaps
/// at `rate_rps`, each request asking about a uniformly drawn row of a
/// `n_samples`-row dataset.
///
/// # Panics
/// Panics when the rate is not positive-finite or `n_samples` is zero.
#[must_use]
pub fn open_loop(cfg: &LoadConfig, n_samples: usize) -> Vec<Request> {
    assert!(
        cfg.rate_rps.is_finite() && cfg.rate_rps > 0.0,
        "arrival rate must be positive, got {}",
        cfg.rate_rps
    );
    assert!(n_samples > 0, "need at least one sample row");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    (0..cfg.requests as u64)
        .map(|id| {
            // Inverse-CDF exponential; 1-u keeps the argument in (0, 1].
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / cfg.rate_rps;
            Request {
                id,
                arrival_s: t,
                sample: rng.gen_range(0..n_samples),
            }
        })
        .collect()
}

/// On/off rate modulation for [`bursty`] arrivals.
///
/// Each period starts in the *off* phase at the base rate and switches to
/// the *on* phase (base rate × `multiplier`) for its last `duty`
/// fraction. Off-first means a single-period schedule is a clean load
/// step at `(1 - duty) * period_s` — the shape E27's autoscale-reaction
/// scenario drives.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstConfig {
    /// Modulation period in simulated seconds.
    pub period_s: f64,
    /// Fraction of each period spent in the burst phase, in `[0, 1]`.
    pub duty: f64,
    /// Rate multiplier during the burst phase (> 0; 1 disables
    /// modulation).
    pub multiplier: f64,
}

/// Generates a bursty open-loop schedule: a nonhomogeneous Poisson
/// process whose rate alternates between `cfg.rate_rps` and
/// `cfg.rate_rps * burst.multiplier` per [`BurstConfig`]'s on/off cycle.
///
/// Sampling is the exact piecewise inverse-CDF construction: each
/// arrival draws one unit-exponential variate and integrates it through
/// the piecewise-constant rate profile, so the schedule is a pure
/// function of the config — same seed, same bytes — and uses exactly the
/// same draw sequence as [`open_loop`] (one uniform gap draw plus one
/// sample draw per request).
///
/// # Panics
/// Panics when the rate, period or multiplier is not positive-finite,
/// duty lies outside `[0, 1]`, or `n_samples` is zero.
#[must_use]
pub fn bursty(cfg: &LoadConfig, burst: &BurstConfig, n_samples: usize) -> Vec<Request> {
    assert!(
        cfg.rate_rps.is_finite() && cfg.rate_rps > 0.0,
        "arrival rate must be positive, got {}",
        cfg.rate_rps
    );
    assert!(
        burst.period_s.is_finite() && burst.period_s > 0.0,
        "burst period must be positive, got {}",
        burst.period_s
    );
    assert!(
        (0.0..=1.0).contains(&burst.duty),
        "duty must lie in [0, 1], got {}",
        burst.duty
    );
    assert!(
        burst.multiplier.is_finite() && burst.multiplier > 0.0,
        "burst multiplier must be positive, got {}",
        burst.multiplier
    );
    assert!(n_samples > 0, "need at least one sample row");
    let p = burst.period_s;
    let off_len = (1.0 - burst.duty) * p;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t = 0.0f64;
    (0..cfg.requests as u64)
        .map(|id| {
            let u: f64 = rng.gen();
            // Unit exponential, integrated through the rate profile one
            // constant segment at a time.
            let mut e = -(1.0 - u).ln();
            loop {
                let phase = t - (t / p).floor() * p;
                let (rate, seg_end) = if phase < off_len {
                    (cfg.rate_rps, off_len)
                } else {
                    (cfg.rate_rps * burst.multiplier, p)
                };
                let remaining = seg_end - phase;
                if e / rate < remaining {
                    t += e / rate;
                    break;
                }
                t += remaining;
                e -= remaining * rate;
            }
            Request {
                id,
                arrival_s: t,
                sample: rng.gen_range(0..n_samples),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let cfg = LoadConfig {
            rate_rps: 1000.0,
            requests: 500,
            seed: 7,
        };
        let a = open_loop(&cfg, 64);
        let b = open_loop(&cfg, 64);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.iter().all(|r| r.sample < 64));
        assert_eq!(a.last().unwrap().id, 499);
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        for rate in [100.0, 10_000.0] {
            let cfg = LoadConfig {
                rate_rps: rate,
                requests: 4000,
                seed: 11,
            };
            let reqs = open_loop(&cfg, 10);
            let span = reqs.last().unwrap().arrival_s;
            let measured = reqs.len() as f64 / span;
            assert!(
                (measured / rate - 1.0).abs() < 0.1,
                "rate {rate}: measured {measured}"
            );
        }
    }

    #[test]
    fn bursty_modulates_rate_and_is_deterministic() {
        let cfg = LoadConfig {
            rate_rps: 1000.0,
            requests: 6000,
            seed: 13,
        };
        let burst = BurstConfig {
            period_s: 1.0,
            duty: 0.5,
            multiplier: 4.0,
        };
        let a = bursty(&cfg, &burst, 32);
        assert_eq!(a, bursty(&cfg, &burst, 32), "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // Count arrivals landing in off vs on phases over *complete*
        // periods only (the schedule ends mid-period, which would bias a
        // raw count ratio): the on phase should hold multiplier x the off
        // phase's traffic, both phases being half of every period here.
        let horizon = a.last().unwrap().arrival_s.floor();
        let (mut off, mut on) = (0usize, 0usize);
        for r in a.iter().filter(|r| r.arrival_s < horizon) {
            let phase = r.arrival_s.rem_euclid(1.0);
            if phase < 0.5 {
                off += 1;
            } else {
                on += 1;
            }
        }
        let ratio = on as f64 / off as f64;
        assert!(
            (ratio / 4.0 - 1.0).abs() < 0.15,
            "on/off ratio {ratio} should track the 4x multiplier"
        );
    }

    #[test]
    fn bursty_with_unit_multiplier_matches_poisson_rate() {
        let cfg = LoadConfig {
            rate_rps: 500.0,
            requests: 4000,
            seed: 17,
        };
        let flat = bursty(
            &cfg,
            &BurstConfig {
                period_s: 0.25,
                duty: 0.5,
                multiplier: 1.0,
            },
            8,
        );
        let span = flat.last().unwrap().arrival_s;
        let measured = flat.len() as f64 / span;
        assert!(
            (measured / 500.0 - 1.0).abs() < 0.1,
            "unit multiplier must reduce to plain Poisson: {measured}"
        );
        // Identical draw sequence: samples match open_loop's exactly.
        let plain = open_loop(&cfg, 8);
        assert!(flat.iter().zip(&plain).all(|(b, p)| b.sample == p.sample));
    }

    #[test]
    fn bursty_schedule_is_byte_stable() {
        // Pins the exact f64 bit patterns so any RNG or integration-order
        // change in the generator is caught, not just statistical drift.
        let reqs = bursty(
            &LoadConfig {
                rate_rps: 100.0,
                requests: 4,
                seed: 42,
            },
            &BurstConfig {
                period_s: 0.02,
                duty: 0.5,
                multiplier: 3.0,
            },
            16,
        );
        let bits: Vec<u64> = reqs.iter().map(|r| r.arrival_s.to_bits()).collect();
        let samples: Vec<usize> = reqs.iter().map(|r| r.sample).collect();
        assert_eq!(
            bits,
            vec![
                4575270700065701855,
                4577434037163321274,
                4577440296366313021,
                4578392150808060040,
            ],
            "arrival bits: {bits:?}"
        );
        assert_eq!(samples, vec![10, 2, 8, 2], "samples: {samples:?}");
    }

    #[test]
    fn zero_requests_yield_an_empty_schedule() {
        // The empty-window convention end to end: zero requests is a
        // valid (empty) schedule, not a panic or a NaN-rate one, and
        // every downstream rate estimator reads exactly 0.0 over it.
        assert!(open_loop(
            &LoadConfig {
                rate_rps: 100.0,
                requests: 0,
                seed: 1
            },
            4
        )
        .is_empty());
        assert!(bursty(
            &LoadConfig {
                rate_rps: 100.0,
                requests: 0,
                seed: 1
            },
            &BurstConfig {
                period_s: 1.0,
                duty: 0.5,
                multiplier: 2.0
            },
            4
        )
        .is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = open_loop(
            &LoadConfig {
                rate_rps: 50.0,
                requests: 50,
                seed: 1,
            },
            8,
        );
        let b = open_loop(
            &LoadConfig {
                rate_rps: 50.0,
                requests: 50,
                seed: 2,
            },
            8,
        );
        assert_ne!(a, b);
    }
}

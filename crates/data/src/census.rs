//! A census-income-like tabular generator with a ground-truth bias knob.
//!
//! The fairness literature's standard benchmark (UCI Adult) is a fixed
//! dataset whose bias level cannot be varied. This generator produces the
//! same *kind* of data — demographic and employment features predicting a
//! binary income label, with a protected group attribute — but exposes the
//! statistical dependence between group and label as an explicit
//! [`CensusConfig::bias`] parameter in `[0, 1]`:
//!
//! * `bias = 0`: the label depends only on legitimate features
//!   (qualification score); groups are exchangeable.
//! * `bias = 1`: group membership dominates the label.
//!
//! That gives the fairness experiments (E15/E16) a controlled x-axis that a
//! real corpus cannot provide.

use dl_nn::Dataset;
use dl_tensor::{init, Tensor};
use rand::Rng;

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct CensusConfig {
    /// Number of samples.
    pub n: usize,
    /// Fraction of samples in the disadvantaged group (group 1).
    pub minority_frac: f64,
    /// Ground-truth label bias against group 1, in `[0, 1]`.
    pub bias: f64,
    /// Observation noise on the features.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            n: 1000,
            minority_frac: 0.4,
            bias: 0.0,
            noise: 0.3,
            seed: 0,
        }
    }
}

/// Generated census-like data.
///
/// Features (6 columns, all standardized to roughly unit scale):
/// `age`, `education_years`, `hours_per_week`, `capital_signal`,
/// `occupation_score`, and a `group_proxy` column that correlates with the
/// protected attribute (so that "fairness through unawareness" fails, as the
/// tutorial's retina example illustrates).
#[derive(Debug, Clone)]
pub struct CensusData {
    /// Feature matrix `[n, 6]` (protected attribute NOT included).
    pub features: Tensor,
    /// Binary income label per row.
    pub labels: Vec<usize>,
    /// Protected group per row (0 = majority, 1 = minority).
    pub groups: Vec<usize>,
    /// The latent qualification score the unbiased label derives from.
    pub qualification: Vec<f32>,
}

impl CensusData {
    /// Number of feature columns produced by [`CensusData::generate`].
    pub const FEATURES: usize = 6;

    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics when `bias` or `minority_frac` fall outside `[0, 1]`, or
    /// `n == 0`.
    pub fn generate(config: CensusConfig) -> Self {
        assert!(config.n > 0, "census generator requires n > 0");
        assert!(
            (0.0..=1.0).contains(&config.bias),
            "bias must lie in [0,1], got {}",
            config.bias
        );
        assert!(
            (0.0..=1.0).contains(&config.minority_frac),
            "minority_frac must lie in [0,1]"
        );
        let mut rng = init::rng(config.seed);
        let n = config.n;
        let mut features = Vec::with_capacity(n * Self::FEATURES);
        let mut labels = Vec::with_capacity(n);
        let mut groups = Vec::with_capacity(n);
        let mut qualification = Vec::with_capacity(n);
        for _ in 0..n {
            let group = usize::from(rng.gen::<f64>() < config.minority_frac);
            // latent qualification: standard normal, group-independent
            let q: f32 = {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            // observable features driven by qualification + noise
            let noise = |rng: &mut rand::rngs::StdRng| rng.gen_range(-1.0f32..1.0) * config.noise;
            let age = 0.5 * q + noise(&mut rng);
            let education = 0.9 * q + noise(&mut rng);
            let hours = 0.6 * q + noise(&mut rng);
            let capital = 0.4 * q + noise(&mut rng);
            let occupation = 0.7 * q + noise(&mut rng);
            // proxy leaks group membership through a "neutral" feature
            let proxy = (group as f32 - 0.5) * 1.2 + noise(&mut rng);
            features.extend_from_slice(&[age, education, hours, capital, occupation, proxy]);
            // label: qualified (q > 0) unless bias flips it for group 1
            let fair_label = q > 0.0;
            let label = if group == 1 && fair_label {
                // disadvantaged group loses positive labels with prob = bias
                rng.gen::<f64>() >= config.bias
            } else if group == 0 && !fair_label {
                // majority group gains spurious positives with prob = bias/2
                rng.gen::<f64>() < config.bias / 2.0
            } else {
                fair_label
            };
            labels.push(usize::from(label));
            groups.push(group);
            qualification.push(q);
        }
        CensusData {
            features: Tensor::from_vec(features, [n, Self::FEATURES])
                .expect("length matches by construction"),
            labels,
            groups,
            qualification,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty (cannot happen for generated data).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Positive-label rate within `group`.
    pub fn base_rate(&self, group: usize) -> f64 {
        let (pos, total) = self
            .labels
            .iter()
            .zip(&self.groups)
            .filter(|(_, &g)| g == group)
            .fold((0usize, 0usize), |(p, t), (&l, _)| (p + l, t + 1));
        if total == 0 {
            0.0
        } else {
            pos as f64 / total as f64
        }
    }

    /// View as a classification [`Dataset`] (2 classes).
    pub fn to_dataset(&self) -> Dataset {
        Dataset::new(self.features.clone(), self.labels.clone(), 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_ranges() {
        let d = CensusData::generate(CensusConfig::default());
        assert_eq!(d.features.dims(), &[1000, 6]);
        assert_eq!(d.len(), 1000);
        assert!(d.groups.iter().all(|&g| g <= 1));
        assert!(d.labels.iter().all(|&l| l <= 1));
    }

    #[test]
    fn zero_bias_gives_similar_base_rates() {
        let d = CensusData::generate(CensusConfig {
            n: 20_000,
            bias: 0.0,
            ..CensusConfig::default()
        });
        let gap = (d.base_rate(0) - d.base_rate(1)).abs();
        assert!(gap < 0.03, "unbiased base-rate gap was {gap}");
    }

    #[test]
    fn bias_knob_creates_base_rate_gap() {
        let lo = CensusData::generate(CensusConfig {
            n: 10_000,
            bias: 0.1,
            seed: 1,
            ..CensusConfig::default()
        });
        let hi = CensusData::generate(CensusConfig {
            n: 10_000,
            bias: 0.7,
            seed: 1,
            ..CensusConfig::default()
        });
        let gap_lo = lo.base_rate(0) - lo.base_rate(1);
        let gap_hi = hi.base_rate(0) - hi.base_rate(1);
        assert!(gap_hi > gap_lo + 0.1, "gaps: {gap_lo} vs {gap_hi}");
    }

    #[test]
    fn qualification_is_group_independent() {
        let d = CensusData::generate(CensusConfig {
            n: 20_000,
            bias: 0.9,
            seed: 2,
            ..CensusConfig::default()
        });
        let mean = |g: usize| {
            let vals: Vec<f32> = d
                .qualification
                .iter()
                .zip(&d.groups)
                .filter(|(_, &gg)| gg == g)
                .map(|(&q, _)| q)
                .collect();
            vals.iter().sum::<f32>() / vals.len() as f32
        };
        assert!((mean(0) - mean(1)).abs() < 0.05);
    }

    #[test]
    fn proxy_feature_leaks_group() {
        let d = CensusData::generate(CensusConfig {
            n: 5_000,
            seed: 3,
            ..CensusConfig::default()
        });
        // mean of proxy column differs strongly by group
        let mut sums = [0.0f32; 2];
        let mut counts = [0usize; 2];
        for (i, &g) in d.groups.iter().enumerate() {
            sums[g] += d.features.get(&[i, 5]);
            counts[g] += 1;
        }
        let gap = sums[1] / counts[1] as f32 - sums[0] / counts[0] as f32;
        assert!(gap > 0.8, "proxy gap was {gap}");
    }

    #[test]
    fn minority_fraction_respected() {
        let d = CensusData::generate(CensusConfig {
            n: 10_000,
            minority_frac: 0.25,
            seed: 4,
            ..CensusConfig::default()
        });
        let frac = d.groups.iter().sum::<usize>() as f64 / d.len() as f64;
        assert!((frac - 0.25).abs() < 0.02);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CensusData::generate(CensusConfig::default());
        let b = CensusData::generate(CensusConfig::default());
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    #[should_panic(expected = "bias must lie")]
    fn rejects_bias_out_of_range() {
        CensusData::generate(CensusConfig {
            bias: 1.5,
            ..CensusConfig::default()
        });
    }

    #[test]
    fn to_dataset_roundtrip() {
        let d = CensusData::generate(CensusConfig {
            n: 100,
            ..CensusConfig::default()
        });
        let ds = d.to_dataset();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.classes, 2);
    }
}

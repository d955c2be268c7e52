//! Gaussian blob generators.

use dl_nn::Dataset;
use dl_tensor::{init, Tensor};

/// `n` samples split evenly across `k` Gaussian blobs in `dim` dimensions.
///
/// Blob centers are placed deterministically on a scaled simplex-like grid
/// so that inter-center distance is controlled by `separation`; per-sample
/// noise has standard deviation `noise`.
///
/// # Panics
/// Panics when `k == 0` or `dim == 0` or `n == 0`.
pub fn blobs(n: usize, k: usize, dim: usize, separation: f32, noise: f32, seed: u64) -> Dataset {
    assert!(
        n > 0 && k > 0 && dim > 0,
        "blobs requires positive n, k, dim"
    );
    let mut rng = init::rng(seed);
    // Deterministic, well-spread centers: one coordinate pattern per class.
    let centers: Vec<Vec<f32>> = (0..k)
        .map(|c| {
            (0..dim)
                .map(|d| {
                    let phase = (c * dim + d) as f32 * 2.399_963; // golden-angle spread
                    separation * phase.sin()
                })
                .collect()
        })
        .collect();
    let mut xs = Vec::with_capacity(n * dim);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % k;
        let jitter = init::normal([dim], 0.0, noise, &mut rng);
        for (&center, &j) in centers[c].iter().zip(jitter.data()) {
            xs.push(center + j);
        }
        ys.push(c);
    }
    Dataset::new(
        Tensor::from_vec(xs, [n, dim]).expect("length matches by construction"),
        ys,
        k,
    )
}

/// High-dimensional clustered data for the t-SNE experiment (E17): `k`
/// clusters embedded in `dim` dimensions with tight within-cluster noise.
/// Returns the data matrix and the cluster label of every row.
pub fn high_dim_clusters(n: usize, k: usize, dim: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let ds = blobs(n, k, dim, 10.0, 1.0, seed);
    (ds.x, ds.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_labels() {
        let d = blobs(30, 3, 4, 5.0, 0.1, 0);
        assert_eq!(d.x.dims(), &[30, 4]);
        assert_eq!(d.len(), 30);
        assert_eq!(d.classes, 3);
        for c in 0..3 {
            assert_eq!(d.y.iter().filter(|&&y| y == c).count(), 10);
        }
    }

    #[test]
    fn blobs_are_seed_deterministic() {
        let a = blobs(20, 2, 3, 5.0, 0.2, 7);
        let b = blobs(20, 2, 3, 5.0, 0.2, 7);
        assert_eq!(a.x, b.x);
        let c = blobs(20, 2, 3, 5.0, 0.2, 8);
        assert_ne!(a.x, c.x);
    }

    #[test]
    fn blobs_separation_controls_distance() {
        // same-class points cluster tighter than cross-class points
        let d = blobs(100, 2, 2, 8.0, 0.2, 1);
        let mut within = 0.0;
        let mut across = 0.0;
        let mut wn = 0;
        let mut an = 0;
        for i in 0..50 {
            for j in (i + 1)..50 {
                let dist: f32 = (0..2)
                    .map(|k| (d.x.get(&[i, k]) - d.x.get(&[j, k])).powi(2))
                    .sum::<f32>()
                    .sqrt();
                if d.y[i] == d.y[j] {
                    within += dist;
                    wn += 1;
                } else {
                    across += dist;
                    an += 1;
                }
            }
        }
        assert!(within / wn as f32 * 2.0 < across / an as f32);
    }

    #[test]
    fn high_dim_clusters_shapes() {
        let (x, labels) = high_dim_clusters(40, 4, 32, 0);
        assert_eq!(x.dims(), &[40, 32]);
        assert_eq!(labels.len(), 40);
        assert!(labels.iter().all(|&l| l < 4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn blobs_rejects_zero_classes() {
        blobs(10, 0, 2, 1.0, 0.1, 0);
    }
}

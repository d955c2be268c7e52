//! Dimensionality reduction: PCA and exact t-SNE.
//!
//! t-SNE (van der Maaten & Hinton) preserves *local* similarity: nearby
//! points in high dimension stay nearby in the 2-D map, which is what makes
//! it the tutorial's go-to tool for inspecting training data and learned
//! representations. This is the exact O(n²) formulation with perplexity
//! calibration, early exaggeration and momentum — ample for the laptop-
//! scale datasets in this workspace.

use dl_tensor::{init, Tensor};

/// PCA via power iteration on the covariance matrix: returns the data
/// projected onto the top `k` principal components, `[n, k]`.
///
/// # Panics
/// Panics when `k` exceeds the feature count or the input is not a matrix.
pub fn pca(x: &Tensor, k: usize) -> Tensor {
    assert_eq!(x.rank(), 2, "pca expects [n, d]");
    let (n, d) = (x.dims()[0], x.dims()[1]);
    assert!(k <= d, "cannot extract {k} components from {d} features");
    // center
    let mean = x.mean_axis(0);
    let centered = x - &mean;
    // covariance d x d
    let cov = centered.transpose().matmul(&centered) * (1.0 / (n.max(2) - 1) as f32);
    let mut components: Vec<Tensor> = Vec::with_capacity(k);
    let mut deflated = cov;
    let mut rng = init::rng(0xC0FFEE);
    for _ in 0..k {
        // power iteration
        let mut v = init::normal([d, 1], 0.0, 1.0, &mut rng);
        for _ in 0..100 {
            let next = deflated.matmul(&v);
            let norm = next.norm().max(1e-12);
            v = next * (1.0 / norm);
        }
        // deflate: cov -= lambda v v^T
        let av = deflated.matmul(&v);
        let lambda = v.transpose().matmul(&av).item();
        let vvt = v.matmul(&v.transpose());
        deflated = &deflated - &(&vvt * lambda);
        components.push(v);
    }
    // project: centered [n,d] x components [d,k]
    let mut proj = Vec::with_capacity(n * k);
    for i in 0..n {
        for comp in &components {
            let mut dot = 0.0;
            for j in 0..d {
                dot += centered.get(&[i, j]) * comp.get(&[j, 0]);
            }
            proj.push(dot);
        }
    }
    Tensor::from_vec(proj, [n, k]).expect("length matches by construction")
}

/// t-SNE configuration.
#[derive(Debug, Clone)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbor count), typically 5-50.
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Iterations of early exaggeration (P scaled by 4).
    pub exaggeration_iters: usize,
    /// Seed for the initial embedding.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            perplexity: 15.0,
            iterations: 300,
            learning_rate: 100.0,
            exaggeration_iters: 50,
            seed: 0,
        }
    }
}

/// Exact t-SNE to 2 dimensions. Returns `[n, 2]`.
///
/// # Panics
/// Panics when fewer than 4 points are given or perplexity is not
/// achievable (`3 * perplexity >= n` is rejected).
pub fn tsne(x: &Tensor, config: &TsneConfig) -> Tensor {
    let n = x.dims()[0];
    assert!(n >= 4, "t-SNE needs at least 4 points");
    assert!(
        (config.perplexity * 3.0) < n as f64,
        "perplexity {} too large for {n} points",
        config.perplexity
    );
    let d = x.dims()[1];
    // pairwise squared distances
    let mut dist2 = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut s = 0.0f64;
            for f in 0..d {
                let diff = f64::from(x.get(&[i, f]) - x.get(&[j, f]));
                s += diff * diff;
            }
            dist2[i * n + j] = s;
            dist2[j * n + i] = s;
        }
    }
    // per-point sigma via binary search on perplexity
    let target_entropy = config.perplexity.ln();
    let mut p = vec![0.0f64; n * n];
    for i in 0..n {
        let row = &dist2[i * n..(i + 1) * n];
        let (mut beta_lo, mut beta_hi) = (1e-12f64, 1e12f64);
        let mut beta = 1.0f64;
        for _ in 0..64 {
            let mut sum = 0.0;
            let mut weighted = 0.0;
            for (j, &d2) in row.iter().enumerate() {
                if j == i {
                    continue;
                }
                let w = (-beta * d2).exp();
                sum += w;
                weighted += w * d2;
            }
            let sum = sum.max(1e-300);
            let entropy = beta * weighted / sum + sum.ln();
            if (entropy - target_entropy).abs() < 1e-5 {
                break;
            }
            if entropy > target_entropy {
                beta_lo = beta;
                beta = if beta_hi >= 1e12 {
                    beta * 2.0
                } else {
                    0.5 * (beta + beta_hi)
                };
            } else {
                beta_hi = beta;
                beta = 0.5 * (beta + beta_lo);
            }
        }
        let mut sum = 0.0;
        for (j, &d2) in row.iter().enumerate() {
            if j != i {
                let w = (-beta * d2).exp();
                p[i * n + j] = w;
                sum += w;
            }
        }
        let sum = sum.max(1e-300);
        for j in 0..n {
            p[i * n + j] /= sum;
        }
    }
    // symmetrize
    let mut pij = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            pij[i * n + j] = (p[i * n + j] + p[j * n + i]) / (2.0 * n as f64);
        }
    }
    // gradient descent on 2-D embedding
    let mut rng = init::rng(config.seed);
    let mut y: Vec<f64> = init::normal([n * 2], 0.0, 1e-2, &mut rng)
        .data()
        .iter()
        .map(|&v| f64::from(v))
        .collect();
    let mut velocity = vec![0.0f64; n * 2];
    for iter in 0..config.iterations {
        let exaggeration = if iter < config.exaggeration_iters {
            4.0
        } else {
            1.0
        };
        // student-t affinities in the embedding
        let mut q = vec![0.0f64; n * n];
        let mut qsum = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i * 2] - y[j * 2];
                let dy = y[i * 2 + 1] - y[j * 2 + 1];
                let w = 1.0 / (1.0 + dx * dx + dy * dy);
                q[i * n + j] = w;
                q[j * n + i] = w;
                qsum += 2.0 * w;
            }
        }
        let qsum = qsum.max(1e-300);
        // gradient
        let momentum = if iter < 100 { 0.5 } else { 0.8 };
        for i in 0..n {
            let mut gx = 0.0f64;
            let mut gy = 0.0f64;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = q[i * n + j];
                let coeff = 4.0 * (exaggeration * pij[i * n + j] - w / qsum) * w;
                gx += coeff * (y[i * 2] - y[j * 2]);
                gy += coeff * (y[i * 2 + 1] - y[j * 2 + 1]);
            }
            velocity[i * 2] = momentum * velocity[i * 2] - f64::from(config.learning_rate) * gx;
            velocity[i * 2 + 1] =
                momentum * velocity[i * 2 + 1] - f64::from(config.learning_rate) * gy;
        }
        for (yv, v) in y.iter_mut().zip(&velocity) {
            *yv += v;
        }
    }
    Tensor::from_vec(y.iter().map(|&v| v as f32).collect(), [n, 2])
        .expect("length matches by construction")
}

/// Neighborhood preservation: the mean fraction of each point's `k`
/// nearest neighbors in the original space that are still among its `k`
/// nearest neighbors in the embedding. 1.0 = perfect local structure.
///
/// # Panics
/// Panics when the two matrices disagree on row count or `k` is too large.
pub fn neighborhood_preservation(original: &Tensor, embedded: &Tensor, k: usize) -> f64 {
    let n = original.dims()[0];
    assert_eq!(n, embedded.dims()[0], "row count mismatch");
    assert!(k < n, "k must be smaller than the point count");
    let knn = |data: &Tensor| -> Vec<Vec<usize>> {
        let d = data.dims()[1];
        (0..n)
            .map(|i| {
                let mut dists: Vec<(f64, usize)> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| {
                        let mut s = 0.0f64;
                        for f in 0..d {
                            let diff = f64::from(data.get(&[i, f]) - data.get(&[j, f]));
                            s += diff * diff;
                        }
                        (s, j)
                    })
                    .collect();
                dists.sort_by(|a, b| a.0.total_cmp(&b.0));
                dists[..k].iter().map(|&(_, j)| j).collect()
            })
            .collect()
    };
    let orig_nn = knn(original);
    let emb_nn = knn(embedded);
    let mut total = 0.0;
    for i in 0..n {
        let set: std::collections::HashSet<usize> = orig_nn[i].iter().copied().collect();
        let overlap = emb_nn[i].iter().filter(|j| set.contains(j)).count();
        total += overlap as f64 / k as f64;
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::high_dim_clusters;

    #[test]
    fn pca_projects_to_requested_dims() {
        let (x, _) = high_dim_clusters(60, 3, 16, 0);
        let p = pca(&x, 2);
        assert_eq!(p.dims(), &[60, 2]);
    }

    #[test]
    fn pca_first_component_captures_most_variance() {
        let (x, _) = high_dim_clusters(80, 2, 8, 1);
        let p = pca(&x, 2);
        let var = |col: usize| {
            let vals: Vec<f32> = (0..80).map(|i| p.get(&[i, col])).collect();
            let mean = vals.iter().sum::<f32>() / 80.0;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 80.0
        };
        assert!(var(0) >= var(1));
        assert!(var(0) > 0.0);
    }

    #[test]
    fn pca_separates_well_separated_clusters() {
        let (x, labels) = high_dim_clusters(60, 2, 32, 2);
        let p = pca(&x, 2);
        // cluster means in the projection should be far apart relative to
        // within-cluster spread
        let mean_of = |c: usize| {
            let pts: Vec<(f32, f32)> = (0..60)
                .filter(|&i| labels[i] == c)
                .map(|i| (p.get(&[i, 0]), p.get(&[i, 1])))
                .collect();
            let n = pts.len() as f32;
            (
                pts.iter().map(|p| p.0).sum::<f32>() / n,
                pts.iter().map(|p| p.1).sum::<f32>() / n,
            )
        };
        let (ax, ay) = mean_of(0);
        let (bx, by) = mean_of(1);
        let sep = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        assert!(sep > 1.0, "cluster separation {sep} too small");
    }

    #[test]
    fn tsne_output_shape_and_determinism() {
        let (x, _) = high_dim_clusters(40, 2, 8, 3);
        let cfg = TsneConfig {
            perplexity: 8.0,
            iterations: 100,
            ..TsneConfig::default()
        };
        let a = tsne(&x, &cfg);
        let b = tsne(&x, &cfg);
        assert_eq!(a.dims(), &[40, 2]);
        assert_eq!(a, b, "t-SNE must be deterministic per seed");
    }

    #[test]
    fn tsne_preserves_cluster_structure() {
        let (x, labels) = high_dim_clusters(90, 3, 32, 4);
        let emb = tsne(
            &x,
            &TsneConfig {
                perplexity: 10.0,
                iterations: 250,
                ..TsneConfig::default()
            },
        );
        // same-cluster points should end up closer than cross-cluster ones
        let mut within = 0.0f64;
        let mut across = 0.0f64;
        let mut wn = 0;
        let mut an = 0;
        for i in 0..90 {
            for j in (i + 1)..90 {
                let dx = f64::from(emb.get(&[i, 0]) - emb.get(&[j, 0]));
                let dy = f64::from(emb.get(&[i, 1]) - emb.get(&[j, 1]));
                let dist = (dx * dx + dy * dy).sqrt();
                if labels[i] == labels[j] {
                    within += dist;
                    wn += 1;
                } else {
                    across += dist;
                    an += 1;
                }
            }
        }
        let within = within / wn as f64;
        let across = across / an as f64;
        assert!(
            across > within * 1.5,
            "within {within} vs across {across}: clusters not separated"
        );
    }

    #[test]
    fn tsne_beats_random_projection_on_neighborhoods() {
        let (x, _) = high_dim_clusters(60, 3, 32, 5);
        let emb = tsne(
            &x,
            &TsneConfig {
                perplexity: 8.0,
                iterations: 200,
                ..TsneConfig::default()
            },
        );
        let np_tsne = neighborhood_preservation(&x, &emb, 5);
        // random embedding: shuffled points
        let mut rng = init::rng(9);
        let random = init::normal([60, 2], 0.0, 1.0, &mut rng);
        let np_rand = neighborhood_preservation(&x, &random, 5);
        assert!(
            np_tsne > np_rand + 0.2,
            "t-SNE {np_tsne} vs random {np_rand}"
        );
    }

    #[test]
    fn neighborhood_preservation_is_one_for_identity() {
        let (x, _) = high_dim_clusters(30, 2, 8, 6);
        assert!((neighborhood_preservation(&x, &x, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "perplexity")]
    fn tsne_rejects_oversized_perplexity() {
        let (x, _) = high_dim_clusters(20, 2, 4, 7);
        tsne(
            &x,
            &TsneConfig {
                perplexity: 10.0,
                ..TsneConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "at least 4 points")]
    fn tsne_rejects_tiny_input() {
        let x = Tensor::zeros([3, 2]);
        tsne(&x, &TsneConfig::default());
    }
}

//! E17 — t-SNE preserves local structure (§4.2).
//!
//! Claim: t-SNE embeds high-dimensional data into 2-D while keeping local
//! neighborhoods (clusters stay clusters), beating linear PCA on the
//! neighborhood-preservation score.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_interpret::{neighborhood_preservation, pca, tsne, TsneConfig};
use dl_obs::fields;
use dl_tensor::init;

/// Neighborhood preservation at k = 10, one column per 2-D embedding.
const COLUMNS: &[Column] = &[
    col("dim", "dim", text),
    col("t-sne (k=10)", "tsne", fixed::<3>),
    col("pca (k=10)", "pca", fixed::<3>),
    col("random (k=10)", "random", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let mut records = Vec::new();
    let mut tsne_wins = 0usize;
    let mut cases = 0usize;
    for dim in [16usize, 64, 144] {
        let (x, _) = dl_data::high_dim_clusters(150, 5, dim, 130);
        let emb = tsne(
            &x,
            &TsneConfig {
                perplexity: 12.0,
                iterations: 250,
                ..TsneConfig::default()
            },
        );
        let p = pca(&x, 2);
        let mut rng = init::rng(131);
        let rand = init::normal([150, 2], 0.0, 1.0, &mut rng);
        let np_t = neighborhood_preservation(&x, &emb, 10);
        let np_p = neighborhood_preservation(&x, &p, 10);
        let np_r = neighborhood_preservation(&x, &rand, 10);
        records.push(fields! {
            "dim" => dim, "tsne" => np_t, "pca" => np_p, "random" => np_r,
        });
        cases += 1;
        if np_t > np_p && np_t > np_r * 2.0 {
            tsne_wins += 1;
        }
    }
    ExperimentResult {
        id: "e17".into(),
        title: "t-SNE vs PCA vs random: neighborhood preservation in 2-D".into(),
        tables: vec![COLUMNS],
        verdict: if tsne_wins == cases {
            "matches the claim: t-SNE keeps local neighborhoods best at every input dimension"
                .into()
        } else {
            format!("PARTIAL: t-SNE won {tsne_wins}/{cases} dimensions")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e17_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [3]);
    }
}

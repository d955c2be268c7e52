//! E19 — Mistique-lite intermediate store footprint (§4.2).
//!
//! Claim: quantization plus cross-snapshot deduplication stores model
//! intermediates at a fraction of their raw size, while point queries
//! stay cheap (touch one chunk).

use crate::table::{bytes, col, fixed, text, times, Column, ExperimentResult};
use dl_interpret::store::IntermediateKey;
use dl_interpret::{ActivationQuery, IntermediateStore};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("matrices", "matrices", text),
    col("logical (raw f32)", "logical_bytes", bytes),
    col("physical (quant+dedup)", "physical_bytes", bytes),
    col("ratio", "ratio", times::<2>),
    col("dedup hits", "dedup_hits", text),
    col("full fetch chunks", "full_fetch_chunks", text),
    col("point fetch chunks", "point_fetch_chunks", text),
    col("best class-3 |corr|", "best_corr", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    // train a digit model, storing hidden activations every epoch
    let all = dl_data::digits_dataset(300, 0.08, 150);
    let mut net = Network::mlp(&[144, 32, 10], &mut init::rng(151));
    let mut store = IntermediateStore::new();
    let epochs = 12;
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    for epoch in 0..epochs {
        trainer.fit(&mut net, &all);
        let trace = net.forward_trace(&all.x, false);
        // store post-ReLU hidden layer (trace[2]) and logits (trace[3])
        store.put(
            IntermediateKey {
                snapshot: epoch,
                layer: 2,
            },
            &trace[2],
        );
        store.put(
            IntermediateKey {
                snapshot: epoch,
                layer: 3,
            },
            &trace[3],
        );
    }
    let stats = store.stats();
    // query path: full fetch vs point fetch cost
    let full = store
        .get(IntermediateKey {
            snapshot: epochs - 1,
            layer: 2,
        })
        .expect("stored");
    let point = store
        .get_row(
            IntermediateKey {
                snapshot: epochs - 1,
                layer: 2,
            },
            5,
        )
        .expect("stored");
    // a DeepBase-style query over the *stored* (lossy) activations still
    // finds class-selective units
    let q = ActivationQuery::CorrelatesWithClass { class: 3 }.run(&full.0, &all.y);
    let records = vec![fields! {
        "logical_bytes" => stats.logical_bytes,
        "physical_bytes" => stats.physical_bytes,
        "ratio" => stats.ratio(),
        "dedup_hits" => stats.dedup_hits,
        "full_fetch_chunks" => full.1,
        "point_fetch_chunks" => point.1,
        "best_corr" => q.units[0].score.abs(),
        "matrices" => stats.matrices,
    }];
    ExperimentResult {
        id: "e19".into(),
        title: "Mistique-lite: storing 12 epochs of intermediates".into(),
        tables: vec![COLUMNS],
        verdict: if stats.ratio() > 2.5 && point.1 == 1 && q.units[0].score.abs() > 0.3 {
            "matches the claim: ~3x footprint reduction (8-bit codes minus chunk-ref \
             overhead), single-chunk point queries, and the lossy store still \
             answers inspection queries"
                .into()
        } else {
            format!(
                "PARTIAL: ratio={:.1} point_chunks={}",
                stats.ratio(),
                point.1
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e19_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [1]);
    }
}

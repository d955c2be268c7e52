//! Model inspection end to end: store intermediates while training, then
//! answer the questions §4.2's systems were built for.
//!
//! Combines the Mistique-lite store, DeepBase-lite queries, DeepVis-lite
//! evolution analysis, network inversion, and Data-Canopy statistics over
//! the training log — the interpretability stack working as one tool.
//!
//! ```text
//! cargo run --release -p dl-bench --example model_inspector
//! ```

use dl_data::DataCanopy;
use dl_interpret::store::IntermediateKey;
use dl_interpret::{
    class_correlation_evolution, dead_unit_census, invert_input, ActivationQuery,
    IntermediateStore, InversionConfig,
};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::init;

fn main() {
    // train a digit model, storing hidden activations at every epoch
    let data = dl_data::digits_dataset(300, 0.1, 1);
    let mut net = Network::mlp(&[144, 32, 10], &mut init::rng(2));
    let mut store = IntermediateStore::new();
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    let epochs: Vec<u32> = (0..10).collect();
    let mut loss_curve = Vec::new();
    for &e in &epochs {
        if e > 0 {
            let recs = trainer.fit(&mut net, &data);
            loss_curve.push(f64::from(recs[0].train_loss));
        }
        let trace = net.forward_trace(&data.x, false);
        store.put(
            IntermediateKey {
                snapshot: e,
                layer: 2,
            },
            &trace[2],
        );
    }
    let stats = store.stats();
    println!(
        "stored {} snapshots: {} logical -> {} physical bytes ({:.1}x)",
        stats.matrices,
        stats.logical_bytes,
        stats.physical_bytes,
        stats.ratio()
    );

    // DeepBase-lite: which hidden units track the digit "3"?
    let (final_acts, _) = store
        .get(IntermediateKey {
            snapshot: 9,
            layer: 2,
        })
        .expect("stored");
    let q = ActivationQuery::CorrelatesWithClass { class: 3 }.run(&final_acts, &data.y);
    println!("\nunits tracking digit 3 (top 3):");
    for u in q.units.iter().take(3) {
        println!("  unit {:>2}  corr {:+.3}", u.unit, u.score);
    }

    // DeepVis-lite: when did the best unit specialize?
    let trajectories = class_correlation_evolution(&store, 2, &epochs, &data.y, 3);
    let best = trajectories
        .iter()
        .max_by(|a, b| a.last().abs().total_cmp(&b.last().abs()))
        .expect("non-empty");
    println!(
        "\nunit {}'s selectivity across epochs: {:?}",
        best.unit,
        best.values
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    match best.onset(0.5) {
        Some(e) => println!("specialization onset: epoch {e}"),
        None => println!("never crossed |corr| = 0.5"),
    }
    let dead = dead_unit_census(&store, 2, &epochs, 1e-6);
    println!(
        "dead units per epoch: {:?}",
        dead.iter().map(|&(_, n)| n).collect::<Vec<_>>()
    );

    // Network inversion: what does the second layer preserve of a "3"?
    let three = data.y.iter().position(|&l| l == 3).expect("a 3 exists");
    let x3 = data.x.select_rows(&[three]);
    let (inv, err) = invert_input(&net, 2, &x3, &InversionConfig::default());
    println!(
        "\ninversion from the hidden layer: activation residual {:.4}, \
         mean input-space error {:.3}",
        inv.residual, err
    );

    // Data-Canopy over the training log: exploratory stats without rescans
    if loss_curve.len() >= 4 {
        let canopy = DataCanopy::new(vec![loss_curve.iter().map(|&v| v as f32).collect()], 2);
        let n = loss_curve.len();
        println!(
            "\nloss curve: mean(first half) {:.4} -> mean(second half) {:.4}",
            canopy.mean(0, 0, n / 2),
            canopy.mean(0, n / 2, n)
        );
        println!("canopy cache after both queries: {:?}", canopy.stats());
    }
}

//! Quickstart: train a classifier, inspect its costs, compress it.
//!
//! ```text
//! cargo run --release -p dl-bench --example quickstart
//! ```

use dl_compress::{magnitude_prune, quantize_network, QuantScheme};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::init;

fn main() {
    // 1. Data: a procedural MNIST stand-in (12x12 digit glyphs).
    let data = dl_data::digits_dataset(800, 0.1, 42);
    let (train, test) = data.split(0.25, 43);
    println!("train: {} samples, test: {}", train.len(), test.len());

    // 2. Model: a small MLP. Everything is seeded — rerun and you get the
    //    exact same numbers.
    let mut rng = init::rng(44);
    let mut net = Network::mlp(&[144, 64, 10], &mut rng);

    // 3. Train, with the systems instrumentation the tutorial calls for.
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    let history = trainer.fit(&mut net, &train);
    let last = history.last().expect("at least one epoch");
    println!(
        "trained {} epochs | loss {:.4} | train acc {:.3} | {:.1} MFLOP spent",
        history.len(),
        last.train_loss,
        Trainer::evaluate(&net, &train),
        last.cumulative_flops as f64 / 1e6
    );
    println!("test accuracy: {:.3}", Trainer::evaluate(&net, &test));

    // 4. The resource half of the tutorial's metric pairs.
    let profile = net.cost_profile(1);
    println!(
        "model: {} params ({} KiB), {} FLOP per inference",
        profile.params,
        profile.param_bytes() / 1024,
        profile.forward_flops
    );

    // 5. Compression: int8 quantization, then 70% pruning on top.
    let (q8, report) = quantize_network(&net, QuantScheme::Affine { bits: 8 });
    println!(
        "int8: {:.1}x smaller, test acc {:.3}",
        report.ratio(),
        Trainer::evaluate(&q8, &test)
    );
    let mut pruned = net.clone();
    let prune_report = magnitude_prune(&mut pruned, 0.7);
    println!(
        "70% pruned: {} of {} weights left, test acc {:.3}",
        prune_report.params_after,
        prune_report.params_before,
        Trainer::evaluate(&pruned, &test)
    );
}

//! Edge deployment: squeeze a trained model under a hard memory budget.
//!
//! The Part-1 story end to end: train a capable teacher, then use
//! distillation, quantization and structural pruning to produce deployable
//! candidates, register every candidate's measured metrics in the
//! `dl-core` tradeoff framework, and let the navigator pick under an edge
//! device's constraints.
//!
//! ```text
//! cargo run --release -p dl-bench --example edge_deployment
//! ```

use dl_compress::{distill, neuron_prune, quantize_network, DistillConfig, QuantScheme};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::init;

fn main() {
    let data = dl_data::digits_dataset(800, 0.15, 7);
    let (train, test) = data.split(0.25, 8);

    // the capable-but-heavy teacher
    let mut teacher = Network::mlp(&[144, 128, 64, 10], &mut init::rng(9));
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut teacher, &train);
    let mut registry = Registry::new();
    let mut register = |name: &str, net: &Network, acc: f64, mem_override: Option<u64>| {
        let p = net.cost_profile(1);
        registry
            .add(Technique {
                name: name.into(),
                category: Category::Compression,
                metrics: Metrics {
                    accuracy: acc,
                    train_flops: 0,
                    inference_flops: p.forward_flops,
                    memory_bytes: mem_override.unwrap_or(p.param_bytes()),
                    energy_kwh: 0.0,
                },
                baseline: Some("teacher".into()),
            })
            .expect("unique names");
    };
    let teacher_acc = Trainer::evaluate(&teacher, &test);
    register("teacher", &teacher, teacher_acc, None);
    println!(
        "teacher: acc {:.3}, {} KiB",
        teacher_acc,
        teacher.cost_profile(1).param_bytes() / 1024
    );

    // candidate 1: distilled student
    let mut student = Network::mlp(&[144, 24, 10], &mut init::rng(10));
    distill(
        &mut teacher,
        &mut student,
        &train,
        &DistillConfig::default(),
    );
    let student_acc = Trainer::evaluate(&student, &test);
    register("distilled-24", &student, student_acc, None);

    // candidate 2: distilled + int8 quantized
    let (q8, q8_report) = quantize_network(&student, QuantScheme::Affine { bits: 8 });
    let q8_acc = Trainer::evaluate(&q8, &test);
    register(
        "distilled-24-int8",
        &q8,
        q8_acc,
        Some(q8_report.compressed_bytes as u64),
    );

    // candidate 3: structurally pruned student (physically smaller)
    let mut slim = student.clone();
    neuron_prune(&mut slim, 0, 12);
    let slim_acc = Trainer::evaluate(&slim, &test);
    register("distilled-12-structural", &slim, slim_acc, None);

    // candidate 4: binary extreme
    let (bin, bin_report) = quantize_network(&student, QuantScheme::Binary);
    let bin_acc = Trainer::evaluate(&bin, &test);
    register(
        "distilled-24-binary",
        &bin,
        bin_acc,
        Some(bin_report.compressed_bytes as u64),
    );

    // the navigator answers the deployment question
    let nav = TradeoffNavigator::new(&registry);
    println!("\nPareto frontier:");
    for t in nav.frontier() {
        println!(
            "  {:<26} acc {:.3}  {:>8} B  {:>7} FLOP",
            t.name, t.metrics.accuracy, t.metrics.memory_bytes, t.metrics.inference_flops
        );
    }
    for budget_kib in [64u64, 16, 4, 1] {
        let pick = nav.recommend(&[Constraint::MaxMemoryBytes(budget_kib * 1024)]);
        match pick {
            Some(t) => println!(
                "budget {budget_kib:>3} KiB -> {} (acc {:.3})",
                t.name, t.metrics.accuracy
            ),
            None => println!("budget {budget_kib:>3} KiB -> nothing fits"),
        }
    }
}

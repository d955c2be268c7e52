//! End-to-end integration: train -> compress -> audit -> explain -> store,
//! crossing every layer of the workspace in one flow.

use dl_compress::{magnitude_prune, quantize_network, QuantScheme};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_fairness::FairnessReport;
use dl_interpret::store::IntermediateKey;
use dl_interpret::{lime_explain, ActivationQuery, IntermediateStore, SurrogateTree};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::init;

#[test]
fn train_compress_navigate() {
    // train on digits
    let data = dl_data::digits_dataset(400, 0.1, 1);
    let (train, test) = data.split(0.25, 2);
    let mut net = Network::mlp(&[144, 48, 10], &mut init::rng(3));
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &train);
    let base_acc = Trainer::evaluate(&net, &test);
    assert!(base_acc > 0.9, "baseline failed to train: {base_acc}");

    // compress two ways and register everything
    let mut registry = Registry::new();
    let reg = |name: &str, acc: f64, mem: u64| Technique {
        name: name.into(),
        category: Category::Compression,
        metrics: Metrics {
            accuracy: acc,
            train_flops: trainer.flops,
            inference_flops: net.cost_profile(1).forward_flops,
            memory_bytes: mem,
            energy_kwh: 0.0,
        },
        baseline: None,
    };
    registry
        .add(reg("fp32", base_acc, (net.param_count() * 4) as u64))
        .unwrap();
    let (q, qr) = quantize_network(&net, QuantScheme::Affine { bits: 8 });
    registry
        .add(reg(
            "int8",
            Trainer::evaluate(&q, &test),
            qr.compressed_bytes as u64,
        ))
        .unwrap();
    let mut p = net.clone();
    magnitude_prune(&mut p, 0.8);
    registry
        .add(reg(
            "prune80",
            Trainer::evaluate(&p, &test),
            (net.param_count() / 5 * 8) as u64,
        ))
        .unwrap();
    // the navigator must answer a constrained query
    let nav = TradeoffNavigator::new(&registry);
    let budget = (net.param_count() * 2) as u64; // half of fp32
    let pick = nav
        .recommend(&[Constraint::MaxMemoryBytes(budget)])
        .expect("compressed models fit");
    assert_ne!(pick.name, "fp32");
    assert!(pick.metrics.accuracy > 0.8);
}

#[test]
fn train_audit_explain() {
    // biased census -> audit -> LIME must implicate the proxy or a
    // legitimate feature, and a surrogate tree must be faithful
    let census = dl_data::CensusData::generate(dl_data::CensusConfig {
        n: 1500,
        bias: 0.5,
        seed: 4,
        ..dl_data::CensusConfig::default()
    });
    let data = census.to_dataset();
    let mut net = Network::mlp(&[6, 12, 2], &mut init::rng(5));
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 12,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &data);
    let preds = net.predict(&data.x);
    let audit = FairnessReport::new(&preds, &census.labels, &census.groups);
    assert!(
        audit.demographic_parity_diff() > 0.1,
        "bias must be measurable"
    );
    let xi = data.x.select_rows(&[0]);
    let exp = lime_explain(&mut net, &xi, 1, 200, 2.0, 6);
    assert_eq!(exp.weights.len(), 6);
    assert!(exp.r_squared.is_finite());
    let tree = SurrogateTree::distill(&mut net, &data.x, 4);
    assert!(tree.fidelity(&mut net, &data.x) > 0.8);
}

#[test]
fn train_store_query() {
    // activations stored across epochs remain queryable from the store
    let data = dl_data::blobs(150, 2, 4, 6.0, 0.4, 7);
    let mut net = Network::mlp(&[4, 16, 2], &mut init::rng(8));
    let mut store = IntermediateStore::new();
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    for epoch in 0..5u32 {
        trainer.fit(&mut net, &data);
        let trace = net.forward_trace(&data.x, false);
        store.put(
            IntermediateKey {
                snapshot: epoch,
                layer: 2,
            },
            &trace[2],
        );
    }
    let stats = store.stats();
    assert_eq!(stats.matrices, 5);
    assert!(stats.ratio() > 2.0, "store ratio {}", stats.ratio());
    // query the final snapshot
    let (acts, _) = store
        .get(IntermediateKey {
            snapshot: 4,
            layer: 2,
        })
        .expect("stored");
    let q = ActivationQuery::CorrelatesWithClass { class: 1 }.run(&acts, &data.y);
    assert!(
        q.units[0].score.abs() > 0.4,
        "trained hidden units must track classes, best {}",
        q.units[0].score
    );
}

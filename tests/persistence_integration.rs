//! End-to-end persistence integration: train → save → load → serve, with
//! every hop required to be bit-identical. This is the cross-crate
//! contract the weight store rests on: a `dl-store` artifact is not a
//! lossy export but the *same model* in a different residence, so a
//! serving run against reloaded weights must reproduce a run against the
//! originals byte-for-byte — report, latency histogram, and timeline —
//! and must do so at any kernel thread count (the parallel backend is
//! bitwise-deterministic by contract).

use dl_obs::TimelineRecorder;
use dl_serve::{
    build_family, load_family, open_loop, save_family, serve, AdmissionPolicy, BatchPolicy,
    DeviceModel, FamilyConfig, LoadConfig, ServeConfig,
};
use dl_store::{load_network, save_network};

fn family_and_eval() -> (dl_serve::VariantRegistry, dl_nn::Dataset) {
    let data = dl_data::blobs(150, 4, 10, 6.0, 0.6, 170);
    let eval = dl_data::blobs(80, 4, 10, 6.0, 0.6, 171);
    let family = build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![10, 24, 4],
            student_hidden: vec![6],
            prune_sparsity: 0.7,
            morph_budget: 260,
            ensemble_members: 2,
            max_batch: 16,
            epochs: 10,
            seed: 177,
        },
    );
    (family, eval)
}

fn serve_once(
    family: &mut dl_serve::VariantRegistry,
    eval: &dl_nn::Dataset,
    threads: usize,
) -> (
    dl_serve::ServeReport,
    Vec<dl_obs::Event>,
    Option<dl_obs::Histogram>,
) {
    let device = DeviceModel::nominal();
    let load = open_loop(
        &LoadConfig {
            rate_rps: 100_000.0,
            requests: 300,
            seed: 15,
        },
        eval.x.dims()[0],
    );
    let cfg = ServeConfig {
        batch: BatchPolicy::dynamic(16, 6e-6),
        admission: AdmissionPolicy::SloAware {
            p99_slo_s: 4e-5,
            headroom: 0.7,
            min_accuracy: 0.0,
        },
        primary: "fp32-base".into(),
        device,
    };
    let rec = TimelineRecorder::new();
    let report = dl_tensor::par::with_threads(threads, || serve(family, eval, &load, &cfg, &rec));
    let hist = rec.histogram("serve.latency_s");
    (report, rec.events(), hist)
}

#[test]
fn trained_network_round_trips_bitwise_through_the_artifact() {
    let data = dl_data::blobs(150, 4, 10, 6.0, 0.6, 180);
    let mut rng = dl_tensor::init::rng(181);
    let mut net = dl_nn::Network::mlp(&[10, 16, 4], &mut rng);
    let mut trainer = dl_nn::Trainer::new(
        dl_nn::TrainConfig {
            epochs: 8,
            batch_size: 16,
            seed: 182,
            ..dl_nn::TrainConfig::default()
        },
        dl_nn::Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &data);

    let bytes = save_network(&net);
    let back = load_network(&bytes).expect("fresh artifact loads");
    let a = net.flat_params();
    let b = back.flat_params();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "trained weights must survive bitwise"
        );
    }
    // Re-encoding the reload reproduces the artifact byte-for-byte.
    assert_eq!(bytes, save_network(&back), "artifact bytes must be stable");
}

#[test]
fn saved_family_serves_bit_identically_at_one_and_four_threads() {
    let (family, eval) = family_and_eval();
    let artifact = save_family(&family);
    for threads in [1usize, 4] {
        let mut original = family.clone();
        let mut reloaded = load_family(&artifact).expect("family artifact loads");
        let (r1, ev1, h1) = serve_once(&mut original, &eval, threads);
        let (r2, ev2, h2) = serve_once(&mut reloaded, &eval, threads);
        assert_eq!(
            r1, r2,
            "reloaded family changed the report at {threads} threads"
        );
        assert_eq!(
            h1, h2,
            "reloaded family changed the histogram at {threads} threads"
        );
        assert_eq!(
            ev1, ev2,
            "reloaded family changed the timeline at {threads} threads"
        );
        assert!(r1.served > 0, "the run actually served traffic");
    }
    // The thread count itself must also be invisible across the reload.
    let mut reloaded = load_family(&artifact).expect("family artifact loads");
    let (r1, ev1, _) = serve_once(&mut reloaded.clone(), &eval, 1);
    let (r4, ev4, _) = serve_once(&mut reloaded, &eval, 4);
    assert_eq!(
        r1, r4,
        "thread count leaked into the reloaded family's report"
    );
    assert_eq!(
        ev1, ev4,
        "thread count leaked into the reloaded family's timeline"
    );
}

#[test]
fn family_artifact_is_byte_stable_across_processless_resaves() {
    let (family, _) = family_and_eval();
    let once = save_family(&family);
    let twice = save_family(&load_family(&once).expect("loads"));
    assert_eq!(once, twice, "save -> load -> save must be a fixed point");
}

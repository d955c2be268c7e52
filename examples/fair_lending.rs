//! Responsible deployment: audit, explain and debias a lending model.
//!
//! The Part-3 story: a model trained on historically-biased income data
//! inherits the bias (even without seeing the protected attribute), a
//! fairness audit quantifies it, LIME explains individual denials, and
//! three interventions shrink the gap.
//!
//! ```text
//! cargo run --release -p dl-bench --example fair_lending
//! ```

use dl_data::{CensusConfig, CensusData};
use dl_fairness::{
    adversarial_debias, mitigate::train_reweighed, threshold_adjust, AdversarialConfig,
    FairnessReport,
};
use dl_interpret::lime_explain;
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::init;

const FEATURES: [&str; 6] = [
    "age",
    "education_years",
    "hours_per_week",
    "capital_signal",
    "occupation_score",
    "zip_code_segment", // the proxy column
];

fn main() {
    // Historical data with a known 50% label bias against group 1.
    let census = CensusData::generate(CensusConfig {
        n: 3000,
        bias: 0.5,
        seed: 1,
        ..CensusConfig::default()
    });
    let data = census.to_dataset();
    println!(
        "ground truth: base rates {:.3} (group 0) vs {:.3} (group 1)",
        census.base_rate(0),
        census.base_rate(1)
    );

    // Train the lending model. Group membership is NOT a feature.
    let mut net = Network::mlp(&[6, 16, 2], &mut init::rng(2));
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &data);

    // Audit.
    let preds = net.predict(&data.x);
    let audit = FairnessReport::new(&preds, &census.labels, &census.groups);
    println!("\naudit of the raw model:");
    println!("  accuracy            {:.3}", audit.accuracy());
    println!(
        "  parity gap          {:.3}",
        audit.demographic_parity_diff()
    );
    println!(
        "  disparate impact    {:.3} (80% rule flags < 0.8)",
        audit.disparate_impact()
    );
    println!("  equalized-odds gap  {:.3}", audit.equalized_odds_gap());

    // Explain one denial with LIME: which features drove it?
    let denied = preds
        .iter()
        .position(|&p| p == 0)
        .expect("someone was denied");
    let xi = data.x.select_rows(&[denied]);
    let exp = lime_explain(&mut net, &xi, 0, 400, 2.0, 3);
    println!(
        "\nwhy was applicant #{denied} denied? (local R² {:.2})",
        exp.r_squared
    );
    for f in exp.top_features(3) {
        println!("  {:<18} weight {:+.3}", FEATURES[f], exp.weights[f]);
    }
    if exp.top_features(3).contains(&5) {
        println!(
            "  ^ the zip-code proxy carries group information — \
                  fairness through unawareness fails"
        );
    }

    // Interventions at all three levels.
    println!("\ninterventions:");
    let rew = train_reweighed(&data, &census.groups, 15, 4);
    println!(
        "  reweighing (pre):    parity {:+.3}, accuracy {:.3}",
        rew.report.demographic_parity_diff(),
        rew.report.accuracy()
    );
    let adv = adversarial_debias(
        &data,
        &census.groups,
        &AdversarialConfig {
            lambda: 2.0,
            epochs: 20,
            seed: 5,
            ..AdversarialConfig::default()
        },
    );
    println!(
        "  adversarial (in):    parity {:+.3}, accuracy {:.3}",
        adv.report.demographic_parity_diff(),
        adv.report.accuracy()
    );
    let scores = net.predict_proba(&census.features);
    let thr = threshold_adjust(&scores, &census.labels, &census.groups);
    println!(
        "  thresholds (post):   parity {:+.3}, accuracy {:.3}",
        thr.report.demographic_parity_diff(),
        thr.report.accuracy()
    );
}

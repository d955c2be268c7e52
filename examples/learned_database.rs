//! Learned database components side by side with their classic baselines.
//!
//! The Part-2 story: a read-mostly store over 200k keys considers three
//! learned components — a learned index, a learned Bloom filter, and a
//! neural cardinality estimator — plus an RL knob tuner, and measures
//! each against the structure it would replace.
//!
//! ```text
//! cargo run --release -p dl-bench --example learned_database
//! ```

use dl_data::{CorrelatedTable, KeyDistribution, RangePredicate};
use dl_learneddb::cardinality::q_error;
use dl_learneddb::tuner::{random_search, tuner_rng};
use dl_learneddb::{
    BTreeIndex, BloomFilter, DbSimulator, HistogramEstimator, LearnedBloom, NeuralEstimator,
    QLearningTuner, RecursiveModelIndex,
};
use dl_tensor::init;

fn main() {
    // --- access path: learned index vs B-tree --------------------------
    let keys = KeyDistribution::Lognormal.generate(200_000, 1);
    println!("indexing {} lognormal keys", keys.len());
    let bt = BTreeIndex::build_default(keys.clone());
    let rmi = RecursiveModelIndex::build(keys.clone(), 256);
    let (mean_window, max_window) = rmi.error_profile();
    println!(
        "  b-tree: {} B, depth {}  |  rmi: {} B, mean window {:.1} (max {})",
        bt.size_bytes(),
        bt.depth(),
        rmi.size_bytes(),
        mean_window,
        max_window
    );
    let probe = keys[keys.len() / 3];
    assert_eq!(
        bt.lookup(probe).0,
        rmi.lookup(probe).0,
        "indexes must agree"
    );

    // --- membership: learned Bloom vs classic --------------------------
    let member_keys: Vec<u64> = (0..20_000u64).map(|i| i * 4).collect();
    let mut rng = init::rng(2);
    let negatives = dl_data::keys::absent_keys(&member_keys, 20_000, &mut rng);
    let mut classic = BloomFilter::with_fpr(member_keys.len(), 0.02);
    for &k in &member_keys {
        classic.insert(k);
    }
    let mut learned = LearnedBloom::build(&member_keys, &negatives, 0.02, 3);
    let test_neg = dl_data::keys::absent_keys(&member_keys, 10_000, &mut rng);
    println!("\nmembership filters at 2% target FPR:");
    println!(
        "  classic: {} B, measured FPR {:.4}",
        classic.size_bytes(),
        classic.empirical_fpr(&test_neg)
    );
    println!(
        "  learned: {} B, measured FPR {:.4}",
        learned.size_bytes(),
        learned.empirical_fpr(&test_neg)
    );

    // --- cardinality: neural vs histogram on correlated columns --------
    let table = CorrelatedTable::generate(6000, 5, 0.9, 4);
    let hist = HistogramEstimator::build(&table, 32);
    let mut neural = NeuralEstimator::train(&table, 800, 3, 5);
    let mut qrng = init::rng(6);
    let (mut hq, mut nq) = (Vec::new(), Vec::new());
    for _ in 0..50 {
        let p = RangePredicate::sample(5, 3, &mut qrng);
        let truth = table.true_selectivity(&p);
        hq.push(q_error(hist.estimate(&p), truth, table.rows()));
        nq.push(q_error(neural.estimate(&p), truth, table.rows()));
    }
    hq.sort_by(f64::total_cmp);
    nq.sort_by(f64::total_cmp);
    println!("\n3-attribute selectivity on 0.9-correlated columns (median q-error):");
    println!("  histogram+independence: {:.2}", hq[hq.len() / 2]);
    println!("  neural estimator:       {:.2}", nq[nq.len() / 2]);

    // --- knob tuning: RL vs random under one budget --------------------
    let db = DbSimulator::new(8, 0.7, 0.2);
    let (_, optimum) = db.optimum();
    let mut tuner = QLearningTuner::new(8);
    let mut trng = tuner_rng(7);
    let (best_cfg, best, evals) = tuner.tune(&db, 25, 20, &mut trng);
    let mut rrng = tuner_rng(8);
    let (_, rand_best) = random_search(&db, evals, &mut rrng);
    println!("\nknob tuning ({evals} evaluations):");
    println!("  exhaustive optimum: {optimum:.0} ops/s");
    println!(
        "  q-learning: {best:.0} ops/s at buffer={} page={} compaction={}",
        best_cfg.buffer_pool, best_cfg.page_size, best_cfg.compaction
    );
    println!("  random search: {rand_best:.0} ops/s");
}

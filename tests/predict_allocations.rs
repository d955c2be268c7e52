//! Allocation budget of one served forward.
//!
//! A counting global allocator tallies the heap allocations of one
//! batch-32 `Network::predict` on the 16-64-64-5 MLP the serving family is
//! built from, on one kernel thread. The read-only forward allocates only
//! its GEMMs' outputs and the predictions: no copy of the input, no ReLU
//! mask, no second tensor for the bias add, and no GEMM scratch, which is
//! kept per thread across calls. This file is a test binary of its own
//! with a single test, so no other test allocates while it counts.

mod counting_alloc;

use counting_alloc::allocations_during;
use dl_nn::Network;
use dl_tensor::{init, par};

/// Allocations of one batch-32 predict, as measured. It was 18 while
/// every GEMM allocated its term lists and split ranges per call.
const PREDICT_ALLOCS: u64 = 7;

#[test]
fn batch_predict_stays_within_its_allocation_budget() {
    let mut rng = init::rng(5);
    let net = Network::mlp(&[16, 64, 64, 5], &mut rng);
    let x = init::uniform([32, 16], -1.0, 1.0, &mut rng);
    let (preds, allocs) = par::with_threads(1, || {
        // The first call resolves the kernel and thread settings.
        let _ = net.predict(&x);
        allocations_during(|| net.predict(&x))
    });
    assert_eq!(preds.len(), 32);
    eprintln!("allocations per batch-32 predict: {allocs}");
    assert!(
        allocs <= PREDICT_ALLOCS,
        "{allocs} allocations per predict, budget {PREDICT_ALLOCS}"
    );
}

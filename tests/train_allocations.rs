//! Allocation budget of one training step.
//!
//! A counting global allocator tallies the heap allocations of one
//! `Trainer::step` (forward, softmax cross-entropy, backward, Adam) of
//! the 16-64-64-5 MLP the serving family is built from, on a batch of 32
//! rows and one kernel thread. The step allocates each layer's GEMM
//! outputs, the ReLU masks and the loss's tensors, but no GEMM scratch
//! (it is kept per thread across calls), no transposed operand, no copy of an activation or of the loss gradient,
//! no fresh gradient tensor and no optimizer temporary. This file is a
//! test binary of its own with a single test, so no other test allocates
//! while it counts.

mod counting_alloc;

use counting_alloc::allocations_during;
use dl_nn::loss::one_hot;
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::{init, par};

/// Allocations of one batch-32 step, as measured. The same step made 67
/// while every GEMM allocated its term lists and split ranges per call,
/// and 273 when every backward transposed its operands and allocated
/// fresh gradients and each Adam update built ten temporaries per
/// parameter.
const STEP_ALLOCS: u64 = 33;

#[test]
fn training_step_stays_within_its_allocation_budget() {
    let mut rng = init::rng(5);
    let mut net = Network::mlp(&[16, 64, 64, 5], &mut rng);
    let mut trainer = Trainer::new(TrainConfig::default(), Optimizer::adam(0.01));
    let x = init::uniform([32, 16], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 5).collect();
    let targets = one_hot(&labels, 5);
    let (loss, allocs) = par::with_threads(1, || {
        // The first step resolves the kernel and thread settings and
        // sizes the gradients and Adam's moments.
        trainer.step(&mut net, &x, &targets, 1.0);
        allocations_during(|| trainer.step(&mut net, &x, &targets, 1.0))
    });
    assert!(loss.is_finite());
    eprintln!("allocations per batch-32 training step: {allocs}");
    assert!(
        allocs <= STEP_ALLOCS,
        "{allocs} allocations per training step, budget {STEP_ALLOCS}"
    );
}

//! Optimizers and learning-rate schedules.
//!
//! The cyclic cosine schedule ([`LrSchedule::CyclicCosine`]) is the engine
//! behind Snapshot Ensembles (§2.1 of the tutorial): the learning rate is
//! repeatedly annealed to ~0 (where a snapshot is taken) and restarted.

use dl_tensor::{acct, Tensor};

/// Gradient-descent update rules over a flat list of parameter tensors.
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Base learning rate.
        lr: f32,
    },
    /// SGD with classical momentum.
    Momentum {
        /// Base learning rate.
        lr: f32,
        /// Momentum coefficient (typically 0.9).
        beta: f32,
        /// Velocity state, lazily sized to the parameter list.
        velocity: Vec<Tensor>,
    },
    /// Adam with bias correction.
    Adam {
        /// Base learning rate.
        lr: f32,
        /// First-moment decay (typically 0.9).
        beta1: f32,
        /// Second-moment decay (typically 0.999).
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
        /// Timestep for bias correction.
        t: u64,
        /// First-moment state.
        m: Vec<Tensor>,
        /// Second-moment state.
        v: Vec<Tensor>,
    },
}

impl Optimizer {
    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// Momentum SGD with coefficient 0.9.
    pub fn momentum(lr: f32) -> Self {
        Optimizer::Momentum {
            lr,
            beta: 0.9,
            velocity: Vec::new(),
        }
    }

    /// Adam with the standard (0.9, 0.999, 1e-8) hyper-parameters.
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update to `params` given `grads`, scaling the base
    /// learning rate by `lr_scale` (supplied by the active [`LrSchedule`]).
    ///
    /// Each rule updates its state and the parameter in place, in one
    /// elementwise pass per parameter. Every element evaluates the same
    /// expressions in the same order as a chain of whole-tensor
    /// operations would, one temporary per operation, so the bits are
    /// theirs. So is the [`acct`] charge: each operation is charged as
    /// the elementwise kernel it would have run (SGD two, momentum four,
    /// Adam ten per element).
    ///
    /// # Panics
    /// Panics if any parameter and its gradient differ in shape, or if
    /// the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [(&mut Tensor, &mut Tensor)], lr_scale: f32) {
        match self {
            Optimizer::Sgd { lr } => {
                let lr = *lr * lr_scale;
                for (p, g) in params.iter_mut() {
                    // p - g·lr
                    charge_passes(same_shape(p, g), 1, 1);
                    for (p, &g) in p.data_mut().iter_mut().zip(g.data()) {
                        *p -= g * lr;
                    }
                }
            }
            Optimizer::Momentum { lr, beta, velocity } => {
                if velocity.is_empty() {
                    *velocity = params
                        .iter()
                        .map(|(p, _)| Tensor::zeros(p.shape().clone()))
                        .collect();
                }
                assert_eq!(velocity.len(), params.len(), "parameter list changed");
                let (lr, beta) = (*lr * lr_scale, *beta);
                for ((p, g), vel) in params.iter_mut().zip(velocity.iter_mut()) {
                    // vel = vel·beta + g·lr, then p - vel
                    same_shape(p, vel);
                    charge_passes(same_shape(p, g), 2, 2);
                    let state = p.data_mut().iter_mut().zip(vel.data_mut());
                    for ((p, vel), &g) in state.zip(g.data()) {
                        *vel = *vel * beta + g * lr;
                        *p -= *vel;
                    }
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                if m.is_empty() {
                    *m = params
                        .iter()
                        .map(|(p, _)| Tensor::zeros(p.shape().clone()))
                        .collect();
                    *v = m.clone();
                }
                assert_eq!(m.len(), params.len(), "parameter list changed");
                *t += 1;
                let lr = *lr * lr_scale;
                let (beta1, beta2, eps) = (*beta1, *beta2, *eps);
                let (keep1, keep2) = (1.0 - beta1, 1.0 - beta2);
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                let (unbias1, unbias2) = (1.0 / bc1, 1.0 / bc2);
                for ((p, g), (m, v)) in params.iter_mut().zip(m.iter_mut().zip(v.iter_mut())) {
                    // m = m·β1 + g·(1-β1); v = v·β2 + g²·(1-β2);
                    // p - lr·m̂ / (√v̂ + ε) with m̂ = m/bc1 and v̂ = v/bc2
                    same_shape(p, m);
                    same_shape(p, v);
                    charge_passes(same_shape(p, g), 6, 4);
                    let state = p.data_mut().iter_mut().zip(m.data_mut()).zip(v.data_mut());
                    for (((p, m), v), &g) in state.zip(g.data()) {
                        *m = *m * beta1 + g * keep1;
                        *v = *v * beta2 + g * g * keep2;
                        let (m_hat, v_hat) = (*m * unbias1, *v * unbias2);
                        *p -= lr * m_hat / (v_hat.sqrt() + eps);
                    }
                }
            }
        }
    }
}

/// The element count of `p`, after checking that `other` has its shape.
fn same_shape(p: &Tensor, other: &Tensor) -> usize {
    assert_eq!(
        p.shape(),
        other.shape(),
        "optimizer state {} does not match parameter {}",
        other.shape(),
        p.shape()
    );
    p.len()
}

/// Charges `maps` one-operand and `zips` two-operand elementwise passes
/// over `n` elements: what the update rule costs when each of its
/// operations runs as a whole-tensor kernel. A fused update charges this
/// too, so the measured cost of a training step does not depend on how
/// its update is scheduled.
fn charge_passes(n: usize, maps: u64, zips: u64) {
    let n = n as u64;
    acct::charge(
        (maps + zips) * n,
        (4 * maps + 8 * zips) * n,
        4 * (maps + zips) * n,
    );
}

/// Learning-rate schedules, expressed as a multiplier on the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant multiplier of 1.
    Constant,
    /// Multiply by `gamma` every `every` epochs.
    StepDecay {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative decay factor.
        gamma: f32,
    },
    /// Cosine annealing restarted every `cycle_len` epochs: the schedule of
    /// Snapshot Ensembles. The multiplier starts at 1 and anneals to ~0 at
    /// the end of each cycle.
    CyclicCosine {
        /// Epochs per cycle (a snapshot is taken at each cycle end).
        cycle_len: usize,
    },
    /// Triangular cycles between a high and a low rate: the schedule of
    /// Fast Geometric Ensembles. The multiplier descends linearly from 1
    /// to `floor` over the first half of each cycle and climbs back; the
    /// cycle's *minimum* (where FGE collects a model) is flagged by
    /// [`LrSchedule::is_cycle_end`].
    CyclicTriangular {
        /// Epochs per cycle.
        cycle_len: usize,
        /// Low-rate multiplier at the cycle minimum, in `(0, 1]`.
        floor: f32,
    },
}

impl LrSchedule {
    /// Multiplier for the given 0-based epoch.
    pub fn scale(&self, epoch: usize) -> f32 {
        match self {
            LrSchedule::Constant => 1.0,
            LrSchedule::StepDecay { every, gamma } => gamma.powi((epoch / every.max(&1)) as i32),
            LrSchedule::CyclicCosine { cycle_len } => {
                let cycle_len = (*cycle_len).max(1);
                let pos = (epoch % cycle_len) as f32 / cycle_len as f32;
                0.5 * (1.0 + (std::f32::consts::PI * pos).cos())
            }
            LrSchedule::CyclicTriangular { cycle_len, floor } => {
                let cycle_len = (*cycle_len).max(2);
                let pos = (epoch % cycle_len) as f32 / cycle_len as f32;
                // descend for the first half, ascend for the second
                let t = if pos < 0.5 {
                    pos * 2.0
                } else {
                    2.0 - pos * 2.0
                };
                1.0 + (floor - 1.0) * t
            }
        }
    }

    /// True when `epoch` (0-based) is a model-collection point: the end of
    /// a cosine cycle (Snapshot Ensembles) or the minimum of a triangular
    /// cycle (Fast Geometric Ensembles).
    pub fn is_cycle_end(&self, epoch: usize) -> bool {
        match self {
            LrSchedule::CyclicCosine { cycle_len } => {
                (epoch + 1).is_multiple_of((*cycle_len).max(1))
            }
            LrSchedule::CyclicTriangular { cycle_len, .. } => {
                let cycle_len = (*cycle_len).max(2);
                epoch % cycle_len == cycle_len / 2
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_grad(p: &Tensor) -> Tensor {
        // gradient of f(p) = |p|^2 / 2
        p.clone()
    }

    /// All optimizers should descend a convex quadratic.
    fn descends(mut opt: Optimizer, steps: usize) -> f32 {
        let mut p = Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]).unwrap();
        for _ in 0..steps {
            let mut g = quad_grad(&p);
            let mut binding = vec![(&mut p, &mut g)];
            opt.step(&mut binding, 1.0);
        }
        p.norm()
    }

    #[test]
    fn sgd_descends_quadratic() {
        assert!(descends(Optimizer::sgd(0.1), 100) < 1e-3);
    }

    #[test]
    fn momentum_descends_quadratic() {
        assert!(descends(Optimizer::momentum(0.05), 200) < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        assert!(descends(Optimizer::adam(0.1), 300) < 1e-2);
    }

    #[test]
    fn sgd_update_is_exact() {
        let mut p = Tensor::from_vec(vec![1.0], [1]).unwrap();
        let mut g = Tensor::from_vec(vec![0.5], [1]).unwrap();
        let mut opt = Optimizer::sgd(0.2);
        opt.step(&mut [(&mut p, &mut g)], 1.0);
        assert!((p.data()[0] - 0.9).abs() < 1e-7);
    }

    #[test]
    fn lr_scale_multiplies() {
        let mut p = Tensor::from_vec(vec![1.0], [1]).unwrap();
        let mut g = Tensor::from_vec(vec![1.0], [1]).unwrap();
        let mut opt = Optimizer::sgd(0.1);
        opt.step(&mut [(&mut p, &mut g)], 0.5);
        assert!((p.data()[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut p = Tensor::from_vec(vec![0.0], [1]).unwrap();
        let mut opt = Optimizer::momentum(0.1);
        // constant gradient of 1: velocity grows, steps get larger
        let mut last = 0.0f32;
        let mut deltas = Vec::new();
        for _ in 0..3 {
            let mut g = Tensor::from_vec(vec![1.0], [1]).unwrap();
            opt.step(&mut [(&mut p, &mut g)], 1.0);
            deltas.push(last - p.data()[0]);
            last = p.data()[0];
        }
        assert!(deltas[1] > deltas[0]);
        assert!(deltas[2] > deltas[1]);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // with bias correction, the first Adam step has magnitude ~lr
        let mut p = Tensor::from_vec(vec![0.0], [1]).unwrap();
        let mut g = Tensor::from_vec(vec![0.3], [1]).unwrap();
        let mut opt = Optimizer::adam(0.1);
        opt.step(&mut [(&mut p, &mut g)], 1.0);
        assert!(
            (p.data()[0].abs() - 0.1).abs() < 1e-3,
            "step was {}",
            p.data()[0]
        );
    }

    #[test]
    fn constant_schedule() {
        assert_eq!(LrSchedule::Constant.scale(0), 1.0);
        assert_eq!(LrSchedule::Constant.scale(99), 1.0);
    }

    #[test]
    fn step_decay_halves() {
        let s = LrSchedule::StepDecay {
            every: 10,
            gamma: 0.5,
        };
        assert_eq!(s.scale(0), 1.0);
        assert_eq!(s.scale(9), 1.0);
        assert_eq!(s.scale(10), 0.5);
        assert_eq!(s.scale(25), 0.25);
    }

    #[test]
    fn cyclic_cosine_restarts() {
        let s = LrSchedule::CyclicCosine { cycle_len: 10 };
        assert!((s.scale(0) - 1.0).abs() < 1e-6);
        assert!(s.scale(9) < 0.05); // annealed near zero at cycle end
        assert!((s.scale(10) - 1.0).abs() < 1e-6); // restart
        assert!(s.is_cycle_end(9));
        assert!(!s.is_cycle_end(8));
        assert!(s.is_cycle_end(19));
    }

    #[test]
    fn cyclic_triangular_descends_then_climbs() {
        let s = LrSchedule::CyclicTriangular {
            cycle_len: 8,
            floor: 0.1,
        };
        assert!((s.scale(0) - 1.0).abs() < 1e-6);
        // minimum at mid-cycle
        assert!((s.scale(4) - 0.1).abs() < 1e-6);
        assert!(s.scale(2) < s.scale(1));
        assert!(s.scale(6) > s.scale(5));
        // collection points at each cycle's minimum
        assert!(s.is_cycle_end(4));
        assert!(s.is_cycle_end(12));
        assert!(!s.is_cycle_end(0));
        assert!(!s.is_cycle_end(7));
    }

    #[test]
    fn cyclic_cosine_monotone_within_cycle() {
        let s = LrSchedule::CyclicCosine { cycle_len: 8 };
        for e in 0..7 {
            assert!(s.scale(e) > s.scale(e + 1), "not decreasing at epoch {e}");
        }
    }
}

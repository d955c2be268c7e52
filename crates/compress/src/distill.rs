//! Knowledge distillation: transferring a large network's function into a
//! smaller one (Hinton et al., tutorial §2.1).
//!
//! The student is trained against a convex mix of the hard labels and the
//! teacher's temperature-softened probabilities. Temperature > 1 exposes the
//! teacher's "dark knowledge" — the relative probabilities of wrong classes
//! — which is what lets a small student beat the same architecture trained
//! from scratch.

use dl_nn::{loss::one_hot, loss::softmax, Dataset, Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::Tensor;

/// Distillation hyper-parameters.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Softmax temperature applied to the teacher's logits (typically 2-5).
    pub temperature: f32,
    /// Weight on the soft (teacher) targets vs. hard labels, in `[0, 1]`.
    pub soft_weight: f32,
    /// Training configuration for the student.
    pub train: TrainConfig,
    /// Student optimizer.
    pub optimizer: Optimizer,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            temperature: 3.0,
            soft_weight: 0.7,
            train: TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
            optimizer: Optimizer::adam(0.01),
        }
    }
}

/// Outcome of a distillation run.
#[derive(Debug, Clone)]
pub struct DistillReport {
    /// Teacher accuracy on the training data.
    pub teacher_accuracy: f64,
    /// Distilled student accuracy.
    pub student_accuracy: f64,
    /// Teacher parameter count.
    pub teacher_params: usize,
    /// Student parameter count.
    pub student_params: usize,
}

impl DistillReport {
    /// Parameter compression ratio (teacher / student).
    pub fn compression(&self) -> f64 {
        self.teacher_params as f64 / self.student_params.max(1) as f64
    }
}

/// Temperature-softened probabilities of `teacher` on `x`.
pub fn soft_targets(teacher: &mut Network, x: &Tensor, temperature: f32) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    let logits = teacher.forward(x, false);
    softmax(&logits.map(|v| v / temperature))
}

/// Distills `teacher` into `student` on `data`.
///
/// The student is trained on `soft_weight * soft + (1 - soft_weight) * hard`
/// targets; both networks must share the same input/output dimensions.
///
/// # Panics
/// Panics when the teacher/student class counts disagree with the data.
pub fn distill(
    teacher: &mut Network,
    student: &mut Network,
    data: &Dataset,
    config: &DistillConfig,
) -> DistillReport {
    let soft = soft_targets(teacher, &data.x, config.temperature);
    assert_eq!(
        soft.dims()[1],
        data.classes,
        "teacher output width must equal class count"
    );
    let hard = one_hot(&data.y, data.classes);
    let w = config.soft_weight.clamp(0.0, 1.0);
    let targets = &(&soft * w) + &(&hard * (1.0 - w));
    let mut trainer = Trainer::new(config.train.clone(), config.optimizer.clone());
    trainer.fit_soft(student, data, Some(&targets));
    DistillReport {
        teacher_accuracy: Trainer::evaluate(teacher, data),
        student_accuracy: Trainer::evaluate(student, data),
        teacher_params: teacher.param_count(),
        student_params: student.param_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::digits_dataset;
    use dl_tensor::init::rng;

    fn teacher_and_data() -> (Network, Dataset) {
        let data = digits_dataset(300, 0.1, 0);
        let mut r = rng(1);
        let mut teacher = Network::mlp(&[144, 64, 32, 10], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut teacher, &data);
        (teacher, data)
    }

    #[test]
    fn soft_targets_are_distributions() {
        let (mut teacher, data) = teacher_and_data();
        let soft = soft_targets(&mut teacher, &data.x, 3.0);
        assert_eq!(soft.dims(), &[300, 10]);
        for r in 0..5 {
            let s: f32 = (0..10).map(|c| soft.get(&[r, c])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn higher_temperature_softens() {
        let (mut teacher, data) = teacher_and_data();
        let sharp = soft_targets(&mut teacher, &data.x, 1.0);
        let soft = soft_targets(&mut teacher, &data.x, 5.0);
        // entropy grows with temperature
        let entropy = |t: &Tensor| -> f32 {
            -t.data()
                .iter()
                .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
                .sum::<f32>()
        };
        assert!(entropy(&soft) > entropy(&sharp));
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn rejects_zero_temperature() {
        let (mut teacher, data) = teacher_and_data();
        soft_targets(&mut teacher, &data.x, 0.0);
    }

    #[test]
    fn distillation_trains_a_smaller_student() {
        let (mut teacher, data) = teacher_and_data();
        let mut r = rng(2);
        let mut student = Network::mlp(&[144, 8, 10], &mut r);
        let report = distill(&mut teacher, &mut student, &data, &DistillConfig::default());
        assert!(
            report.compression() > 5.0,
            "compression {}",
            report.compression()
        );
        assert!(
            report.student_accuracy > 0.7,
            "student accuracy {}",
            report.student_accuracy
        );
        assert!(report.teacher_accuracy > 0.9);
    }

    #[test]
    fn report_params_match_networks() {
        let (mut teacher, data) = teacher_and_data();
        let mut r = rng(3);
        let mut student = Network::mlp(&[144, 4, 10], &mut r);
        let cfg = DistillConfig {
            train: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        };
        let report = distill(&mut teacher, &mut student, &data, &cfg);
        assert_eq!(report.teacher_params, teacher.param_count());
        assert_eq!(report.student_params, student.param_count());
    }
}

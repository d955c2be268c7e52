//! A procedural MNIST stand-in: 12x12 seven-segment-style digit glyphs.
//!
//! Each digit 0-9 is rendered from the classic seven-segment encoding onto a
//! 12x12 grid, then perturbed with per-sample stroke jitter, pixel noise and
//! a random 1-pixel translation. The resulting classification problem is
//! easy enough to train in milliseconds yet hard enough that compression
//! sweeps (quantization bits, pruning sparsity) show a real accuracy cliff —
//! exactly the shape the Part-1 experiments need.

use dl_nn::Dataset;
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Image side length in pixels.
pub const DIGIT_SIDE: usize = 12;
/// Number of classes.
pub const DIGIT_CLASSES: usize = 10;

/// Seven-segment truth table: segments a,b,c,d,e,f,g per digit.
const SEGMENTS: [[bool; 7]; 10] = [
    // a      b      c      d      e      f      g
    [true, true, true, true, true, true, false],     // 0
    [false, true, true, false, false, false, false], // 1
    [true, true, false, true, true, false, true],    // 2
    [true, true, true, true, false, false, true],    // 3
    [false, true, true, false, false, true, true],   // 4
    [true, false, true, true, false, true, true],    // 5
    [true, false, true, true, true, true, true],     // 6
    [true, true, true, false, false, false, false],  // 7
    [true, true, true, true, true, true, true],      // 8
    [true, true, true, true, false, true, true],     // 9
];

/// Renders one clean glyph of `digit` into a `DIGIT_SIDE^2` buffer
/// (row-major, values in `{0, 1}`).
///
/// # Panics
/// Panics when `digit >= 10`.
fn render_digit(digit: usize) -> Vec<f32> {
    assert!(digit < 10, "digit must be 0-9, got {digit}");
    let s = DIGIT_SIDE;
    let mut img = vec![0.0f32; s * s];
    let seg = SEGMENTS[digit];
    // glyph occupies columns 2..10, rows 1..11
    let (left, right, top, mid, bottom) = (2usize, 9usize, 1usize, 5usize, 10usize);
    let mut hline = |row: usize| {
        for c in left..=right {
            img[row * s + c] = 1.0;
        }
    };
    if seg[0] {
        hline(top); // a
    }
    if seg[6] {
        hline(mid); // g
    }
    if seg[3] {
        hline(bottom); // d
    }
    let mut vline = |col: usize, r0: usize, r1: usize| {
        for r in r0..=r1 {
            img[r * s + col] = 1.0;
        }
    };
    if seg[5] {
        vline(left, top, mid); // f
    }
    if seg[1] {
        vline(right, top, mid); // b
    }
    if seg[4] {
        vline(left, mid, bottom); // e
    }
    if seg[2] {
        vline(right, mid, bottom); // c
    }
    img
}

/// Applies stroke dropout, additive noise and a random +-1 pixel shift.
fn perturb(clean: &[f32], noise: f32, rng: &mut StdRng) -> Vec<f32> {
    let s = DIGIT_SIDE;
    let dx: isize = rng.gen_range(-1..=1);
    let dy: isize = rng.gen_range(-1..=1);
    let mut out = vec![0.0f32; s * s];
    for y in 0..s {
        for x in 0..s {
            let sy = y as isize - dy;
            let sx = x as isize - dx;
            if sy >= 0 && sy < s as isize && sx >= 0 && sx < s as isize {
                out[y * s + x] = clean[sy as usize * s + sx as usize];
            }
        }
    }
    for v in &mut out {
        // stroke dropout: 5% of lit pixels go dark
        if *v > 0.5 && rng.gen::<f32>() < 0.05 {
            *v = 0.0;
        }
        *v += rng.gen_range(-noise..noise);
        *v = v.clamp(0.0, 1.0);
    }
    out
}

/// Generates `n` perturbed digit images as a [`Dataset`] with
/// `DIGIT_SIDE * DIGIT_SIDE`-wide rows and 10 classes.
pub fn digits_dataset(n: usize, noise: f32, seed: u64) -> Dataset {
    assert!(n > 0, "digits_dataset requires positive n");
    let mut rng = init::rng(seed);
    let clean: Vec<Vec<f32>> = (0..10).map(render_digit).collect();
    let mut xs = Vec::with_capacity(n * DIGIT_SIDE * DIGIT_SIDE);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        let d = i % 10;
        xs.extend(perturb(&clean[d], noise, &mut rng));
        ys.push(d);
    }
    Dataset::new(
        Tensor::from_vec(xs, [n, DIGIT_SIDE * DIGIT_SIDE]).expect("length matches"),
        ys,
        DIGIT_CLASSES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_binary() {
        for d in 0..10 {
            let a = render_digit(d);
            let b = render_digit(d);
            assert_eq!(a, b);
            assert!(a.iter().all(|&v| v == 0.0 || v == 1.0));
            assert!(a.iter().sum::<f32>() > 0.0, "digit {d} rendered empty");
        }
    }

    #[test]
    fn distinct_digits_render_distinctly() {
        for a in 0..10 {
            for b in (a + 1)..10 {
                assert_ne!(render_digit(a), render_digit(b), "{a} == {b}");
            }
        }
    }

    #[test]
    fn eight_contains_every_other_digit_segmentwise() {
        // 8 lights all segments, so its pixel set is a superset of any digit
        let eight = render_digit(8);
        for d in 0..10 {
            let img = render_digit(d);
            for (p8, pd) in eight.iter().zip(&img) {
                assert!(pd <= p8);
            }
        }
    }

    #[test]
    #[should_panic(expected = "digit must be")]
    fn render_rejects_out_of_range() {
        render_digit(10);
    }

    #[test]
    fn dataset_shape_and_balance() {
        let d = digits_dataset(100, 0.1, 0);
        assert_eq!(d.x.dims(), &[100, 144]);
        assert_eq!(d.classes, 10);
        for c in 0..10 {
            assert_eq!(d.y.iter().filter(|&&y| y == c).count(), 10);
        }
    }

    #[test]
    fn dataset_values_stay_in_unit_interval() {
        let d = digits_dataset(50, 0.3, 1);
        assert!(d.x.min() >= 0.0 && d.x.max() <= 1.0);
    }

    #[test]
    fn dataset_is_seed_deterministic() {
        let a = digits_dataset(30, 0.2, 5);
        let b = digits_dataset(30, 0.2, 5);
        assert_eq!(a.x, b.x);
        assert_ne!(a.x, digits_dataset(30, 0.2, 6).x);
    }

    #[test]
    fn dataset_is_learnable_by_small_mlp() {
        use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
        let data = digits_dataset(200, 0.05, 2);
        let mut rng = init::rng(3);
        let mut net = Network::mlp(&[144, 32, 10], &mut rng);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 15,
                batch_size: 32,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let acc = Trainer::evaluate(&net, &data);
        assert!(acc > 0.9, "digit accuracy only {acc}");
    }
}

//! Differential test of the broadcasting binary operators `+ − × ÷`.
//!
//! Seeded shape pairs of rank 0–4, dims drawn from {0, 1, 2, 3, 5, 8, 33},
//! with dims set to 1 on either side and leading axes dropped so the two
//! ranks differ. About a fifth of the values are NaN, ±inf, ±0.0 or
//! subnormal. For every operator, in both operand orders:
//!
//! * the result has the shape and, element for element, the bits of `f`
//!   applied to the operand pair that [`div_mod`] picks, a copy of the
//!   per-element loop that decoded each output index with one division and
//!   one remainder per axis. The one exception is a pair of two NaNs:
//!   Rust leaves open which input's payload and sign the result carries
//!   (LLVM may commute `x + y` and `x * y`), so there the result must be
//!   the quieted bits of one of the two;
//! * the charge is `out.len` FLOPs, `4·(a.len + b.len)` bytes read and
//!   `4·out.len` bytes written.
//!
//! Shapes that do not broadcast still panic with "cannot broadcast".

use std::panic::{self, AssertUnwindSafe};

use dl_tensor::acct::{self, OpCost};
use dl_tensor::{init, Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

const DIMS: [usize; 7] = [0, 1, 2, 3, 5, 8, 33];
/// Output shapes above this many elements are redrawn, to keep the
/// oracle's per-element loop quick at the test profile's opt level.
const MAX_LEN: usize = 4096;
const CASES: usize = 2000;

type Op = fn(&Tensor, &Tensor) -> Tensor;
type Scalar = fn(f32, f32) -> f32;

/// Each operator, as the tensor operator and as its per-element `f`.
const OPS: [(&str, Op, Scalar); 4] = [
    ("+", |a, b| a + b, |x, y| x + y),
    ("-", |a, b| a - b, |x, y| x - y),
    ("*", |a, b| a * b, |x, y| x * y),
    ("/", |a, b| a / b, |x, y| x / y),
];

/// The index-decoding loop the stride walk replaced: for each flat output
/// index, divide by each output stride to get the coordinate, clamp it to
/// the operand's (padded) dim and add the operand's broadcast stride.
/// Returns the output shape and, per output element, the operand pair.
fn div_mod(a: &Tensor, b: &Tensor) -> (Shape, Vec<(f32, f32)>) {
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .expect("oracle shapes broadcast");
    let rank = out_shape.rank();
    let padded = |t: &Tensor| {
        let mut dims = vec![1; rank];
        dims[rank - t.dims().len()..].copy_from_slice(t.dims());
        dims
    };
    let strides = |t: &Tensor, dims: &[usize]| {
        let own = t.shape().strides();
        let offset = rank - t.dims().len();
        (0..rank)
            .map(|i| {
                if i < offset || dims[i] == 1 {
                    0
                } else {
                    own[i - offset]
                }
            })
            .collect::<Vec<_>>()
    };
    let (a_dims, b_dims) = (padded(a), padded(b));
    let (a_strides, b_strides) = (strides(a, &a_dims), strides(b, &b_dims));
    let out_strides = out_shape.strides();
    let mut out = vec![(0.0, 0.0); out_shape.len()];
    for (flat, slot) in out.iter_mut().enumerate() {
        let mut rem = flat;
        let mut a_off = 0;
        let mut b_off = 0;
        for axis in 0..rank {
            let coord = rem / out_strides[axis];
            rem %= out_strides[axis];
            a_off += coord.min(a_dims[axis] - 1) * a_strides[axis];
            b_off += coord.min(b_dims[axis] - 1) * b_strides[axis];
        }
        *slot = (a.data()[a_off], b.data()[b_off]);
    }
    (out_shape, out)
}

/// Whether `got` is the bits of `f(x, y)`, or for two NaN inputs the
/// quieted bits of either one.
fn same_bits(got: f32, x: f32, y: f32, f: Scalar) -> bool {
    const QUIET: u32 = 0x0040_0000;
    let got = got.to_bits();
    if x.is_nan() && y.is_nan() {
        got == x.to_bits() | QUIET || got == y.to_bits() | QUIET
    } else {
        got == f(x, y).to_bits()
    }
}

/// One operand value: a fifth of them special, the rest in ±4.
fn value(rng: &mut StdRng) -> f32 {
    const SPECIAL: [f32; 10] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 1024.0,
        f32::from_bits(1),
        f32::from_bits(0x7fc0_1234),
    ];
    if rng.gen_range(0u32..5) == 0 {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-4.0f32..4.0)
    }
}

fn tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let shape = Shape::from(dims);
    let data = (0..shape.len()).map(|_| value(rng)).collect();
    Tensor::from_vec(data, shape).expect("length matches by construction")
}

/// An operand's dims for output dims `out`: each dim kept or set to 1,
/// then up to all leading axes dropped.
fn operand_dims(out: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let dims: Vec<usize> = out
        .iter()
        .map(|&d| if rng.gen_range(0u32..3) == 0 { 1 } else { d })
        .collect();
    let drop = if rng.gen_range(0u32..2) == 0 {
        rng.gen_range(0..=dims.len())
    } else {
        0
    };
    dims[drop..].to_vec()
}

/// A broadcast-compatible pair whose output has at most [`MAX_LEN`]
/// elements.
fn compatible_pair(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    loop {
        let rank = rng.gen_range(0..=4);
        let out: Vec<usize> = (0..rank)
            .map(|_| DIMS[rng.gen_range(0..DIMS.len())])
            .collect();
        if out.iter().product::<usize>() <= MAX_LEN {
            return (operand_dims(&out, rng), operand_dims(&out, rng));
        }
    }
}

#[test]
fn every_operator_matches_the_div_mod_loop_bitwise_with_its_charge() {
    let mut rng = init::rng(0xb40a);
    let mut ranks_differ = 0;
    let mut empty = 0;
    for case in 0..CASES {
        let (a_dims, b_dims) = compatible_pair(&mut rng);
        let a = tensor(&a_dims, &mut rng);
        let b = tensor(&b_dims, &mut rng);
        ranks_differ += usize::from(a_dims.len() != b_dims.len());
        for (x, y) in [(&a, &b), (&b, &a)] {
            let (shape, pairs) = div_mod(x, y);
            empty += usize::from(shape.is_empty());
            for (name, op, f) in OPS {
                let at = format!("case {case}: {:?} {name} {:?}", x.dims(), y.dims());
                let (got, cost) = acct::measure(|| op(x, y));
                assert_eq!(got.shape(), &shape, "{at}: shape");
                for (i, (&g, &(xv, yv))) in got.data().iter().zip(&pairs).enumerate() {
                    assert!(
                        same_bits(g, xv, yv, f),
                        "{at}: element {i}: {xv:?} {name} {yv:?} gave {:#010x}",
                        g.to_bits()
                    );
                }
                let charge = OpCost {
                    flops: got.len() as u64,
                    bytes_read: 4 * (x.len() + y.len()) as u64,
                    bytes_written: 4 * got.len() as u64,
                };
                assert_eq!(cost, charge, "{at}: charge");
            }
        }
    }
    // The generator reaches the cases the walk must get right.
    assert!(
        ranks_differ > CASES / 4,
        "{ranks_differ} rank-mismatched pairs"
    );
    assert!(empty > CASES / 10, "{empty} empty outputs");
}

#[test]
fn incompatible_shapes_still_panic() {
    let pairs: [(&[usize], &[usize]); 6] = [
        (&[2], &[3]),
        (&[0], &[2]),
        (&[2, 3], &[3, 2]),
        (&[5, 1, 3], &[4, 2]),
        (&[8, 33], &[5, 33]),
        (&[3, 0, 1], &[2, 1, 1]),
    ];
    let mut rng = init::rng(7);
    for (a_dims, b_dims) in pairs {
        let (a, b) = (tensor(a_dims, &mut rng), tensor(b_dims, &mut rng));
        for (x, y) in [(&a, &b), (&b, &a)] {
            for (name, op, _) in OPS {
                let at = format!("{:?} {name} {:?}", x.dims(), y.dims());
                let err = panic::catch_unwind(AssertUnwindSafe(|| op(x, y)))
                    .expect_err(&format!("{at} must panic"));
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                assert!(msg.contains("cannot broadcast"), "{at}: {msg}");
            }
        }
    }
}

//! Differential test of the one GEMM routine behind `par::matmul`,
//! `par::matmul_blocked`, `par::matmul_acc` and the transposed-operand
//! `par::matmul_tn` and `par::matmul_nt`, and the pinned IEEE behaviour
//! of its zero-skip.
//!
//! Seeded random operands over shapes that straddle every column-strip
//! width, tile edge and eight-row lane group, at one and four threads and
//! several tile widths. `A` comes in three kinds, one for each loop order
//! the routine picks per row block: about half exact zeros (a quarter of
//! them `-0.0`), no zero at all, and exactly one `±0.0` in every run of
//! [`ROW_BLOCK`] rows:
//!
//! * `Kernel::Scalar` must equal `Tensor::matmul` bit for bit;
//! * `Kernel::Unrolled` must equal [`ikj`], the plain i-k-j loop that adds
//!   each non-zero `a`'s fused products into the output row in ascending
//!   `k`;
//! * both must charge the sequential kernel's `acct` cost;
//! * `matmul_tn(aᵀ, b)` and `matmul_nt(a, bᵀ)`, given the transposed
//!   operand as `transpose()` stores it, must give the bits and the
//!   charge of `matmul` on the untransposed operands (the oracle of
//!   `transpose()` + `matmul`), whatever `matmul_tn`'s output held.
//!
//! The same check runs again with NaN, ±inf and subnormals placed in `B`
//! and at random positions of `A`. A NaN result only has to be a NaN.

use dl_tensor::acct::{self, OpCost};
use dl_tensor::par::{self, Kernel};
use dl_tensor::{init, Tensor};
use rand::Rng;

const MS: [usize; 11] = [0, 1, 3, 7, 8, 9, 15, 16, 17, 32, 33];
const KS: [usize; 6] = [0, 1, 5, 16, 64, 129];
const THREADS: [usize; 2] = [1, 4];
const TILES: [usize; 4] = [1, 3, 8, 128];

/// Output widths: every remainder below the 8-wide strip, and both sides
/// of the 16-, 32-, 64- and 128-column edges.
fn widths() -> Vec<usize> {
    (1..=9)
        .chain(15..=17)
        .chain(31..=33)
        .chain(63..=65)
        .chain(127..=129)
        .chain([300])
        .collect()
}

/// Rows per block of the GEMM routine, which picks each block's loop
/// order from the block's own values.
const ROW_BLOCK: usize = 32;

/// Where an operand's exact zeros fall.
#[derive(Clone, Copy, Debug)]
enum Zeros {
    /// None: every row block of `A` runs zero-free.
    None,
    /// About half the elements, a quarter of those `-0.0`.
    Half,
    /// Exactly one, `+0.0` or `-0.0`, in every run of [`ROW_BLOCK`] rows.
    OnePerBlock,
}

const A_ZEROS: [Zeros; 3] = [Zeros::None, Zeros::Half, Zeros::OnePerBlock];

/// A `[rows, cols]` operand with its zeros placed as `zeros` says.
fn operand(rows: usize, cols: usize, zeros: Zeros, rng: &mut rand::rngs::StdRng) -> Tensor {
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|_| match (zeros, rng.gen_range(0u32..8)) {
            (Zeros::Half, 0) => -0.0,
            (Zeros::Half, 1..=3) => 0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    if let Zeros::OnePerBlock = zeros {
        for block in data.chunks_mut((ROW_BLOCK * cols).max(1)) {
            let at = rng.gen_range(0..block.len());
            block[at] = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
        }
    }
    Tensor::from_vec(data, [rows, cols]).expect("length matches by construction")
}

/// The i-k-j loop the register-blocked routine replaced: `out += a · b`,
/// skipping `a == 0.0`, each term added with `a.mul_add(b, o)` when
/// `fused` and `o + a * b` otherwise. Returns the non-zero count.
fn ikj(a: &Tensor, b: &Tensor, out: &mut [f32], fused: bool) -> u64 {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut nnz = 0;
    for i in 0..m {
        for kk in 0..k {
            let av = a.data()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            nnz += 1;
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in out[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o = if fused {
                    av.mul_add(bv, *o)
                } else {
                    *o + av * bv
                };
            }
        }
    }
    nnz
}

/// Bit patterns, with every NaN mapped to `f32::NAN`'s. Rust leaves the
/// sign and payload of a NaN result open, and the kernels and oracles do
/// differ there once NaNs meet. Everything else, `-0.0` and subnormals
/// included, is compared exactly.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

fn run<R>(kern: Kernel, threads: usize, f: impl FnOnce() -> R) -> (R, OpCost) {
    acct::measure(|| par::with_kernel(kern, || par::with_threads(threads, f)))
}

/// Runs `a · b` through `matmul_blocked` at every thread count and tile
/// width, `start += a · b` through `matmul_acc`, and the same product
/// from stored transposes through `matmul_tn` and `matmul_nt`, on both
/// kernels: `Kernel::Scalar` must give `Tensor::matmul`'s bits and
/// [`ikj`]'s unfused sums, `Kernel::Unrolled` [`ikj`]'s fused ones, each
/// with the sequential kernel's charge.
fn check_against_oracles(a: &Tensor, b: &Tensor, start: &Tensor) {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let shape = format!("({m},{k},{n})");
    let (a_t, b_t) = (a.transpose(), b.transpose());

    let (scalar_want, seq_cost) = acct::measure(|| a.matmul(b));
    let mut fused_want = vec![0.0f32; m * n];
    let nnz = ikj(a, b, &mut fused_want, true);
    assert_eq!(seq_cost.flops, 2 * nnz * n as u64, "{shape}: oracle nnz");
    let mut acc_want = [start.data().to_vec(), start.data().to_vec()];
    ikj(a, b, &mut acc_want[0], false);
    ikj(a, b, &mut acc_want[1], true);
    let acc_cost = OpCost {
        flops: seq_cost.flops,
        bytes_read: 4 * (m * k + k * n + m * n) as u64,
        bytes_written: 4 * (m * n) as u64,
    };

    for (kern, want, acc_want) in [
        (Kernel::Scalar, scalar_want.data(), &acc_want[0]),
        (Kernel::Unrolled, &fused_want[..], &acc_want[1]),
    ] {
        for t in THREADS {
            for tile in TILES {
                let (got, cost) = run(kern, t, || par::matmul_blocked(a, b, tile));
                let at = format!("{kern:?} {shape} threads {t} tile {tile}");
                assert_eq!(got.dims(), &[m, n], "{at}");
                assert_eq!(bits(got.data()), bits(want), "{at}");
                assert_eq!(cost, seq_cost, "{at}: charge");
            }
            let mut out = start.clone();
            let ((), cost) = run(kern, t, || par::matmul_acc(a, b, &mut out));
            let at = format!("{kern:?} matmul_acc {shape} threads {t}");
            assert_eq!(bits(out.data()), bits(acc_want), "{at}");
            assert_eq!(cost, acc_cost, "{at}: charge");

            // matmul_tn overwrites whatever its output held: the same
            // shape full of other values, or another shape entirely.
            for mut out in [start.clone(), Tensor::full([n + 1, 2], 7.0)] {
                let ((), cost) = run(kern, t, || par::matmul_tn(&a_t, b, &mut out));
                let at = format!("{kern:?} matmul_tn {shape} threads {t}");
                assert_eq!(out.dims(), &[m, n], "{at}");
                assert_eq!(bits(out.data()), bits(want), "{at}");
                assert_eq!(cost, seq_cost, "{at}: charge");
            }
            let (got, cost) = run(kern, t, || par::matmul_nt(a, &b_t));
            let at = format!("{kern:?} matmul_nt {shape} threads {t}");
            assert_eq!(got.dims(), &[m, n], "{at}");
            assert_eq!(bits(got.data()), bits(want), "{at}");
            assert_eq!(cost, seq_cost, "{at}: charge");
        }
    }
}

#[test]
fn both_kernels_match_their_oracles_bitwise_with_equal_charges() {
    let mut rng = init::rng(0x6e3d);
    let mut cases = 0;
    for n in widths() {
        for a_zeros in A_ZEROS {
            for _ in 0..8 {
                let m = MS[rng.gen_range(0..MS.len())];
                let k = KS[rng.gen_range(0..KS.len())];
                let a = operand(m, k, a_zeros, &mut rng);
                let b = operand(k, n, Zeros::None, &mut rng);
                let start = operand(m, n, Zeros::Half, &mut rng);
                check_against_oracles(&a, &b, &start);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 8 * A_ZEROS.len() * widths().len());
}

/// Replaces about one element in `every` of `t` with NaN, ±inf or a
/// subnormal, at seeded positions.
fn sprinkle_specials(t: &mut Tensor, every: u32, rng: &mut rand::rngs::StdRng) {
    const SPECIAL: [f32; 6] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 8.0,
        -f32::MIN_POSITIVE / 1024.0,
        f32::from_bits(1),
    ];
    for x in t.data_mut() {
        if rng.gen_range(0..every) == 0 {
            *x = SPECIAL[rng.gen_range(0..SPECIAL.len())];
        }
    }
}

#[test]
fn special_values_in_b_and_anywhere_in_a_match_the_oracles() {
    let mut rng = init::rng(0x5bec);
    for n in widths() {
        for a_zeros in A_ZEROS.into_iter().cycle().take(6) {
            let m = MS[rng.gen_range(0..MS.len())];
            let k = KS[rng.gen_range(0..KS.len())];
            let mut a = operand(m, k, a_zeros, &mut rng);
            let mut b = operand(k, n, Zeros::None, &mut rng);
            let start = operand(m, n, Zeros::Half, &mut rng);
            // Specials in B meet both skipped zeros and live values of A;
            // specials in A land in any row, column and strip.
            sprinkle_specials(&mut b, 16, &mut rng);
            sprinkle_specials(&mut a, 32, &mut rng);
            check_against_oracles(&a, &b, &start);
        }
    }
}

// ---------------------------------------------------------------------
// The zero-skip's IEEE behaviour, pinned for both kernels
// ---------------------------------------------------------------------

const KERNELS: [Kernel; 2] = [Kernel::Scalar, Kernel::Unrolled];

fn matrix(rows: usize, cols: usize, data: &[f32]) -> Tensor {
    Tensor::from_vec(data.to_vec(), [rows, cols]).expect("test matrix shape")
}

#[test]
fn negative_zero_in_a_is_skipped_exactly_like_positive_zero() {
    let b = matrix(
        3,
        9,
        &(0..27).map(|i| i as f32 * 0.37 - 4.0).collect::<Vec<_>>(),
    );
    let plus = matrix(2, 3, &[0.0, 1.5, 0.0, -2.0, 0.0, 0.25]);
    let minus = matrix(2, 3, &[-0.0, 1.5, -0.0, -2.0, -0.0, 0.25]);
    for kern in KERNELS {
        for t in THREADS {
            let (p, pc) = run(kern, t, || par::matmul(&plus, &b));
            let (q, qc) = run(kern, t, || par::matmul(&minus, &b));
            assert_eq!(bits(p.data()), bits(q.data()), "{kern:?} threads {t}");
            assert_eq!(pc, qc, "{kern:?}: a skipped -0.0 is not charged");
            assert_eq!(pc.flops, 2 * 3 * 9, "{kern:?}: three non-zeros");
        }
        // A row of zeros leaves an accumulated output untouched, sign
        // included: -0.0 stays -0.0 (adding +0.0 products would give +0.0).
        let mut out = Tensor::from_vec(vec![-0.0; 18], [2, 9]).expect("shape");
        let zeros = matrix(2, 3, &[0.0, -0.0, 0.0, -0.0, 0.0, -0.0]);
        par::with_kernel(kern, || par::matmul_acc(&zeros, &b, &mut out));
        assert!(
            out.data()
                .iter()
                .all(|x| x.to_bits() == (-0.0f32).to_bits()),
            "{kern:?}"
        );
    }
}

#[test]
fn a_skipped_zero_drops_its_infinite_and_nan_products() {
    // Row 0 of B is all non-finite; the zeros of A that meet it are
    // skipped, so no 0·inf or 0·NaN term reaches the output.
    let (inf, nan) = (f32::INFINITY, f32::NAN);
    let non_finite = [inf, -inf, nan, inf, nan, -inf, inf, nan, inf];
    let ramp: [f32; 9] = std::array::from_fn(|j| (j + 1) as f32);
    let b = matrix(2, 9, &[non_finite, ramp].concat());
    let a = matrix(2, 2, &[0.0, 0.5, -0.0, -2.0]);
    let want: Vec<f32> = [0.5f32, -2.0]
        .iter()
        .flat_map(|&s| (1..=9).map(move |j| s * j as f32))
        .collect();
    // The sequential oracle makes the same choice.
    assert_eq!(bits(a.matmul(&b).data()), bits(&want));
    for kern in KERNELS {
        for t in THREADS {
            let (got, _) = run(kern, t, || par::matmul(&a, &b));
            assert_eq!(bits(got.data()), bits(&want), "{kern:?} threads {t}");
        }
    }
}

#[test]
fn nan_and_infinity_in_a_still_propagate() {
    let b = matrix(2, 9, &(0..18).map(|i| i as f32 - 3.0).collect::<Vec<_>>());
    let a = matrix(
        3,
        2,
        &[f32::NAN, 1.0, f32::INFINITY, 1.0, f32::NEG_INFINITY, 0.0],
    );
    for kern in KERNELS {
        for t in THREADS {
            let (got, cost) = run(kern, t, || par::matmul(&a, &b));
            let row = |i: usize| &got.data()[i * 9..(i + 1) * 9];
            assert!(row(0).iter().all(|x| x.is_nan()), "{kern:?}: NaN row");
            // inf · b is ±inf, or NaN where b is 0: never finite.
            assert!(row(1).iter().all(|x| !x.is_finite()), "{kern:?}: inf row");
            assert!(row(2).iter().all(|x| !x.is_finite()), "{kern:?}: -inf row");
            assert_eq!(cost.flops, 2 * 5 * 9, "{kern:?}: NaN and inf are charged");
        }
    }
}

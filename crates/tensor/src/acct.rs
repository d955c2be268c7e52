//! Deterministic op-cost accounting: FLOPs and bytes actually moved.
//!
//! The static model in `dl-nn::cost` predicts what a layer *should* cost;
//! this module counts what the tensor kernels *actually* do. Profiling
//! code runs tensor work inside [`measure`], which opens a scope and
//! returns the measured [`OpCost`].
//! Every instrumented kernel ([`Tensor::matmul`], the elementwise maps,
//! `im2col`/`col2im`, the reductions) charges its scope as it executes.
//!
//! Accounting is thread-local and **off by default**: when no scope is
//! open, a charge is a single thread-local counter read, so untraced
//! training paths stay at full speed and — since counting never touches a
//! float — bit-identical. Scopes nest; an outer scope includes everything
//! charged inside inner scopes (a per-network profile sees the sum of its
//! per-layer scopes).
//!
//! # Merge rule under threads
//!
//! Scopes are strictly thread-local — a scope opened on one thread never
//! sees charges issued on another, and the `crate::par` worker threads
//! never open scopes of their own. Instead, every parallel kernel follows
//! one rule: **workers return their share of the work counters, and the
//! kernel merges the shares and issues a single [`charge`] on the thread
//! that called it** (the thread whose scope is open). Because the shares
//! partition exactly the work the sequential kernel counts — e.g. each
//! matmul worker reports the non-zero left-operand elements in its row
//! range, and the charge is `2·Σnnz·n` — a parallel kernel charges an
//! [`OpCost`] bit-for-bit equal to its sequential counterpart at any
//! thread count. Integer counters merge by addition ([`OpCost::merge`]),
//! so no ordering or rounding concerns arise the way they would for
//! floats.
//!
//! # Per-precision charging rules
//!
//! The kernel layer in `crate::par` spans three precisions; each has a
//! fixed charging rule so measured tables (and everything priced off
//! them — `DeviceModel` service times, batch-cost tables, residency
//! economics) are reproducible by hand:
//!
//! * **f32, scalar or unrolled** (`DL_KERNEL` dispatch): the unrolled
//!   FMA kernels charge **exactly what the scalar oracle charges** — a
//!   fused multiply-add still counts as 2 flops (the FMA-free
//!   convention above), and bytes are 4 per element. The knob changes
//!   wall-clock and last-bit rounding, never an [`OpCost`]. A matmul
//!   charges `2·nnz·n` flops, `4·(m·k + k·n)` bytes read, `4·m·n`
//!   written, under either kernel at any thread count.
//! * **int8 GEMM** (`par::matmul_q8`): `2·m·k·n + 4·m·n` flops (the
//!   integer multiply-adds plus the per-output affine rescale, counted
//!   by the same 2-flops-per-multiply-add convention; no zero-skip
//!   discount — the integer skip is pure speed), **`m·k + k·n` bytes
//!   read — one byte per packed code**, which is what actually streams
//!   from memory and why a quantized variant's measured bytes-read term
//!   is ~4× smaller than its f32 shadow's, and `4·m·n` bytes written
//!   for the f32 output. Per-row/per-column code-sum precomputation is
//!   excluded, like panel packing in the f32 path.
//! * **dynamic activation quantization** (`dl-compress`'s int8 forward
//!   quantizing each activation batch on the fly): `3·n` flops
//!   (subtract, scale, round per element), `8·n` bytes read (one f32
//!   pass for the min/max range scan, one for the encode), `n` bytes
//!   written (the codes).
//!
//! ```
//! use dl_tensor::{acct, Tensor};
//! let a = Tensor::ones([4, 8]);
//! let b = Tensor::ones([8, 2]);
//! let (_, cost) = acct::measure(|| a.matmul(&b));
//! assert_eq!(cost.flops, 2 * 4 * 8 * 2);
//! ```
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul

use std::cell::{Cell, RefCell};

/// Measured cost of a region of tensor work.
#[must_use = "a measured cost is the whole point of opening an accounting scope"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Floating-point operations executed (multiply and add counted
    /// separately, the FMA-free convention of the static model).
    pub flops: u64,
    /// Bytes read from operand buffers.
    pub bytes_read: u64,
    /// Bytes written to result buffers.
    pub bytes_written: u64,
}

impl OpCost {
    /// Component-wise sum.
    pub fn merge(self, other: OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }

    /// Total bytes moved in either direction.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

thread_local! {
    /// Number of open scopes — the fast path checks this single cell.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Stack of per-scope accumulators (top = innermost).
    static SCOPES: RefCell<Vec<OpCost>> = const { RefCell::new(Vec::new()) };
}

/// True while at least one accounting scope is open on this thread.
pub fn enabled() -> bool {
    DEPTH.with(|d| d.get()) > 0
}

/// Opens a nested accounting scope on this thread.
fn begin() {
    DEPTH.with(|d| d.set(d.get() + 1));
    SCOPES.with(|s| s.borrow_mut().push(OpCost::default()));
}

/// Closes the innermost scope and returns everything charged inside it.
/// The total also flows into the enclosing scope, if any.
///
/// # Panics
/// Panics when no scope is open.
fn end() -> OpCost {
    let cost = SCOPES.with(|s| {
        let mut stack = s.borrow_mut();
        let cost = stack.pop().expect("acct::end without a matching begin");
        if let Some(parent) = stack.last_mut() {
            *parent = parent.merge(cost);
        }
        cost
    });
    DEPTH.with(|d| d.set(d.get() - 1));
    cost
}

/// Runs `f` inside a fresh scope and returns its result and measured cost.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, OpCost) {
    begin();
    let out = f();
    (out, end())
}

/// Charges the innermost open scope; a no-op when accounting is off.
/// Called by the instrumented tensor kernels.
#[inline]
pub fn charge(flops: u64, bytes_read: u64, bytes_written: u64) {
    if DEPTH.with(|d| d.get()) == 0 {
        return;
    }
    SCOPES.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.flops += flops;
            top.bytes_read += bytes_read;
            top.bytes_written += bytes_written;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn disabled_by_default_and_charges_are_dropped() {
        assert!(!enabled());
        charge(100, 100, 100);
        let (_, cost) = measure(|| ());
        assert_eq!(cost, OpCost::default());
    }

    #[test]
    fn matmul_cost_is_exact() {
        let a = Tensor::ones([3, 4]);
        let b = Tensor::ones([4, 5]);
        let (_, cost) = measure(|| a.matmul(&b));
        assert_eq!(cost.flops, 2 * 3 * 4 * 5);
        assert_eq!(cost.bytes_read, 4 * (3 * 4 + 4 * 5));
        assert_eq!(cost.bytes_written, 4 * 3 * 5);
    }

    #[test]
    fn scopes_nest_and_roll_up() {
        let x = Tensor::ones([8]);
        begin();
        let (_, inner) = measure(|| x.map(|v| v + 1.0));
        let _ = x.map(|v| v * 2.0);
        let outer = end();
        assert_eq!(inner.flops, 8);
        assert_eq!(outer.flops, 16, "outer scope includes the inner scope");
        assert!(!enabled());
    }

    #[test]
    #[should_panic(expected = "without a matching begin")]
    fn end_without_begin_panics() {
        let _ = end();
    }

    #[test]
    fn elementwise_and_reduction_costs() {
        let a = Tensor::ones([2, 6]);
        let b = Tensor::ones([2, 6]);
        let (_, zip) = measure(|| a.zip(&b, |x, y| x + y));
        assert_eq!(zip.flops, 12);
        assert_eq!(zip.bytes_read, 4 * 24);
        let (_, sum) = measure(|| a.sum());
        assert_eq!(sum.flops, 12);
        assert_eq!(sum.bytes_written, 0);
        let (_, bc) = measure(|| &a + &Tensor::ones([6]));
        assert_eq!(bc.flops, 12);
    }

    #[test]
    fn accounting_never_perturbs_results() {
        let a = Tensor::ones([4, 4]);
        let b = Tensor::ones([4, 4]);
        let plain = a.matmul(&b);
        let (measured, _) = measure(|| a.matmul(&b));
        assert_eq!(plain.data(), measured.data());
    }
}

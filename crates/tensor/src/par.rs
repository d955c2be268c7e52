//! Zero-dependency parallel + cache-blocked compute backend.
//!
//! Every FLOP in the workspace funnels through the scalar kernels in
//! [`Tensor`]; this module provides drop-in parallel and cache-blocked
//! variants built on `std::thread` alone (the build environment has no
//! route to a crates registry, so no rayon/crossbeam). Three design rules
//! govern everything here:
//!
//! 1. **Bit-identical results.** Parallelism splits only over *output*
//!    rows, channels, or column tiles; the per-element accumulation order
//!    (the `k` loop in matmul, the `mid` loop in `sum_axis`, the
//!    `ky/kx/oy/ox` scatter order in `col2im`) is exactly the sequential
//!    kernel's. Identical `f32` operation sequences produce identical
//!    bits, so [`par::matmul`](matmul) == [`Tensor::matmul`] bitwise at
//!    any thread count — the same contract the `NullRecorder` paths keep.
//! 2. **Exact cost accounting.** Worker threads never touch
//!    [`acct`]'s thread-local scopes; each worker returns its share of
//!    the work counters (the `nnz` count for matmul) and the *calling*
//!    thread issues one [`acct::charge`] with the merged totals — the
//!    same totals the sequential kernel charges. See the merge rule in
//!    the [`acct`] module docs.
//! 3. **A persistent pool.** Workers are spawned once (lazily, up to
//!    `MAX_THREADS`, 64) and parked on a condvar between kernels, so a
//!    training loop issuing thousands of small launches pays no
//!    per-kernel thread spawn. Panics inside a worker task are caught
//!    and re-raised on the calling thread after every sibling task has
//!    finished, so the scoped borrows below stay sound.
//!
//! Thread count resolves in priority order: a scoped [`with_threads`]
//! override, then [`set_threads`], then the `DL_THREADS` environment
//! variable, then `std::thread::available_parallelism()`.
//!
//! # Kernel dispatch (`DL_KERNEL`)
//!
//! The f32 kernels come in two implementations selected by a knob that
//! mirrors the thread knob exactly: a scoped [`with_kernel`] override,
//! then [`set_kernel`], then the `DL_KERNEL` environment variable
//! (`scalar` or `unrolled`), defaulting to [`Kernel::Scalar`].
//!
//! * [`Kernel::Scalar`] is the reference oracle: plain multiply-then-add
//!   in strict ascending order, bit-identical to the sequential
//!   [`Tensor`] kernels.
//! * [`Kernel::Unrolled`] is the data-level parallel path: the GEMM adds
//!   each term with [`f32::mul_add`] (one rounding per multiply-add
//!   instead of two), [`map`] runs a width-8 unrolled body, and one-output
//!   reductions ([`sum`], [`dot`], the `mid` loop of [`sum_axis`])
//!   accumulate in **eight lanes folded by a fixed tree**: element `i`
//!   goes to lane `i % 8` in ascending order, and the lanes reduce as
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. Because the accumulation
//!   order is fixed per output element and work only ever splits along
//!   independent outputs, unrolled results are bitwise-pinned: identical
//!   at every `DL_THREADS` count and every tile width — they just differ
//!   from the scalar oracle in the last bits (fused roundings), which is
//!   why goldens are pinned *per precision*. Both kernels charge the
//!   identical [`acct`] cost (an FMA counts as 2 flops, the static
//!   model's convention), so cost tables never depend on the knob.
//!
//! [`matmul_q8`] is the third precision: a native int8 GEMM over packed
//! affine codes with exact integer accumulation (see its docs and the
//! per-precision charging rules in [`acct`]). Integer arithmetic is
//! associative, so it has a single implementation — deterministic at any
//! thread count with no kernel dispatch.
//!
//! Register blocking: [`matmul`], [`matmul_blocked`] and [`matmul_acc`]
//! share one GEMM routine. It first compacts each `A` row's non-zero
//! `(k, a)` terms in ascending `k`, without a branch, so the zero-skip
//! costs no mispredictions on post-ReLU activations. It then covers the
//! output in 32-, 16- and 8-column strips, two or four rows at a time.
//! Each block's accumulators stay in registers across the rows' term
//! lists and are stored once, instead of loading and storing the output
//! row once per `k`. The last 1–7 columns run as one 8-wide strip over a
//! zero-padded copy. Cache blocking: [`matmul_blocked`] tiles the output
//! columns. A tile narrower than `B` packs its `[k, tile]` panel into a
//! contiguous buffer; a tile that covers `B` reads it in place. Every
//! output element still adds the same terms in the same ascending order,
//! so none of this changes a bit.
//!
//! The zero-skip is part of the contract, for both kernels: an `a` that
//! compares equal to zero (`+0.0` or `-0.0`) contributes no term and no
//! flops, so a skipped zero drops its `0·inf` and `0·NaN` products and
//! leaves the output finite. A NaN or infinite `a` is not skipped and
//! propagates.
//!
//! ```
//! use dl_tensor::{par, Tensor};
//! let a = Tensor::ones([64, 32]);
//! let b = Tensor::ones([32, 48]);
//! let fast = par::with_threads(4, || par::matmul(&a, &b));
//! assert_eq!(fast.data(), a.matmul(&b).data()); // bitwise, not approx
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::acct;
use crate::Tensor;
use dl_obs::{fields, Recorder};

/// Hard upper bound on pool workers; `set_threads`/`with_threads` clamp
/// to this.
const MAX_THREADS: usize = 64;

/// Default output-column tile width for [`matmul`]: 128 columns × 4 bytes
/// = 512 B per packed panel row, so a `[k, tile]` panel stays L1/L2
/// resident for every `k` in this workspace.
const DEFAULT_TILE_COLS: usize = 128;

// ----------------------------------------------------------------------
// Thread-count configuration
// ----------------------------------------------------------------------

/// Global thread count; 0 = not yet resolved.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 = none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Recorder installed by [`with_recorder`] for kernel spans.
    static KERNEL_REC: Cell<Option<*const (dyn Recorder + 'static)>> = const { Cell::new(None) };
}

/// Number of threads the machine advertises (never less than 1).
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `DL_THREADS` when set to a positive integer, else hardware threads.
fn default_threads() -> usize {
    std::env::var("DL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hardware_threads)
        .min(MAX_THREADS)
}

/// Sets the process-wide default thread count (clamped to
/// `1..=MAX_THREADS`). Overrides the `DL_THREADS` environment variable.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n.clamp(1, MAX_THREADS), Ordering::SeqCst);
}

/// The effective thread count for kernels launched from this thread:
/// the innermost [`with_threads`] override if any, else the global
/// setting, resolved on first use from `DL_THREADS` / hardware.
#[must_use]
pub fn threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    let g = GLOBAL_THREADS.load(Ordering::SeqCst);
    if g > 0 {
        return g;
    }
    let d = default_threads();
    // First resolver wins; a concurrent set_threads simply overwrites.
    let _ = GLOBAL_THREADS.compare_exchange(0, d, Ordering::SeqCst, Ordering::SeqCst);
    GLOBAL_THREADS.load(Ordering::SeqCst)
}

/// Runs `f` with the effective thread count forced to `n` (clamped to
/// `1..=MAX_THREADS`) on this thread, restoring the previous override on
/// exit — including on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(n.clamp(1, MAX_THREADS)));
    let _reset = Reset(prev);
    f()
}

// ----------------------------------------------------------------------
// Kernel dispatch
// ----------------------------------------------------------------------

/// Which f32 micro-kernel implementation the backend dispatches to. See
/// the module docs for the exact accumulation-order contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Reference kernels: plain multiply-then-add in strict ascending
    /// order, bit-identical to the sequential [`Tensor`] kernels. The
    /// oracle every other implementation is tested against.
    Scalar,
    /// Fused kernels: the GEMM adds each term with [`f32::mul_add`], and
    /// one-output reductions use the fixed eight-lane tree-reduce.
    /// Bitwise-pinned across thread counts and tile widths; differs from
    /// [`Kernel::Scalar`] only by the fused roundings.
    Unrolled,
}

/// Global kernel choice; 0 = not yet resolved, else `kernel_code`.
static GLOBAL_KERNEL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_kernel`]; 0 = none.
    static KERNEL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn kernel_code(k: Kernel) -> usize {
    match k {
        Kernel::Scalar => 1,
        Kernel::Unrolled => 2,
    }
}

fn kernel_from_code(code: usize) -> Kernel {
    if code == 2 {
        Kernel::Unrolled
    } else {
        Kernel::Scalar
    }
}

/// `DL_KERNEL` when set to a recognised name, else [`Kernel::Scalar`].
fn default_kernel() -> usize {
    let k = match std::env::var("DL_KERNEL").ok().as_deref().map(str::trim) {
        Some(s) if s.eq_ignore_ascii_case("unrolled") => Kernel::Unrolled,
        _ => Kernel::Scalar,
    };
    kernel_code(k)
}

/// Sets the process-wide default kernel. Overrides the `DL_KERNEL`
/// environment variable.
pub fn set_kernel(k: Kernel) {
    GLOBAL_KERNEL.store(kernel_code(k), Ordering::SeqCst);
}

/// The effective kernel for launches from this thread: the innermost
/// [`with_kernel`] override if any, else the global setting, resolved on
/// first use from `DL_KERNEL` (default [`Kernel::Scalar`]).
#[must_use]
pub fn kernel() -> Kernel {
    let o = KERNEL_OVERRIDE.with(Cell::get);
    if o > 0 {
        return kernel_from_code(o);
    }
    let g = GLOBAL_KERNEL.load(Ordering::SeqCst);
    if g > 0 {
        return kernel_from_code(g);
    }
    let d = default_kernel();
    // First resolver wins; a concurrent set_kernel simply overwrites.
    let _ = GLOBAL_KERNEL.compare_exchange(0, d, Ordering::SeqCst, Ordering::SeqCst);
    kernel_from_code(GLOBAL_KERNEL.load(Ordering::SeqCst))
}

/// Runs `f` with the effective kernel forced to `k` on this thread,
/// restoring the previous override on exit — including on panic. The
/// kernel is resolved on the *launching* thread and handed to pool
/// workers, so the override governs parallel launches too.
pub fn with_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    struct Reset(usize);
    impl Drop for Reset {
        fn drop(&mut self) {
            KERNEL_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = KERNEL_OVERRIDE.with(|o| o.replace(kernel_code(k)));
    let _reset = Reset(prev);
    f()
}

// ----------------------------------------------------------------------
// Kernel spans
// ----------------------------------------------------------------------

/// Runs `f` with `rec` installed as this thread's kernel-span recorder:
/// every parallel kernel launched inside emits a `kernel.<name>` span
/// (with `rows`/`cols`/`k`/`threads` fields) onto it, so `exp --profile`
/// can decompose where kernel time goes. The previous recorder is
/// restored on exit. When `rec.enabled()` is false (the `NullRecorder`),
/// kernels skip span emission entirely — no `Fields` are ever built, so
/// the untraced path stays allocation-free.
pub fn with_recorder<R>(rec: &dyn Recorder, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<*const (dyn Recorder + 'static)>);
    impl Drop for Reset {
        fn drop(&mut self) {
            KERNEL_REC.with(|c| c.set(self.0));
        }
    }
    // SAFETY: the pointer is only dereferenced by kernels called inside
    // `f`, and the guard clears it before this frame (and therefore the
    // borrow) ends — including on unwind.
    let ptr: *const (dyn Recorder + 'static) =
        unsafe { std::mem::transmute(rec as *const dyn Recorder) };
    let prev = KERNEL_REC.with(|c| c.replace(Some(ptr)));
    let _reset = Reset(prev);
    f()
}

/// Calls `f` with the installed kernel recorder, if any.
fn with_rec<T>(f: impl FnOnce(&dyn Recorder) -> T) -> Option<T> {
    KERNEL_REC.with(Cell::get).map(|p| {
        // SAFETY: set only by with_recorder, which outlives every kernel
        // call it wraps (see the guard there).
        f(unsafe { &*p })
    })
}

/// Opens a `kernel.<name>` span when a recorder is installed *and*
/// enabled; the geometry fields are only built in that case.
fn kernel_span_start(name: &'static str, m: usize, n: usize, k: usize, t: usize) -> Option<dl_obs::SpanId> {
    with_rec(|r| {
        if r.enabled() {
            Some(r.span_start(
                0,
                name,
                fields! { "rows" => m, "cols" => n, "k" => k, "threads" => t },
            ))
        } else {
            None
        }
    })
    .flatten()
}

/// Closes a span opened by [`kernel_span_start`].
fn kernel_span_end(span: Option<dl_obs::SpanId>, flops: u64) {
    if let Some(s) = span {
        with_rec(move |r| r.span_end(s, fields! { "flops" => flops }));
    }
}

// ----------------------------------------------------------------------
// The persistent worker pool
// ----------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Workers spawned so far (grows on demand up to `MAX_THREADS - 1`).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Parks on the queue forever, running jobs as they arrive. Jobs never
/// unwind (the submit path wraps every task in `catch_unwind`), so the
/// queue mutex cannot be poisoned from here.
fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool.available.wait(q).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// Ensures at least `needed` workers exist (capped at `MAX_THREADS - 1`;
/// the calling thread always executes one task itself).
fn ensure_workers(needed: usize) {
    let p = pool();
    let mut spawned = p.spawned.lock().expect("pool spawn count poisoned");
    while *spawned < needed.min(MAX_THREADS - 1) {
        *spawned += 1;
        let name = format!("dl-par-{}", *spawned);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(pool()))
            .expect("failed to spawn pool worker");
    }
}

/// Countdown latch with panic capture: the scoped-execution rendezvous.
struct Latch {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new((count, None)),
            done: Condvar::new(),
        }
    }

    fn count_down(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = self.state.lock().expect("latch poisoned");
        s.0 -= 1;
        if s.1.is_none() {
            s.1 = panic; // first panic wins, later ones are dropped
        }
        if s.0 == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut s = self.state.lock().expect("latch poisoned");
        while s.0 > 0 {
            s = self.done.wait(s).expect("latch poisoned");
        }
        s.1.take()
    }
}

/// Runs every task to completion, the last one on the calling thread and
/// the rest on pool workers. Blocks until all tasks have finished — even
/// when one panics — then re-raises the first panic on the caller. This
/// wait-before-return is what makes handing the pool closures that
/// borrow the caller's stack sound.
fn run_tasks(mut tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let Some(own) = tasks.pop() else { return };
    if tasks.is_empty() {
        own();
        return;
    }
    ensure_workers(tasks.len());
    let latch = Arc::new(Latch::new(tasks.len()));
    let p = pool();
    {
        let mut q = p.queue.lock().expect("pool queue poisoned");
        for task in tasks {
            let l = Arc::clone(&latch);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(task));
                l.count_down(r.err());
            });
            // SAFETY: only the lifetime is erased. The job borrows stack
            // data of this frame; run_tasks does not return until the
            // latch confirms every job has finished running, so the
            // borrows outlive every use.
            let job: Job = unsafe { std::mem::transmute(job) };
            q.push_back(job);
        }
    }
    p.available.notify_all();
    let own_result = catch_unwind(AssertUnwindSafe(own));
    let worker_panic = latch.wait();
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
    if let Err(payload) = own_result {
        resume_unwind(payload);
    }
}

/// Splits `0..count` into at most `parts` contiguous, near-equal ranges.
fn ranges(count: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, count.max(1));
    let chunk = count.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    while lo < count {
        let hi = usize::min(lo + chunk, count);
        out.push((lo, hi));
        lo = hi;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    out
}

// ----------------------------------------------------------------------
// Matmul
// ----------------------------------------------------------------------

/// The shared row-range GEMM: computes `out[lo..hi, :] += A[lo..hi, :] · B`
/// over a caller-provided slice that holds exactly rows `lo..hi`. Both
/// kernels run this one routine; `FUSED` selects the per-term operation:
/// `acc + a*b` for [`Kernel::Scalar`] (exactly [`Tensor::matmul`]'s
/// triple loop) and `a.mul_add(b, acc)` for [`Kernel::Unrolled`] (one
/// rounding per term instead of two).
///
/// Each `A` row's non-zero `(k, a)` terms are compacted once, in
/// ascending `k` and without a branch. Output columns are then processed
/// `tile` at a time and, within a tile, in 32/16/8-wide column strips by
/// [`gemm_block`], whose accumulators stay in registers across the term
/// lists and are stored once; the last 1..=7 columns run as one padded
/// 8-wide strip. Every output element therefore
/// starts from its existing value and adds the same terms in the same
/// ascending order as the sequential i-k-j loop, so the result is
/// bit-identical across thread counts and tile widths. Returns the number
/// of non-zero `A` elements (the sequential kernel's `nnz`).
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const FUSED: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    lo: usize,
    hi: usize,
    k: usize,
    n: usize,
    tile: usize,
) -> u64 {
    if n == 0 || k == 0 || lo >= hi {
        return 0;
    }
    assert!(
        u32::try_from(k).is_ok(),
        "matmul inner dimension {k} exceeds u32"
    );
    // Row r's terms are terms[r*k..r*k + lens[r]]. Every element is
    // written and only a non-zero advances the cursor, so the zero-skip
    // costs no mispredicted branch on activations full of exact zeros.
    let mut terms = vec![(0u32, 0.0f32); (hi - lo) * k];
    let mut lens = vec![0usize; hi - lo];
    for ((a_row, row_terms), len) in a[lo * k..hi * k]
        .chunks_exact(k)
        .zip(terms.chunks_exact_mut(k))
        .zip(&mut lens)
    {
        let mut c = 0;
        for (kk, &av) in (0u32..).zip(a_row) {
            row_terms[c] = (kk, av);
            c += usize::from(av != 0.0);
        }
        *len = c;
    }
    let rows = Rows {
        terms: &terms,
        lens: &lens,
        k,
    };
    // A tile covering all of B reads it in place; a narrower tile packs
    // its [k, tw] panel contiguously.
    let mut panel = if tile < n {
        vec![0.0f32; k * tile]
    } else {
        Vec::new()
    };
    let (mut tail_b, mut tail_out) = (Vec::new(), Vec::new());
    let mut j0 = 0usize;
    while j0 < n {
        let tw = tile.min(n - j0);
        let (bp, stride) = if tw == n {
            (b, n)
        } else {
            for kk in 0..k {
                panel[kk * tw..kk * tw + tw].copy_from_slice(&b[kk * n + j0..kk * n + j0 + tw]);
            }
            (&panel[..k * tw], tw)
        };
        let out = &mut out[j0..];
        let mut j = 0;
        // Wide strips hold two rows of accumulators, narrow ones four:
        // enough independent multiply-add chains to hide their latency.
        while tw - j >= 32 {
            rows.strip::<2, 32, FUSED>(bp, stride, j, &mut out[j..], n);
            j += 32;
        }
        if tw - j >= 16 {
            rows.strip::<2, 16, FUSED>(bp, stride, j, &mut out[j..], n);
            j += 16;
        }
        if tw - j >= 8 {
            rows.strip::<4, 8, FUSED>(bp, stride, j, &mut out[j..], n);
            j += 8;
        }
        if j < tw {
            // The last 1..=7 columns run as one 8-wide strip over padded
            // copies of B and of the output; the padding lanes are dropped.
            let w = tw - j;
            tail_b.resize(k * 8, 0.0);
            tail_out.resize(lens.len() * 8, 0.0);
            for (kk, t) in tail_b.chunks_exact_mut(8).enumerate() {
                t[..w].copy_from_slice(&bp[kk * stride + j..kk * stride + j + w]);
            }
            for (t, o) in tail_out.chunks_exact_mut(8).zip(out[j..].chunks_mut(n)) {
                t[..w].copy_from_slice(&o[..w]);
            }
            rows.strip::<4, 8, FUSED>(&tail_b, 8, 0, &mut tail_out, 8);
            for (t, o) in tail_out.chunks_exact(8).zip(out[j..].chunks_mut(n)) {
                o[..w].copy_from_slice(&t[..w]);
            }
        }
        j0 += tw;
    }
    lens.iter().sum::<usize>() as u64
}

/// The compacted `A` rows of one [`gemm_rows`] call.
struct Rows<'t> {
    terms: &'t [(u32, f32)],
    lens: &'t [usize],
    /// Row stride of `terms` (`A`'s column count).
    k: usize,
}

impl Rows<'_> {
    /// Row `r`'s non-zero `(k, a)` terms in ascending `k`.
    fn row(&self, r: usize) -> &[(u32, f32)] {
        &self.terms[r * self.k..r * self.k + self.lens[r]]
    }

    /// One `W`-wide output column strip over every row, `R` rows per
    /// [`gemm_block`] and the leftover rows one at a time. `B` row `kk`
    /// of the strip starts at `bp[kk * stride + col]`, output row `r` at
    /// `out[r * out_stride]`.
    fn strip<const R: usize, const W: usize, const FUSED: bool>(
        &self,
        bp: &[f32],
        stride: usize,
        col: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let mut r = 0;
        while self.lens.len() - r >= R {
            let mut terms: [&[(u32, f32)]; R] = [&[]; R];
            for (i, t) in terms.iter_mut().enumerate() {
                *t = self.row(r + i);
            }
            gemm_block::<R, W, FUSED>(
                terms,
                bp,
                stride,
                col,
                &mut out[r * out_stride..],
                out_stride,
            );
            r += R;
        }
        for r in r..self.lens.len() {
            let out = &mut out[r * out_stride..];
            gemm_block::<1, W, FUSED>([self.row(r)], bp, stride, col, out, out_stride);
        }
    }
}

/// The register-blocked micro-kernel: adds each of `R` rows' compacted
/// `terms` into that row's `W` columns (`out` row `i` starts at
/// `i * out_stride`), reading `B` at column `col`. The accumulators start
/// from the stored values and are stored once. The rows advance together
/// over their common term count, then each finishes its own tail; the
/// order of terms within every element is unchanged.
#[inline(always)]
fn gemm_block<const R: usize, const W: usize, const FUSED: bool>(
    terms: [&[(u32, f32)]; R],
    bp: &[f32],
    stride: usize,
    col: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (i, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out[i * out_stride..i * out_stride + W]);
    }
    let common = terms.iter().map(|t| t.len()).min().unwrap_or(0);
    for t in 0..common {
        for (acc, row_terms) in acc.iter_mut().zip(&terms) {
            gemm_step::<W, FUSED>(acc, row_terms[t], bp, stride, col);
        }
    }
    for (acc, row_terms) in acc.iter_mut().zip(&terms) {
        for &term in &row_terms[common..] {
            gemm_step::<W, FUSED>(acc, term, bp, stride, col);
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        out[i * out_stride..i * out_stride + W].copy_from_slice(acc);
    }
}

/// Adds one term `a · B[kk, col..col + W]` into `W` accumulators.
#[inline(always)]
fn gemm_step<const W: usize, const FUSED: bool>(
    acc: &mut [f32; W],
    (kk, av): (u32, f32),
    bp: &[f32],
    stride: usize,
    col: usize,
) {
    let at = kk as usize * stride + col;
    let b_row: &[f32; W] = bp[at..at + W].try_into().expect("strip is W wide");
    for (o, &bv) in acc.iter_mut().zip(b_row) {
        *o = if FUSED {
            av.mul_add(bv, *o)
        } else {
            *o + av * bv
        };
    }
}

/// Validates matmul operands, returning `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul left operand must be a matrix");
    assert_eq!(b.rank(), 2, "matmul right operand must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dimensions differ: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

/// Runs the blocked GEMM over `out` split row-wise across the effective
/// thread count and returns the merged `nnz`. The caller charges acct.
fn gemm_parallel(a: &Tensor, b: &Tensor, out: &mut [f32], k: usize, n: usize, tile: usize) -> u64 {
    // Resolve the kernel on the launching thread: workers must not read
    // their own (unset) thread-local override.
    let kern = kernel();
    let (a, b) = (a.data(), b.data());
    let rows = |out: &mut [f32], lo: usize, hi: usize| match kern {
        Kernel::Scalar => gemm_rows::<false>(a, b, out, lo, hi, k, n, tile),
        Kernel::Unrolled => gemm_rows::<true>(a, b, out, lo, hi, k, n, tile),
    };
    let m = out.len() / n.max(1);
    let splits = ranges(m, threads());
    if splits.len() <= 1 {
        return rows(out, 0, m);
    }
    let mut shares = vec![0u64; splits.len()];
    {
        let rows = &rows;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out;
        for (&(lo, hi), share) in splits.iter().zip(shares.iter_mut()) {
            let (mine, rest) = remaining.split_at_mut((hi - lo) * n);
            remaining = rest;
            tasks.push(Box::new(move || *share = rows(mine, lo, hi)));
        }
        run_tasks(tasks);
    }
    shares.iter().sum()
}

/// Parallel, register-blocked matrix multiplication, bit-identical to
/// [`Tensor::matmul`] and charging the identical [`acct`] cost.
///
/// Under both kernels an `a` equal to `±0.0` is skipped: it adds no term
/// (so `0·inf` and `0·NaN` never reach the output) and no flops. A NaN or
/// infinite `a` is multiplied like any other value and propagates.
///
/// # Panics
/// Panics when operands are not matrices or inner dimensions differ.
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_blocked(a, b, DEFAULT_TILE_COLS)
}

/// [`matmul`] with an explicit output-column tile width (clamped to at
/// least 1). Exposed so E26 can sweep the blocking factor.
///
/// # Panics
/// Panics when operands are not matrices or inner dimensions differ.
#[must_use]
pub fn matmul_blocked(a: &Tensor, b: &Tensor, tile_cols: usize) -> Tensor {
    let (m, k, n) = matmul_dims(a, b);
    let t = threads().min(m.max(1));
    let span = kernel_span_start("kernel.matmul", m, n, k, t);
    let mut out = vec![0.0f32; m * n];
    let nnz = gemm_parallel(a, b, &mut out, k, n, tile_cols.max(1));
    let flops = 2 * nnz * n as u64;
    // One charge on the calling thread with the workers' merged shares —
    // exactly what the sequential kernel charges.
    acct::charge(flops, 4 * (m * k + k * n) as u64, 4 * (m * n) as u64);
    kernel_span_end(span, flops);
    Tensor::from_vec(out, [m, n]).expect("gemm output length matches by construction")
}

/// Accumulating matmul: `out += a · b`, in place, without allocating the
/// product. Each output element starts from its existing value and
/// accumulates the `k` products in ascending index order (with the
/// sequential zero-skip), so the result is bit-identical at any thread
/// count and equals `&out + &a.matmul(b)` up to the addition order — the
/// accumulated form folds each product directly into `out` instead of
/// summing into a zeroed temporary first. The zero-skip is [`matmul`]'s,
/// so an all-zero `a` row leaves its output row untouched, `-0.0`
/// included.
///
/// Charges `2·nnz·n` FLOPs and counts `out` among the bytes read.
///
/// # Panics
/// Panics when operands are not matrices, inner dimensions differ, or
/// `out` is not `[m, n]`.
pub fn matmul_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k, n) = matmul_dims(a, b);
    assert_eq!(
        out.dims(),
        &[m, n],
        "matmul_acc output must be [{m}, {n}], got {}",
        out.shape()
    );
    let t = threads().min(m.max(1));
    let span = kernel_span_start("kernel.matmul_acc", m, n, k, t);
    let nnz = gemm_parallel(a, b, out.data_mut(), k, n, DEFAULT_TILE_COLS);
    let flops = 2 * nnz * n as u64;
    acct::charge(flops, 4 * (m * k + k * n + m * n) as u64, 4 * (m * n) as u64);
    kernel_span_end(span, flops);
}

// ----------------------------------------------------------------------
// Native int8 GEMM
// ----------------------------------------------------------------------

/// Native int8 GEMM over packed affine codes: computes the `[m, n]` f32
/// product of two affinely-quantized matrices `Â·B̂` where
/// `Â[i,kk] = a_zero + a_scale·a_codes[i,kk]` (likewise for `B̂`), without
/// ever materialising the dequantized f32 operands. The accumulation is
/// exact: codes multiply in integer arithmetic (`i64`, immune to
/// overflow at any workspace size), and the affine terms expand to
///
/// ```text
/// Σ_k Â·B̂ = k·za·zb  +  za·sb·Σ_k b  +  zb·sa·Σ_k a  +  sa·sb·Σ_k a·b
/// ```
///
/// so each output pays exactly **one affine rescale** (two `f64`
/// multiply-adds over precomputed per-row/per-column code sums) at the
/// end. Integer sums are order-independent, so the result is bitwise
/// identical at every thread count and needs no kernel dispatch.
///
/// Charges the int8 rule documented in [`acct`]: `2·m·k·n + 4·m·n`
/// flops, `m·k + k·n` bytes read (**one byte per packed code** — this is
/// what actually streams from memory, and what makes the int8 serve
/// variant's measured bytes-read term shrink ~4× against f32), and
/// `4·m·n` bytes written. The zero-code multiply skip is a speed
/// optimisation only (`0·b` is exactly 0 in integers) and does not
/// change the charge.
///
/// # Panics
/// Panics when the code slices do not have exactly `m·k` / `k·n`
/// elements.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn matmul_q8(
    a_codes: &[u8],
    a_scale: f32,
    a_zero: f32,
    b_codes: &[u8],
    b_scale: f32,
    b_zero: f32,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    assert_eq!(a_codes.len(), m * k, "a codes must be [m={m}, k={k}]");
    assert_eq!(b_codes.len(), k * n, "b codes must be [k={k}, n={n}]");
    let t = threads().min(m.max(1));
    let span = kernel_span_start("kernel.matmul_q8", m, n, k, t);
    if k == 0 {
        // An empty sum is exactly zero. Guarded up front because the
        // affine parameters of an empty quantized tensor are degenerate
        // (a range scan over no elements yields infinite zero points).
        let flops = 4 * (m * n) as u64;
        acct::charge(flops, 0, 4 * (m * n) as u64);
        kernel_span_end(span, flops);
        return vec![0.0f32; m * n];
    }
    // Per-column code sums for the affine expansion — shared by every
    // row, computed once (excluded from the charge like panel packing).
    let mut col_sums = vec![0i64; n];
    for kk in 0..k {
        let b_row = &b_codes[kk * n..(kk + 1) * n];
        for (s, &c) in col_sums.iter_mut().zip(b_row) {
            *s += i64::from(c);
        }
    }
    let base = f64::from(a_zero) * f64::from(b_zero) * k as f64;
    let za_sb = f64::from(a_zero) * f64::from(b_scale);
    let zb_sa = f64::from(b_zero) * f64::from(a_scale);
    let sa_sb = f64::from(a_scale) * f64::from(b_scale);
    let col_sums = &col_sums;
    // Rows lo..hi into `mine`, which holds exactly those rows.
    let row_loop = |lo: usize, hi: usize, mine: &mut [f32]| {
        let mut acc = vec![0i64; n];
        for i in lo..hi {
            let a_row = &a_codes[i * k..(i + 1) * k];
            acc.fill(0);
            let mut row_sum = 0i64;
            for (kk, &ac) in a_row.iter().enumerate() {
                let av = i64::from(ac);
                row_sum += av;
                if av == 0 {
                    continue; // 0·b is exactly 0: pure speed, same bits
                }
                let b_row = &b_codes[kk * n..(kk + 1) * n];
                for (s, &bc) in acc.iter_mut().zip(b_row) {
                    *s += av * i64::from(bc);
                }
            }
            let row_term = base + zb_sa * row_sum as f64;
            let out_row = &mut mine[(i - lo) * n..(i - lo + 1) * n];
            for ((o, &s), &cs) in out_row.iter_mut().zip(&acc).zip(col_sums) {
                *o = (row_term + za_sb * cs as f64 + sa_sb * s as f64) as f32;
            }
        }
    };
    let mut out = vec![0.0f32; m * n];
    let splits = ranges(m, t);
    if splits.len() <= 1 {
        // One split runs inline, with no boxed task.
        row_loop(0, m, &mut out);
    } else {
        let row_loop = &row_loop;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out.as_mut_slice();
        for &(lo, hi) in &splits {
            let (mine, rest) = remaining.split_at_mut((hi - lo) * n);
            remaining = rest;
            tasks.push(Box::new(move || row_loop(lo, hi, mine)));
        }
        run_tasks(tasks);
    }
    let flops = 2 * (m * k * n) as u64 + 4 * (m * n) as u64;
    acct::charge(flops, (m * k + k * n) as u64, 4 * (m * n) as u64);
    kernel_span_end(span, flops);
    out
}

// ----------------------------------------------------------------------
// Convolution lowering
// ----------------------------------------------------------------------

/// Parallel [`Tensor::im2col`]: splits the channel loop across threads.
/// Each channel owns a contiguous block of `kh·kw` output rows, so the
/// writes are disjoint; the kernel copies (no arithmetic), so results
/// are trivially identical. Charges the sequential kernel's cost.
///
/// # Panics
/// Panics when input is not rank 3 or the geometry yields no output.
#[must_use]
pub fn im2col(img: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    assert_eq!(img.rank(), 3, "im2col input must be [C, H, W]");
    let (c, h, w) = (img.dims()[0], img.dims()[1], img.dims()[2]);
    let out_h = (h + 2 * pad).checked_sub(kh).map(|v| v / stride + 1);
    let out_w = (w + 2 * pad).checked_sub(kw).map(|v| v / stride + 1);
    let (out_h, out_w) = match (out_h, out_w) {
        (Some(a), Some(b)) if a > 0 && b > 0 => (a, b),
        _ => panic!("im2col: kernel {kh}x{kw} stride {stride} pad {pad} does not fit input {h}x{w}"),
    };
    let rows = c * kh * kw;
    let cols = out_h * out_w;
    let t = threads().min(c.max(1));
    let span = kernel_span_start("kernel.im2col", rows, cols, kh * kw, t);
    let mut out = vec![0.0f32; rows * cols];
    {
        let data = img.data();
        let splits = ranges(c, t);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out.as_mut_slice();
        for &(c_lo, c_hi) in &splits {
            let (mine, rest) = remaining.split_at_mut((c_hi - c_lo) * kh * kw * cols);
            remaining = rest;
            tasks.push(Box::new(move || {
                for ch in c_lo..c_hi {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let row = ((ch - c_lo) * kh + ky) * kw + kx;
                            for oy in 0..out_h {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                for ox in 0..out_w {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    let col = oy * out_w + ox;
                                    let v = if iy >= 0
                                        && iy < h as isize
                                        && ix >= 0
                                        && ix < w as isize
                                    {
                                        data[(ch * h + iy as usize) * w + ix as usize]
                                    } else {
                                        0.0
                                    };
                                    mine[row * cols + col] = v;
                                }
                            }
                        }
                    }
                }
            }));
        }
        run_tasks(tasks);
    }
    acct::charge(0, 4 * (c * h * w) as u64, 4 * (rows * cols) as u64);
    kernel_span_end(span, 0);
    Tensor::from_vec(out, [rows, cols]).expect("im2col output length matches by construction")
}

/// Parallel [`Tensor::col2im`]: splits the channel loop across threads.
/// The scatter-adds overlap only *within* a channel, and each worker
/// replays its channels' `ky/kx/oy/ox` adds in the sequential order, so
/// the result is bit-identical. Charges the sequential kernel's cost.
///
/// # Panics
/// Panics when `cols` does not have the shape `im2col` would produce.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols_mat: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let out_h = (height + 2 * pad - kh) / stride + 1;
    let out_w = (width + 2 * pad - kw) / stride + 1;
    assert_eq!(
        cols_mat.dims(),
        &[channels * kh * kw, out_h * out_w],
        "col2im input shape {} does not match geometry",
        cols_mat.shape()
    );
    let cols = out_h * out_w;
    let t = threads().min(channels.max(1));
    let span = kernel_span_start("kernel.col2im", channels * height, width, kh * kw, t);
    let mut out = vec![0.0f32; channels * height * width];
    {
        let data = cols_mat.data();
        let splits = ranges(channels, t);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out.as_mut_slice();
        for &(c_lo, c_hi) in &splits {
            let (mine, rest) = remaining.split_at_mut((c_hi - c_lo) * height * width);
            remaining = rest;
            tasks.push(Box::new(move || {
                for ch in c_lo..c_hi {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let row = (ch * kh + ky) * kw + kx;
                            for oy in 0..out_h {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                for ox in 0..out_w {
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    if iy >= 0
                                        && iy < height as isize
                                        && ix >= 0
                                        && ix < width as isize
                                    {
                                        let col = oy * out_w + ox;
                                        mine[((ch - c_lo) * height + iy as usize) * width
                                            + ix as usize] += data[row * cols + col];
                                    }
                                }
                            }
                        }
                    }
                }
            }));
        }
        run_tasks(tasks);
    }
    acct::charge(
        cols_mat.len() as u64,
        4 * cols_mat.len() as u64,
        4 * out.len() as u64,
    );
    kernel_span_end(span, cols_mat.len() as u64);
    Tensor::from_vec(out, [channels, height, width])
        .expect("col2im output length matches by construction")
}

// ----------------------------------------------------------------------
// Elementwise map and order-preserving reduction
// ----------------------------------------------------------------------

/// Parallel [`Tensor::map`]: applies `f` to every element with the flat
/// buffer split contiguously across threads. `f` is applied to each
/// element independently, so any split is bit-identical — and so is the
/// [`Kernel::Unrolled`] width-8 body (eight independent applications per
/// iteration; no accumulation order to pin). Charges the sequential
/// kernel's cost.
#[must_use]
pub fn map(t_in: &Tensor, f: impl Fn(f32) -> f32 + Send + Sync) -> Tensor {
    let kern = kernel();
    let len = t_in.len();
    let t = threads().min(len.max(1));
    let mut out = vec![0.0f32; len];
    {
        let data = t_in.data();
        let splits = ranges(len, t);
        let f = &f;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out.as_mut_slice();
        for &(lo, hi) in &splits {
            let (mine, rest) = remaining.split_at_mut(hi - lo);
            remaining = rest;
            tasks.push(Box::new(move || match kern {
                Kernel::Scalar => {
                    for (o, &x) in mine.iter_mut().zip(&data[lo..hi]) {
                        *o = f(x);
                    }
                }
                Kernel::Unrolled => {
                    let mut oc = mine.chunks_exact_mut(8);
                    let mut xc = data[lo..hi].chunks_exact(8);
                    for (o8, x8) in (&mut oc).zip(&mut xc) {
                        o8[0] = f(x8[0]);
                        o8[1] = f(x8[1]);
                        o8[2] = f(x8[2]);
                        o8[3] = f(x8[3]);
                        o8[4] = f(x8[4]);
                        o8[5] = f(x8[5]);
                        o8[6] = f(x8[6]);
                        o8[7] = f(x8[7]);
                    }
                    for (o, &x) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
                        *o = f(x);
                    }
                }
            }));
        }
        run_tasks(tasks);
    }
    let n = len as u64;
    acct::charge(n, 4 * n, 4 * n);
    Tensor::from_vec(out, t_in.shape().clone()).expect("map output length matches input")
}

/// The fixed lane fold of the unrolled reductions:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. Part of the documented
/// accumulation order — changing this changes pinned goldens.
#[inline]
fn tree_reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Full-tensor sum with kernel dispatch, charging [`Tensor::sum`]'s
/// cost. [`Kernel::Scalar`] is bit-identical to [`Tensor::sum`]'s serial
/// fold. [`Kernel::Unrolled`] accumulates element `i` into lane `i % 8`
/// in ascending order and folds the lanes with the fixed tree — a
/// single-output reduction, so it stays sequential (the lane tree is the
/// data-level parallelism), and its bits are pinned independent of
/// `DL_THREADS`.
#[must_use]
pub fn sum(t_in: &Tensor) -> f32 {
    let n = t_in.len() as u64;
    acct::charge(n, 4 * n, 0);
    match kernel() {
        Kernel::Scalar => t_in.data().iter().sum(),
        Kernel::Unrolled => {
            let mut lanes = [0.0f32; 8];
            for (i, &x) in t_in.data().iter().enumerate() {
                lanes[i % 8] += x;
            }
            tree_reduce8(lanes)
        }
    }
}

/// Vector dot product with kernel dispatch, charging [`Tensor::dot`]'s
/// cost. [`Kernel::Scalar`] is bit-identical to [`Tensor::dot`].
/// [`Kernel::Unrolled`] fuses each product into lane `i % 8` with
/// [`f32::mul_add`] in ascending order and folds with the fixed tree.
///
/// # Panics
/// Panics when operands are not vectors of equal length.
#[must_use]
pub fn dot(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.rank(), 1, "dot requires vectors");
    assert_eq!(b.rank(), 1, "dot requires vectors");
    assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let n = a.len() as u64;
    acct::charge(2 * n, 8 * n, 0);
    match kernel() {
        Kernel::Scalar => a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| x * y)
            .sum(),
        Kernel::Unrolled => {
            let mut lanes = [0.0f32; 8];
            for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
                lanes[i % 8] = x.mul_add(y, lanes[i % 8]);
            }
            tree_reduce8(lanes)
        }
    }
}

/// Parallel [`Tensor::sum_axis`]: the reduction is split over *output*
/// elements, and each output element accumulates its `mid` addends in a
/// fixed order, so the result is bit-identical at any thread count.
/// Under [`Kernel::Scalar`] that order is the sequential kernel's
/// ascending serial fold (== [`Tensor::sum_axis`] bitwise); under
/// [`Kernel::Unrolled`] addend `m` goes to lane `m % 8` ascending and
/// the lanes fold with the fixed tree. (A full serial-order
/// [`Tensor::sum`] cannot be parallelized without reordering — see
/// [`sum`] for the lane-tree version.) Charges the sequential kernel's
/// cost.
///
/// # Panics
/// Panics when `axis >= rank`.
#[must_use]
pub fn sum_axis(t_in: &Tensor, axis: usize) -> Tensor {
    assert!(
        axis < t_in.rank(),
        "axis {axis} out of range for {}",
        t_in.shape()
    );
    let dims = t_in.dims();
    let outer: usize = dims[..axis].iter().product();
    let mid = dims[axis];
    let inner: usize = dims[axis + 1..].iter().product();
    let out_len = outer * inner;
    let kern = kernel();
    let t = threads().min(out_len.max(1));
    let mut out = vec![0.0f32; out_len];
    {
        let data = t_in.data();
        let splits = ranges(out_len, t);
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(splits.len());
        let mut remaining = out.as_mut_slice();
        for &(lo, hi) in &splits {
            let (mine, rest) = remaining.split_at_mut(hi - lo);
            remaining = rest;
            tasks.push(Box::new(move || {
                for (off, o) in mine.iter_mut().enumerate() {
                    let idx = lo + off;
                    let (ob, i) = (idx / inner.max(1), idx % inner.max(1));
                    *o = match kern {
                        Kernel::Scalar => {
                            let mut acc = 0.0f32;
                            for m in 0..mid {
                                acc += data[(ob * mid + m) * inner + i];
                            }
                            acc
                        }
                        Kernel::Unrolled => {
                            let mut lanes = [0.0f32; 8];
                            for m in 0..mid {
                                lanes[m % 8] += data[(ob * mid + m) * inner + i];
                            }
                            tree_reduce8(lanes)
                        }
                    };
                }
            }));
        }
        run_tasks(tasks);
    }
    acct::charge(
        t_in.len() as u64,
        4 * t_in.len() as u64,
        4 * out_len as u64,
    );
    let mut new_dims = dims.to_vec();
    new_dims.remove(axis);
    Tensor::from_vec(out, new_dims).expect("sum_axis output length matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::Rng;

    /// A seeded random matrix with ~25% exact zeros so the sparse skip
    /// (and its nnz accounting) is genuinely exercised.
    fn sparse_random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut r = init::rng(seed);
        let mut t = init::uniform([rows, cols], -1.0, 1.0, &mut r);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = 0.0;
            }
        }
        t
    }

    fn thread_counts() -> Vec<usize> {
        let mut t = vec![1, 2, hardware_threads().max(3)];
        t.dedup();
        t
    }

    #[test]
    fn matmul_bitwise_equals_sequential_across_threads_and_tiles() {
        // Fixed shapes and tiles, including larger shapes than the
        // random-shape test below draws.
        let shapes = [
            (1usize, 7usize, 1usize), // degenerate 1×k·k×1
            (5, 1, 3),
            (4, 4, 4),
            (17, 33, 9),
            (64, 32, 48),
            (0, 4, 4), // empty-dim cases
            (4, 0, 4),
            (4, 4, 0),
            (0, 0, 0),
        ];
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let a = sparse_random(m, k, 100 + si as u64);
            let b = sparse_random(k, n, 200 + si as u64);
            let want = a.matmul(&b);
            for &t in &thread_counts() {
                for tile in [1usize, 2, 16, 256] {
                    let got = with_kernel(Kernel::Scalar, || {
                        with_threads(t, || matmul_blocked(&a, &b, tile))
                    });
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "shape ({m},{k},{n}) threads {t} tile {tile} diverged"
                    );
                    assert_eq!(got.dims(), want.dims());
                }
            }
        }
    }

    #[test]
    fn unrolled_matmul_bitwise_stable_across_threads_and_tiles() {
        // The unrolled kernel's bits differ from scalar (fused
        // roundings) but must be pinned across every thread count and
        // tile width — the PR's core determinism contract.
        let shapes = [
            (1usize, 7usize, 1usize),
            (5, 1, 3),
            (17, 33, 9),
            (64, 32, 48),
            (0, 4, 4),
            (4, 0, 4),
            (4, 4, 0),
        ];
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let a = sparse_random(m, k, 300 + si as u64);
            let b = sparse_random(k, n, 400 + si as u64);
            let want = with_kernel(Kernel::Unrolled, || {
                with_threads(1, || matmul_blocked(&a, &b, DEFAULT_TILE_COLS))
            });
            for &t in &thread_counts() {
                for tile in [1usize, 2, 16, 256] {
                    let got = with_kernel(Kernel::Unrolled, || {
                        with_threads(t, || matmul_blocked(&a, &b, tile))
                    });
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "unrolled shape ({m},{k},{n}) threads {t} tile {tile} diverged"
                    );
                }
            }
            // And it stays a faithful matmul: tiny elementwise distance
            // from the scalar oracle (pure rounding differences).
            let oracle = a.matmul(&b);
            for (g, w) in want.data().iter().zip(oracle.data()) {
                assert!(
                    (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "unrolled drifted beyond rounding: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn with_kernel_scopes_and_restores() {
        let outer = kernel();
        let inner = with_kernel(Kernel::Unrolled, || {
            assert_eq!(kernel(), Kernel::Unrolled);
            with_kernel(Kernel::Scalar, kernel)
        });
        assert_eq!(inner, Kernel::Scalar);
        assert_eq!(kernel(), outer);
    }

    #[test]
    fn matmul_bitwise_equals_sequential_random_shapes() {
        for case in 0..256 {
            let mut rng = init::rng(case);
            let m = rng.gen_range(0usize..12);
            let k = rng.gen_range(0usize..12);
            let n = rng.gen_range(0usize..12);
            let tile = rng.gen_range(1usize..40);
            let seed = rng.gen_range(0u64..1000);
            let a = sparse_random(m, k, seed);
            let b = sparse_random(k, n, seed.wrapping_add(1));
            let want = a.matmul(&b);
            for &t in &thread_counts() {
                let got = with_kernel(Kernel::Scalar, || {
                    with_threads(t, || matmul_blocked(&a, &b, tile))
                });
                assert_eq!(got.data(), want.data(), "case {case}");
            }
        }
    }

    #[test]
    fn matmul_acc_accumulates_in_place() {
        let a = sparse_random(6, 5, 7);
        let b = sparse_random(5, 4, 8);
        // Sequential reference computed by the same per-element order:
        // start from the existing value, add products in ascending k.
        let init_out = sparse_random(6, 4, 9);
        let mut want = init_out.clone();
        for i in 0..6 {
            for kk in 0..5 {
                let av = a.data()[i * 5 + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..4 {
                    want.data_mut()[i * 4 + j] += av * b.data()[kk * 4 + j];
                }
            }
        }
        for &t in &thread_counts() {
            let mut out = init_out.clone();
            with_kernel(Kernel::Scalar, || {
                with_threads(t, || matmul_acc(&a, &b, &mut out))
            });
            assert_eq!(out.data(), want.data(), "threads {t} diverged");
        }
        // Unrolled matmul_acc: pinned across thread counts too.
        let want_u = {
            let mut out = init_out.clone();
            with_kernel(Kernel::Unrolled, || {
                with_threads(1, || matmul_acc(&a, &b, &mut out))
            });
            out
        };
        for &t in &thread_counts() {
            let mut out = init_out.clone();
            with_kernel(Kernel::Unrolled, || {
                with_threads(t, || matmul_acc(&a, &b, &mut out))
            });
            assert_eq!(out.data(), want_u.data(), "unrolled threads {t} diverged");
        }
    }

    #[test]
    fn conv_kernels_bitwise_equal_sequential() {
        let mut r = init::rng(42);
        let img = init::uniform([3, 8, 7], -1.0, 1.0, &mut r);
        let want_cols = img.im2col(3, 2, 2, 1);
        let grad = init::uniform(want_cols.shape().clone(), -1.0, 1.0, &mut r);
        let want_img = grad.col2im(3, 8, 7, 3, 2, 2, 1);
        for &t in &thread_counts() {
            let (cols, back) = with_threads(t, || {
                (im2col(&img, 3, 2, 2, 1), col2im(&grad, 3, 8, 7, 3, 2, 2, 1))
            });
            assert_eq!(cols.data(), want_cols.data(), "im2col threads {t}");
            assert_eq!(cols.dims(), want_cols.dims());
            assert_eq!(back.data(), want_img.data(), "col2im threads {t}");
            assert_eq!(back.dims(), want_img.dims());
        }
    }

    #[test]
    fn map_and_sum_axis_bitwise_equal_sequential() {
        let mut r = init::rng(5);
        let x = init::uniform([7, 11], -2.0, 2.0, &mut r);
        let want_map = x.map(|v| v * 1.5 - 0.25);
        let want_rows = x.sum_axis(0);
        let want_cols = x.sum_axis(1);
        for &t in &thread_counts() {
            let (m2, r0, r1) = with_kernel(Kernel::Scalar, || {
                with_threads(t, || {
                    (
                        map(&x, |v| v * 1.5 - 0.25),
                        sum_axis(&x, 0),
                        sum_axis(&x, 1),
                    )
                })
            });
            assert_eq!(m2.data(), want_map.data(), "map threads {t}");
            assert_eq!(r0.data(), want_rows.data(), "sum_axis(0) threads {t}");
            assert_eq!(r1.data(), want_cols.data(), "sum_axis(1) threads {t}");
        }
        // Map is kernel-independent bitwise; unrolled sum_axis is pinned
        // across thread counts.
        let (m_u, r_u) = with_kernel(Kernel::Unrolled, || {
            with_threads(1, || (map(&x, |v| v * 1.5 - 0.25), sum_axis(&x, 0)))
        });
        assert_eq!(m_u.data(), want_map.data(), "map must not depend on kernel");
        for &t in &thread_counts() {
            let r = with_kernel(Kernel::Unrolled, || with_threads(t, || sum_axis(&x, 0)));
            assert_eq!(r.data(), r_u.data(), "unrolled sum_axis threads {t}");
        }
    }

    #[test]
    fn sum_and_dot_scalar_match_tensor_bitwise_and_unrolled_are_pinned() {
        let mut r = init::rng(77);
        let x = init::uniform([203], -2.0, 2.0, &mut r);
        let y = init::uniform([203], -2.0, 2.0, &mut r);
        let s_scalar = with_kernel(Kernel::Scalar, || sum(&x));
        assert_eq!(s_scalar.to_bits(), x.sum().to_bits());
        let d_scalar = with_kernel(Kernel::Scalar, || dot(&x, &y));
        assert_eq!(d_scalar.to_bits(), x.dot(&y).to_bits());
        // Unrolled: deterministic (same bits every call), close to scalar.
        let s_u = with_kernel(Kernel::Unrolled, || sum(&x));
        assert_eq!(s_u.to_bits(), with_kernel(Kernel::Unrolled, || sum(&x)).to_bits());
        assert!((s_u - s_scalar).abs() <= 1e-3 * s_scalar.abs().max(1.0));
        let d_u = with_kernel(Kernel::Unrolled, || dot(&x, &y));
        assert_eq!(
            d_u.to_bits(),
            with_kernel(Kernel::Unrolled, || dot(&x, &y)).to_bits()
        );
        assert!((d_u - d_scalar).abs() <= 1e-3 * d_scalar.abs().max(1.0));
        // Both kernels charge the sequential cost.
        let (_, want_sum) = acct::measure(|| x.sum());
        let (_, want_dot) = acct::measure(|| x.dot(&y));
        for kern in [Kernel::Scalar, Kernel::Unrolled] {
            let (_, cs) = acct::measure(|| with_kernel(kern, || sum(&x)));
            assert_eq!(cs, want_sum);
            let (_, cd) = acct::measure(|| with_kernel(kern, || dot(&x, &y)));
            assert_eq!(cd, want_dot);
        }
    }

    #[test]
    fn parallel_matmul_charges_exactly_the_sequential_cost() {
        let a = sparse_random(33, 17, 11); // odd sizes => uneven splits
        let b = sparse_random(17, 29, 12);
        let (_, seq) = acct::measure(|| a.matmul(&b));
        // Both kernels charge the identical cost — an FMA counts as 2
        // flops, so the cost model never depends on DL_KERNEL.
        for kern in [Kernel::Scalar, Kernel::Unrolled] {
            for &t in &thread_counts() {
                let (_, par_cost) =
                    acct::measure(|| with_kernel(kern, || with_threads(t, || matmul(&a, &b))));
                assert_eq!(par_cost, seq, "{kern:?} threads {t}: OpCost diverged");
            }
        }
        // The other kernels too.
        let (_, seq_map) = acct::measure(|| a.map(|v| v + 1.0));
        let (_, seq_red) = acct::measure(|| a.sum_axis(0));
        for kern in [Kernel::Scalar, Kernel::Unrolled] {
            let (_, par_map) = acct::measure(|| {
                with_kernel(kern, || with_threads(3, || map(&a, |v| v + 1.0)))
            });
            assert_eq!(par_map, seq_map);
            let (_, par_red) =
                acct::measure(|| with_kernel(kern, || with_threads(3, || sum_axis(&a, 0))));
            assert_eq!(par_red, seq_red);
        }
    }

    /// Deterministic codes with some exact zeros, mimicking quantized
    /// activations/weights.
    fn codes(len: usize, salt: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if i % 7 == 0 {
                    0
                } else {
                    ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt * 13) % 256) as u8
                }
            })
            .collect()
    }

    #[test]
    fn matmul_q8_matches_dequantized_reference_and_is_thread_stable() {
        for &(m, k, n) in &[(4usize, 6usize, 5usize), (17, 33, 9), (1, 1, 1), (0, 3, 2), (3, 0, 2), (3, 2, 0)] {
            let ac = codes(m * k, 1);
            let bc = codes(k * n, 2);
            let (sa, za, sb, zb) = (0.031f32, -1.7f32, 0.011f32, -0.4f32);
            let want = with_threads(1, || matmul_q8(&ac, sa, za, &bc, sb, zb, m, k, n));
            // Bitwise-stable at every thread count (exact integer sums).
            for &t in &thread_counts() {
                let got = with_threads(t, || matmul_q8(&ac, sa, za, &bc, sb, zb, m, k, n));
                assert_eq!(got, want, "({m},{k},{n}) threads {t} diverged");
            }
            // And kernel-knob independent: one int8 implementation.
            let got_u = with_kernel(Kernel::Unrolled, || {
                matmul_q8(&ac, sa, za, &bc, sb, zb, m, k, n)
            });
            assert_eq!(got_u, want);
            // Close to the dequantize-then-f32 reference (the int8 path
            // is *more* exact: integer accumulation + one f64 rescale).
            let a = Tensor::from_vec(
                ac.iter().map(|&c| za + sa * f32::from(c)).collect(),
                [m, k],
            )
            .unwrap();
            let b = Tensor::from_vec(
                bc.iter().map(|&c| zb + sb * f32::from(c)).collect(),
                [k, n],
            )
            .unwrap();
            let reference = a.matmul(&b);
            for (g, w) in want.iter().zip(reference.data()) {
                assert!(
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "q8 ({m},{k},{n}): {g} vs reference {w}"
                );
            }
        }
    }

    #[test]
    fn matmul_q8_charges_the_documented_int8_rule() {
        let (m, k, n) = (9usize, 14usize, 11usize);
        let ac = codes(m * k, 3);
        let bc = codes(k * n, 4);
        let (_, cost) =
            acct::measure(|| with_threads(3, || matmul_q8(&ac, 0.1, 0.0, &bc, 0.2, -1.0, m, k, n)));
        assert_eq!(cost.flops, 2 * (m * k * n) as u64 + 4 * (m * n) as u64);
        assert_eq!(cost.bytes_read, (m * k + k * n) as u64, "one byte per packed code");
        assert_eq!(cost.bytes_written, 4 * (m * n) as u64);
        // Same totals at any thread count (merged-charge parity).
        let (_, c1) =
            acct::measure(|| with_threads(1, || matmul_q8(&ac, 0.1, 0.0, &bc, 0.2, -1.0, m, k, n)));
        assert_eq!(c1, cost);
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = threads();
        let inner = with_threads(2, || {
            assert_eq!(threads(), 2);
            with_threads(5, threads)
        });
        assert_eq!(inner, 5);
        assert_eq!(threads(), outer);
    }

    #[test]
    fn worker_panic_propagates_after_all_tasks_finish() {
        let a = sparse_random(8, 4, 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
                let data = a.data();
                for w in 0..4usize {
                    tasks.push(Box::new(move || {
                        assert!(w != 2 || data[0].is_nan(), "deliberate test panic");
                    }));
                }
                run_tasks(tasks);
            });
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool must still be serviceable afterwards.
        let b = sparse_random(4, 6, 2);
        let got = with_kernel(Kernel::Scalar, || with_threads(4, || matmul(&a, &b)));
        assert_eq!(got.data(), a.matmul(&b).data());
    }

    #[test]
    fn kernel_spans_only_emitted_when_recorder_enabled() {
        let a = sparse_random(4, 3, 21);
        let b = sparse_random(3, 5, 22);
        let rec = dl_obs::TimelineRecorder::new();
        let traced = with_kernel(Kernel::Scalar, || with_recorder(&rec, || matmul(&a, &b)));
        assert_eq!(traced.data(), a.matmul(&b).data());
        let events: Vec<_> = rec
            .events()
            .iter()
            .filter(|e| e.name == "kernel.matmul")
            .cloned()
            .collect();
        assert_eq!(events.len(), 2, "one start + one end edge");
        let rows = events[0]
            .fields
            .iter()
            .find(|(k, _)| k == "rows")
            .and_then(|(_, v)| v.as_u64());
        assert_eq!(rows, Some(4));
        // NullRecorder: enabled() is false, so nothing is recorded and no
        // Fields are built.
        let null = dl_obs::NullRecorder::new();
        let quiet = with_kernel(Kernel::Scalar, || with_recorder(&null, || matmul(&a, &b)));
        assert_eq!(quiet.data(), traced.data());
    }
}

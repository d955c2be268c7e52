//! Zero-dependency parallel + cache-blocked compute backend.
//!
//! Every FLOP in the workspace funnels through the scalar kernels in
//! [`Tensor`]; this module provides drop-in parallel and cache-blocked
//! variants of the ones the system runs (the GEMMs, the native int8
//! GEMM and the convolution lowering), built on `std::thread` alone (the
//! build environment has no route to a crates registry, so no
//! rayon/crossbeam). Three design rules govern everything here:
//!
//! 1. **Bit-identical results.** Parallelism splits only over *output*
//!    rows or channels; the per-element accumulation order (the `k` loop
//!    in matmul, the `ky/kx/oy/ox` scatter order in `col2im`) is exactly
//!    the sequential kernel's. Identical `f32` operation sequences
//!    produce identical bits, so [`par::matmul`](matmul) ==
//!    [`Tensor::matmul`] bitwise at any thread count — the same contract
//!    the `NullRecorder` paths keep.
//! 2. **Exact cost accounting.** Worker threads never touch
//!    [`acct`]'s thread-local scopes; each worker returns its share of
//!    the work counters (the `nnz` count for matmul) and the *calling*
//!    thread issues one [`acct::charge`] with the merged totals — the
//!    same totals the sequential kernel charges. See the merge rule in
//!    the [`acct`] module docs.
//! 3. **One fork-join over a persistent pool.** Every kernel splits its
//!    output through the same fork-join, which runs a single split
//!    inline on the calling thread. Workers are spawned once (lazily, up
//!    to `MAX_THREADS`, 64) and parked on a condvar between kernels, so a
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
//! The f32 GEMM comes in two implementations selected by a knob that
//! resolves like the thread knob: a scoped [`with_kernel`] override,
//! then [`set_kernel`], then the `DL_KERNEL` environment variable
//! (`scalar` or `unrolled`), defaulting to [`Kernel::Scalar`].
//!
//! * [`Kernel::Scalar`] is the reference oracle: plain multiply-then-add
//!   in strict ascending order, bit-identical to the sequential
//!   [`Tensor`] kernels.
//! * [`Kernel::Unrolled`] is the fused path: the GEMM adds each term with
//!   [`f32::mul_add`] (one rounding per multiply-add instead of two).
//!   Because the accumulation order is fixed per output element and work
//!   only ever splits along independent outputs, unrolled results are
//!   bitwise-pinned: identical at every `DL_THREADS` count and every tile
//!   width — they just differ from the scalar oracle in the last bits
//!   (fused roundings), which is why goldens are pinned *per precision*.
//!   Both kernels charge the identical [`acct`] cost (an FMA counts as 2
//!   flops, the static model's convention), so cost tables never depend
//!   on the knob.
//!
//! The convolution lowering ([`im2col`], [`col2im`]) multiplies nothing,
//! so it has one implementation under either kernel.
//!
//! [`matmul_q8`] is the third precision: a native int8 GEMM over packed
//! affine codes with exact integer accumulation (see its docs and the
//! per-precision charging rules in [`acct`]). Integer arithmetic is
//! associative, so it has a single implementation — deterministic at any
//! thread count with no kernel dispatch.
//!
//! Register blocking: [`matmul`], [`matmul_blocked`], [`matmul_acc`] and
//! the transposed-operand GEMMs [`matmul_tn`] (`aᵀ·b`) and [`matmul_nt`]
//! (`a·bᵀ`) share one GEMM routine. It covers the output in 32-, 16- and
//! 8-column strips, two or four rows at a time, whose accumulators stay
//! in registers and are stored once, instead of loading and storing the
//! output row once per `k`. The loop order is picked per block of 32 `A`
//! rows from what the block holds:
//!
//! * a block with no `±0.0` has nothing to skip: its strips read `A`
//!   where it lies and share each loaded `B` row across the block's rows;
//! * a block with a zero first compacts each row's non-zero `(k, a)`
//!   terms in ascending `k`, without a branch, so the zero-skip costs no
//!   mispredictions on post-ReLU activations, and its strips walk those
//!   term lists;
//! * the last 1–7 columns (all of them when `n < 8`) run one output row
//!   per vector lane, eight rows at a time, where a lane whose `a` is
//!   zero keeps its accumulator through a select.
//!
//! Term lists and lane panels live in per-thread scratch bounded by the
//! row block, so a GEMM allocates only its output. Cache blocking:
//! [`matmul_blocked`] tiles the output columns. When a tile is narrower
//! than `B`, each tile's `[k, tile]` panel is packed contiguously; a tile
//! that covers `B` reads it in place. Every output element still adds the
//! same terms in the same ascending order, so none of this changes a bit.
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
use std::thread::LocalKey;

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
// Thread-count and kernel settings
// ----------------------------------------------------------------------

/// A setting resolved per launch: the innermost scoped override on this
/// thread if any, else the process-wide value, which `default` supplies
/// on first use. Zero marks an empty slot, so every value is at least 1.
struct Setting {
    global: AtomicUsize,
    scoped: &'static LocalKey<Cell<usize>>,
    default: fn() -> usize,
}

impl Setting {
    fn get(&self) -> usize {
        let o = self.scoped.with(Cell::get);
        if o > 0 {
            return o;
        }
        let g = self.global.load(Ordering::SeqCst);
        if g > 0 {
            return g;
        }
        let d = (self.default)();
        // First resolver wins; a concurrent set simply overwrites.
        let _ = self
            .global
            .compare_exchange(0, d, Ordering::SeqCst, Ordering::SeqCst);
        self.global.load(Ordering::SeqCst)
    }

    fn set(&self, v: usize) {
        self.global.store(v, Ordering::SeqCst);
    }

    /// Runs `f` with the scoped override set to `v`, restoring the
    /// previous one on exit — including on panic.
    fn with<R>(&self, v: usize, f: impl FnOnce() -> R) -> R {
        struct Reset(&'static LocalKey<Cell<usize>>, usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                self.0.with(|o| o.set(self.1));
            }
        }
        let prev = self.scoped.with(|o| o.replace(v));
        let _reset = Reset(self.scoped, prev);
        f()
    }
}

thread_local! {
    static THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    static KERNEL_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Recorder installed by [`with_recorder`] for kernel spans.
    static KERNEL_REC: Cell<Option<*const (dyn Recorder + 'static)>> = const { Cell::new(None) };
}

/// The thread count, `DL_THREADS` by default.
static THREADS: Setting = Setting {
    global: AtomicUsize::new(0),
    scoped: &THREADS_OVERRIDE,
    default: default_threads,
};

/// The [`Kernel`] as its discriminant, `DL_KERNEL` by default.
static KERNEL: Setting = Setting {
    global: AtomicUsize::new(0),
    scoped: &KERNEL_OVERRIDE,
    default: default_kernel,
};

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
    THREADS.set(n.clamp(1, MAX_THREADS));
}

/// The effective thread count for kernels launched from this thread:
/// the innermost [`with_threads`] override if any, else the global
/// setting, resolved on first use from `DL_THREADS` / hardware.
#[must_use]
pub fn threads() -> usize {
    THREADS.get()
}

/// Runs `f` with the effective thread count forced to `n` (clamped to
/// `1..=MAX_THREADS`) on this thread, restoring the previous override on
/// exit — including on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    THREADS.with(n.clamp(1, MAX_THREADS), f)
}

/// Which f32 GEMM implementation the backend dispatches to. See the
/// module docs for the exact accumulation-order contract of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Reference kernel: plain multiply-then-add in strict ascending
    /// order, bit-identical to the sequential [`Tensor`] kernels. The
    /// oracle every other implementation is tested against.
    Scalar = 1,
    /// Fused kernel: the GEMM adds each term with [`f32::mul_add`].
    /// Bitwise-pinned across thread counts and tile widths; differs from
    /// [`Kernel::Scalar`] only by the fused roundings.
    Unrolled = 2,
}

/// `DL_KERNEL` when set to a recognised name, else [`Kernel::Scalar`].
fn default_kernel() -> usize {
    match std::env::var("DL_KERNEL").ok().as_deref().map(str::trim) {
        Some(s) if s.eq_ignore_ascii_case("unrolled") => Kernel::Unrolled as usize,
        _ => Kernel::Scalar as usize,
    }
}

/// Sets the process-wide default kernel. Overrides the `DL_KERNEL`
/// environment variable.
pub fn set_kernel(k: Kernel) {
    KERNEL.set(k as usize);
}

/// The effective kernel for launches from this thread: the innermost
/// [`with_kernel`] override if any, else the global setting, resolved on
/// first use from `DL_KERNEL` (default [`Kernel::Scalar`]).
#[must_use]
pub fn kernel() -> Kernel {
    if KERNEL.get() == Kernel::Unrolled as usize {
        Kernel::Unrolled
    } else {
        Kernel::Scalar
    }
}

/// Runs `f` with the effective kernel forced to `k` on this thread,
/// restoring the previous override on exit — including on panic. The
/// kernel is resolved on the *launching* thread and handed to pool
/// workers, so the override governs parallel launches too.
pub fn with_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    KERNEL.with(k as usize, f)
}

// ----------------------------------------------------------------------
// Kernel spans
// ----------------------------------------------------------------------

/// Runs `f` with `rec` installed as this thread's kernel-span recorder:
/// every parallel kernel launched inside emits a `kernel.<name>` span
/// onto it, with `rows`/`cols`/`k` fields at its start and `flops` and
/// `threads` (the splits the kernel ran) at its end, so `exp --profile`
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
fn kernel_span_start(name: &'static str, m: usize, n: usize, k: usize) -> Option<dl_obs::SpanId> {
    with_rec(|r| {
        if r.enabled() {
            Some(r.span_start(0, name, fields! { "rows" => m, "cols" => n, "k" => k }))
        } else {
            None
        }
    })
    .flatten()
}

/// Closes a span opened by [`kernel_span_start`], recording the kernel's
/// flops and how many splits it ran.
fn kernel_span_end(span: Option<dl_obs::SpanId>, flops: u64, splits: usize) {
    if let Some(s) = span {
        with_rec(move |r| r.span_end(s, fields! { "flops" => flops, "threads" => splits }));
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

/// Splits `0..count` into at most `parts` contiguous, near-equal ranges
/// (one empty range when `count` is 0), without allocating.
fn ranges(count: usize, parts: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    let chunk = count.div_ceil(parts.clamp(1, count.max(1))).max(1);
    (0..count.div_ceil(chunk).max(1)).map(move |i| (i * chunk, count.min((i + 1) * chunk)))
}

/// The fork-join every parallel kernel runs. Splits the items `0..count`
/// into at most [`threads`] contiguous ranges and `out` into the matching
/// runs of `width` elements per item, and calls `f(lo, hi, run)` once per
/// split: a single split inline on the calling thread, with no task or
/// allocation, several across the pool. Returns the sum of the counters
/// the calls return and the number of splits.
fn for_splits(
    out: &mut [f32],
    count: usize,
    width: usize,
    f: impl Fn(usize, usize, &mut [f32]) -> u64 + Sync,
) -> (u64, usize) {
    let splits = ranges(count, threads());
    let parts = splits.len();
    if parts == 1 {
        return (f(0, count, out), 1);
    }
    let mut shares = [0u64; MAX_THREADS];
    let f = &f;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(parts);
    let mut rest = out;
    for ((lo, hi), share) in splits.zip(&mut shares) {
        let (run, tail) = rest.split_at_mut((hi - lo) * width);
        rest = tail;
        tasks.push(Box::new(move || *share = f(lo, hi, run)));
    }
    run_tasks(tasks);
    (shares.iter().sum(), parts)
}

// ----------------------------------------------------------------------
// Matmul
// ----------------------------------------------------------------------

/// How a GEMM reads its operands. The product is always `[m, k] · [k, n]`;
/// a transposed operand is stored the other way round and read where it
/// lies, so no transposed copy is ever made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `a · b`: `a` is stored `[m, k]` and `b` `[k, n]`.
    Nn,
    /// `aᵀ · b`: `a` is stored `[k, m]`.
    Tn,
    /// `a · bᵀ`: `b` is stored `[n, k]`.
    Nt,
}

/// Rows of `A` per block. [`gemm_rows`] picks each block's loop order
/// from the block's own values, and a block's compacted term lists and
/// lane panels live in per-thread scratch of `ROW_BLOCK · k` entries, so
/// the scratch never grows with `m`.
const ROW_BLOCK: usize = 32;

/// Per-thread scratch of [`gemm_rows`], kept between calls so that a
/// GEMM allocates nothing but its output once the thread has seen its
/// shapes.
#[derive(Default)]
struct GemmScratch {
    /// Every column tile's `[k, tw]` panel of `B`, tile after tile, when
    /// `B` is not read in place.
    panels: Vec<f32>,
    /// One row block's compacted `(k, a)` terms, `k` slots per row.
    terms: Vec<(u32, f32)>,
    /// One row block's `a` values as `[k, 8]` lane panels, eight rows per
    /// panel, for the narrow columns.
    lanes: Vec<f32>,
}

thread_local! {
    static GEMM_SCRATCH: Cell<GemmScratch> = const {
        Cell::new(GemmScratch {
            panels: Vec::new(),
            terms: Vec::new(),
            lanes: Vec::new(),
        })
    };
}

/// `v[..len]`, growing `v` first when it is shorter.
fn scratch<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// The shared row-range GEMM: computes `out[lo..hi, :] += A[lo..hi, :] · B`
/// over a caller-provided slice that holds exactly rows `lo..hi`, where
/// `layout` says how `A` and `B` are stored. Every kernel and layout runs
/// this one routine; `FUSED` selects the per-term operation: `acc + a*b`
/// for [`Kernel::Scalar`] (exactly [`Tensor::matmul`]'s triple loop) and
/// `a.mul_add(b, acc)` for [`Kernel::Unrolled`] (one rounding per term
/// instead of two).
///
/// `B` is read in place when one tile covers it, else every tile's
/// `[k, tw]` panel is packed once. Rows then run in blocks of
/// [`ROW_BLOCK`], and each block picks its loop order from its own `A`
/// values. Within a tile, output columns run in 32/16/8-wide strips whose
/// accumulators stay in registers and are stored once:
///
/// * a block with no `±0.0` has nothing to skip, so its strips read `A`
///   where it lies and share each loaded `B` row across the block's rows
///   ([`dense_block`]);
/// * a block with a zero first compacts each row's non-zero `(k, a)`
///   terms in ascending `k`, without a branch, and its strips walk those
///   lists ([`gemm_block`]);
/// * the last 1..=7 columns of a tile run one output row per vector lane,
///   eight rows at a time, whatever the block holds ([`narrow_col`]): a
///   lane whose `a` is zero keeps its accumulator through a select.
///
/// Every output element therefore starts from its existing value and adds
/// the same terms in the same ascending order as the sequential i-k-j
/// loop over the transposed copies, so the result is bit-identical across
/// layouts, thread counts, row blocks and tile widths. Returns the number
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
    layout: Layout,
) -> u64 {
    if n == 0 || k == 0 || lo >= hi {
        return 0;
    }
    assert!(
        u32::try_from(k).is_ok(),
        "matmul inner dimension {k} exceeds u32"
    );
    let mut s = GEMM_SCRATCH.take();
    // A tile covering all of a `[k, n]` B reads it in place; otherwise
    // tile j0's [k, tw] panel is packed at panels[k * j0..], from the
    // tile's columns of b, or from its rows when b is stored `[n, k]`.
    let in_place = tile >= n && layout != Layout::Nt;
    if !in_place {
        let panels = scratch(&mut s.panels, k * n);
        for j0 in (0..n).step_by(tile) {
            let tw = tile.min(n - j0);
            let panel = &mut panels[k * j0..k * (j0 + tw)];
            if layout == Layout::Nt {
                pack_transposed(&b[j0 * k..(j0 + tw) * k], k, panel);
            } else {
                for (dst, src) in panel.chunks_exact_mut(tw).zip(b.chunks_exact(n)) {
                    dst.copy_from_slice(&src[j0..j0 + tw]);
                }
            }
        }
    }
    let has_strips = tile.min(n) >= 8;
    let has_narrow = (0..n)
        .step_by(tile)
        .any(|j0| !tile.min(n - j0).is_multiple_of(8));
    // Under Layout::Tn, output row r is column r of the stored [k, m] a.
    let m_stored = a.len() / k;
    let mut nnz = 0;
    for blo in (lo..hi).step_by(ROW_BLOCK) {
        let bhi = hi.min(blo + ROW_BLOCK);
        let rows = bhi - blo;
        let block = match layout {
            Layout::Tn => Block {
                a: &a[blo..],
                row_stride: 1,
                k_stride: m_stored,
                rows,
                k,
            },
            _ => Block {
                a: &a[blo * k..bhi * k],
                row_stride: k,
                k_stride: 1,
                rows,
                k,
            },
        };
        let mut lens = [0usize; ROW_BLOCK];
        let terms = if !block.has_zero() {
            nnz += (rows * k) as u64;
            None
        } else if has_strips {
            let terms = scratch(&mut s.terms, rows * k);
            block.compact(terms, &mut lens[..rows]);
            nnz += lens.iter().sum::<usize>() as u64;
            Some(&*terms)
        } else {
            nnz += block.count_nonzero() as u64;
            None
        };
        let lanes = if has_narrow {
            let lanes = scratch(&mut s.lanes, rows.div_ceil(8) * 8 * k);
            block.pack_lanes(lanes);
            &*lanes
        } else {
            &[]
        };
        let out = &mut out[(blo - lo) * n..(bhi - lo) * n];
        for j0 in (0..n).step_by(tile) {
            let tw = tile.min(n - j0);
            let (bp, stride) = if in_place {
                (b, n)
            } else {
                (&s.panels[k * j0..k * (j0 + tw)], tw)
            };
            let out = &mut out[j0..];
            let strips = Strips {
                block: &block,
                terms,
                lens: &lens[..rows],
                bp,
                stride,
                n,
            };
            let mut j = 0;
            // Wide strips hold two rows of accumulators, narrow ones four:
            // enough independent multiply-add chains to hide their latency.
            while tw - j >= 32 {
                strips.run::<2, 32, FUSED>(j, &mut out[j..]);
                j += 32;
            }
            if tw - j >= 16 {
                strips.run::<2, 16, FUSED>(j, &mut out[j..]);
                j += 16;
            }
            if tw - j >= 8 {
                strips.run::<4, 8, FUSED>(j, &mut out[j..]);
                j += 8;
            }
            for col in j..tw {
                for (g, lane_panel) in lanes.chunks_exact(8 * k).enumerate() {
                    let live = (rows - 8 * g).min(8);
                    let out = &mut out[8 * g * n + col..];
                    narrow_col::<FUSED>(lane_panel, bp, stride, col, out, n, live);
                }
            }
        }
    }
    GEMM_SCRATCH.set(s);
    nnz
}

/// Writes the transpose of `rows`, `tw` rows of `k` values, into `panel`
/// as `k` rows of `tw`. Eight source rows are read side by side, so each
/// panel row is written eight contiguous values at a time.
fn pack_transposed(rows: &[f32], k: usize, panel: &mut [f32]) {
    let tw = rows.len() / k;
    let mut jj = 0;
    while tw - jj >= 8 {
        let src: [&[f32]; 8] = std::array::from_fn(|i| &rows[(jj + i) * k..(jj + i + 1) * k]);
        for (kk, dst) in panel.chunks_exact_mut(tw).enumerate() {
            for (d, s) in dst[jj..jj + 8].iter_mut().zip(src) {
                *d = s[kk];
            }
        }
        jj += 8;
    }
    for (jj, row) in rows.chunks_exact(k).enumerate().skip(jj) {
        for (dst, &v) in panel.chunks_exact_mut(tw).zip(row) {
            dst[jj] = v;
        }
    }
}

/// One row block of `A`: row `r`'s `a` at `kk` is
/// `a[r * row_stride + kk * k_stride]`.
struct Block<'t> {
    a: &'t [f32],
    row_stride: usize,
    k_stride: usize,
    rows: usize,
    k: usize,
}

impl Block<'_> {
    /// Row `r`'s `a` at `kk`.
    #[inline(always)]
    fn at(&self, r: usize, kk: usize) -> f32 {
        self.a[r * self.row_stride + kk * self.k_stride]
    }

    /// The block's `a` values stored `[k, rows]` one stored row at a
    /// time: contiguous row segments under [`Layout::Tn`], one whole
    /// contiguous run otherwise.
    fn stored_rows(&self) -> impl Iterator<Item = &[f32]> {
        let (len, count) = if self.row_stride == 1 {
            (self.rows, self.k)
        } else {
            (self.rows * self.k, 1)
        };
        (0..count).map(move |kk| &self.a[kk * self.k_stride..kk * self.k_stride + len])
    }

    /// Whether any of the block's `a` values is `±0.0`. The values are
    /// tested 64 at a time, without a branch inside a group, and the scan
    /// stops at the first group that holds a zero.
    fn has_zero(&self) -> bool {
        self.stored_rows().any(|run| {
            run.chunks(64)
                .any(|group| group.iter().fold(false, |z, &x| z | (x == 0.0)))
        })
    }

    /// How many of the block's `a` values differ from zero.
    fn count_nonzero(&self) -> usize {
        self.stored_rows()
            .map(|run| run.iter().map(|&x| usize::from(x != 0.0)).sum::<usize>())
            .sum()
    }

    /// Writes row `r`'s non-zero `(k, a)` terms, in ascending `k`, to
    /// `terms[r * k..r * k + lens[r]]`. Every slot is written and only a
    /// non-zero advances the cursor, so the zero-skip costs no
    /// mispredicted branch on activations full of exact zeros.
    fn compact(&self, terms: &mut [(u32, f32)], lens: &mut [usize]) {
        let k = self.k;
        if self.row_stride == 1 {
            // Each stored row kk appends term kk to every output row's
            // list, so the lists still ascend in k.
            lens.fill(0);
            for (kk, run) in (0u32..).zip(self.stored_rows()) {
                for ((&av, row_terms), len) in
                    run.iter().zip(terms.chunks_exact_mut(k)).zip(&mut *lens)
                {
                    row_terms[*len] = (kk, av);
                    *len += usize::from(av != 0.0);
                }
            }
        } else {
            for ((a_row, row_terms), len) in self
                .a
                .chunks_exact(k)
                .zip(terms.chunks_exact_mut(k))
                .zip(lens)
            {
                let mut c = 0;
                for (kk, &av) in (0u32..).zip(a_row) {
                    row_terms[c] = (kk, av);
                    c += usize::from(av != 0.0);
                }
                *len = c;
            }
        }
    }

    /// Writes rows `8g..8g + 8` as the `[k, 8]` panel
    /// `lanes[8k·g..8k·(g + 1)]`, lane `l` holding row `8g + l`; lanes past
    /// the last row hold zeros.
    fn pack_lanes(&self, lanes: &mut [f32]) {
        let k = self.k;
        for (g, panel) in lanes.chunks_exact_mut(8 * k).enumerate() {
            let (r0, live) = (8 * g, (self.rows - 8 * g).min(8));
            if live < 8 {
                panel.fill(0.0);
            }
            if self.row_stride == 1 {
                for (dst, run) in panel.chunks_exact_mut(8).zip(self.stored_rows()) {
                    dst[..live].copy_from_slice(&run[r0..r0 + live]);
                }
            } else {
                for (l, a_row) in self.a[r0 * k..(r0 + live) * k].chunks_exact(k).enumerate() {
                    for (dst, &av) in panel.chunks_exact_mut(8).zip(a_row) {
                        dst[l] = av;
                    }
                }
            }
        }
    }
}

/// The strips of one row block over one column tile: `B` row `kk` of a
/// strip at column `col` starts at `bp[kk * stride + col]`, output row
/// `r` at `out[r * n]`.
struct Strips<'s, 't> {
    block: &'s Block<'t>,
    /// The block's compacted terms when it holds a zero, else `None`.
    terms: Option<&'s [(u32, f32)]>,
    lens: &'s [usize],
    bp: &'s [f32],
    stride: usize,
    n: usize,
}

impl Strips<'_, '_> {
    /// One `W`-wide output column strip over every row of the block, `R`
    /// rows per register block and the leftover rows one at a time.
    fn run<const R: usize, const W: usize, const FUSED: bool>(&self, col: usize, out: &mut [f32]) {
        let (rows, n) = (self.block.rows, self.n);
        let mut r = 0;
        while r < rows {
            let out = &mut out[r * n..];
            if rows - r >= R {
                self.rows::<R, W, FUSED>(r, col, out);
                r += R;
            } else {
                self.rows::<1, W, FUSED>(r, col, out);
                r += 1;
            }
        }
    }

    /// Rows `r..r + R` of one strip.
    #[inline(always)]
    fn rows<const R: usize, const W: usize, const FUSED: bool>(
        &self,
        r: usize,
        col: usize,
        out: &mut [f32],
    ) {
        let k = self.block.k;
        match self.terms {
            Some(terms) => {
                let rows: [&[(u32, f32)]; R] = std::array::from_fn(|i| {
                    let at = (r + i) * k;
                    &terms[at..at + self.lens[r + i]]
                });
                gemm_block::<R, W, FUSED>(rows, self.bp, self.stride, col, out, self.n);
            }
            None => {
                dense_block::<R, W, FUSED>(self.block, r, self.bp, self.stride, col, out, self.n)
            }
        }
    }
}

/// The register-blocked micro-kernel over compacted terms: adds each of
/// `R` rows' `terms` into that row's `W` columns (`out` row `i` starts at
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
    let mut acc = load_block::<R, W>(out, out_stride);
    let common = terms.iter().map(|t| t.len()).min().unwrap_or(0);
    for t in 0..common {
        for (acc, row_terms) in acc.iter_mut().zip(&terms) {
            let (kk, av) = row_terms[t];
            gemm_step::<W, FUSED>(acc, av, b_row(bp, kk as usize * stride + col));
        }
    }
    for (acc, row_terms) in acc.iter_mut().zip(&terms) {
        for &(kk, av) in &row_terms[common..] {
            gemm_step::<W, FUSED>(acc, av, b_row(bp, kk as usize * stride + col));
        }
    }
    store_block(&acc, out, out_stride);
}

/// The register-blocked micro-kernel over rows `r..r + R` of a block
/// with no zero: every `kk` is a term of every row, so each `B` row is
/// loaded once and shared by the `R` rows, and `A` is read where it lies.
#[inline(always)]
fn dense_block<const R: usize, const W: usize, const FUSED: bool>(
    block: &Block<'_>,
    r: usize,
    bp: &[f32],
    stride: usize,
    col: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    let mut acc = load_block::<R, W>(out, out_stride);
    for kk in 0..block.k {
        let b = b_row::<W>(bp, kk * stride + col);
        for (i, acc) in acc.iter_mut().enumerate() {
            gemm_step::<W, FUSED>(acc, block.at(r + i, kk), b);
        }
    }
    store_block(&acc, out, out_stride);
}

/// `R` rows of `W` accumulators loaded from `out` (row `i` at
/// `i * out_stride`).
#[inline(always)]
fn load_block<const R: usize, const W: usize>(out: &[f32], out_stride: usize) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for (i, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&out[i * out_stride..i * out_stride + W]);
    }
    acc
}

/// Stores what [`load_block`] loaded.
#[inline(always)]
fn store_block<const R: usize, const W: usize>(
    acc: &[[f32; W]; R],
    out: &mut [f32],
    out_stride: usize,
) {
    for (i, acc) in acc.iter().enumerate() {
        out[i * out_stride..i * out_stride + W].copy_from_slice(acc);
    }
}

/// The `W` values of `bp` from `at`.
#[inline(always)]
fn b_row<const W: usize>(bp: &[f32], at: usize) -> &[f32; W] {
    bp[at..at + W].try_into().expect("strip is W wide")
}

/// Adds one term `a · b` into `W` accumulators, eight lanes at a time.
/// Written as one `W`-wide loop, the unfused 32-wide strip compiled to
/// scalar code with its accumulators in memory, six times slower.
#[inline(always)]
fn gemm_step<const W: usize, const FUSED: bool>(acc: &mut [f32; W], av: f32, b: &[f32; W]) {
    for (o8, b8) in acc.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
        let o8: &mut [f32; 8] = o8.try_into().expect("8 lanes");
        *o8 = std::array::from_fn(|l| {
            if FUSED {
                av.mul_add(b8[l], o8[l])
            } else {
                o8[l] + av * b8[l]
            }
        });
    }
}

/// The narrow-column micro-kernel: output column `col` of up to eight
/// rows, one row per vector lane. `lanes` is a `[k, 8]` panel whose lane
/// `l` holds row `l`'s `a` values (zero past the `live` rows); `B` row
/// `kk` starts at `bp[kk * stride]`, output row `l`'s element at
/// `out[l * out_stride]`. Each step adds `a · b` in every lane and keeps
/// the old accumulator, through a select, where `a` is zero, so every
/// output element adds exactly its row's non-zero terms in ascending `k`.
/// One column is one eight-lane chain, the form that compiles to a vector
/// multiply-add under a mask; kept out of line, since inlined into
/// [`gemm_rows`] the lanes compile to scalar code.
#[inline(never)]
fn narrow_col<const FUSED: bool>(
    lanes: &[f32],
    bp: &[f32],
    stride: usize,
    col: usize,
    out: &mut [f32],
    out_stride: usize,
    live: usize,
) {
    let mut acc: [f32; 8] =
        std::array::from_fn(|l| if l < live { out[l * out_stride] } else { 0.0 });
    for (kk, av) in lanes.chunks_exact(8).enumerate() {
        let bv = bp[kk * stride + col];
        acc = std::array::from_fn(|l| {
            let sum = if FUSED {
                av[l].mul_add(bv, acc[l])
            } else {
                acc[l] + av[l] * bv
            };
            if av[l] != 0.0 {
                sum
            } else {
                acc[l]
            }
        });
    }
    for (l, &v) in acc.iter().enumerate().take(live) {
        out[l * out_stride] = v;
    }
}

/// Validates matmul operands stored as `layout` says, returning the
/// product's `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor, layout: Layout) -> (usize, usize, usize) {
    assert_eq!(a.rank(), 2, "matmul left operand must be a matrix");
    assert_eq!(b.rank(), 2, "matmul right operand must be a matrix");
    let (a0, a1) = (a.dims()[0], a.dims()[1]);
    let (b0, b1) = (b.dims()[0], b.dims()[1]);
    let ((m, k), (k2, n)) = match layout {
        Layout::Nn => ((a0, a1), (b0, b1)),
        Layout::Tn => ((a1, a0), (b0, b1)),
        Layout::Nt => ((a0, a1), (b1, b0)),
    };
    assert_eq!(
        k,
        k2,
        "matmul inner dimensions differ: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

/// The one routine behind every f32 GEMM entry point: opens the `name`
/// span, adds `A · B` into `out` (`[m, n]`) with [`gemm_rows`] split
/// row-wise by [`for_splits`], charges [`acct`] once on the calling
/// thread with the workers' merged `nnz` — `2·nnz·n` flops, `bytes_read`
/// and `4·m·n` bytes written, exactly what the sequential kernel charges
/// — and closes the span.
#[allow(clippy::too_many_arguments)]
fn gemm(
    name: &'static str,
    a: &Tensor,
    b: &Tensor,
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    tile: usize,
    layout: Layout,
    bytes_read: usize,
) {
    let span = kernel_span_start(name, m, n, k);
    // Resolve the kernel on the launching thread: workers must not read
    // their own (unset) thread-local override.
    let kern = kernel();
    let (a, b) = (a.data(), b.data());
    let (nnz, splits) = for_splits(out, m, n, |lo, hi, rows| match kern {
        Kernel::Scalar => gemm_rows::<false>(a, b, rows, lo, hi, k, n, tile, layout),
        Kernel::Unrolled => gemm_rows::<true>(a, b, rows, lo, hi, k, n, tile, layout),
    });
    let flops = 2 * nnz * n as u64;
    acct::charge(flops, bytes_read as u64, 4 * (m * n) as u64);
    kernel_span_end(span, flops, splits);
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
    let (m, k, n) = matmul_dims(a, b, Layout::Nn);
    let mut out = vec![0.0f32; m * n];
    gemm(
        "kernel.matmul",
        a,
        b,
        &mut out,
        (m, k, n),
        tile_cols.max(1),
        Layout::Nn,
        4 * (m * k + k * n),
    );
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
    let (m, k, n) = matmul_dims(a, b, Layout::Nn);
    assert_eq!(
        out.dims(),
        &[m, n],
        "matmul_acc output must be [{m}, {n}], got {}",
        out.shape()
    );
    gemm(
        "kernel.matmul_acc",
        a,
        b,
        out.data_mut(),
        (m, k, n),
        DEFAULT_TILE_COLS,
        Layout::Nn,
        4 * (m * k + k * n + m * n),
    );
}

/// `out = aᵀ · b` for `a` stored `[k, m]` and `b` `[k, n]`, written over
/// `out`, which becomes `[m, n]` (its buffer is reused when it is large
/// enough). No transposed copy of `a` is made: each output row's terms
/// are compacted from a column of `a`. Every output element adds the
/// same terms in the same ascending-`k` order, skipping the same zeros of
/// `a`, as [`matmul`]`(&a.transpose(), b)`, so the bits are the same
/// under either kernel at any thread count. So is the charge, which is
/// [`matmul`]'s: `2·nnz·n` flops, `4·(m·k + k·n)` bytes read and `4·m·n`
/// written.
///
/// # Panics
/// Panics when operands are not matrices or their row counts differ.
pub fn matmul_tn(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k, n) = matmul_dims(a, b, Layout::Tn);
    out.fill_zeros_as(&[m, n]);
    gemm(
        "kernel.matmul_tn",
        a,
        b,
        out.data_mut(),
        (m, k, n),
        DEFAULT_TILE_COLS,
        Layout::Tn,
        4 * (m * k + k * n),
    );
}

/// `a · bᵀ` for `a` stored `[m, k]` and `b` `[n, k]`. No transposed copy
/// of `b` is made: each column tile of `bᵀ` is packed from the tile's
/// rows of `b`, the packing [`matmul_blocked`] does for any tile
/// narrower than `B`. Bits, zero-skip and charge are those of
/// [`matmul`]`(a, &b.transpose())`.
///
/// # Panics
/// Panics when operands are not matrices or their column counts differ.
#[must_use]
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = matmul_dims(a, b, Layout::Nt);
    let mut out = vec![0.0f32; m * n];
    gemm(
        "kernel.matmul_nt",
        a,
        b,
        &mut out,
        (m, k, n),
        DEFAULT_TILE_COLS,
        Layout::Nt,
        4 * (m * k + k * n),
    );
    Tensor::from_vec(out, [m, n]).expect("gemm output length matches by construction")
}

// ----------------------------------------------------------------------
// Native int8 GEMM
// ----------------------------------------------------------------------

/// The most `k` terms an `i32` accumulator of [`matmul_q8`] adds before
/// it is folded into the row's `i64` sum: `255² · 33,025 < 2³¹`, so a run
/// cannot overflow.
const Q8_RUN: usize = 33_025;

thread_local! {
    /// [`matmul_q8`]'s narrow `B` columns and column code sums, on the
    /// calling thread.
    static Q8_SHARED: Cell<(Vec<u8>, Vec<i64>)> = const { Cell::new((Vec::new(), Vec::new())) };
    /// [`matmul_q8`]'s `i32` run and `i64` sums of one row, on every
    /// thread that runs rows.
    static Q8_ACC: Cell<(Vec<i32>, Vec<i64>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// The exact dot product of one run of at most [`Q8_RUN`] codes. Each
/// product fits a `u16` (`255 · 255`) and the run's sum an `i32`.
fn dot_codes(a: &[u8], b: &[u8]) -> i32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i32::from(u16::from(x) * u16::from(y)))
        .sum()
}

/// Native int8 GEMM over packed affine codes: computes the `[m, n]` f32
/// product of two affinely-quantized matrices `Â·B̂` where
/// `Â[i,kk] = a_zero + a_scale·a_codes[i,kk]` (likewise for `B̂`), without
/// ever materialising the dequantized f32 operands. The accumulation is
/// exact: codes multiply in integer arithmetic, summed in `i32` over runs
/// of at most 33,025 `k` terms (too few to overflow) that are folded into
/// an `i64` per output, and the affine terms expand to
///
/// ```text
/// Σ_k Â·B̂ = k·za·zb  +  za·sb·Σ_k b  +  zb·sa·Σ_k a  +  sa·sb·Σ_k a·b
/// ```
///
/// so each output pays exactly **one affine rescale** (two `f64`
/// multiply-adds over precomputed per-row/per-column code sums) at the
/// end. Integer sums are order-independent, so the result is bitwise
/// identical at every thread count and needs no kernel dispatch. Output
/// columns in whole 8-wide strips accumulate one `A` code times a `B`
/// row at a time; the last 1–7 columns (all of them when `n < 8`) run as
/// dot products against contiguous copies of those `B` columns, made once
/// per call.
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
    let span = kernel_span_start("kernel.matmul_q8", m, n, k);
    let mut out = vec![0.0f32; m * n];
    // With k = 0 every output is an empty sum, exactly zero: skipped up
    // front because the affine parameters of an empty quantized tensor
    // are degenerate (a range scan over no elements yields infinite zero
    // points). With n = 0 there is no output at all.
    let splits = if k == 0 || n == 0 {
        0
    } else {
        let base = f64::from(a_zero) * f64::from(b_zero) * k as f64;
        let za_sb = f64::from(a_zero) * f64::from(b_scale);
        let zb_sa = f64::from(b_zero) * f64::from(a_scale);
        let sa_sb = f64::from(a_scale) * f64::from(b_scale);
        let mut shared = Q8_SHARED.take();
        // Columns past the last 8-wide strip, each `k` contiguous codes,
        // and every column's code sum for the affine expansion — shared
        // by every row, computed once (excluded from the charge like
        // panel packing).
        let wide = n / 8 * 8;
        let narrow = scratch(&mut shared.0, (n - wide) * k);
        let col_sums = scratch(&mut shared.1, n);
        col_sums.fill(0);
        for (kk, b_row) in b_codes.chunks_exact(n).enumerate() {
            for (s, &c) in col_sums.iter_mut().zip(b_row) {
                *s += i64::from(c);
            }
            for (col, &c) in narrow.chunks_exact_mut(k).zip(&b_row[wide..]) {
                col[kk] = c;
            }
        }
        let (narrow, col_sums) = (&*narrow, &*col_sums);
        let (_, splits) = for_splits(&mut out, m, n, |lo, hi, rows| {
            let (mut run, mut acc) = Q8_ACC.take();
            let (run_s, acc_s) = (scratch(&mut run, wide), scratch(&mut acc, n));
            for (a_row, out_row) in a_codes[lo * k..hi * k]
                .chunks_exact(k)
                .zip(rows.chunks_exact_mut(n))
            {
                let (acc_wide, acc_narrow) = acc_s.split_at_mut(wide);
                acc_wide.fill(0);
                if wide > 0 {
                    for (c, a_run) in a_row.chunks(Q8_RUN).enumerate() {
                        run_s.fill(0);
                        for (kk, &ac) in (c * Q8_RUN..).zip(a_run) {
                            if ac == 0 {
                                continue; // 0·b is exactly 0: pure speed, same bits
                            }
                            // 255 · 255 fits a u16, so each product is exact.
                            let av = u16::from(ac);
                            let b_row = &b_codes[kk * n..kk * n + wide];
                            for (s8, b8) in run_s.chunks_exact_mut(8).zip(b_row.chunks_exact(8)) {
                                for (s, &bc) in s8.iter_mut().zip(b8) {
                                    *s += i32::from(av * u16::from(bc));
                                }
                            }
                        }
                        for (s, &r) in acc_wide.iter_mut().zip(&*run_s) {
                            *s += i64::from(r);
                        }
                    }
                }
                for (s, b_col) in acc_narrow.iter_mut().zip(narrow.chunks_exact(k)) {
                    *s = a_row
                        .chunks(Q8_RUN)
                        .zip(b_col.chunks(Q8_RUN))
                        .map(|(a_run, b_run)| i64::from(dot_codes(a_run, b_run)))
                        .sum();
                }
                let row_sum: i64 = a_row.iter().map(|&c| i64::from(c)).sum();
                let row_term = base + zb_sa * row_sum as f64;
                for ((o, &s), &cs) in out_row.iter_mut().zip(&*acc_s).zip(col_sums) {
                    *o = (row_term + za_sb * cs as f64 + sa_sb * s as f64) as f32;
                }
            }
            Q8_ACC.set((run, acc));
            0
        });
        Q8_SHARED.set(shared);
        splits
    };
    let flops = 2 * (m * k * n) as u64 + 4 * (m * n) as u64;
    acct::charge(flops, (m * k + k * n) as u64, 4 * (m * n) as u64);
    kernel_span_end(span, flops, splits);
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
        _ => {
            panic!("im2col: kernel {kh}x{kw} stride {stride} pad {pad} does not fit input {h}x{w}")
        }
    };
    let rows = c * kh * kw;
    let cols = out_h * out_w;
    let span = kernel_span_start("kernel.im2col", rows, cols, kh * kw);
    let mut out = vec![0.0f32; rows * cols];
    let data = img.data();
    let (_, splits) = for_splits(&mut out, c, kh * kw * cols, |c_lo, c_hi, mine| {
        for ch in c_lo..c_hi {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ch - c_lo) * kh + ky) * kw + kx;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let col = oy * out_w + ox;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
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
        0
    });
    acct::charge(0, 4 * (c * h * w) as u64, 4 * (rows * cols) as u64);
    kernel_span_end(span, 0, splits);
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
    let span = kernel_span_start("kernel.col2im", channels * height, width, kh * kw);
    let mut out = vec![0.0f32; channels * height * width];
    let data = cols_mat.data();
    let (_, splits) = for_splits(&mut out, channels, height * width, |c_lo, c_hi, mine| {
        for ch in c_lo..c_hi {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..out_w {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if iy >= 0 && iy < height as isize && ix >= 0 && ix < width as isize {
                                let col = oy * out_w + ox;
                                mine[((ch - c_lo) * height + iy as usize) * width + ix as usize] +=
                                    data[row * cols + col];
                            }
                        }
                    }
                }
            }
        }
        0
    });
    acct::charge(
        cols_mat.len() as u64,
        4 * cols_mat.len() as u64,
        4 * out.len() as u64,
    );
    kernel_span_end(span, cols_mat.len() as u64, splits);
    Tensor::from_vec(out, [channels, height, width])
        .expect("col2im output length matches by construction")
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
    }

    /// Deterministic codes with some exact zeros, mimicking quantized
    /// activations/weights.
    fn codes(len: usize, salt: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                if i % 7 == 0 {
                    0
                } else {
                    ((i as u64)
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(salt * 13)
                        % 256) as u8
                }
            })
            .collect()
    }

    #[test]
    fn matmul_q8_matches_dequantized_reference_and_is_thread_stable() {
        for &(m, k, n) in &[
            (4usize, 6usize, 5usize),
            (17, 33, 9),
            (1, 1, 1),
            (0, 3, 2),
            (3, 0, 2),
            (3, 2, 0),
        ] {
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
            let a = Tensor::from_vec(ac.iter().map(|&c| za + sa * f32::from(c)).collect(), [m, k])
                .unwrap();
            let b = Tensor::from_vec(bc.iter().map(|&c| zb + sb * f32::from(c)).collect(), [k, n])
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
    fn matmul_q8_folds_i32_runs_into_exact_sums() {
        // All-255 codes over three runs: each run's i32 sum is near 2³¹,
        // the whole dot product is near 2³², and both the 8-wide strip
        // and the narrow column must still give it exactly.
        let (m, k, n) = (2usize, 2 * Q8_RUN + 5, 9usize);
        let (ac, bc) = (vec![255u8; m * k], vec![255u8; k * n]);
        let want = (255.0 * 255.0 * k as f64) as f32;
        for &t in &thread_counts() {
            let got = with_threads(t, || matmul_q8(&ac, 1.0, 0.0, &bc, 1.0, 0.0, m, k, n));
            assert!(got.iter().all(|&v| v == want), "threads {t}: {got:?}");
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
        assert_eq!(
            cost.bytes_read,
            (m * k + k * n) as u64,
            "one byte per packed code"
        );
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

    #[test]
    fn kernel_spans_record_the_splits_they_ran() {
        // Five rows at four threads split as 2 + 2 + 1: three splits, not
        // four.
        let a = sparse_random(5, 3, 23);
        let b = sparse_random(3, 4, 24);
        let ac = codes(5 * 3, 5);
        let bc = codes(3 * 4, 6);
        let img = sparse_random(2, 16, 25).reshape([2, 4, 4]).unwrap();
        for (t, want) in [(1, 1), (2, 2), (4, 3), (9, 5)] {
            let rec = dl_obs::TimelineRecorder::new();
            with_recorder(&rec, || {
                with_threads(t, || {
                    let _ = matmul(&a, &b);
                    let _ = matmul_q8(&ac, 0.1, 0.0, &bc, 0.2, -1.0, 5, 3, 4);
                    let _ = im2col(&img, 2, 2, 1, 0);
                })
            });
            let ends: Vec<_> = rec
                .events()
                .iter()
                .filter(|e| e.kind == dl_obs::EventKind::SpanEnd)
                .map(|e| {
                    let splits = e.fields.iter().find(|(k, _)| k == "threads");
                    (e.name, splits.and_then(|(_, v)| v.as_u64()))
                })
                .collect();
            // im2col splits its two channels.
            let conv = want.min(2);
            assert_eq!(
                ends,
                [
                    ("kernel.matmul", Some(want)),
                    ("kernel.matmul_q8", Some(want)),
                    ("kernel.im2col", Some(conv)),
                ],
                "threads {t}"
            );
        }
    }
}

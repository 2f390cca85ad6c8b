//! Thread-local scratch arena: reusable `f32` buffers for kernel hot loops.
//!
//! The convolution kernels lower feature maps into temporary column /
//! packing / partial-sum buffers whose sizes repeat exactly from call to
//! call (a network's shapes are fixed). Allocating those with `vec!` on
//! every call puts the allocator on the hot path — and, as Kwon et al.
//! observe for this class of workload, memory traffic rather than FLOPs
//! is what dominates. This module keeps the buffers alive instead:
//!
//! * every thread owns one arena (a plain `thread_local!`, so each
//!   [`parallel`](crate::parallel) pool worker gets its own — checkouts
//!   never contend);
//! * buffers are **size-classed** to the next power of two, so a checkout
//!   of any recurring size is a pop from a per-class free list;
//! * a checked-out buffer is returned to its arena when the
//!   [`ScratchBuf`] guard drops, ready for the next call.
//!
//! In steady state a training iteration therefore performs **zero heap
//! allocations from these call sites** — the `profile` bench bin asserts
//! exactly that via the miss counters below.
//!
//! ## Telemetry
//!
//! When metrics are enabled, every checkout tallies per-op counters:
//! `scratch.<op>.bytes_alloc` (bytes newly allocated because the arena
//! missed) and `scratch.<op>.arena_reuse` (checkouts served from the free
//! list), plus the global `scratch.miss_bytes`. Misses depend on which
//! thread ran which task, so the `scratch.*` family is — like `pool.*` —
//! outside the telemetry determinism guarantee.
//!
//! ## Contents contract
//!
//! [`checkout`] returns a buffer with **unspecified contents** (stale
//! data from a previous use); callers must fully overwrite it before
//! reading, which is what `im2col`-style producers do. Accumulating
//! consumers use [`checkout_zeroed`].
//!
//! ## Alignment
//!
//! Every checked-out buffer starts on a **32-byte boundary**: the
//! backing storage is a `Vec` of 32-byte-aligned 8-float `Lane`
//! groups, matching the [`simd`](crate::simd) vector width (one AVX2
//! register). The vector kernels use unaligned
//! loads — tensors themselves carry no alignment guarantee — but
//! scratch-resident tiles (e.g. the fused bundle's band tiles) land on aligned
//! addresses, which keeps those loads from splitting cache lines.

use crate::simd::LANES;
use crate::telemetry;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Smallest size class, in `f32` elements. Requests below this round up.
/// Always a multiple of [`LANES`], so class storage divides evenly into
/// [`Lane`] groups.
const MIN_CLASS: usize = 256;

/// One 32-byte-aligned group of eight `f32` lanes — the allocation unit
/// that gives every scratch buffer its alignment guarantee. `repr(C)`
/// with `size_of == align_of == 32`: a `Vec<Lane>` is therefore a gapless
/// `f32` array starting on a 32-byte boundary.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Lane([f32; LANES]);

const _: () = assert!(std::mem::size_of::<Lane>() == 32 && std::mem::align_of::<Lane>() == 32);
const _: () = assert!(MIN_CLASS.is_multiple_of(LANES));

/// Free buffers kept per size class; beyond this, returned buffers are
/// dropped. Bounds arena growth when a workload churns through many
/// concurrent same-class checkouts once and never again.
const MAX_PER_CLASS: usize = 8;

struct Arena {
    /// `classes[i]` holds free buffers of `MIN_CLASS << i` elements
    /// (`(MIN_CLASS << i) / LANES` lane groups).
    classes: Vec<Vec<Vec<Lane>>>,
}

impl Arena {
    const fn new() -> Self {
        Arena {
            classes: Vec::new(),
        }
    }

    fn class_index(len: usize) -> usize {
        let class = len.next_power_of_two().max(MIN_CLASS);
        (class / MIN_CLASS).trailing_zeros() as usize
    }

    fn take(&mut self, len: usize) -> Option<Vec<Lane>> {
        let idx = Self::class_index(len);
        self.classes.get_mut(idx)?.pop()
    }

    fn put(&mut self, buf: Vec<Lane>) {
        let floats = buf.len() * LANES;
        debug_assert!(floats.is_power_of_two() && floats >= MIN_CLASS);
        let idx = Self::class_index(floats);
        if idx >= self.classes.len() {
            self.classes.resize_with(idx + 1, Vec::new);
        }
        let list = &mut self.classes[idx];
        if list.len() < MAX_PER_CLASS {
            list.push(buf);
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// A scratch buffer checked out of this thread's arena. Dereferences to
/// `[f32]` of exactly the requested length, starting on a 32-byte
/// boundary; the guard returns the backing storage to the arena of
/// whichever thread drops it.
#[derive(Debug)]
pub struct ScratchBuf {
    /// Backing storage, always a full size class long (in lane groups).
    data: Vec<Lane>,
    /// Requested length in `f32` elements (`<= data.len() * LANES`).
    len: usize,
}

impl Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        // SAFETY: `Lane` is `repr(C)` with size 32 and no padding, so
        // `data`'s storage is `data.len() * LANES` contiguous, initialized
        // f32s; `len` never exceeds that (checkout invariant).
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<f32>(), self.len) }
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        // SAFETY: as in `deref`, plus exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<f32>(), self.len) }
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.data);
        if !buf.is_empty() {
            // During thread teardown the arena TLS may already be gone;
            // the buffer is then simply freed.
            let _ = ARENA.try_with(|a| a.borrow_mut().put(buf));
        }
    }
}

/// `scratch.<op>.arena_reuse` and `scratch.<op>.bytes_alloc`, looked up
/// by name once per thread and op: building the names on every checkout
/// would itself allocate, on the path whose allocations they count.
fn op_counters(op: &'static str) -> (&'static telemetry::Counter, &'static telemetry::Counter) {
    type Entry = (
        &'static str,
        &'static telemetry::Counter,
        &'static telemetry::Counter,
    );
    thread_local! {
        static COUNTERS: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }
    COUNTERS.with(|list| {
        let mut list = list.borrow_mut();
        if let Some(&(_, reuse, alloc)) = list.iter().find(|e| e.0 == op) {
            return (reuse, alloc);
        }
        let reuse = telemetry::counter(&format!("scratch.{op}.arena_reuse"));
        let alloc = telemetry::counter(&format!("scratch.{op}.bytes_alloc"));
        list.push((op, reuse, alloc));
        (reuse, alloc)
    })
}

fn record_checkout(op: &'static str, hit: bool, class_bytes: usize) {
    if !telemetry::metrics_enabled() {
        return;
    }
    let (reuse, alloc) = op_counters(op);
    if hit {
        reuse.inc();
    } else {
        alloc.add(class_bytes as u64);
        telemetry::counter("scratch.miss_bytes").add(class_bytes as u64);
    }
}

/// Pops (or allocates) backing storage covering `units` f32-equivalent
/// elements — the shared body of every typed checkout. The arena pools
/// raw lane groups, so f32, i32, and i8 checkouts of the same class all
/// draw from one free list.
fn checkout_lanes(op: &'static str, units: usize) -> Vec<Lane> {
    let reused = ARENA
        .try_with(|a| a.borrow_mut().take(units))
        .ok()
        .flatten();
    let hit = reused.is_some();
    let data = reused.unwrap_or_else(|| {
        let class = units.next_power_of_two().max(MIN_CLASS);
        vec![Lane([0.0; LANES]); class / LANES]
    });
    record_checkout(op, hit, data.len() * std::mem::size_of::<Lane>());
    data
}

/// Checks out a buffer of `len` floats with **unspecified contents** (see
/// the module docs). `op` names the call site for the per-op allocation
/// counters — by convention the kernel's span name, e.g.
/// `"tensor.conv_fwd"`.
pub fn checkout(op: &'static str, len: usize) -> ScratchBuf {
    if len == 0 {
        return ScratchBuf {
            data: Vec::new(),
            len: 0,
        };
    }
    ScratchBuf {
        data: checkout_lanes(op, len),
        len,
    }
}

/// [`checkout`] with the first `len` elements zeroed — for buffers the
/// caller accumulates into rather than overwrites.
pub fn checkout_zeroed(op: &'static str, len: usize) -> ScratchBuf {
    let mut buf = checkout(op, len);
    buf.fill(0.0);
    buf
}

/// Declares an integer-typed scratch guard plus its checkout. The
/// backing storage is the same `Lane` pool the f32 buffers use — `Lane`
/// is plain initialized bytes, every bit pattern is a valid `i32`/`i8`,
/// and the 32-byte alignment exceeds any integer's — so the INT8 fused
/// path shares free lists (and the zero-hot-loop-allocation guarantee)
/// with the f32 kernels.
macro_rules! typed_scratch {
    (
        $(#[$doc:meta])* $guard:ident, $elem:ty, $per_unit:expr,
        $(#[$cdoc:meta])* $checkout:ident
    ) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $guard {
            /// Backing storage, always a full size class long.
            data: Vec<Lane>,
            /// Requested length in elements.
            len: usize,
        }

        impl Deref for $guard {
            type Target = [$elem];

            fn deref(&self) -> &[$elem] {
                // SAFETY: `Lane` is `repr(C)` f32s with no padding —
                // initialized bytes that are valid at any integer type;
                // `len` elements never exceed the storage (checkout
                // invariant) and the 32-byte alignment is sufficient.
                unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<$elem>(), self.len) }
            }
        }

        impl DerefMut for $guard {
            fn deref_mut(&mut self) -> &mut [$elem] {
                // SAFETY: as in `deref`, plus exclusivity through `&mut self`.
                unsafe {
                    std::slice::from_raw_parts_mut(self.data.as_mut_ptr().cast::<$elem>(), self.len)
                }
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                let buf = std::mem::take(&mut self.data);
                if !buf.is_empty() {
                    // Integer writes through the guard may leave storage
                    // bit patterns that are signalling-NaN f32s; that is
                    // fine — f32 checkouts have unspecified contents and
                    // never read them.
                    let _ = ARENA.try_with(|a| a.borrow_mut().put(buf));
                }
            }
        }

        $(#[$cdoc])*
        pub fn $checkout(op: &'static str, len: usize) -> $guard {
            if len == 0 {
                return $guard {
                    data: Vec::new(),
                    len: 0,
                };
            }
            $guard {
                data: checkout_lanes(op, len.div_ceil($per_unit)),
                len,
            }
        }
    };
}

typed_scratch!(
    /// An `i32` scratch buffer (raw integer accumulators) checked out of
    /// this thread's arena; see [`ScratchBuf`] for the guard contract.
    ScratchBufI32,
    i32,
    1,
    /// Checks out `len` `i32`s with **unspecified contents**.
    checkout_i32
);

typed_scratch!(
    /// An `i8` scratch buffer (quantized activations) checked out of
    /// this thread's arena; see [`ScratchBuf`] for the guard contract.
    ScratchBufI8,
    i8,
    4,
    /// Checks out `len` `i8`s with **unspecified contents**.
    checkout_i8
);

/// Drops every free buffer held by the **current thread's** arena. Used
/// by tests that want a cold-arena baseline; pool worker arenas are
/// unaffected.
pub fn clear_thread_arena() {
    let _ = ARENA.try_with(|a| a.borrow_mut().classes.clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_has_requested_length() {
        let buf = checkout("test.scratch", 1000);
        assert_eq!(buf.len(), 1000);
        assert_eq!(checkout("test.scratch", 0).len(), 0);
    }

    #[test]
    fn buffers_are_reused_within_a_thread() {
        clear_thread_arena();
        let first = checkout("test.scratch", 500);
        let ptr = first.as_ptr();
        drop(first);
        let second = checkout("test.scratch", 500);
        assert_eq!(second.as_ptr(), ptr, "same size class must reuse");
        // A different class gets different storage.
        let third = checkout("test.scratch", 50_000);
        assert_ne!(third.as_ptr(), ptr);
    }

    #[test]
    fn zeroed_checkout_clears_stale_contents() {
        clear_thread_arena();
        {
            let mut buf = checkout("test.scratch", 300);
            buf.fill(7.0);
        }
        let buf = checkout_zeroed("test.scratch", 300);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn class_index_rounds_to_power_of_two() {
        assert_eq!(Arena::class_index(1), 0);
        assert_eq!(Arena::class_index(MIN_CLASS), 0);
        assert_eq!(Arena::class_index(MIN_CLASS + 1), 1);
        assert_eq!(Arena::class_index(4 * MIN_CLASS), 2);
    }

    #[test]
    fn checkouts_are_32_byte_aligned_across_all_size_classes() {
        clear_thread_arena();
        // Below MIN_CLASS, exactly MIN_CLASS, non-power-of-two, several
        // classes up, and a large class — fresh and reused.
        for len in [1usize, 8, 255, 256, 300, 4096, 5000, 50_000] {
            for round in 0..2 {
                let buf = checkout("test.scratch", len);
                assert_eq!(
                    buf.as_ptr() as usize % 32,
                    0,
                    "len={len} round={round} not 32-byte aligned"
                );
                assert_eq!(buf.len(), len);
            }
        }
    }

    #[test]
    fn typed_checkouts_share_the_lane_pool() {
        clear_thread_arena();
        let f = checkout("test.scratch", 512);
        let ptr = f.as_ptr() as usize;
        drop(f);
        let ib = checkout_i32("test.scratch", 512);
        assert_eq!(ib.as_ptr() as usize, ptr, "i32 must reuse the f32 class");
        assert_eq!(ib.len(), 512);
        drop(ib);
        // 2048 i8s occupy the same 512-f32-unit class.
        let qb = checkout_i8("test.scratch", 2048);
        assert_eq!(qb.as_ptr() as usize, ptr, "i8 must reuse the same class");
        assert_eq!(qb.len(), 2048);
        assert_eq!(qb.as_ptr() as usize % 32, 0);
        assert_eq!(checkout_i8("test.scratch", 0).len(), 0);
        assert_eq!(checkout_i32("test.scratch", 0).len(), 0);
    }

    #[test]
    fn typed_checkouts_are_writable_at_full_length() {
        let mut ib = checkout_i32("test.scratch", 300);
        ib.fill(i32::MIN);
        assert!(ib.iter().all(|&v| v == i32::MIN));
        let mut qb = checkout_i8("test.scratch", 1001); // non-multiple of 4
        qb.fill(-128);
        assert!(qb.iter().all(|&v| v == -128));
    }

    #[test]
    fn per_class_cap_bounds_growth() {
        clear_thread_arena();
        let bufs: Vec<_> = (0..2 * MAX_PER_CLASS)
            .map(|_| checkout("test.scratch", MIN_CLASS))
            .collect();
        drop(bufs);
        let held = ARENA.with(|a| a.borrow().classes[0].len());
        assert_eq!(held, MAX_PER_CLASS);
    }
}

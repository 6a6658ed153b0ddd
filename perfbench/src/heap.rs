//! Peak live heap of the process, counted by a thin wrapper around the
//! system allocator.
//!
//! `VmHWM` (peak resident set) is bimodal from run to run on the same
//! inputs: glibc hands threads their own malloc arenas, and how much of
//! each arena stays resident depends on thread timing (75 against
//! 95 MiB on `annotate`). The bytes the program has allocated at once
//! do not depend on that, so they are the reported memory metric;
//! `VmHWM` is printed beside them.
//!
//! The wrapper runs inside every timed call, on every thread, so it
//! keeps off shared memory: each thread adds its allocations up in a
//! thread-local count and settles it with the shared one only once it
//! reaches [`SLACK`] bytes either way. Most allocations touch no
//! shared cache line, and the peak is exact to within `SLACK` bytes
//! per thread the process has run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting live and peak bytes.
pub struct Counting;

/// Bytes a thread may hold unsettled, either way.
const SLACK: isize = 64 << 10;

// Statistics only: no other data is published through these counters.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator may use it.
    static UNSETTLED: Cell<isize> = const { Cell::new(0) };
}

/// Records `delta` bytes allocated (or, negative, freed).
fn note(delta: isize) {
    let due = UNSETTLED.try_with(|c| {
        let d = c.get() + delta;
        if d.abs() < SLACK {
            c.set(d);
            0
        } else {
            c.set(0);
            d
        }
    });
    // A thread being torn down settles at once.
    let d = due.unwrap_or(delta);
    if d == 0 {
        return;
    }
    let now = LIVE.fetch_add(d, Relaxed) + d;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn size(n: usize) -> isize {
    isize::try_from(n).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees are this allocator's;
// the counting touches only a thread-local cell and two atomics.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    ///
    /// The caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    /// # Safety
    ///
    /// The caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(size(layout.size()));
        }
        p
    }

    /// # Safety
    ///
    /// The caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        note(-size(layout.size()));
    }

    /// # Safety
    ///
    /// The caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Most bytes live at once since the process started, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_follows_allocations() {
        let before = super::peak_mb();
        let big = vec![1u8; 64 << 20];
        assert!(super::peak_mb() >= before.max(64.0));
        drop(big);
        assert!(super::peak_mb() >= 64.0);
    }

    #[test]
    fn small_allocations_are_counted_within_the_slack() {
        // 96 MiB in 1 KiB pieces: each piece stays thread-local until
        // 64 KiB of them add up, but the total must still show.
        let before = super::peak_mb();
        let pieces: Vec<Box<[u8; 1024]>> = (0..96 * 1024).map(|_| Box::new([1u8; 1024])).collect();
        let slack_mb = super::SLACK as f64 / (1024.0 * 1024.0);
        assert!(super::peak_mb() >= before.max(96.0 - slack_mb));
        drop(pieces);
    }
}

//! A persistent worker pool with warm thread-local arenas.
//!
//! This is the crate's one data-parallel primitive. A [`WorkerPool`]
//! keeps its workers — and therefore their thread-local
//! [`crate::arena`] pools — alive across calls: workers are created
//! once (per `Parallelism` resolution, in practice) and serve
//! ordered-map jobs for the lifetime of the pool, so a parallel batch
//! reuses what the previous one allocated.
//!
//! Results are bit-identical to the sequential path at every thread
//! count:
//!
//! * work is assigned by **striding** (stripe `t` takes items
//!   `t, t + w, …` where `w = min(threads, items.len())`);
//! * each result lands in its item's **index-addressed slot**, so the
//!   output order — and any ordered reduction over it — never depends
//!   on scheduling;
//! * the calling thread runs stripe 0 itself, so a pool of `threads`
//!   logical workers spawns only `threads - 1` OS threads.
//!
//! # Panic semantics
//!
//! If a job panics on any stripe, the pool records the **first** panic
//! payload, sets a cancellation flag that makes the remaining stripes
//! stop before their next item, waits for every stripe to finish, and
//! then [`std::panic::resume_unwind`]s the captured payload on the
//! caller — so the original assertion message reaches the caller
//! intact, instead of a generic "worker thread panicked". Workers
//! survive the panic and keep serving later calls.
//!
//! # Interaction with the arena
//!
//! Worker arenas stay warm across batches, but some buffers migrate
//! between threads (a worker-computed gradient is merged — and its
//! buffer retired — on the caller). Those hand-off points recycle into
//! the process-wide shared arena pool (see
//! [`crate::arena::recycle_shared`]), which every thread's allocation
//! path falls back to, so a pooled steady-state training step performs
//! zero fresh arena allocations — matching the sequential path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Panic = Box<dyn std::any::Any + Send + 'static>;

/// A type-erased stripe job. The lifetime is erased to `'static` only
/// for transport to the worker threads: the dispatching call blocks
/// until every stripe has reported completion, so the reference never
/// outlives the closure it points to.
type Task = &'static (dyn Fn(usize) + Sync);

enum Msg {
    Run {
        task: Task,
        stripe: usize,
        done: mpsc::Sender<()>,
    },
    Shutdown,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// Set when a stripe panics; running stripes stop at the next item.
    cancel: AtomicBool,
    /// First panic payload of the current call, if any.
    panic: Mutex<Option<Panic>>,
}

impl Shared {
    fn record_panic(&self, payload: Panic) {
        self.cancel.store(true, SeqCst);
        let mut slot = lock_ignoring_poison(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// A mutex lock that survives poisoning: the pool's own state stays
/// valid across job panics (that is the whole point of its panic
/// handling), so a poisoned lock carries no extra information here.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_main(rx: mpsc::Receiver<Msg>, shared: Arc<Shared>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Run { task, stripe, done } => {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(stripe))) {
                    shared.record_panic(p);
                }
                // The send doubles as the completion barrier; a closed
                // receiver means the caller is already gone (process
                // teardown), which is fine.
                let _ = done.send(());
            }
            Msg::Shutdown => break,
        }
    }
}

struct Inner {
    threads: usize,
    shared: Arc<Shared>,
    /// One channel per helper thread (stripe `i + 1`). Behind a mutex
    /// only so the pool handle is `Sync`; dispatch is serialized by
    /// `run_lock` anyway.
    senders: Mutex<Vec<mpsc::Sender<Msg>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes calls. A call that cannot take it (re-entrant or
    /// concurrent use) falls back to inline sequential execution, which
    /// produces identical results.
    run_lock: Mutex<()>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        for tx in lock_ignoring_poison(&self.senders).iter() {
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in lock_ignoring_poison(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// A long-lived pool of worker threads serving ordered parallel maps.
///
/// Cloning is cheap and shares the same workers. See the module docs
/// for the execution and panic contract.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

/// Raw-pointer wrapper for the result slots and mutable items: each
/// stripe touches only its own indices, so all accesses are disjoint.
struct SendPtr<P>(*mut P);
impl<P> Copy for SendPtr<P> {}
impl<P> Clone for SendPtr<P> {
    fn clone(&self) -> Self {
        *self
    }
}
// SAFETY: the pointer targets a buffer owned by the dispatching call
// frame, which outlives every stripe; stripes write disjoint indices.
unsafe impl<P: Send> Send for SendPtr<P> {}
// SAFETY: shared access is read-only (`get` copies the pointer); all
// writes through it go to stripe-disjoint indices.
unsafe impl<P: Send> Sync for SendPtr<P> {}

impl<P> SendPtr<P> {
    /// Accessor (rather than field access) so closures capture the
    /// whole `Sync` wrapper, not the raw pointer inside it.
    fn get(self) -> *mut P {
        self.0
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` logical workers (`threads - 1` OS
    /// threads plus the calling thread; `0` is treated as `1`).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            cancel: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 1..threads {
            let (tx, rx) = mpsc::channel::<Msg>();
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("typilus-worker-{i}"))
                .spawn(move || worker_main(rx, worker_shared))
                .expect("spawn pool worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            inner: Arc::new(Inner {
                threads,
                shared,
                senders: Mutex::new(senders),
                handles: Mutex::new(handles),
                run_lock: Mutex::new(()),
            }),
        }
    }

    /// Number of logical workers (including the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Applies `f` to every item on the pool's workers and returns the
    /// results in input order. Bit-identical to the sequential loop for
    /// any thread count; see the module docs for the panic contract.
    pub fn map_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let w = self.inner.threads.min(n);
        if w <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slot_ptr = SendPtr(slots.as_mut_ptr());
        let shared = &*self.inner.shared;
        let f = &f;
        let stripe_job = move |stripe: usize| {
            let mut i = stripe;
            while i < n {
                if shared.cancel.load(SeqCst) {
                    return;
                }
                let r = f(i, &items[i]);
                // SAFETY: index i is visited by exactly one stripe
                // (i ≡ stripe mod w), so this write is disjoint from
                // every other thread's; `slots` outlives `run`.
                unsafe { *slot_ptr.get().add(i) = Some(r) };
                i += w;
            }
        };
        if !self.run(w, &stripe_job) {
            drop(slots);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        slots
            .into_iter()
            .map(|r| r.expect("every slot is filled"))
            .collect()
    }

    /// [`WorkerPool::map_ordered`] over mutable items: `f` may consume
    /// an item's contents (e.g. take ownership of a per-file tape so it
    /// is dropped — and its arena buffers retired — on the worker that
    /// allocated them). Striding, ordering and panic semantics are
    /// identical to `map_ordered`.
    pub fn map_ordered_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let w = self.inner.threads.min(n);
        if w <= 1 {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slot_ptr = SendPtr(slots.as_mut_ptr());
        let item_ptr = SendPtr(items.as_mut_ptr());
        let shared = &*self.inner.shared;
        let f = &f;
        let stripe_job = move |stripe: usize| {
            let mut i = stripe;
            while i < n {
                if shared.cancel.load(SeqCst) {
                    return;
                }
                // SAFETY: stripe-disjoint for the same reason as the
                // result slots — index i belongs to exactly one stripe,
                // so no two threads alias this element.
                let r = f(i, unsafe { &mut *item_ptr.get().add(i) });
                // SAFETY: same disjointness; `slots` outlives `run`.
                unsafe { *slot_ptr.get().add(i) = Some(r) };
                i += w;
            }
        };
        if !self.run(w, &stripe_job) {
            drop(slots);
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        slots
            .into_iter()
            .map(|r| r.expect("every slot is filled"))
            .collect()
    }

    /// Dispatches `job` across `w` stripes (helpers take 1..w, the
    /// caller runs stripe 0), blocks until all stripes finish, and
    /// re-raises the first captured panic. Returns `false` without
    /// running anything when the pool is busy (re-entrant call) — the
    /// caller then falls back to inline execution.
    fn run(&self, w: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let inner = &self.inner;
        let Ok(_guard) = inner.run_lock.try_lock() else {
            return false;
        };
        inner.shared.cancel.store(false, SeqCst);
        *lock_ignoring_poison(&inner.shared.panic) = None;
        // SAFETY: the reference is only shared with worker threads that
        // signal `done` before this function returns, and we block on
        // every signal below — the erased lifetime cannot be outlived.
        let task: Task = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let (done_tx, done_rx) = mpsc::channel::<()>();
        {
            let senders = lock_ignoring_poison(&inner.senders);
            for stripe in 1..w {
                senders[stripe - 1]
                    .send(Msg::Run {
                        task,
                        stripe,
                        done: done_tx.clone(),
                    })
                    .expect("pool worker thread is alive");
            }
        }
        drop(done_tx);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(0))) {
            inner.shared.record_panic(p);
        }
        // Completion barrier: one signal per helper stripe.
        for _ in 1..w {
            done_rx.recv().expect("pool worker thread is alive");
        }
        if let Some(p) = lock_ignoring_poison(&inner.shared.panic).take() {
            drop(_guard);
            resume_unwind(p);
        }
        true
    }
}

/// A lazily created, never-persisted [`WorkerPool`] slot, for embedding
/// in serializable structs (a trained system carries its pool without
/// writing threads to disk). Serializes as a unit — zero bytes in the
/// project's binary format — and deserializes to an empty cell.
///
/// Cloning an initialized cell shares the same pool.
#[derive(Default)]
pub struct PoolCell(OnceLock<WorkerPool>);

impl PoolCell {
    /// An empty cell; the pool is created on first use.
    pub fn new() -> PoolCell {
        PoolCell::default()
    }

    /// A cell pre-populated with `pool`.
    pub fn with(pool: WorkerPool) -> PoolCell {
        let cell = OnceLock::new();
        let _ = cell.set(pool);
        PoolCell(cell)
    }

    /// The cell's pool, created with `threads()` workers on first use.
    pub fn get_or_create(&self, threads: impl FnOnce() -> usize) -> &WorkerPool {
        self.0.get_or_init(|| WorkerPool::new(threads()))
    }
}

impl Clone for PoolCell {
    fn clone(&self) -> PoolCell {
        match self.0.get() {
            Some(pool) => PoolCell::with(pool.clone()),
            None => PoolCell::new(),
        }
    }
}

impl std::fmt::Debug for PoolCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(pool) => write!(f, "PoolCell({pool:?})"),
            None => write!(f, "PoolCell(uninit)"),
        }
    }
}

impl serde::Serialize for PoolCell {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> serde::Deserialize<'de> for PoolCell {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;
        impl<'de> serde::de::Visitor<'de> for UnitVisitor {
            type Value = PoolCell;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a unit pool cell")
            }
            fn visit_unit<E: serde::de::Error>(self) -> Result<PoolCell, E> {
                Ok(PoolCell::new())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<usize> = (0..53).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.map_ordered(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reuse_across_many_calls() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        for round in 0..20u64 {
            let out = pool.map_ordered(&items, |_, &x| x + round);
            assert_eq!(out[99], 99 + round);
        }
    }

    #[test]
    fn float_reduction_is_thread_count_invariant() {
        let items: Vec<f32> = (0..200).map(|i| (i as f32).cos() * 1e-3).collect();
        let reduce = |threads: usize| -> f32 {
            let pool = WorkerPool::new(threads);
            pool.map_ordered(&items, |_, &x| x * x + 0.25).iter().sum()
        };
        let one = reduce(1);
        for threads in [2, 4, 7] {
            assert_eq!(one.to_bits(), reduce(threads).to_bits());
        }
    }

    #[test]
    fn panic_payload_reaches_the_caller() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..40).collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_ordered(&items, |i, _| {
                assert!(i != 17, "stripe assertion failed on item {i}");
                i
            })
        }))
        .expect_err("the panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("stripe assertion failed on item 17"),
            "original payload lost: {msg:?}"
        );
        // The pool survives and keeps serving.
        let out = pool.map_ordered(&items, |_, &x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn caller_stripe_panic_also_propagates() {
        // Stripe 0 runs on the calling thread; its payload must take the
        // same path as a worker's.
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..8).collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_ordered(&items, |i, _| {
                assert!(i != 0, "caller stripe boom");
                i
            })
        }))
        .expect_err("the panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("caller stripe boom"),
            "original payload lost: {msg:?}"
        );
    }

    #[test]
    fn map_ordered_mut_consumes_items() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<Option<String>> = (0..31).map(|i| Some(format!("item-{i}"))).collect();
        let out = pool.map_ordered_mut(&mut items, |i, slot| {
            let taken = slot.take().expect("each slot visited once");
            format!("{taken}!{i}")
        });
        assert!(items.iter().all(Option::is_none));
        assert_eq!(out[30], "item-30!30");
    }

    #[test]
    fn reentrant_use_falls_back_to_inline() {
        let pool = WorkerPool::new(4);
        let outer: Vec<usize> = (0..6).collect();
        let inner: Vec<usize> = (0..5).collect();
        let out = pool.map_ordered(&outer, |_, &x| {
            // A nested call would deadlock a naive implementation; the
            // pool detects it and runs inline.
            let nested: usize = pool.map_ordered(&inner, |_, &y| y).iter().sum();
            x * 100 + nested
        });
        assert_eq!(out, outer.iter().map(|x| x * 100 + 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = WorkerPool::new(4);
        let out: Vec<u32> = pool.map_ordered(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        let out = pool.map_ordered(&[7u32], |_, &x| x * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn pool_cell_round_trips_as_unit() {
        let cell = PoolCell::with(WorkerPool::new(2));
        assert_eq!(cell.get_or_create(|| 9).threads(), 2, "pre-set pool wins");
        let empty = PoolCell::new();
        assert_eq!(empty.get_or_create(|| 3).threads(), 3, "lazy creation");
    }
}

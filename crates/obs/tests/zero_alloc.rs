//! Proves the "zero-cost when disabled" contract with an allocator that
//! counts: with tracing off, opening/dropping spans and bumping counters
//! must perform zero heap allocations. The same counting allocator also
//! demonstrates feeding the `alloc.*` metrics when tracing is on.
//!
//! Integration test (own process) so the `#[global_allocator]` cannot
//! interfere with the unit-test binary. Allocations are counted only on
//! the measuring thread, so libtest's own threads never land in a
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Both tests toggle the process-global tracing switch; serialise them.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct CountingAllocator;

thread_local! {
    /// Allocations made on this thread inside a measured window; `None`
    /// outside one. `const`-initialised and drop-free, so reading it from
    /// the allocator never allocates.
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}
static BYTES: AtomicU64 = AtomicU64::new(0);
static FEED_METRICS: AtomicBool = AtomicBool::new(false);

// SAFETY: delegates every operation to the system allocator unchanged;
// only counters are added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down.
        let _ = MEASURED.try_with(|m| {
            if let Some(n) = m.get() {
                m.set(Some(n + 1));
            }
        });
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        if FEED_METRICS.load(Ordering::Relaxed) {
            nvpg_obs::metrics::counters::ALLOC_COUNT.add(1);
            nvpg_obs::metrics::counters::ALLOC_BYTES.add(layout.size() as u64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns the number of allocations it made on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    MEASURED.with(|m| m.set(Some(0)));
    f();
    MEASURED
        .with(Cell::take)
        .expect("measured window still open")
}

#[test]
fn allocations_inside_the_window_are_counted() {
    let allocs = allocations_in(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    assert_eq!(allocs, 1, "a deliberate allocation must be counted");
}

#[test]
fn disabled_tracing_hot_path_never_allocates() {
    let _l = lock();
    nvpg_obs::reset_for_test();

    // Warm up thread-locals and lazies outside the measured region.
    {
        let _g = nvpg_obs::span_labeled("solve", "warmup");
        nvpg_obs::metrics::counters::NEWTON_SOLVES.add(1);
        let _ = nvpg_obs::current_span();
    }

    let allocs = allocations_in(|| {
        for _ in 0..10_000 {
            let g = nvpg_obs::span_labeled("solve", "transient");
            nvpg_obs::metrics::counters::NEWTON_ITERATIONS.add(3);
            nvpg_obs::metrics::counters::DEVICE_EVALS.add(40);
            nvpg_obs::metrics::gauges::MAX_LTE_RATIO.max(0.7);
            let parent = nvpg_obs::current_span();
            nvpg_obs::with_parent(parent, || {
                let inner = nvpg_obs::span("inner");
                drop(inner);
            });
            drop(g);
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled span/counter operations must not allocate"
    );
    assert_eq!(nvpg_obs::metrics::counters::NEWTON_ITERATIONS.get(), 0);
    assert!(nvpg_obs::drain_events().is_empty());
}

#[test]
fn counting_allocator_can_feed_alloc_metrics_when_enabled() {
    let _l = lock();
    nvpg_obs::reset_for_test();
    nvpg_obs::enable();
    FEED_METRICS.store(true, Ordering::Relaxed);
    // A labelled span allocates its label String while enabled; that
    // traffic must show up in the alloc.* counters.
    {
        let _g = nvpg_obs::span_labeled("solve", "a label long enough to heap-allocate");
    }
    FEED_METRICS.store(false, Ordering::Relaxed);
    let snap = nvpg_obs::metrics::snapshot();
    assert!(snap.counter("alloc.count").unwrap() > 0);
    assert!(snap.counter("alloc.bytes").unwrap() > 0);
    nvpg_obs::reset_for_test();
}

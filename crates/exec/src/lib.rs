//! Bounded work-pool primitives for the experiment engine.
//!
//! Everything in this workspace that regenerates paper figures is an
//! embarrassingly-parallel collection of independent solves: sweep points
//! within a figure, figures within a regeneration run, samples within a
//! Monte-Carlo study. This crate provides the one abstraction they all
//! share — an order-preserving parallel map over a bounded pool of
//! `std::thread::scope` workers — with **no external dependencies** and
//! **deterministic results**: output element `i` is always the result of
//! input element `i`, regardless of worker count or scheduling, so CSV
//! and figure output is byte-identical at any `--jobs` level.
//!
//! Work distribution is a single shared atomic cursor (work stealing by
//! index): workers pull the next unclaimed index until the input is
//! exhausted, which load-balances wildly uneven items (a 4096-row BET
//! sweep next to a 10 µs transient) without any channel machinery.
//!
//! # Examples
//!
//! ```
//! let squares = nvpg_exec::par_map(4, &[1, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let sums: Result<Vec<i32>, String> =
//!     nvpg_exec::par_try_map(2, &[1, 2, 3], |i, &x| Ok(x + i as i32));
//! assert_eq!(sums.unwrap(), vec![1, 3, 5]);
//! ```

pub mod queue;

pub use queue::{FairQueue, PushError};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The process-wide default worker count, settable once by the CLI layer
/// (`--jobs`); zero means "use [`available_parallelism`]".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Number of workers the machine supports (`std::thread::available_parallelism`,
/// falling back to 1 where unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the process-wide default worker count used by [`default_jobs`]
/// (and thus by callers passing `jobs = 0`). `0` restores the hardware
/// default.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective default worker count: the value set by
/// [`set_default_jobs`], or the hardware parallelism when unset.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// Resolves a requested job count: `0` means the process default, and the
/// pool never spawns more workers than there are items.
fn effective_jobs(jobs: usize, items: usize) -> usize {
    let j = if jobs == 0 { default_jobs() } else { jobs };
    j.clamp(1, items.max(1))
}

/// Applies `f` to every item on a bounded pool of scoped threads and
/// returns the results in input order.
///
/// `f` receives `(index, &item)`. With `jobs == 0` the process default
/// ([`default_jobs`]) is used; with `jobs == 1` (or a single item) the
/// map runs inline on the caller's thread with no spawning at all.
///
/// Workers inherit the caller's observability span and no other
/// thread-local state: a closure that must run under the caller's
/// cancellation token or fault plan installs them itself, per item.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slot_refs = Mutex::new(&mut slots);
    let cursor = AtomicUsize::new(0);
    // Workers inherit the spawner's observability span, so solves running
    // on pool threads attribute to the experiment that fanned them out.
    let parent_span = nvpg_obs::current_span();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                nvpg_obs::with_parent(parent_span, || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                });
                let mut slots = slot_refs.lock().expect("result mutex");
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            }));
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Outcome of one item under [`par_map_settled`].
///
/// Unlike [`par_try_map`], no outcome aborts the run: a panicking or
/// erroring job settles into its slot and every other item still
/// completes — the fail-soft contract the experiment engine builds its
/// partial figures and run reports on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Settled<R, E> {
    /// The job completed normally.
    Ok(R),
    /// The job returned an error.
    Err(E),
    /// The job panicked; the payload is the panic message when it was a
    /// string, or a placeholder otherwise.
    Panicked(String),
}

/// Fail-soft variant of [`par_map`]: every item settles independently.
///
/// Each job runs under `catch_unwind`, so one diverging or panicking
/// item cannot take down the run — it settles as [`Settled::Panicked`]
/// (or [`Settled::Err`] for an ordinary error) while all other items
/// complete normally. Output order matches input order at any job count.
pub fn par_map_settled<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Vec<Settled<R, E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    par_map(jobs, items, |i, item| {
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(Ok(r)) => Settled::Ok(r),
            Ok(Err(e)) => Settled::Err(e),
            Err(payload) => Settled::Panicked(panic_message(payload.as_ref())),
        }
    })
}

/// Extracts a readable message from a panic payload (reused by the
/// serving layer's fail-soft request path).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Fallible variant of [`par_map`]: applies `f` to every item and
/// collects `Vec<R>` in input order, or returns the error of the
/// **lowest-indexed** failing item (deterministic regardless of worker
/// scheduling). All items are attempted either way — workers don't
/// short-circuit, matching the serial semantics of a plain loop per item.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn par_try_map<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = par_map(jobs, items, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn preserves_order_at_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = par_map(jobs, &items, |_, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_input() {
        let got: Vec<i32> = par_map(4, &[] as &[i32], |_, &x| x);
        assert!(got.is_empty());
        let tried: Result<Vec<i32>, ()> = par_try_map(4, &[] as &[i32], |_, &x| Ok(x));
        assert_eq!(tried.unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..100).collect();
        let got = par_map(7, &items, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn all_workers_participate_on_large_input() {
        // Not a strict guarantee (scheduling), but with 10k items and a
        // tiny closure every spawned worker claims at least one index in
        // practice; what we *assert* is total coverage.
        let counter = AtomicU32::new(0);
        let items: Vec<u32> = (0..10_000).collect();
        par_map(8, &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let items: Vec<u32> = (0..50).collect();
        for jobs in [1, 4] {
            let r: Result<Vec<u32>, u32> =
                par_try_map(
                    jobs,
                    &items,
                    |_, &x| {
                        if x % 7 == 3 {
                            Err(x)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r.unwrap_err(), 3, "jobs = {jobs}");
        }
    }

    #[test]
    fn zero_jobs_uses_default() {
        set_default_jobs(2);
        assert_eq!(default_jobs(), 2);
        let got = par_map(0, &[1, 2, 3], |_, &x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn settled_isolates_panics_and_errors() {
        let items: Vec<u32> = (0..20).collect();
        for jobs in [1, 4] {
            let got: Vec<Settled<u32, String>> = par_map_settled(jobs, &items, |_, &x| {
                if x == 3 {
                    panic!("boom at {x}");
                }
                if x % 7 == 5 {
                    return Err(format!("bad {x}"));
                }
                Ok(x * 2)
            });
            assert_eq!(got.len(), items.len(), "jobs = {jobs}");
            assert_eq!(got[0], Settled::Ok(0));
            assert_eq!(got[3], Settled::Panicked("boom at 3".to_owned()));
            assert_eq!(got[5], Settled::Err("bad 5".to_owned()));
            assert_eq!(got[12], Settled::Err("bad 12".to_owned()));
            assert_eq!(got[19], Settled::Err("bad 19".to_owned()));
            assert_eq!(got[18], Settled::Ok(36));
        }
    }

    #[test]
    fn settled_is_identical_across_job_counts() {
        let items: Vec<u32> = (0..64).collect();
        let run = |jobs| {
            par_map_settled::<_, _, String, _>(jobs, &items, |_, &x| {
                if x % 5 == 0 {
                    panic!("p{x}");
                }
                Ok(x + 1)
            })
        };
        let base = run(1);
        for jobs in [2, 3, 8] {
            assert_eq!(run(jobs), base, "jobs = {jobs}");
        }
    }

    #[test]
    fn workers_inherit_the_spawners_span() {
        // Serialised against other obs users by the fact that this is the
        // only test in this crate touching the global tracing switch.
        nvpg_obs::reset_for_test();
        nvpg_obs::enable();
        let items: Vec<u32> = (0..16).collect();
        let root = nvpg_obs::span_labeled("experiment", "pool-test");
        let root_id = root.id();
        par_map(4, &items, |_, _| {
            let g = nvpg_obs::span("solve");
            drop(g);
        });
        drop(root);
        let events = nvpg_obs::drain_events();
        nvpg_obs::reset_for_test();
        assert_eq!(events.len(), items.len() + 1);
        for ev in events.iter().filter(|e| e.name == "solve") {
            assert_eq!(
                ev.parent, root_id,
                "pool workers must parent to the spawner"
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3, 4], |_, &x| {
                if x == 3 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}

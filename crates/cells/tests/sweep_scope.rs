//! A sweep's points run under the caller's cancellation token and fault
//! plan at every pool width, so a deadline reaches fanned-out solves and
//! a fault schedule depends on the point, never on the worker it ran on.
//!
//! The pool's default width is process-wide, so these tests live in their
//! own binary and each sets it under one lock.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use nvpg_cells::characterize::{store_current_vs_vsr, vvdd_vs_nfsw};
use nvpg_cells::design::CellDesign;
use nvpg_circuit::cancel::{with_token, CancelToken};
use nvpg_circuit::{with_fault_plan, CircuitError, FaultKind, FaultPlan};
use nvpg_units::linspace;

/// The Fig. 4 power-switch fin counts.
const FINS: [u32; 5] = [1, 2, 4, 7, 10];

/// Serialises the tests and sets the pool's default width for one test.
fn pool(jobs: usize) -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nvpg_exec::set_default_jobs(jobs);
    guard
}

#[test]
fn a_cancelled_token_reaches_every_sweep_point() {
    let _pool = pool(2);
    let token = CancelToken::new();
    token.cancel("caller gave up");
    let result = with_token(&token, || vvdd_vs_nfsw(&CellDesign::table1(), &FINS));
    assert!(
        matches!(&result, Err(CircuitError::Cancelled { reason, .. }) if reason == "caller gave up"),
        "{result:?}"
    );
}

#[test]
fn an_expired_deadline_reaches_every_sweep_point() {
    let _pool = pool(2);
    let token = CancelToken::with_deadline(Duration::ZERO);
    let v_sr = linspace(0.3, 0.9, 25);
    let result = with_token(&token, || {
        store_current_vs_vsr(&CellDesign::table1(), &v_sr)
    });
    assert!(
        matches!(&result, Err(CircuitError::Cancelled { reason, .. }) if reason == "deadline exceeded"),
        "{result:?}"
    );
}

#[test]
fn a_fault_plan_reaches_every_sweep_point() {
    let _pool = pool(2);
    let plan = FaultPlan::always(FaultKind::SingularMatrix);
    let result = with_fault_plan(&plan, || vvdd_vs_nfsw(&CellDesign::table1(), &FINS));
    assert!(result.is_err(), "{result:?}");
}

/// Each point counts its own solves from zero, so a plan that fires past
/// the solves of any one point never fires, at any pool width; on a
/// counter shared across points it would fire inside the sweep.
#[test]
fn each_sweep_point_counts_its_own_solves() {
    let design = CellDesign::table1();
    let clean = {
        let _pool = pool(1);
        vvdd_vs_nfsw(&design, &FINS).expect("fault-free sweep")
    };
    let plan = FaultPlan::at_solves(FaultKind::SingularMatrix, &[6, 7, 8, 9]);
    for jobs in [1, 2, 3] {
        let _pool = pool(jobs);
        let faulted = with_fault_plan(&plan, || vvdd_vs_nfsw(&design, &FINS));
        assert_eq!(faulted.as_ref(), Ok(&clean), "jobs = {jobs}");
    }
}

/// A random schedule breaks the same points at every pool width.
#[test]
fn a_fault_schedule_is_the_same_at_every_pool_width() {
    let design = CellDesign::table1();
    let clean = {
        let _pool = pool(1);
        vvdd_vs_nfsw(&design, &FINS)
    };
    let plan = FaultPlan::random(0x5EED, 0.3, &[FaultKind::SingularMatrix]);
    let run = |jobs| {
        let _pool = pool(jobs);
        with_fault_plan(&plan, || vvdd_vs_nfsw(&design, &FINS))
    };
    let serial = run(1);
    assert_ne!(serial, clean, "the plan fired nowhere");
    for jobs in [2, 3] {
        assert_eq!(run(jobs), serial, "jobs = {jobs}");
    }
}

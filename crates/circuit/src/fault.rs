//! Deterministic, seed-driven fault injection for the analysis drivers.
//!
//! Every failure path in [`crate::error::CircuitError`] must be
//! exercisable on demand: a production sweep that only ever sees healthy
//! solves has untested error handling exactly where it matters most. This
//! module provides a [`FaultPlan`] that the DC and transient drivers
//! consult once per Newton solve; when a solve is selected, the chosen
//! [`FaultKind`] corrupts the solve at its natural site:
//!
//! * [`FaultKind::NanResidual`] — poisons the assembled residual with a
//!   NaN, driving the solver's non-finite bail-out.
//! * [`FaultKind::SingularMatrix`] — zeroes the assembled Jacobian,
//!   driving the singular-pivot path in the LU factorisation.
//! * [`FaultKind::RejectStep`] — makes the analysis driver treat a
//!   converged solve as failed, driving step rejection and the rescue
//!   ladder.
//! * [`FaultKind::Panic`] — panics mid-solve, driving the per-job
//!   `catch_unwind` isolation in `nvpg-exec`.
//! * [`FaultKind::Stall`] — sleeps for a fixed duration before the solve,
//!   driving the deadline and stalled-progress watchdog paths without
//!   changing the numerical outcome.
//!
//! Selection is a pure function of `(seed, solve index)` via SplitMix64,
//! so a plan fires identically on every run and at every worker count.
//! Plans are installed per thread with [`with_fault_plan`], and pool
//! workers do not inherit them. Every fan-out therefore re-installs the
//! plan per point, re-keyed by the point index ([`FaultPlan::for_point`]),
//! inside the per-point closure: `nvpg_cells::characterize::sweep` does it
//! for every sweep from the plan installed by its caller
//! ([`current_plan`]), `run_figures_settled` per figure and
//! `run_variation_report` per sample. Each point counts its own solves from
//! zero, so a schedule depends only on (seed, figure, point) and never on
//! the thread a point ran on.
//!
//! # Examples
//!
//! ```
//! use nvpg_circuit::fault::{with_fault_plan, FaultKind, FaultPlan};
//! use nvpg_circuit::{dc, Circuit, CircuitError};
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! ckt.vsource("v1", a, Circuit::GROUND, 1.0).unwrap();
//! ckt.resistor("r1", a, Circuit::GROUND, 1e3).unwrap();
//! // Poison every solve: even this trivial divider must fail.
//! let plan = FaultPlan::always(FaultKind::SingularMatrix);
//! let err = with_fault_plan(&plan, || {
//!     dc::operating_point(&mut ckt, &Default::default())
//! })
//! .unwrap_err();
//! assert!(matches!(err, CircuitError::DcNonConvergence { .. }));
//! ```

use std::cell::RefCell;
use std::time::Duration;

/// What an injected fault does to the solve it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Poison the assembled residual with a NaN.
    NanResidual,
    /// Zero the assembled Jacobian (structurally singular).
    SingularMatrix,
    /// Treat a converged solve as failed at the driver level.
    RejectStep,
    /// Panic mid-solve (exercises worker isolation).
    Panic,
    /// Sleep for the given duration before the solve runs (exercises
    /// deadline expiry and the stalled-progress watchdog). Unlike the
    /// corruption kinds, a stall leaves the numerical outcome untouched —
    /// the solve merely arrives late — so stalled runs stay jobs-invariant.
    Stall(Duration),
}

impl FaultKind {
    /// Every *corruption* kind, in selection order. [`FaultKind::Stall`]
    /// is deliberately excluded: it changes only timing, never outcomes,
    /// and carries a parameter, so random sweeps don't select it — tests
    /// schedule it explicitly via [`FaultPlan::at_solves`].
    pub const ALL: [FaultKind; 4] = [
        FaultKind::NanResidual,
        FaultKind::SingularMatrix,
        FaultKind::RejectStep,
        FaultKind::Panic,
    ];
}

/// A deterministic schedule of faults over the Newton solves of a scope.
///
/// The plan decides per solve index; it carries no interior mutability, so
/// sharing one plan across points is safe. Two constructors cover the two
/// use cases: [`FaultPlan::at_solves`] for unit tests that need a fault at
/// an exact site, and [`FaultPlan::random`] for statistical injection in
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-solve firing probability in `[0, 1]`.
    rate: f64,
    /// Kinds eligible for random selection.
    kinds: Vec<FaultKind>,
    /// Explicit `(solve index, kind)` triggers (checked before `rate`).
    at: Vec<(u64, FaultKind)>,
}

/// One SplitMix64 step (kept local: `nvpg-circuit` must not depend on the
/// RNG module's statistical machinery for a 3-line hash).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that fires `kind` at exactly the listed solve indices
    /// (0-based, in installation scope).
    pub fn at_solves(kind: FaultKind, solves: &[u64]) -> Self {
        FaultPlan {
            seed: 0,
            rate: 0.0,
            kinds: vec![kind],
            at: solves.iter().map(|&s| (s, kind)).collect(),
        }
    }

    /// A plan that fires on every solve.
    pub fn always(kind: FaultKind) -> Self {
        FaultPlan {
            seed: 0,
            rate: 1.0,
            kinds: vec![kind],
            at: Vec::new(),
        }
    }

    /// A plan that fires on each solve with probability `rate`, choosing
    /// uniformly among `kinds`. Decisions are a pure hash of
    /// `(seed, solve index)`.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `rate` is outside `[0, 1]`.
    pub fn random(seed: u64, rate: f64, kinds: &[FaultKind]) -> Self {
        assert!(!kinds.is_empty(), "fault plan needs at least one kind");
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        FaultPlan {
            seed,
            rate,
            kinds: kinds.to_vec(),
            at: Vec::new(),
        }
    }

    /// Derives the plan for one sweep/Monte-Carlo point: same rate and
    /// kinds, seed re-keyed by the point index so each point has an
    /// independent, reproducible schedule.
    #[must_use]
    pub fn for_point(&self, point: u64) -> Self {
        FaultPlan {
            seed: splitmix64(self.seed ^ point.wrapping_mul(0xa076_1d64_78bd_642f)),
            ..self.clone()
        }
    }

    /// The action (if any) for the `solve`-th Newton solve under this
    /// plan. Pure: identical inputs give identical answers.
    pub fn action_at(&self, solve: u64) -> Option<FaultKind> {
        if let Some(&(_, kind)) = self.at.iter().find(|&&(s, _)| s == solve) {
            return Some(kind);
        }
        if self.rate <= 0.0 {
            return None;
        }
        let h = splitmix64(self.seed ^ solve);
        // Map the top 53 bits to [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.rate {
            let pick = splitmix64(h) as usize % self.kinds.len();
            Some(self.kinds[pick])
        } else {
            None
        }
    }
}

/// Thread-local injection scope: the installed plan plus the solve
/// counter and fire log.
struct ActiveFaults {
    plan: FaultPlan,
    solves: u64,
    fired: Vec<(u64, FaultKind)>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveFaults>> = const { RefCell::new(None) };
}

/// Runs `f` with `plan` installed for the current thread, returning `f`'s
/// result plus the log of `(solve index, kind)` faults that fired.
///
/// Nested installations replace the outer plan for their extent and
/// restore it afterwards; the log holds only the faults fired in this
/// scope, not those of nested scopes. The installation is per-thread: a
/// fan-out re-installs the plan inside each per-item closure.
pub fn with_fault_plan_logged<R>(
    plan: &FaultPlan,
    f: impl FnOnce() -> R,
) -> (R, Vec<(u64, FaultKind)>) {
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveFaults {
            plan: plan.clone(),
            solves: 0,
            fired: Vec::new(),
        })
    });
    // Restore the previous scope even if `f` panics (injected panics are
    // expected to unwind through here into a `catch_unwind`).
    struct Restore(Option<ActiveFaults>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    let result = f();
    let log = ACTIVE.with(|a| a.borrow_mut().take().map(|s| s.fired).unwrap_or_default());
    (result, log)
}

/// [`with_fault_plan_logged`] without the fire log.
pub fn with_fault_plan<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    with_fault_plan_logged(plan, f).0
}

/// The plan installed on the current thread, if any: what a fan-out
/// re-keys per point ([`FaultPlan::for_point`]) for its workers.
pub fn current_plan() -> Option<FaultPlan> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|s| s.plan.clone()))
}

/// Called by the analysis drivers before each Newton solve: advances the
/// thread's solve counter and returns the fault (if any) scheduled for
/// this solve. `None` when no plan is installed — the zero-cost common
/// case.
pub(crate) fn begin_solve() -> Option<FaultKind> {
    ACTIVE.with(|a| {
        let mut guard = a.borrow_mut();
        let state = guard.as_mut()?;
        let idx = state.solves;
        state.solves += 1;
        let action = state.plan.action_at(idx);
        if let Some(kind) = action {
            state.fired.push((idx, kind));
        }
        action
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_solves_fires_exactly_there() {
        let plan = FaultPlan::at_solves(FaultKind::NanResidual, &[0, 3]);
        assert_eq!(plan.action_at(0), Some(FaultKind::NanResidual));
        assert_eq!(plan.action_at(1), None);
        assert_eq!(plan.action_at(3), Some(FaultKind::NanResidual));
        assert_eq!(plan.action_at(4), None);
    }

    #[test]
    fn random_plan_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::random(42, 0.25, &FaultKind::ALL);
        let a: Vec<_> = (0..1000).map(|s| plan.action_at(s)).collect();
        let b: Vec<_> = (0..1000).map(|s| plan.action_at(s)).collect();
        assert_eq!(a, b, "pure function of (seed, solve)");
        let fires = a.iter().filter(|x| x.is_some()).count();
        assert!((150..350).contains(&fires), "≈25% fire rate, got {fires}");
        // A different seed gives a different schedule.
        let other = FaultPlan::random(43, 0.25, &FaultKind::ALL);
        assert_ne!(a, (0..1000).map(|s| other.action_at(s)).collect::<Vec<_>>());
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let never = FaultPlan::random(1, 0.0, &[FaultKind::Panic]);
        assert!((0..100).all(|s| never.action_at(s).is_none()));
        let always = FaultPlan::always(FaultKind::RejectStep);
        assert!((0..100).all(|s| always.action_at(s) == Some(FaultKind::RejectStep)));
    }

    #[test]
    fn for_point_rekeys_the_schedule() {
        let base = FaultPlan::random(7, 0.5, &FaultKind::ALL);
        let p0 = base.for_point(0);
        let p1 = base.for_point(1);
        let s0: Vec<_> = (0..200).map(|s| p0.action_at(s)).collect();
        let s1: Vec<_> = (0..200).map(|s| p1.action_at(s)).collect();
        assert_ne!(s0, s1);
        // And re-deriving the same point reproduces the schedule.
        assert_eq!(
            s0,
            (0..200)
                .map(|s| base.for_point(0).action_at(s))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn scope_counts_solves_and_logs_fires() {
        let plan = FaultPlan::at_solves(FaultKind::SingularMatrix, &[1]);
        let ((), log) = with_fault_plan_logged(&plan, || {
            assert_eq!(begin_solve(), None);
            assert_eq!(begin_solve(), Some(FaultKind::SingularMatrix));
            assert_eq!(begin_solve(), None);
        });
        assert_eq!(log, vec![(1, FaultKind::SingularMatrix)]);
        // Outside any scope, solves are unfaulted.
        assert_eq!(begin_solve(), None);
    }

    #[test]
    fn nested_scopes_restore_the_outer_plan() {
        let outer = FaultPlan::always(FaultKind::RejectStep);
        let inner = FaultPlan::always(FaultKind::NanResidual);
        with_fault_plan(&outer, || {
            assert_eq!(begin_solve(), Some(FaultKind::RejectStep));
            with_fault_plan(&inner, || {
                assert_eq!(current_plan(), Some(inner.clone()));
                assert_eq!(begin_solve(), Some(FaultKind::NanResidual));
            });
            assert_eq!(current_plan(), Some(outer.clone()));
            assert_eq!(begin_solve(), Some(FaultKind::RejectStep));
        });
        assert_eq!(current_plan(), None);
    }
}

//! Observability acceptance tests at the experiment-orchestration level:
//! the metrics registry must be invariant under the worker count, and its
//! counters must reconcile exactly against the `StepStats` the solvers
//! return.
//!
//! The tracing switch and registry are process-global, so every test here
//! takes a shared lock and resets the observability state up front.

use std::sync::{Mutex, MutexGuard, OnceLock};

use nvpg_cells::array::checkerboard;
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_core::variation::{run_variation_report, VariationSpec};
use nvpg_core::{run_sequence, Architecture, BenchmarkParams, SequenceParams};

/// Serialises tests that flip the process-global tracing switch.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_spec() -> VariationSpec {
    VariationSpec {
        sigma_vth: 5e-3,
        sigma_tmr_rel: 0.02,
        sigma_jc_rel: 0.02,
        samples: 3,
        seed: 7,
    }
}

#[test]
fn metrics_are_invariant_under_the_job_count() {
    let _guard = lock();
    let base = CellDesign::table1();
    let spec = small_spec();
    let params = BenchmarkParams::fig7_default();

    let mut snapshots = Vec::new();
    let mut reports = Vec::new();
    for jobs in [1, 4] {
        nvpg_obs::reset_for_test();
        nvpg_obs::enable();
        let (outcome, report) = run_variation_report(&base, &spec, &params, jobs, None);
        nvpg_obs::disable();
        assert_eq!(outcome.bets.len(), 3, "all samples must succeed");
        snapshots.push(nvpg_obs::metrics::snapshot());
        reports.push(report);
    }

    // Same work ⇒ same counters, whether one worker did it or four.
    assert_eq!(
        snapshots[0], snapshots[1],
        "metrics must not depend on --jobs"
    );
    assert!(
        snapshots[0].counter("solve.transient_runs").unwrap() > 0,
        "the run must actually have counted something"
    );
    // The fail-soft reports are byte-identical too (they carry no
    // metrics snapshot unless one is attached explicitly).
    assert_eq!(reports[0].render(), reports[1].render());
}

#[test]
fn counters_reconcile_with_returned_step_stats() {
    let _guard = lock();
    nvpg_obs::reset_for_test();
    nvpg_obs::enable();
    let params = SequenceParams {
        n_rw: 1,
        t_sl: 20e-9,
        t_sd: 50e-9,
    };
    let run = run_sequence(&CellDesign::table1(), Architecture::Nvpg, &params).unwrap();
    nvpg_obs::disable();
    let snap = nvpg_obs::metrics::snapshot();

    // Every phase is exactly one recorded transient, and the registry is
    // fed from the same aggregated StepStats the phases return — the two
    // views must agree exactly, not approximately.
    assert_eq!(
        snap.counter("solve.transient_runs").unwrap(),
        run.phases.len() as u64
    );
    for (name, expected) in [
        ("solve.accepted_steps", run.steps.accepted_steps),
        ("solve.rejected_newton", run.steps.rejected_newton),
        ("solve.rejected_lte", run.steps.rejected_lte),
        ("solve.newton_iterations", run.steps.newton_iterations),
        ("solve.newton_solves", run.steps.newton_solves),
        (
            "solve.lu_refactorizations",
            run.steps.jacobian_refactorizations,
        ),
        ("solve.lu_reuses", run.steps.refactorizations_avoided),
        ("solve.device_evals", run.steps.device_evals),
        (
            "solve.device_deferred_evals",
            run.steps.device_deferred_evals,
        ),
        ("solve.device_bypasses", run.steps.device_bypasses),
    ] {
        assert_eq!(
            snap.counter(name).unwrap(),
            expected,
            "counter {name} must reconcile with the returned StepStats"
        );
    }
    assert!(snap.counter("solve.accepted_steps").unwrap() > 100);
}

#[test]
fn spans_nest_experiment_over_sequence_over_solve() {
    let _guard = lock();
    nvpg_obs::reset_for_test();
    nvpg_obs::enable();
    let params = SequenceParams {
        n_rw: 1,
        t_sl: 0.0,
        t_sd: 0.0,
    };
    {
        let _root = nvpg_obs::span("experiment");
        run_sequence(&CellDesign::table1(), Architecture::Osr, &params).unwrap();
    }
    nvpg_obs::disable();
    let events = nvpg_obs::drain_events();

    let experiment = events
        .iter()
        .find(|e| e.name == "experiment")
        .expect("experiment span recorded");
    let sequence = events
        .iter()
        .find(|e| e.name == "sequence")
        .expect("sequence span recorded");
    assert_eq!(sequence.parent, experiment.id);
    assert_eq!(sequence.label, "OSR");
    let transients: Vec<_> = events
        .iter()
        .filter(|e| e.name == "solve" && e.label == "transient")
        .collect();
    assert!(!transients.is_empty(), "phase transients emit solve spans");
    for solve in &transients {
        // Transient solves hang off a phase span, which hangs off the
        // sequence. (The bench-setup DC solve parents to the sequence
        // directly — it runs before any phase begins.)
        assert_ne!(solve.parent, 0, "solve spans are nested");
        let phase = events
            .iter()
            .find(|e| e.id == solve.parent)
            .expect("parent span recorded");
        assert_eq!(phase.name, "phase");
        assert_eq!(phase.parent, sequence.id);
    }
    let dc = events
        .iter()
        .find(|e| e.name == "solve" && e.label == "dc")
        .expect("bench setup emits a dc solve span");
    assert_eq!(dc.parent, sequence.id);
}

#[test]
fn array_phases_are_traced_like_cell_phases() {
    let _guard = lock();
    nvpg_obs::reset_for_test();
    nvpg_obs::enable();
    {
        let _root = nvpg_obs::span("experiment");
        let design = CellDesign::table1();
        let mut domain = DomainArray::new(design, DomainKind::Nvpg, 2, 2, checkerboard).unwrap();
        domain.store().unwrap();
        domain.shutdown(true).unwrap();
        domain.restore().unwrap();
    }
    nvpg_obs::disable();
    let events = nvpg_obs::drain_events();

    let transients: Vec<_> = events
        .iter()
        .filter(|e| e.name == "solve" && e.label == "transient")
        .collect();
    assert!(!transients.is_empty(), "array phases emit solve spans");
    for solve in &transients {
        let parent = events
            .iter()
            .find(|e| e.id == solve.parent)
            .expect("parent span recorded");
        assert_eq!(parent.name, "phase", "a transient solve outside any phase");
    }
    let labels: Vec<&str> = events
        .iter()
        .filter(|e| e.name == "phase")
        .map(|e| e.label.as_str())
        .collect();
    for label in ["store-H", "store-L", "store-end", "shutdown", "restore"] {
        assert!(labels.contains(&label), "no `{label}` phase in {labels:?}");
    }
}

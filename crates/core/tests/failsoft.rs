//! Fail-soft orchestration: Monte-Carlo and figure runs keep going past
//! broken points, report every failure by name, and produce byte-identical
//! output at any worker count — with or without injected solver faults.

use proptest::prelude::*;

use nvpg_cells::design::CellDesign;
use nvpg_circuit::{CircuitError, FaultKind, FaultPlan, RescueStats};
use nvpg_core::variation::{run_variation_report, VariationSpec};
use nvpg_core::{BenchmarkParams, Experiments, PointStatus, RunReport};

fn tiny_spec() -> VariationSpec {
    VariationSpec {
        sigma_vth: 5e-3,
        sigma_tmr_rel: 0.02,
        sigma_jc_rel: 0.02,
        samples: 4,
        seed: 7,
    }
}

/// The acceptance scenario of the fault-injection harness: a Monte-Carlo
/// run where a deterministic fraction of the Newton solves is corrupted
/// completes fail-soft, the report names every sample, the schedule (and
/// hence the whole report) is identical at every worker count, and every
/// sample the faults did not touch reproduces the fault-free BET bit for
/// bit.
#[test]
fn faulted_variation_run_is_failsoft_and_jobs_invariant() {
    let base = CellDesign::table1();
    let spec = tiny_spec();
    let params = BenchmarkParams::fig7_default();

    let (clean, clean_rep) = run_variation_report(&base, &spec, &params, 1, None, None);
    assert!(clean_rep.all_ok(), "{}", clean_rep.render());
    assert_eq!(clean.bets.len(), spec.samples as usize);

    // Exclude Panic so failures stay quiet errors; the panic path is
    // exercised separately below.
    let kinds = [
        FaultKind::RejectStep,
        FaultKind::NanResidual,
        FaultKind::SingularMatrix,
    ];
    // The LTE step controller cut Newton-solve counts by an order of
    // magnitude, so the per-solve rate is higher than it was under the
    // fixed-heuristic stepper to keep the same expected fault count.
    let plan = FaultPlan::random(0xFA17, 2e-4, &kinds);
    let (f1, r1) = run_variation_report(&base, &spec, &params, 1, Some(&plan), None);
    let (f4, r4) = run_variation_report(&base, &spec, &params, 4, Some(&plan), None);

    // Byte-identical across worker counts: same BETs, same counters, same
    // report (records are in sample order and carry no timestamps).
    assert_eq!(f1, f4);
    assert_eq!(r1, r4);

    // Every sample is named in the report, in order.
    assert_eq!(r1.records.len(), spec.samples as usize);
    for (i, rec) in r1.records.iter().enumerate() {
        assert_eq!(rec.experiment, "variation");
        assert_eq!(rec.point, format!("sample {i}"));
        if let PointStatus::Failed { taxonomy, message } = &rec.status {
            assert!(!taxonomy.is_empty());
            assert!(message.contains(&format!("sample {i}")), "{message}");
        }
    }

    // The schedule actually fired: at least 10 % of the samples saw an
    // injected fault (deterministic for this seed/rate).
    let faulted = r1
        .records
        .iter()
        .filter(|r| r.rescue.injected_faults > 0)
        .count();
    assert!(
        faulted * 10 >= r1.records.len(),
        "only {faulted}/{} samples saw faults — raise the rate",
        r1.records.len()
    );
    // ... and at least one sample ran completely clean, so the
    // bit-identity check below is not vacuous.
    assert!(
        faulted < r1.records.len(),
        "every sample was hit — lower the rate"
    );

    // Untouched samples reproduce the fault-free run bit for bit.
    assert_eq!(
        f1.bets.len(),
        r1.succeeded(),
        "every surviving sample of this spec yields a BET"
    );
    let mut cursor = 0;
    let mut verified = 0;
    for (i, rec) in r1.records.iter().enumerate() {
        if rec.status.succeeded() {
            let bet = f1.bets[cursor];
            cursor += 1;
            if rec.rescue.injected_faults == 0 {
                assert_eq!(
                    bet.to_bits(),
                    clean.bets[i].to_bits(),
                    "untouched sample {i} drifted"
                );
                verified += 1;
            }
        }
    }
    assert!(verified > 0);

    // The rendered report carries the failure appendix when anything broke.
    let text = r1.render();
    assert!(text.contains(&format!("{} points", spec.samples)), "{text}");
    if !r1.all_ok() {
        assert!(text.contains("failures appendix:"), "{text}");
    }
}

/// Figure orchestration settles per figure: an unknown id becomes a gap
/// plus a report entry, and neighbouring figures are unaffected.
#[test]
fn figures_settle_independently() {
    let exp = Experiments::new(CellDesign::table1()).unwrap();
    let figures = |ids: &[&str], jobs| {
        let (figs, rep) = exp.run_figures_settled(ids, jobs, None);
        let figs: Vec<_> = figs.into_iter().map(|f| f.map(|(fig, _)| fig)).collect();
        (figs, rep)
    };
    let (figs, rep) = figures(&["fig7a", "nope", "fig8a"], 2);
    assert!(figs[0].is_some());
    assert!(figs[1].is_none());
    assert!(figs[2].is_some());
    assert_eq!(rep.failed(), 1);
    let text = rep.render();
    assert!(
        text.contains("FAILED  nope / figure [invalid_value]"),
        "{text}"
    );

    // The gap does not disturb its neighbours.
    let (clean, clean_rep) = figures(&["fig7a", "fig8a"], 1);
    assert!(clean_rep.all_ok());
    assert_eq!(figs[0], clean[0]);
    assert_eq!(figs[2], clean[1]);
}

/// A panic inside a figure is contained at any worker count, including
/// one raised on a sweep's pool worker: the figure settles as a failure
/// with the `panic` taxonomy, and a figure that solves nothing still
/// renders beside it.
#[test]
fn figure_panic_becomes_report_entry() {
    let exp = Experiments::new(CellDesign::table1()).unwrap();
    let plan = FaultPlan::always(FaultKind::Panic);
    for jobs in [1, 2] {
        let (figs, rep) = exp.run_figures_settled(&["fig3b", "fig7a"], jobs, Some(&plan));
        assert!(figs[0].is_none(), "jobs = {jobs}");
        assert!(figs[1].is_some(), "jobs = {jobs}");
        assert_eq!(rep.failed(), 1);
        assert_eq!(rep.taxonomy_counts().get("panic"), Some(&1));
        assert!(rep.render().contains("injected fault"), "{}", rep.render());
    }
}

/// Settles a synthetic batch through the one production fold.
fn synthetic_report(jobs: usize, n: u64, fail_mod: u64) -> (Vec<Option<u64>>, RunReport) {
    let items: Vec<u64> = (0..n).collect();
    let settled = nvpg_exec::par_map_settled(jobs, &items, |_, &i| {
        if i % fail_mod == 0 {
            Err(CircuitError::InvalidValue {
                element: format!("item {i}"),
                reason: "synthetic".to_owned(),
            })
        } else {
            Ok(i * 3)
        }
    });
    let mut rep = RunReport::new();
    let values = settled
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            rep.settle(
                "synthetic",
                format!("point {i}"),
                None,
                s,
                RescueStats::default(),
            )
        })
        .collect();
    (values, rep)
}

proptest! {
    /// Settled batches — and the run reports folded from them — are
    /// byte-identical for any pair of worker counts.
    #[test]
    fn settled_report_identical_across_jobs(
        jobs_a in 1usize..6,
        jobs_b in 1usize..6,
        n in 0u64..40,
        fail_mod in 2u64..7,
    ) {
        let (va, ra) = synthetic_report(jobs_a, n, fail_mod);
        let (vb, rb) = synthetic_report(jobs_b, n, fail_mod);
        prop_assert_eq!(va, vb);
        prop_assert_eq!(ra.failed() as u64, n.div_ceil(fail_mod));
        prop_assert_eq!(ra.render(), rb.render());
        prop_assert_eq!(ra, rb);
    }
}

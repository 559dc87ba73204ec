//! Integration contract of the golden-reference validation harness:
//! tolerance semantics are sharp on both sides (abs and rel), `bless`
//! refuses to write while the differential matrix is failing, and a
//! blessed directory round-trips through `check`-style comparison.

use std::path::PathBuf;

use nvpg_circuit::registry::deck;
use nvpg_core::validate::golden::{bless, golden_path, Golden, GoldenError, GoldenSignals};
use nvpg_core::validate::{MatrixConfig, Tolerance, ValidationReport};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvpg_validation_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Perturbs every DC signal of a golden by `delta` volts.
fn perturbed(golden: &Golden, delta: f64) -> Golden {
    let mut out = golden.clone();
    let GoldenSignals::Dc(map) = &mut out.signals else {
        panic!("DC golden expected");
    };
    for v in map.values_mut() {
        *v += delta;
    }
    out
}

#[test]
fn absolute_tolerance_is_sharp_on_both_sides() {
    let spec = deck("divider").expect("registered");
    let mut golden = Golden::capture_dc(&spec).expect("solves");
    // Pure-absolute regime: rel = 0 so the margin is exactly `abs`.
    golden.tolerance = Tolerance {
        abs: 1e-6,
        rel: 0.0,
    };

    let mut report = ValidationReport::new();
    golden.compare(&perturbed(&golden, 0.9e-6), &mut report);
    assert!(report.passed(), "just inside abs must pass:\n{report}");

    let mut report = ValidationReport::new();
    golden.compare(&perturbed(&golden, 1.1e-6), &mut report);
    assert!(!report.passed(), "just outside abs must fail:\n{report}");
    assert_eq!(
        report.run.taxonomy_counts().get("golden_deviation"),
        Some(&golden.signals.len()),
        "{report}"
    );
    assert_eq!(report.deviations.len(), golden.signals.len());
}

#[test]
fn relative_tolerance_scales_with_the_larger_magnitude() {
    let spec = deck("divider").expect("registered");
    let mut golden = Golden::capture_dc(&spec).expect("solves");
    // Pure-relative regime on a deck whose signals are all >= 0.5 V.
    golden.tolerance = Tolerance {
        abs: 0.0,
        rel: 1e-6,
    };
    let GoldenSignals::Dc(map) = &golden.signals else {
        panic!("DC golden expected")
    };
    let smallest = map.values().fold(f64::INFINITY, |a, &v| a.min(v.abs()));
    assert!(smallest > 0.0, "deck has no zero signals");

    // delta < rel * |v| for every signal (the perturbed value only grows
    // the margin, so judging against max(|a|,|g|) stays conservative).
    let mut report = ValidationReport::new();
    golden.compare(&perturbed(&golden, 0.9e-6 * smallest), &mut report);
    assert!(report.passed(), "just inside rel must pass:\n{report}");

    // delta > rel * max(|v|, |v|+delta) for the smallest signal at
    // least; a single failing signal turns the report red.
    let mut report = ValidationReport::new();
    golden.compare(&perturbed(&golden, 1.2e-6 * smallest), &mut report);
    assert!(
        report
            .run
            .taxonomy_counts()
            .contains_key("golden_deviation"),
        "just outside rel must fail:\n{report}"
    );
}

#[test]
fn bless_refuses_on_a_dirty_differential_and_writes_nothing() {
    let dir = tmp_dir("refuse");
    let cfg = MatrixConfig {
        jobs: 2,
        // Unsatisfiable: |dev| <= -1 never holds, so every matrix cell
        // fails while the solves themselves stay healthy.
        tolerance: Tolerance {
            abs: -1.0,
            rel: 0.0,
        },
        decks: Some(vec!["divider".into()]),
        include_tran: false,
    };
    match bless(&dir, &cfg) {
        Err(GoldenError::DirtyDifferential(report)) => {
            assert!(report.contains("matrix_mismatch"), "{report}");
        }
        other => panic!("bless must refuse on a dirty differential: {other:?}"),
    }
    assert!(
        !dir.exists(),
        "a refused bless must not create or write the goldens directory"
    );
}

#[test]
fn bless_then_check_round_trips_and_catches_corruption() {
    let dir = tmp_dir("roundtrip");
    let cfg = MatrixConfig {
        jobs: 2,
        decks: Some(vec!["divider".into()]),
        include_tran: false,
        ..MatrixConfig::default()
    };
    let written = bless(&dir, &cfg).expect("clean matrix blesses");
    assert_eq!(written.len(), 2, "divider: dc + tran goldens");

    // Freshly blessed goldens compare green against a fresh capture.
    let spec = deck("divider").expect("registered");
    let golden = Golden::load(&golden_path(&dir, "divider", "dc")).expect("loads");
    let mut report = ValidationReport::new();
    golden.compare(&Golden::capture_dc(&spec).expect("solves"), &mut report);
    assert!(report.passed(), "{report}");

    // A corrupted committed value is detected on the next check.
    let mut corrupt = golden.clone();
    if let GoldenSignals::Dc(map) = &mut corrupt.signals {
        let (name, v) = map.pop_first().expect("non-empty");
        map.insert(name, v + 1e-3);
    }
    corrupt.write(&dir).expect("writes");
    let reloaded = Golden::load(&golden_path(&dir, "divider", "dc")).expect("reloads");
    let mut report = ValidationReport::new();
    reloaded.compare(&Golden::capture_dc(&spec).expect("solves"), &mut report);
    assert!(!report.passed(), "corruption must be detected:\n{report}");

    let _ = std::fs::remove_dir_all(&dir);
}

//! Hostile-spec property: however a macro is parameterised, preparing its
//! netlist ends in a built netlist or a typed `InvalidValue`, never a
//! panic.

use proptest::prelude::*;

use nvpg_cells::array::checkerboard;
use nvpg_cells::design::RetentionKind;
use nvpg_cells::domain::DomainKind;
use nvpg_circuit::{CircuitError, SolverChoice};
use nvpg_macro::{Granularity, MacroBuilder, MacroSpec};

/// Every granularity, with bank counts 0..=10 (0 and counts above the
/// row count are invalid).
fn granularity() -> impl Strategy<Value = Granularity> {
    (0usize..13).prop_map(|k| match k {
        0 => Granularity::PerRow,
        1 => Granularity::PerDomain,
        n => Granularity::PerBank(n - 2),
    })
}

proptest! {
    #[test]
    fn prepare_builds_or_returns_invalid_value(
        rows in 0usize..9,
        cols in 0usize..9,
        mux in 0usize..5,
        granularity in granularity(),
        kind in (0usize..3).prop_map(|i| [DomainKind::Nvpg, DomainKind::Osr, DomainKind::Nof][i]),
        technology in (0..RetentionKind::LABELS.len()).prop_map(|i| RetentionKind::LABELS[i]),
    ) {
        let spec = MacroSpec::new(rows, cols, mux)
            .with_granularity(granularity)
            .with_kind(kind)
            .with_technology(technology)
            .expect("known technology label");
        match MacroBuilder::prepare(spec, SolverChoice::Auto, checkerboard) {
            Ok(_) => prop_assert!(spec.validate().is_ok(), "{spec:?} built despite failing validation"),
            Err(e) => prop_assert!(
                matches!(e, CircuitError::InvalidValue { .. }),
                "{spec:?}: {e:?}"
            ),
        }
    }
}

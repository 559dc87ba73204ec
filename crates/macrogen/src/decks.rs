//! Registry decks for the macro subsystem.
//!
//! The golden/differential harness enumerates netlists as
//! [`DeckSpec`]s; macros contain FinFET and retention-device models the
//! SPICE parser has no cards for, so these decks use the programmatic
//! [`DeckSpec::built`] constructor. `nvpg-core`'s `all_decks()` merges
//! them with the parser registry so `validate --check` covers the macro
//! generator the same way it covers every hand-written deck.
//!
//! The decks are DC-only (`t_stop == 0`): the harness solves them with
//! default options (no nodesets), which lands bistable arrays on their
//! metastable point — a perfectly good differential/golden fixture, but
//! one a transient would walk away from at a backend-rounding-dependent
//! instant.

use nvpg_cells::array::checkerboard;
use nvpg_cells::domain::DomainKind;
use nvpg_circuit::registry::DeckSpec;
use nvpg_circuit::{Circuit, SolverChoice};

use crate::build::MacroBuilder;
use crate::spec::{Granularity, MacroSpec};

fn build(spec: MacroSpec) -> Circuit {
    MacroBuilder::prepare(spec, SolverChoice::Auto, checkerboard)
        .expect("registered macro deck spec is valid")
        .into_circuit()
}

fn macro_4x4_per_row_mtj() -> Circuit {
    build(MacroSpec::new(4, 4, 2).with_granularity(Granularity::PerRow))
}

fn macro_4x4_per_domain_mtj() -> Circuit {
    build(MacroSpec::new(4, 4, 2))
}

fn macro_4x4_per_domain_fefet() -> Circuit {
    build(
        MacroSpec::new(4, 4, 2)
            .with_technology("fefet")
            .expect("known technology"),
    )
}

fn macro_4x4_osr_per_bank() -> Circuit {
    build(
        MacroSpec::new(4, 4, 2)
            .with_kind(DomainKind::Osr)
            .with_granularity(Granularity::PerBank(2)),
    )
}

/// The macro decks the validation harness registers alongside the
/// parser corpus: both gating extremes, a second retention technology,
/// and the volatile reference architecture.
pub fn macro_decks() -> Vec<DeckSpec> {
    vec![
        DeckSpec::built("macro_4x4_per_row_mtj", macro_4x4_per_row_mtj, 0.0),
        DeckSpec::built("macro_4x4_per_domain_mtj", macro_4x4_per_domain_mtj, 0.0),
        DeckSpec::built(
            "macro_4x4_per_domain_fefet",
            macro_4x4_per_domain_fefet,
            0.0,
        ),
        DeckSpec::built("macro_4x4_osr_per_bank", macro_4x4_osr_per_bank, 0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_decks_build_and_are_dc_only() {
        let decks = macro_decks();
        assert_eq!(decks.len(), 4);
        let mut ids = std::collections::HashSet::new();
        for deck in &decks {
            assert!(ids.insert(deck.id), "duplicate deck id {}", deck.id);
            assert_eq!(deck.t_stop, 0.0, "{} must be DC-only", deck.id);
            assert!(deck.builder.is_some());
            let ckt = deck.circuit();
            assert!(ckt.unknown_count() > 100, "{} too small", deck.id);
        }
    }
}

//! The deck registry: the single source of truth for every netlist the
//! cross-validation machinery exercises.
//!
//! Before this module existed each suite (dense-vs-sparse differential,
//! golden validation) carried its own hand-picked deck
//! list, so a deck added to one suite silently skipped the others. Now
//! [`registry`] enumerates the corpus once — every parser element type
//! plus hostile-but-parseable numerics stressors — and every consumer
//! (the `differential` test suite, the golden harness in `nvpg-core`,
//! the `validate` binary) iterates the same list.
//!
//! The module also owns the *structured fuzz corpus*: hostile decks that
//! must parse to a typed [`ParseDeckError`](crate::parser::ParseDeckError)
//! (never a panic) live as files under `corpus/hostile/` at the repo
//! root, one deck per file, with an `* expect:` directive on the first
//! line. [`load_corpus`] reads them for the parser regression tests and
//! [`fuzz_smoke`] mutates them under a seeded RNG for the smoke loop the
//! `validate` binary and CI run.

use std::path::PathBuf;

use nvpg_numeric::Rng64;

use crate::circuit::Circuit;
use crate::parser::parse_deck;
use crate::waveform::Waveform;

/// One registered deck: an id stable enough to name golden files, the
/// netlist text, and the transient horizon the harness simulates to.
#[derive(Debug, Clone)]
pub struct DeckSpec {
    /// Stable identifier (doubles as the golden-file stem, so it must
    /// stay filesystem-safe: `[a-z0-9_]`).
    pub id: &'static str,
    /// The SPICE netlist.
    pub deck: String,
    /// Transient stop time for the `tran` analyses; `0.0` opts the deck
    /// out of transient (DC only).
    pub t_stop: f64,
    /// `true` for decks built to stress the numerics (gmin-held islands,
    /// extreme ratios) rather than model a sensible circuit.
    pub hostile: bool,
    /// Programmatic netlist constructor for decks whose circuits use
    /// element types the parser has no card for (FinFETs, retention
    /// devices — the macro decks). When set, [`circuit`](Self::circuit)
    /// calls it instead of parsing `deck`, which then holds only a
    /// placeholder comment. Must be a plain `fn` (deterministic, no
    /// captured state) so every consumer rebuilds the identical netlist.
    pub builder: Option<fn() -> Circuit>,
}

impl DeckSpec {
    fn new(id: &'static str, deck: impl Into<String>, t_stop: f64, hostile: bool) -> Self {
        DeckSpec {
            id,
            deck: deck.into(),
            t_stop,
            hostile,
            builder: None,
        }
    }

    /// A deck constructed by code rather than parsed from SPICE text —
    /// the mechanism downstream crates (nvpg-macro) use to register
    /// netlists containing device models the parser cannot express.
    /// `t_stop == 0.0` opts out of transient, which built decks holding
    /// bistable arrays should do: without nodesets their DC point is the
    /// metastable one, and a transient from there amplifies backend
    /// rounding differences exponentially.
    pub fn built(id: &'static str, builder: fn() -> Circuit, t_stop: f64) -> Self {
        DeckSpec {
            id,
            deck: format!("* programmatic deck: {id}\n"),
            t_stop,
            hostile: false,
            builder: Some(builder),
        }
    }

    /// Builds this spec's circuit: the registered constructor for
    /// programmatic decks, otherwise the parsed netlist. Registry decks
    /// are maintained in-tree, so a parse failure is a bug; callers that
    /// want a `Result` can call [`parse_deck`] themselves.
    ///
    /// # Panics
    ///
    /// Panics if the registered deck no longer parses.
    pub fn circuit(&self) -> Circuit {
        match self.builder {
            Some(build) => build(),
            None => parse_deck(&self.deck)
                .unwrap_or_else(|e| panic!("registry deck `{}`: {e}", self.id)),
        }
    }
}

/// Every registered deck, in stable order.
///
/// The corpus covers each element card the parser accepts (`R`, `C`,
/// `L`, `V` with every waveform, `I`, `E`, `G`, `S`, subcircuits) plus
/// hostile decks that parse but stress the solver, a power-gating header
/// deck shaped like the paper's store/restore waveforms, and a ladder
/// long enough that `SolverChoice::Auto` crosses into the sparse
/// backend.
pub fn registry() -> Vec<DeckSpec> {
    let mut decks = vec![
        DeckSpec::new(
            "divider",
            "V1 vin 0 1.0\nR1 vin out 1k\nR2 out 0 1k\n.end\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "rc_lowpass",
            "V1 vin 0 PWL(0 0 1p 1)\nR1 vin out 1k\nC1 out 0 1p\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "rl_highpass",
            "V1 vin 0 PULSE(0 0.9 100p 50p 50p 1n 5n)\nR1 vin mid 1k\nL1 mid 0 1u\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "rlc_tank",
            "V1 in 0 PULSE(0 1 0 10p 10p 500p 2n)\nR1 in a 50\nL1 a b 10n\nC1 b 0 1p\n\
             R2 b 0 10k\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "sin_drive",
            "V1 a 0 SIN(0.45 0.45 1g 0)\nV2 b 0 DC 0.9\nR1 a b 1k\nC1 a 0 100f\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "current_source",
            "I1 0 n 1u\nC1 n 0 1p\nR1 n 0 1meg\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "controlled_sources",
            "V1 a 0 0.25\nE1 amp 0 a 0 3.0\nRL1 amp 0 1k\nG1 0 cur a 0 2m\nRL2 cur 0 1k\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "switch",
            "V1 vin 0 1.0\nVC ctl 0 PULSE(0 1 500p 50p 50p 1n 4n)\n\
             S1 vin out ctl 0 SW(vt=0.5 ron=10 roff=1e12)\nRL out 0 1e4\n",
            2e-9,
            false,
        ),
        DeckSpec::new(
            "subckt",
            ".subckt stage in out\nR1 in out 2k\nC1 out 0 500f\n.ends\n\
             V1 vin 0 PWL(0 0 1p 0.9)\nX1 vin mid stage\nX2 mid vout stage\n",
            2e-9,
            false,
        ),
        // A power-gated load behind a high-side header switch: the
        // store/shutdown shape of the paper's NVPG cell reduced to
        // parser-reachable elements. CTRL drops the virtual rail, the
        // retention capacitor discharges through the load.
        DeckSpec::new(
            "nvpg_header",
            "V1 vdd 0 0.9\nVC ctrl 0 PULSE(1 0 400p 20p 20p 800p 0)\n\
             S1 vdd vvdd ctrl 0 SW(vt=0.5 ron=50 roff=1e11)\n\
             R1 vvdd q 2k\nC1 q 0 2f\nR2 q 0 80k\nC2 vvdd 0 1f\n",
            2e-9,
            false,
        ),
        // Hostile but parseable: a capacitor island with no DC path —
        // the gmin diagonal is all that holds the matrix up.
        DeckSpec::new(
            "floating_cap_island",
            "V1 a 0 1.0\nC1 a b 1p\nC2 b c 1p\nC3 c 0 1p\nR1 a 0 1k\n",
            2e-9,
            true,
        ),
        // Hostile: nine decades of component spread in one mesh.
        DeckSpec::new(
            "extreme_ratios",
            "V1 top 0 1.0\nR1 top m1 1e-3\nR2 m1 m2 1e6\nR3 m2 0 1e-3\nC1 m1 0 1f\n\
             C2 m2 0 10u\n",
            2e-9,
            true,
        ),
        // Hostile: a zero-volt source (pure ammeter) in a loop with a
        // tiny resistance.
        DeckSpec::new(
            "ammeter_loop",
            "V1 a 0 0.9\nVM a b 0\nR1 b 0 1m\nR2 b 0 1k\n",
            2e-9,
            true,
        ),
    ];

    // A ladder long enough to cross SPARSE_THRESHOLD, so the Auto choice
    // itself picks sparse and the symbolic analysis sees real fill.
    let mut ladder = String::from("V1 n0 0 PWL(0 0 1p 1)\n");
    for i in 0..300 {
        ladder.push_str(&format!("R{i} n{i} n{} 10\n", i + 1));
        ladder.push_str(&format!("C{i} n{} 0 10f\n", i + 1));
    }
    ladder.push_str("RL n300 0 1k\n");
    decks.push(DeckSpec::new("rc_ladder_300", ladder, 2e-9, false));
    decks
}

/// Looks up one registered deck by id.
pub fn deck(id: &str) -> Option<DeckSpec> {
    registry().into_iter().find(|d| d.id == id)
}

// ---------------------------------------------------------------------
// Random-netlist generation (property-based backend equivalence)
// ---------------------------------------------------------------------

/// Generates a random RCL/switch circuit that is guaranteed solvable:
/// a resistive spanning tree gives every node a DC path to ground, and a
/// source drives node 1. The same seed always yields the same circuit,
/// so equivalence failures reported by seed are reproducible.
///
/// Topology space: 3–10 internal nodes, tree resistors 100 Ω–100 kΩ,
/// extra cross resistors, grounded capacitors 1 fF–10 pF, an occasional
/// series inductor, an occasional voltage-controlled switch, and a DC or
/// PULSE drive.
pub fn random_circuit(seed: u64) -> Circuit {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n_nodes = 3 + (rng.next_u64() % 8) as usize;
    let mut ckt = Circuit::new();
    let nodes: Vec<_> = (0..n_nodes).map(|i| ckt.node(&format!("n{i}"))).collect();

    // Spanning tree of resistors: node i hangs off a random earlier node
    // (or ground for node 0), so the conductance matrix is irreducible.
    for (i, &node) in nodes.iter().enumerate() {
        let parent = if i == 0 {
            Circuit::GROUND
        } else {
            nodes[(rng.next_u64() as usize) % i]
        };
        let ohms = 10f64.powf(rng.gen_range(2.0..5.0));
        ckt.resistor(&format!("rt{i}"), node, parent, ohms)
            .expect("unique tree resistor");
    }
    // Extra cross links (possibly none).
    let extras = (rng.next_u64() % 4) as usize;
    for k in 0..extras {
        let a = nodes[(rng.next_u64() as usize) % n_nodes];
        let b = nodes[(rng.next_u64() as usize) % n_nodes];
        if a == b {
            continue;
        }
        let ohms = 10f64.powf(rng.gen_range(2.0..6.0));
        ckt.resistor(&format!("rx{k}"), a, b, ohms)
            .expect("unique cross resistor");
    }
    // Grounded capacitors on a random subset of nodes.
    for (i, &node) in nodes.iter().enumerate() {
        if rng.next_u64().is_multiple_of(2) {
            let farads = 10f64.powf(rng.gen_range(-15.0..-11.0));
            ckt.capacitor(&format!("c{i}"), node, Circuit::GROUND, farads)
                .expect("unique capacitor");
        }
    }
    // Occasionally a series inductor into a fresh node.
    if rng.next_u64().is_multiple_of(3) {
        let from = nodes[(rng.next_u64() as usize) % n_nodes];
        let tail = ckt.node("ltail");
        let henries = 10f64.powf(rng.gen_range(-9.0..-6.0));
        ckt.inductor("l0", from, tail, henries).expect("inductor");
        ckt.resistor("rl0", tail, Circuit::GROUND, 1e3)
            .expect("inductor load");
    }
    // Occasionally a switch from the drive node into the mesh, its
    // control hung off an interior node so DC decides its state.
    if rng.next_u64().is_multiple_of(3) {
        let a = nodes[0];
        let b = nodes[n_nodes / 2];
        let cp = nodes[(rng.next_u64() as usize) % n_nodes];
        ckt.switch("s0", a, b, cp, Circuit::GROUND, 0.45, 10.0, 1e11)
            .expect("switch");
    }
    // The drive: DC or a single PULSE, always on node 1 relative to
    // ground so every topology has one hard voltage.
    let wave = if rng.next_u64().is_multiple_of(2) {
        Waveform::Dc(rng.gen_range(0.2..1.0))
    } else {
        Waveform::Pulse(crate::waveform::Pulse {
            v1: 0.0,
            v2: rng.gen_range(0.4..1.0),
            delay: 100e-12,
            rise: 50e-12,
            fall: 50e-12,
            width: 500e-12,
            period: f64::INFINITY,
        })
    };
    ckt.vsource("vdrive", nodes[0], Circuit::GROUND, wave)
        .expect("drive source");
    ckt
}

// ---------------------------------------------------------------------
// The structured fuzz corpus (corpus/hostile/*.sp)
// ---------------------------------------------------------------------

/// What a corpus file declares about itself in its `* expect:` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusExpect {
    /// The deck must parse cleanly.
    Ok,
    /// The deck must produce a typed `ParseDeckError` (never a panic).
    Error,
}

/// One file from the hostile-deck corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem, e.g. `pulse_missing_width`.
    pub name: String,
    /// Declared expectation.
    pub expect: CorpusExpect,
    /// Full deck text (directive line included — it is a comment).
    pub text: String,
}

/// The corpus directory, resolved relative to this crate so tests and
/// binaries agree on the location regardless of the working directory.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/hostile")
}

/// Loads every `.sp` file from [`corpus_dir`], sorted by name.
///
/// # Errors
///
/// Io errors reading the directory, or a file missing its
/// `* expect: ok|error` directive on the first line.
pub fn load_corpus() -> Result<Vec<CorpusEntry>, String> {
    load_corpus_from(&corpus_dir())
}

/// [`load_corpus`] from an explicit directory (tests point this at
/// temporary corpora).
pub fn load_corpus_from(dir: &std::path::Path) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    let read = std::fs::read_dir(dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = read
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sp"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unnamed")
            .to_owned();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let first = text.lines().next().unwrap_or("");
        let expect = match first.trim() {
            "* expect: ok" => CorpusExpect::Ok,
            "* expect: error" => CorpusExpect::Error,
            other => {
                return Err(format!(
                    "{}: first line must be `* expect: ok` or `* expect: error`, got `{other}`",
                    path.display()
                ))
            }
        };
        entries.push(CorpusEntry { name, expect, text });
    }
    if entries.is_empty() {
        return Err(format!("corpus dir {} holds no .sp files", dir.display()));
    }
    Ok(entries)
}

/// Deterministically mutates a deck: truncations, byte substitutions,
/// line duplication/deletion, and token splices from a sibling deck.
/// Mutants stay valid UTF-8 (the parser takes `&str`); the interesting
/// hostile space is structural, not encoding-level.
pub fn mutate_deck(rng: &mut Rng64, deck: &str, donor: &str) -> String {
    let mut text = deck.to_owned();
    let ops = 1 + rng.next_u64() % 3;
    for _ in 0..ops {
        match rng.next_u64() % 5 {
            // Truncate at a random char boundary.
            0 => {
                let cut = (rng.next_u64() as usize) % (text.len() + 1);
                let cut = floor_boundary(&text, cut);
                text.truncate(cut);
            }
            // Replace one ASCII char with printable noise.
            1 => {
                if let Some(pos) = pick_char(rng, &text) {
                    let noise = b" (){}=.+-*e0987kngp"[rng.next_u64() as usize % 19] as char;
                    let end = pos + text[pos..].chars().next().map_or(0, char::len_utf8);
                    text.replace_range(pos..end, &noise.to_string());
                }
            }
            // Duplicate a random line (duplicate-name and continuation
            // paths).
            2 => {
                let lines: Vec<&str> = text.lines().collect();
                if !lines.is_empty() {
                    let l = lines[rng.next_u64() as usize % lines.len()].to_owned();
                    text.push('\n');
                    text.push_str(&l);
                }
            }
            // Delete a random line.
            3 => {
                let lines: Vec<String> = text.lines().map(str::to_owned).collect();
                if lines.len() > 1 {
                    let drop = rng.next_u64() as usize % lines.len();
                    text = lines
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop)
                        .map(|(_, l)| l.as_str())
                        .collect::<Vec<_>>()
                        .join("\n");
                }
            }
            // Splice a random line from the donor deck.
            _ => {
                let donor_lines: Vec<&str> = donor.lines().collect();
                if !donor_lines.is_empty() {
                    let l = donor_lines[rng.next_u64() as usize % donor_lines.len()];
                    text.push('\n');
                    text.push_str(l);
                }
            }
        }
    }
    text
}

/// Largest char boundary ≤ `at` (stable stand-in for
/// `str::floor_char_boundary`).
fn floor_boundary(text: &str, at: usize) -> usize {
    let mut i = at.min(text.len());
    while !text.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn pick_char(rng: &mut Rng64, text: &str) -> Option<usize> {
    if text.is_empty() {
        return None;
    }
    let raw = (rng.next_u64() as usize) % text.len();
    Some(floor_boundary(text, raw))
}

/// The fuzz smoke loop: parses `iters` seeded mutants of the corpus (and
/// of every registry deck), requiring a typed result — `Ok` or
/// `ParseDeckError` — from each. Returns the number of cases run.
///
/// # Errors
///
/// Returns the panic message and the offending deck text if the parser
/// panicked on any mutant.
pub fn fuzz_smoke(iters: u64, seed: u64) -> Result<u64, String> {
    let corpus = load_corpus()?;
    let mut pool: Vec<String> = corpus.into_iter().map(|e| e.text).collect();
    pool.extend(registry().into_iter().map(|d| d.deck));
    let mut rng = Rng64::seed_from_u64(seed);
    let mut cases = 0u64;
    for i in 0..iters {
        let base = &pool[(i as usize) % pool.len()];
        let donor = &pool[(rng.next_u64() as usize) % pool.len()];
        let mutant = mutate_deck(&mut rng, base, donor);
        let outcome = std::panic::catch_unwind(|| {
            let _ = parse_deck(&mutant);
        });
        if outcome.is_err() {
            return Err(format!(
                "parser panicked on fuzz case {i} (seed {seed}):\n{mutant}"
            ));
        }
        cases += 1;
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::operating_point;

    #[test]
    fn registry_decks_parse_and_solve_dc() {
        for spec in registry() {
            let mut ckt = spec.circuit();
            operating_point(&mut ckt, &Default::default())
                .unwrap_or_else(|e| panic!("registry deck `{}` DC: {e}", spec.id));
        }
    }

    #[test]
    fn registry_ids_are_unique_and_filesystem_safe() {
        let mut seen = std::collections::HashSet::new();
        for spec in registry() {
            assert!(seen.insert(spec.id), "duplicate registry id `{}`", spec.id);
            assert!(
                spec.id
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "id `{}` is not filesystem-safe",
                spec.id
            );
        }
    }

    #[test]
    fn random_circuits_are_reproducible_and_solvable() {
        for seed in 0..20 {
            let mut a = random_circuit(seed);
            let b = random_circuit(seed);
            assert_eq!(
                a.unknown_count(),
                b.unknown_count(),
                "seed {seed} not reproducible"
            );
            operating_point(&mut a, &Default::default())
                .unwrap_or_else(|e| panic!("random seed {seed} DC: {e}"));
        }
    }

    #[test]
    fn mutants_are_deterministic_per_seed() {
        let deck = "V1 a 0 1.0\nR1 a 0 1k\n";
        let mut r1 = Rng64::seed_from_u64(7);
        let mut r2 = Rng64::seed_from_u64(7);
        assert_eq!(
            mutate_deck(&mut r1, deck, deck),
            mutate_deck(&mut r2, deck, deck)
        );
    }
}

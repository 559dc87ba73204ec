//! Machine-readable snapshot of the macro generator path: a full-array
//! nonvolatile power cycle on a generated 16×16 NV-SRAM macro (sparse
//! backend), and the macro-level break-even-time scan across gating
//! granularity × retention technology × architecture.
//!
//! ```text
//! bench_macro [--out FILE] [--check]
//! ```
//!
//! Writes `BENCH_PR10.json` (or `FILE`) containing:
//!
//! * **16×16 full cycle** — `nvpg-macro` builds the complete macro
//!   netlist (cell array, decoder chains, wordline drivers, precharge,
//!   column mux, sense amps, write drivers, replica bitline, distributed
//!   WL/BL RC) and runs store → shutdown (super cutoff) → hold →
//!   restore on the sparse backend; every one of the 256 data bits must
//!   survive the power-down bit-exactly, and the written retention
//!   states must be a consistent function of the stored data;
//! * **macro BET scan** — [`nvpg_core::bet_macro_scan`] over
//!   {per_domain, per_bank2, per_row} × {mtj, fefet, nand_spin} ×
//!   {NVPG, NOF}, each point priced with the solved macro's always-on
//!   periphery overhead and the granularity's half-array shutdown
//!   policy, BET against the OSR baseline.
//!
//! `--check` is the CI gate for this PR: the 16×16 cycle must preserve
//! all 256 bits through shutdown, and the scan must answer a finite BET
//! for at least one NVPG and one NOF point of every technology.

use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

use nvpg_cells::array::checkerboard;
use nvpg_cells::design::RetentionKind;
use nvpg_circuit::SolverChoice;
use nvpg_core::{
    bet_macro_scan, BatchMode, BenchmarkParams, Granularity, MacroScanPoint, MacroSpec,
};
use nvpg_macro::NvMacro;

/// Rows and columns of the acceptance macro.
const CYCLE_EDGE: usize = 16;
/// Column-mux ratio of the acceptance macro (4 sense amps).
const CYCLE_MUX: usize = 4;
/// Power-gating banks of the acceptance macro.
const CYCLE_BANKS: usize = 4;
/// Dark time between shutdown and restore, seconds.
const CYCLE_HOLD_S: f64 = 20e-9;

struct CycleRun {
    unknowns: usize,
    bits: usize,
    preserved: usize,
    /// Written retention states are one consistent pair per data value.
    states_consistent: bool,
    /// Worst |v(Q) − v(QB)| over the array after restore, volts.
    margin_v: f64,
    static_power_w: f64,
    store_s: f64,
    shutdown_s: f64,
    hold_s: f64,
    restore_s: f64,
    /// Accepted transient steps over the whole cycle.
    steps: u64,
}

/// Builds the 16×16 macro, solves its operating point on the sparse
/// backend, and runs the full store → shutdown → hold → restore cycle.
fn full_cycle() -> Result<CycleRun, Box<dyn Error>> {
    let spec = MacroSpec::new(CYCLE_EDGE, CYCLE_EDGE, CYCLE_MUX)
        .with_granularity(Granularity::PerBank(CYCLE_BANKS));
    let mut m = NvMacro::with_solver(spec, SolverChoice::Sparse, checkerboard)?;
    let unknowns = m.unknown_count();
    let static_power_w = m.static_power();
    let before = m.pattern();
    let groups: Vec<usize> = (0..spec.groups()).collect();

    let t0 = Instant::now();
    m.store(&groups)?;
    let store_s = t0.elapsed().as_secs_f64();

    // The retention states the store wrote must be one consistent
    // (left, right) pair for data=1 and the mirrored pair for data=0 —
    // checked against the *pre-cycle* data so a latch flip cannot hide.
    let mut one_state = None;
    let mut zero_state = None;
    let mut states_consistent = true;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let pair = m.mtj_states(r, c).ok_or("macro lost its NV elements")?;
            let slot = if bit { &mut one_state } else { &mut zero_state };
            match slot {
                None => *slot = Some(pair),
                Some(p) => states_consistent &= *p == pair,
            }
        }
    }
    states_consistent &= one_state != zero_state;

    let t0 = Instant::now();
    m.shutdown(&groups, true)?;
    let shutdown_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    m.hold(CYCLE_HOLD_S)?;
    let hold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    m.restore(&groups)?;
    let restore_s = t0.elapsed().as_secs_f64();

    let mut preserved = 0usize;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            preserved += usize::from(m.data(r, c) == bit);
        }
    }
    Ok(CycleRun {
        unknowns,
        bits: CYCLE_EDGE * CYCLE_EDGE,
        preserved,
        states_consistent,
        margin_v: m.min_storage_margin(),
        static_power_w,
        store_s,
        shutdown_s,
        hold_s,
        restore_s,
        steps: m.step_stats().accepted_steps,
    })
}

/// The scan's granularity axis: whole-array, half-banked, per-row.
const GRANULARITIES: [Granularity; 3] = [
    Granularity::PerDomain,
    Granularity::PerBank(2),
    Granularity::PerRow,
];

fn scan() -> Result<Vec<MacroScanPoint>, Box<dyn Error>> {
    let params = BenchmarkParams::fig7_default();
    Ok(bet_macro_scan(
        4,
        4,
        2,
        &GRANULARITIES,
        &RetentionKind::LABELS,
        &params,
        1,
        BatchMode::Auto,
    )?)
}

fn check() -> Result<(), Box<dyn Error>> {
    let mut failures = Vec::new();

    eprintln!("16x16 macro full power cycle on the sparse backend...");
    let cycle = full_cycle()?;
    eprintln!(
        "  {} unknowns, {}/{} bits preserved, margin {:.3} V, {} steps",
        cycle.unknowns, cycle.preserved, cycle.bits, cycle.margin_v, cycle.steps
    );
    if cycle.preserved != cycle.bits {
        failures.push(format!(
            "{} of {} bits lost through the shutdown cycle",
            cycle.bits - cycle.preserved,
            cycle.bits
        ));
    }
    if !cycle.states_consistent {
        failures.push("stored retention states are not a consistent function of the data".into());
    }
    if cycle.margin_v < 0.3 {
        failures.push(format!(
            "post-restore storage margin {:.3} V (gate: >= 0.3 V)",
            cycle.margin_v
        ));
    }

    eprintln!("macro BET scan (granularity x technology x architecture)...");
    let points = scan()?;
    let expected = GRANULARITIES.len() * RetentionKind::LABELS.len() * 2;
    if points.len() != expected {
        failures.push(format!(
            "scan answered {} points (expected {expected})",
            points.len()
        ));
    }
    for p in &points {
        if !(p.static_power.is_finite() && p.static_power > 0.0) || p.unknowns == 0 {
            failures.push(format!(
                "degenerate scan point {}/{}/{}: {} unknowns, {:e} W",
                p.arch, p.technology, p.granularity, p.unknowns, p.static_power
            ));
        }
    }
    for tech in RetentionKind::LABELS {
        for arch in ["NVPG", "NOF"] {
            if !points
                .iter()
                .any(|p| p.technology == tech && p.arch.to_string() == arch && p.bet.is_some())
            {
                failures.push(format!(
                    "no finite BET for {arch}/{tech} at any granularity"
                ));
            }
        }
    }

    if failures.is_empty() {
        eprintln!(
            "check OK ({}/{} bits, {} scan points)",
            cycle.preserved,
            cycle.bits,
            points.len()
        );
        Ok(())
    } else {
        Err(format!("macro check failed:\n  {}", failures.join("\n  ")).into())
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut out = String::from("BENCH_PR10.json");
    let mut check_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or("--out requires a path")?,
            "--check" => check_only = true,
            "--help" | "-h" => {
                println!("usage: bench_macro [--out FILE] [--check]");
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    if check_only {
        return check();
    }

    eprintln!(
        "16x16 macro (mux {CYCLE_MUX}, {CYCLE_BANKS} banks): full power cycle, sparse backend..."
    );
    let cycle = full_cycle()?;
    eprintln!(
        "  {} unknowns; store {:.2} s, shutdown {:.2} s, hold {:.2} s, restore {:.2} s; \
         {}/{} bits preserved, margin {:.3} V",
        cycle.unknowns,
        cycle.store_s,
        cycle.shutdown_s,
        cycle.hold_s,
        cycle.restore_s,
        cycle.preserved,
        cycle.bits,
        cycle.margin_v
    );

    eprintln!("macro BET scan: 3 granularities x 3 technologies x {{NVPG, NOF}}...");
    let t0 = Instant::now();
    let points = scan()?;
    let scan_s = t0.elapsed().as_secs_f64();
    eprintln!("  {} points in {:.2} s", points.len(), scan_s);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"bench_macro\",");
    let _ = writeln!(json, "  \"full_cycle_16x16\": {{");
    let _ = writeln!(
        json,
        "    \"rows\": {CYCLE_EDGE}, \"cols\": {CYCLE_EDGE}, \"mux\": {CYCLE_MUX}, \
         \"banks\": {CYCLE_BANKS}, \"solver\": \"sparse\","
    );
    let _ = writeln!(
        json,
        "    \"unknowns\": {}, \"bits\": {}, \"bits_preserved\": {}, \
         \"states_consistent\": {},",
        cycle.unknowns, cycle.bits, cycle.preserved, cycle.states_consistent
    );
    let _ = writeln!(
        json,
        "    \"margin_v\": {:.4}, \"static_power_w\": {:.6e}, \"steps\": {},",
        cycle.margin_v, cycle.static_power_w, cycle.steps
    );
    let _ = writeln!(
        json,
        "    \"store_s\": {:.3}, \"shutdown_s\": {:.3}, \"hold_s\": {:.3}, \"restore_s\": {:.3}",
        cycle.store_s, cycle.shutdown_s, cycle.hold_s, cycle.restore_s
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"macro_bet_scan\": {{");
    let _ = writeln!(
        json,
        "    \"rows\": 4, \"cols\": 4, \"mux\": 2, \"wall_s\": {scan_s:.3},"
    );
    let _ = writeln!(json, "    \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let bet = match p.bet {
            Some(t) => format!("{t:.6e}"),
            None => "null".to_owned(),
        };
        let _ = writeln!(
            json,
            "      {{\"arch\": \"{}\", \"technology\": \"{}\", \"granularity\": \"{}\", \
             \"unknowns\": {}, \"static_power_w\": {:.6e}, \"periphery_overhead_w\": {:.6e}, \
             \"gated_fraction\": {:.4}, \"bet_s\": {bet}}}{}",
            p.arch,
            p.technology,
            p.granularity,
            p.unknowns,
            p.static_power,
            p.periphery_overhead,
            p.gated_fraction,
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"notes\": \"full_cycle_16x16: nvpg-macro generates the complete 16x16 NV-SRAM \
         macro netlist (decoders, wordline drivers, precharge, column mux, sense amps, write \
         drivers, replica bitline, distributed WL/BL RC) and runs store -> shutdown (super \
         cutoff) -> hold -> restore on the sparse backend; bits_preserved counts exact \
         data survival. macro_bet_scan: bet_macro_scan prices each granularity's shutdown \
         policy and the solved macro's always-on periphery into the closed-form BET against \
         the OSR baseline, per retention technology.\""
    );
    json.push_str("}\n");

    std::fs::write(&out, &json)?;
    eprintln!(
        "wrote {out} ({}/{} bits, {} scan points)",
        cycle.preserved,
        cycle.bits,
        points.len()
    );
    Ok(())
}

//! `macro16`: the 16×16 NV-SRAM macro (mux 4, four gating banks, MTJ
//! retention, sparse backend) holding a data pattern drawn from the seed.
//! Set-up is `MacroBuilder::prepare` plus the DC operating point; the
//! timed part is store → shutdown (super cutoff) → hold 20 ns → restore,
//! checked with the `bench_macro --check` gates.

use std::error::Error;
use std::time::Instant;

use nvpg_circuit::{SolverChoice, StepStats};
use nvpg_macro::{Granularity, MacroBuilder, MacroSpec, NvMacro};
use nvpg_numeric::Rng64;

use crate::layers::{SolverCounts, SolverSplit};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::{probe, Run};

const EDGE: usize = 16;
const MUX: usize = 4;
const BANKS: usize = 4;
/// Dark time between shutdown and restore, seconds.
const HOLD_S: f64 = 20e-9;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Smallest post-restore storage margin the cycle must keep, volts.
const MIN_MARGIN_V: f64 = 0.3;
/// Share of the traced build + cycle the benchmark's own spans must cover.
const MIN_COVERAGE: f64 = 0.99;
const PHASES: [&str; 4] = ["store", "shutdown", "hold", "restore"];

fn spec() -> MacroSpec {
    // `MacroSpec::new` is the Table-I NVPG design: MTJ retention.
    MacroSpec::new(EDGE, EDGE, MUX).with_granularity(Granularity::PerBank(BANKS))
}

/// The data pattern: one fair coin per bit, drawn from the seed.
fn pattern(seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..EDGE)
        .map(|_| (0..EDGE).map(|_| rng.next_u64() & 1 == 1).collect())
        .collect()
}

/// Prepares the netlist and solves its operating point; returns the
/// macro and the set-up seconds.
fn build(bits: &[Vec<bool>]) -> Result<(NvMacro, f64), Box<dyn Error>> {
    let t0 = Instant::now();
    let builder = {
        let _span = nvpg_obs::span("bench.prepare");
        MacroBuilder::prepare(spec(), SolverChoice::Sparse, |r, c| bits[r][c])?
    };
    let m = {
        let _span = nvpg_obs::span("bench.dc");
        builder.solve()?
    };
    Ok((m, t0.elapsed().as_secs_f64()))
}

/// One store → shutdown → hold → restore cycle and its gates.
struct Cycle {
    phase_s: [f64; 4],
    stats: StepStats,
    bits: usize,
    preserved: usize,
    states_consistent: bool,
    margin_v: f64,
}

impl Cycle {
    fn wall_s(&self) -> f64 {
        self.phase_s.iter().sum()
    }
}

fn cycle(m: &mut NvMacro) -> Result<Cycle, Box<dyn Error>> {
    let groups: Vec<usize> = (0..m.spec().groups()).collect();
    let before = m.pattern();
    let mut phase_s = [0.0; 4];
    let mut timed = |i: usize, m: &mut NvMacro| -> Result<(), Box<dyn Error>> {
        let t0 = Instant::now();
        let _span = nvpg_obs::span_labeled("bench.phase", PHASES[i]);
        match i {
            0 => m.store(&groups)?,
            1 => m.shutdown(&groups, true)?,
            2 => m.hold(HOLD_S)?,
            _ => m.restore(&groups)?,
        };
        phase_s[i] = t0.elapsed().as_secs_f64();
        Ok(())
    };
    timed(0, m)?;
    // The written retention states must be one consistent pair per data
    // value, checked against the pre-cycle data so a latch flip cannot hide.
    let (mut one, mut zero) = (None, None);
    let mut states_consistent = true;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            let pair = m.mtj_states(r, c).ok_or("macro lost its NV elements")?;
            let slot = if bit { &mut one } else { &mut zero };
            match slot {
                None => *slot = Some(pair),
                Some(p) => states_consistent &= *p == pair,
            }
        }
    }
    // A pattern holding a single value has nothing to tell the pairs apart.
    states_consistent &= one.is_none() || zero.is_none() || one != zero;
    for i in 1..4 {
        timed(i, m)?;
    }
    let mut preserved = 0;
    for (r, row) in before.iter().enumerate() {
        for (c, &bit) in row.iter().enumerate() {
            preserved += usize::from(m.data(r, c) == bit);
        }
    }
    Ok(Cycle {
        phase_s,
        stats: *m.step_stats(),
        bits: EDGE * EDGE,
        preserved,
        states_consistent,
        margin_v: m.min_storage_margin(),
    })
}

/// Counts a cycle's gates as operations: one per bit, one for the
/// retention states, one for the margin.
fn gate(c: &Cycle, rep: &mut Report) {
    for i in 0..c.bits {
        rep.op(i < c.preserved);
    }
    rep.op(c.states_consistent);
    rep.op(c.margin_v >= MIN_MARGIN_V);
    let name = "macro.gates";
    let ok = c.preserved == c.bits && c.states_consistent && c.margin_v >= MIN_MARGIN_V;
    let detail = format!(
        "{}/{} bits kept, states consistent {}, margin {:.3} V (gate {MIN_MARGIN_V} V)",
        c.preserved, c.bits, c.states_consistent, c.margin_v
    );
    if let Some(prev) = rep.checks.iter_mut().find(|x| x.name == name) {
        if prev.ok && !ok {
            prev.ok = false;
            prev.detail = detail;
        }
    } else {
        rep.check(name, ok, detail);
    }
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), Box<dyn Error>> {
    let bits = pattern(run.seed);
    let ones: usize = bits.iter().flatten().filter(|&&b| b).count();
    rep.note("pattern_ones", ones);
    if run.trace {
        nvpg_obs::enable();
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (m, s) = build(&bits)?;
        setups.push(s);
        built = Some(m);
    }
    let mut m = built.expect("at least one set-up repetition");
    rep.note("unknowns", m.unknown_count());
    let setup_spans = if run.trace {
        Some(Spans::drain())
    } else {
        None
    };
    nvpg_obs::disable();

    // Untraced cycles: as many whole cycles as fit in `--seconds` (at
    // least one; a traced run times exactly one as its baseline).
    let t0 = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    loop {
        let c = cycle(&mut m)?;
        gate(&c, rep);
        let next_fits = t0.elapsed().as_secs_f64() + c.wall_s() <= run.seconds;
        cycles.push(c);
        if run.trace || !next_fits {
            break;
        }
        let (fresh, s) = build(&bits)?;
        setups.push(s);
        m = fresh;
    }
    let walls: Vec<f64> = cycles.iter().map(Cycle::wall_s).collect();
    rep.note("cycle_walls_s", format!("{walls:?}"));
    let wall_s = median(&walls);
    rep.e2e("setup_s", median(&setups), "s");
    rep.e2e("wall_s", wall_s, "s");
    rep.e2e("latency_p50_ms", wall_s * 1e3, "ms");
    rep.e2e("latency_p75_ms", percentile(&walls, 75.0) * 1e3, "ms");
    rep.e2e("latency_p90_ms", percentile(&walls, 90.0) * 1e3, "ms");
    rep.e2e("latency_p99_ms", percentile(&walls, 99.0) * 1e3, "ms");
    rep.e2e(
        "capacity_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    rep.note("cycles", walls.len());
    rep.note("setup_samples", setups.len());
    let first = cycles[0].stats;
    rep.check(
        "counts.repeat_exactly",
        cycles.iter().all(|c| c.stats == first),
        format!("{} untraced cycles", cycles.len()),
    );

    if let Some(setup_spans) = setup_spans {
        traced(&bits, &first, wall_s, &setup_spans, rep)?;
    } else {
        SolverCounts::from_stats(&first).record(rep);
    }
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    rep.e2e("peak_rss_mb", rss, "MiB");
    Ok(())
}

/// One traced build + cycle: its counts must equal the untraced cycle's,
/// and the benchmark's spans must account for its wall time.
fn traced(
    bits: &[Vec<bool>],
    untraced: &StepStats,
    untraced_wall_s: f64,
    setup_spans: &Spans,
    rep: &mut Report,
) -> Result<(), Box<dyn Error>> {
    nvpg_obs::metrics::reset();
    nvpg_obs::enable();
    let c = {
        let _root = nvpg_obs::span("bench.macro16");
        let (mut m, _) = build(bits)?;
        cycle(&mut m)?
    };
    nvpg_obs::disable();
    let spans = Spans::drain();
    gate(&c, rep);
    rep.check(
        "counts.traced_equals_untraced",
        c.stats == *untraced,
        format!("traced {} vs untraced {}", c.stats, untraced),
    );
    let counts = SolverCounts::from_stats(&c.stats);
    counts.record(rep);

    let span_s = |s: &Spans, name: &str| -> Vec<f64> {
        s.iter()
            .filter(|e| e.name == name)
            .map(|e| e.wall_ns() as f64 * 1e-9)
            .collect()
    };
    rep.layer(
        "macrogen.prepare_s",
        median(&span_s(setup_spans, "bench.prepare")),
        "s",
    );
    rep.layer(
        "macrogen.dc_s",
        median(&span_s(setup_spans, "bench.dc")),
        "s",
    );
    let phases: Vec<_> = spans.iter().filter(|e| e.name == "bench.phase").collect();
    let mut solve_s = 0.0;
    let mut recipe_s = 0.0;
    for ph in &phases {
        let s = spans.solve_s(ph.id);
        solve_s += s;
        recipe_s += ph.wall_ns() as f64 * 1e-9 - s;
        rep.layer(
            &format!("macrogen.{}_s", ph.label),
            ph.wall_ns() as f64 * 1e-9,
            "s",
        );
    }
    rep.layer("macrogen.recipe_s", recipe_s, "s");
    let root = spans.find("bench.macro16", "").ok_or("missing root span")?;
    let covered = spans
        .iter()
        .filter(|e| matches!(e.name, "bench.prepare" | "bench.dc" | "bench.phase"));
    let coverage = Spans::coverage(root, covered);
    rep.check(
        "accounting.spans_cover_macro",
        coverage >= MIN_COVERAGE,
        format!("prepare + dc + 4 phases cover {coverage:.4} (gate {MIN_COVERAGE})"),
    );

    // Probes on this workload's own circuit at its DC point.
    let dc = MacroBuilder::prepare(spec(), SolverChoice::Sparse, |r, col| bits[r][col])?.solve()?;
    let ckt =
        MacroBuilder::prepare(spec(), SolverChoice::Sparse, |r, col| bits[r][col])?.into_circuit();
    let (devices, load_ns) = probe::device_load(&ckt, dc.state());
    rep.note("devices.probe_devices", devices);
    SolverSplit {
        counts,
        lu: probe::sparse_lu(&ckt),
        load_ns,
        solve_s,
        max_lte_ratio: c.stats.max_lte_ratio,
    }
    .record(rep);
    rep.layer(
        "obs.trace_overhead_frac",
        c.wall_s() / untraced_wall_s - 1.0,
        "1",
    );
    // No daemon runs here, so its request counts are zero.
    rep.layer("serve.solves", 0.0, "count");
    rep.layer("serve.coalesced", 0.0, "count");
    for name in [
        "serve latencies and cache",
        "core.*",
        "exec.*",
        "cells.characterize_s",
    ] {
        rep.drop_layer(name, "layer not exercised by this workload");
    }
    Ok(())
}

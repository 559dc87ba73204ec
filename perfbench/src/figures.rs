//! `figures`: the paper-reproduction surface. Set-up pre-warms the
//! characterisation memo; the timed part regenerates the 18 default
//! figure ids with `Experiments::run_figures` on `nproc` workers, and
//! every series is compared against the committed reference set.

use std::collections::HashMap;
use std::error::Error;
use std::time::Instant;

use nvpg_cells::characterize::characterize_cached;
use nvpg_cells::{characterize, CellBench, CellDesign, CellKind, MtjConfig};
use nvpg_core::{
    at_temperature, Experiments, Figure, Tolerance, BET_FIGURE_IDS, EXTENSION_IDS, FIGURE_IDS,
};
use nvpg_obs::metrics::gauges::MAX_LTE_RATIO;

use crate::layers::{SolverCounts, SolverSplit};
use crate::report::{peak_rss_mb, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::{probe, Run};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Fewest regenerations a run times, however short `--seconds` is.
const MIN_REGENS: usize = 3;
/// The `ext_thermal` junction temperatures: the memo keys it reads.
const THERMAL_TEMPS: [f64; 6] = [250.0, 275.0, 300.0, 330.0, 360.0, 400.0];
/// Share of a traced regeneration the `experiment` spans must cover.
const MIN_COVERAGE: f64 = 0.95;
/// Directory of the reference series, one `figures --csv` file per id.
const REFERENCE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference/figures");
/// The figures whose `experiment` spans are reported as `core.<id>_s`.
const CORE_FIGURES: [&str; 4] = ["fig6a", "fig6b", "ext_thermal", "fig9b"];
/// Kernel clock ticks per second of `/proc/self/stat` CPU times.
const CLK_TCK: f64 = 100.0;

/// The 18 default figure ids (`table1` is a table, not a figure).
fn figure_ids() -> Vec<&'static str> {
    FIGURE_IDS
        .iter()
        .filter(|id| **id != "table1")
        .chain(BET_FIGURE_IDS.iter())
        .chain(EXTENSION_IDS.iter())
        .copied()
        .collect()
}

/// The design points the regeneration reads from the memo besides
/// Table I: Fig. 9(b)'s and `ext_thermal`'s.
fn memo_designs() -> Vec<(String, CellDesign)> {
    let base = CellDesign::table1();
    std::iter::once(("fig9b".to_owned(), CellDesign::fig9b()))
        .chain(
            THERMAL_TEMPS
                .iter()
                .map(|&t| (format!("{t}K"), at_temperature(&base, t))),
        )
        .collect()
}

/// One memo pre-warm. The first fills the memo through
/// `characterize_cached`; later repetitions redo the same
/// characterisations uncached, so each repetition does equal work.
fn prewarm(fill_memo: bool, jobs: usize) -> Result<f64, Box<dyn Error>> {
    let t0 = Instant::now();
    let run = |label: &str, d: &CellDesign| {
        let _span = nvpg_obs::span_labeled("bench.characterize", label);
        if fill_memo {
            characterize_cached(d)
        } else {
            characterize(d)
        }
    };
    run("table1", &CellDesign::table1())?;
    nvpg_exec::par_try_map(jobs, &memo_designs(), |_, (label, d)| run(label, d))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// A reference figure: `(series label, points)` in file order.
type RefFigure = Vec<(String, Vec<(f64, f64)>)>;

/// Parses one `figures --csv` file (`series,x,y` rows).
fn parse_reference(text: &str) -> Result<RefFigure, String> {
    let mut series: RefFigure = Vec::new();
    for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
        let mut parts = line.rsplitn(3, ',');
        let (Some(y), Some(x), Some(label)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("malformed row `{line}`"));
        };
        let point = (
            x.parse().map_err(|_| format!("bad x in `{line}`"))?,
            y.parse().map_err(|_| format!("bad y in `{line}`"))?,
        );
        match series.last_mut() {
            Some((l, pts)) if l == label => pts.push(point),
            _ => series.push((label.to_owned(), vec![point])),
        }
    }
    Ok(series)
}

fn load_reference(ids: &[&str]) -> Result<HashMap<String, RefFigure>, Box<dyn Error>> {
    ids.iter()
        .map(|id| {
            let path = format!("{REFERENCE_DIR}/{id}.csv");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            Ok((
                id.to_string(),
                parse_reference(&text).map_err(|e| format!("{path}: {e}"))?,
            ))
        })
        .collect()
}

/// Compares a rendered figure against its reference series, point by
/// point within the transient goldens' relative tolerance.
fn matches_reference(fig: &Figure, reference: &RefFigure) -> Result<(), String> {
    let rel = Tolerance::TRAN.rel;
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= rel * a.abs().max(b.abs());
    if fig.series.len() != reference.len() {
        return Err(format!(
            "{}: {} series, reference has {}",
            fig.id,
            fig.series.len(),
            reference.len()
        ));
    }
    for (s, (label, pts)) in fig.series.iter().zip(reference) {
        if s.label.replace(',', ";") != *label || s.points.len() != pts.len() {
            return Err(format!(
                "{}: series `{}` ({} points) vs reference `{label}` ({} points)",
                fig.id,
                s.label,
                s.points.len(),
                pts.len()
            ));
        }
        for (&(x, y), &(rx, ry)) in s.points.iter().zip(pts) {
            if !close(x, rx) || !close(y, ry) {
                return Err(format!(
                    "{} `{label}`: ({x:e}, {y:e}) vs reference ({rx:e}, {ry:e})",
                    fig.id
                ));
            }
        }
    }
    Ok(())
}

/// One timed regeneration: wall seconds, and whether each figure matched.
struct Regen {
    wall_s: f64,
    ok: Vec<bool>,
    first_error: Option<String>,
}

fn regenerate(
    exp: &Experiments,
    ids: &[&str],
    reference: &HashMap<String, RefFigure>,
    jobs: usize,
) -> Regen {
    let t0 = Instant::now();
    let result = {
        let _span = nvpg_obs::span("bench.run_figures");
        exp.run_figures(ids, jobs)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut first_error = None;
    let ok = match result {
        Ok(figs) => figs
            .iter()
            .map(
                |fig| match matches_reference(fig, &reference[fig.id.as_str()]) {
                    Ok(()) => true,
                    Err(e) => {
                        first_error.get_or_insert(e);
                        false
                    }
                },
            )
            .collect(),
        Err(e) => {
            first_error = Some(format!("run_figures: {e}"));
            vec![false; ids.len()]
        }
    };
    Regen {
        wall_s,
        ok,
        first_error,
    }
}

/// Process CPU seconds (user + system, every thread) from `/proc/self/stat`.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<f64>() / CLK_TCK
}

/// Regenerates until `seconds` have passed (at least [`MIN_REGENS`]
/// times), checking every figure and counting each as one operation.
fn timed_loop(
    exp: &Experiments,
    ids: &[&str],
    reference: &HashMap<String, RefFigure>,
    run: &Run,
    seconds: f64,
    rep: &mut Report,
    mut each: impl FnMut(&Regen),
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REGENS || t0.elapsed().as_secs_f64() < seconds {
        let r = regenerate(exp, ids, reference, run.jobs);
        for &ok in &r.ok {
            rep.op(ok);
        }
        if let Some(e) = &r.first_error {
            if !rep.checks.iter().any(|c| c.name == "figures.reference") {
                rep.check("figures.reference", false, e.clone());
            }
        }
        each(&r);
        walls.push(r.wall_s);
    }
    walls
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), Box<dyn Error>> {
    let ids = figure_ids();
    let reference = load_reference(&ids)?;
    if run.trace {
        nvpg_obs::enable();
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        setups.push(prewarm(i == 0, run.jobs)?);
    }
    let characterize_s = if run.trace {
        // The memo-filling repetition's characterisations (busy time).
        let spans = Spans::drain();
        let n = 1 + memo_designs().len();
        spans
            .iter()
            .filter(|e| e.name == "bench.characterize")
            .take(n)
            .map(|e| e.wall_ns() as f64 * 1e-9)
            .sum()
    } else {
        0.0
    };
    let exp = Experiments::new(CellDesign::table1())?;
    rep.e2e("setup_s", median(&setups), "s");
    rep.note("setup_reps", SETUP_REPS);

    // Untraced regenerations give the end-to-end numbers; a traced run
    // spends half its time on them (the overhead baseline).
    nvpg_obs::disable();
    let untraced_s = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let walls = timed_loop(&exp, &ids, &reference, run, untraced_s, rep, |_| {});
    let loop_s = t0.elapsed().as_secs_f64();
    let cpu_utilisation = (process_cpu_s() - cpu0) / (loop_s * run.jobs as f64);
    if !rep.checks.iter().any(|c| c.name == "figures.reference") {
        rep.check(
            "figures.reference",
            true,
            format!(
                "{} figures x {} regenerations match",
                ids.len(),
                walls.len()
            ),
        );
    }
    let wall_s = median(&walls);
    let ok_figures = rep.attempted - rep.failed;
    rep.e2e("wall_s", wall_s, "s");
    rep.e2e("latency_p50_ms", wall_s * 1e3, "ms");
    rep.e2e("latency_p75_ms", percentile(&walls, 75.0) * 1e3, "ms");
    rep.e2e("latency_p90_ms", percentile(&walls, 90.0) * 1e3, "ms");
    rep.e2e("latency_p99_ms", percentile(&walls, 99.0) * 1e3, "ms");
    rep.e2e(
        "capacity_rps",
        ok_figures as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    rep.note("regenerations", walls.len());
    rep.note("figures_per_regeneration", ids.len());

    if run.trace {
        traced(&exp, &ids, &reference, run, wall_s, rep)?;
        rep.layer("cells.characterize_s", characterize_s, "s");
        rep.layer("exec.cpu_utilisation", cpu_utilisation, "1");
    }
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    rep.e2e("peak_rss_mb", rss, "MiB");
    Ok(())
}

/// The traced half: per-regeneration counts (which must repeat exactly),
/// span-derived layer times and the accounting checks.
fn traced(
    exp: &Experiments,
    ids: &[&str],
    reference: &HashMap<String, RefFigure>,
    run: &Run,
    untraced_wall_s: f64,
    rep: &mut Report,
) -> Result<(), Box<dyn Error>> {
    nvpg_obs::metrics::reset();
    nvpg_obs::enable();
    let mut deltas = Vec::new();
    let mut before = SolverCounts::snapshot();
    let walls = timed_loop(exp, ids, reference, run, run.seconds / 2.0, rep, |_| {
        let now = SolverCounts::snapshot();
        deltas.push(now.since(&before));
        before = now;
    });
    let max_lte_ratio = MAX_LTE_RATIO.get();
    nvpg_obs::disable();
    let spans = Spans::drain();

    let counts = deltas[0];
    rep.check(
        "counts.repeat_exactly",
        deltas.iter().all(|d| *d == counts),
        format!("{} traced regenerations", deltas.len()),
    );
    counts.record(rep);

    let roots: Vec<_> = spans
        .iter()
        .filter(|e| e.name == "bench.run_figures")
        .collect();
    let per_root = |f: &dyn Fn(u64) -> f64| -> f64 {
        median(&roots.iter().map(|r| f(r.id)).collect::<Vec<_>>())
    };
    let solve_s = per_root(&|root| spans.solve_s(root));
    for id in CORE_FIGURES {
        let s = per_root(&|root| {
            spans
                .named_under("experiment", root)
                .filter(|e| e.label == id)
                .map(|e| e.wall_ns() as f64 * 1e-9)
                .sum()
        });
        rep.layer(&format!("core.{id}_s"), s, "s");
    }
    let critical = per_root(&|root| {
        spans
            .named_under("experiment", root)
            .map(|e| e.wall_ns() as f64 * 1e-9)
            .fold(0.0, f64::max)
    });
    rep.layer("exec.critical_path_s", critical, "s");
    let coverage = roots
        .iter()
        .map(|r| Spans::coverage(r, spans.named_under("experiment", r.id)))
        .fold(f64::INFINITY, f64::min);
    rep.check(
        "accounting.experiments_cover_regeneration",
        coverage >= MIN_COVERAGE,
        format!("worst coverage {coverage:.4} (gate {MIN_COVERAGE})"),
    );

    let mut cell = CellBench::new(
        CellDesign::table1(),
        CellKind::NvSram,
        true,
        MtjConfig::stored(true),
    )?;
    let state = cell.state().clone();
    let ckt = &*cell.circuit_mut();
    let (devices, load_ns) = probe::device_load(ckt, &state);
    rep.note("devices.probe_devices", devices);
    SolverSplit {
        counts,
        lu: probe::dense_lu(ckt),
        load_ns,
        solve_s,
        max_lte_ratio,
    }
    .record(rep);
    rep.layer(
        "obs.trace_overhead_frac",
        median(&walls) / untraced_wall_s - 1.0,
        "1",
    );
    // No daemon runs here, so its request counts are zero.
    rep.layer("serve.solves", 0.0, "count");
    rep.layer("serve.coalesced", 0.0, "count");
    for name in ["serve latencies and cache", "macrogen.*"] {
        rep.drop_layer(name, "layer not exercised by this workload");
    }
    Ok(())
}

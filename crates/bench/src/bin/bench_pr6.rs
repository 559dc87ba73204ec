//! Machine-readable performance snapshot of the sparse linear-solver
//! backend, the runtime-dispatched SIMD kernels, and the array-scale
//! power-domain generator.
//!
//! ```text
//! bench_pr6 [--out FILE] [--check]
//! ```
//!
//! Writes `BENCH_PR6.json` (or `FILE`) containing:
//!
//! * SIMD kernel throughput (axpy / dot / norm_inf, elements per second)
//!   at the runtime-selected level, plus a scalar re-measurement taken in
//!   a child process with `NVPG_SIMD=scalar` (the level is process-global
//!   by design, so the comparison cannot run in-process);
//! * the dense-vs-sparse crossover: single factor+solve wall times on
//!   MNA-shaped banded systems sized to the 8×8 / 16×16 / 32×32 domain
//!   unknown counts, for dense LU, the sparse first (symbolic + numeric)
//!   factorisation, and the sparse fixed-pattern refactorisation that
//!   Newton actually runs in steady state;
//! * array-scale transients: a full store → shutdown → restore retention
//!   cycle on 16×16, 32×32 and 64×64 NVPG domains through the sparse
//!   backend, with per-phase wall clock, accumulated step telemetry, and
//!   a data-integrity verdict;
//! * an NVPG vs OSR vs NOF architecture cycle at 16×16 (energy and wall
//!   clock), exercising the per-domain gating semantics end to end.
//!
//! `--check` recomputes only the *deterministic* facts (no wall-clock
//! gates): the 8×8 dense and sparse domains agree cell for cell, a 16×16
//! retention cycle through the sparse backend preserves every bit, and
//! the step/solver counters stay inside their committed bounds. It is the
//! CI perf-regression smoke gate for this PR.

use std::error::Error;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use nvpg_cells::array::checkerboard;
use nvpg_cells::design::CellDesign;
use nvpg_cells::domain::{DomainArray, DomainKind};
use nvpg_circuit::{SolverChoice, StepStats, SPARSE_THRESHOLD};
use nvpg_numeric::simd;
use nvpg_numeric::{CscMatrix, DenseMatrix, LuWorkspace, PatternBuilder, SparseLu, SparsePattern};

/// Deterministic counter bounds for `--check`. The counters are exact
/// reproducible integers — identical on every host — so the bounds are
/// tight enough to catch a dead optimisation yet loose enough to survive
/// benign solver tweaks.
struct CheckBounds {
    /// Accepted steps of the full 16×16 store → shutdown → restore cycle
    /// (seven transient phases, dt capped at duration/100 per phase).
    cycle_steps: (u64, u64),
    /// Mean Newton iterations per solve over the same cycle.
    iterations_per_solve: (f64, f64),
}

const BOUNDS: CheckBounds = CheckBounds {
    cycle_steps: (1000, 5000),
    iterations_per_solve: (1.0, 8.0),
};

// ---------------------------------------------------------------------
// SIMD kernel throughput
// ---------------------------------------------------------------------

/// Elements/second for the three dispatched kernels, measured on 4096-
/// element slices (big enough to amortise dispatch, small enough to stay
/// in L1).
struct KernelRates {
    level: &'static str,
    axpy: f64,
    dot: f64,
    norm_inf: f64,
}

fn measure_kernels() -> KernelRates {
    const N: usize = 4096;
    let x: Vec<f64> = (0..N).map(|i| (i as f64 * 0.7).sin()).collect();
    let z: Vec<f64> = (0..N).map(|i| (i as f64 * 1.3).cos()).collect();
    let mut y = vec![0.0f64; N];

    // Calibrate each kernel to ~100 ms of work.
    let rate = |elapsed: f64, iters: u64| (iters as f64 * N as f64) / elapsed;
    let time_loop = |body: &mut dyn FnMut()| -> f64 {
        // Warm up, then time a fixed iteration count chosen from a probe.
        body();
        let probe = Instant::now();
        for _ in 0..64 {
            body();
        }
        let per_iter = probe.elapsed().as_secs_f64() / 64.0;
        let iters = ((0.1 / per_iter.max(1e-9)) as u64).clamp(64, 2_000_000);
        let t0 = Instant::now();
        for _ in 0..iters {
            body();
        }
        rate(t0.elapsed().as_secs_f64(), iters)
    };

    let a = black_box(1e-4);
    let axpy = time_loop(&mut || simd::axpy(a, black_box(&x), black_box(&mut y)));
    let dot = time_loop(&mut || {
        black_box(simd::dot(black_box(&x), black_box(&z)));
    });
    let norm_inf = time_loop(&mut || {
        black_box(simd::norm_inf(black_box(&x)));
    });
    KernelRates {
        level: simd::level().name(),
        axpy,
        dot,
        norm_inf,
    }
}

/// Re-measures the kernels in a child process with `NVPG_SIMD=scalar`.
/// The dispatch level is resolved once per process (that is what keeps
/// `figures` byte-identical at any `--jobs`), so the scalar reference
/// point cannot be taken in-process.
fn measure_scalar_in_child() -> Option<KernelRates> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .arg("--kernel-probe")
        .env("NVPG_SIMD", "scalar")
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let mut level = None;
    let mut axpy = None;
    let mut dot = None;
    let mut norm = None;
    for tok in text.split_whitespace() {
        let (key, val) = tok.split_once('=')?;
        match key {
            "level" => level = Some(val.to_owned()),
            "axpy" => axpy = val.parse().ok(),
            "dot" => dot = val.parse().ok(),
            "norm_inf" => norm = val.parse().ok(),
            _ => {}
        }
    }
    if level.as_deref() != Some("scalar") {
        return None;
    }
    Some(KernelRates {
        level: "scalar",
        axpy: axpy?,
        dot: dot?,
        norm_inf: norm?,
    })
}

fn kernel_probe() {
    let k = measure_kernels();
    println!(
        "level={} axpy={:.6e} dot={:.6e} norm_inf={:.6e}",
        k.level, k.axpy, k.dot, k.norm_inf
    );
}

// ---------------------------------------------------------------------
// Dense-vs-sparse crossover on MNA-shaped systems
// ---------------------------------------------------------------------

/// A diagonally dominant banded system with the connectivity profile of a
/// 2-D cell array flattened into MNA order: nearest-neighbour coupling at
/// `±1` plus grid coupling at `±k` with `k ≈ √n`.
fn grid_pattern(n: usize) -> SparsePattern {
    let k = (n as f64).sqrt().ceil() as usize;
    let mut b = PatternBuilder::new(n);
    for i in 0..n {
        b.add(i, i);
        if i + 1 < n {
            b.add(i, i + 1);
            b.add(i + 1, i);
        }
        if i + k < n {
            b.add(i, i + k);
            b.add(i + k, i);
        }
    }
    b.build()
}

fn fill_grid(n: usize, csc: &mut CscMatrix, dense: Option<&mut DenseMatrix>) {
    let k = (n as f64).sqrt().ceil() as usize;
    csc.clear();
    let mut stamps: Vec<(usize, usize, f64)> = Vec::with_capacity(5 * n);
    for i in 0..n {
        stamps.push((i, i, 4.0 + 0.01 * (i as f64 * 0.37).sin()));
        if i + 1 < n {
            stamps.push((i, i + 1, -0.9));
            stamps.push((i + 1, i, -0.9));
        }
        if i + k < n {
            stamps.push((i, i + k, -0.9));
            stamps.push((i + k, i, -0.9));
        }
    }
    for &(r, c, v) in &stamps {
        csc.add(r, c, v);
    }
    if let Some(d) = dense {
        d.clear();
        for &(r, c, v) in &stamps {
            d.add(r, c, v);
        }
    }
}

struct CrossoverPoint {
    array: String,
    unknowns: usize,
    dense_s: f64,
    sparse_first_s: f64,
    sparse_refactor_s: f64,
}

fn crossover_point(array: &str, n: usize) -> Result<CrossoverPoint, Box<dyn Error>> {
    let pattern = grid_pattern(n);
    let mut csc = CscMatrix::from_pattern(&pattern);
    let mut dense = DenseMatrix::zeros(n, n);
    fill_grid(n, &mut csc, Some(&mut dense));
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut x = vec![0.0; n];

    // Dense: factor + solve. One repetition above ~2k unknowns (the
    // O(n³) factor already runs for seconds there), best-of-3 below.
    let reps = if n > 2000 { 1 } else { 3 };
    let mut dense_s = f64::INFINITY;
    for _ in 0..reps {
        let mut ws = LuWorkspace::with_dim(n);
        let t0 = Instant::now();
        ws.factor_from(&dense)?;
        ws.solve_into(&b, &mut x);
        dense_s = dense_s.min(t0.elapsed().as_secs_f64());
    }
    black_box(&x);

    // Sparse first factor (ordering + symbolic + numeric) ...
    let mut lu = SparseLu::new();
    let t0 = Instant::now();
    lu.factor(&csc)?;
    lu.solve_into(&b, &mut x);
    let sparse_first_s = t0.elapsed().as_secs_f64();
    black_box(&x);

    // ... and the fixed-pattern refactorisation Newton runs afterwards.
    let mut sparse_refactor_s = f64::INFINITY;
    for _ in 0..5 {
        fill_grid(n, &mut csc, None);
        let t0 = Instant::now();
        lu.factor(&csc)?;
        lu.solve_into(&b, &mut x);
        sparse_refactor_s = sparse_refactor_s.min(t0.elapsed().as_secs_f64());
    }
    black_box(&x);
    assert!(
        lu.refactorizations() >= 5,
        "crossover refills must take the refactor path"
    );

    Ok(CrossoverPoint {
        array: array.to_owned(),
        unknowns: n,
        dense_s,
        sparse_first_s,
        sparse_refactor_s,
    })
}

// ---------------------------------------------------------------------
// Array-scale retention cycles
// ---------------------------------------------------------------------

struct CycleRun {
    array: String,
    unknowns: usize,
    build_dc_s: f64,
    store_s: f64,
    shutdown_s: f64,
    restore_s: f64,
    energy_j: f64,
    data_survived: bool,
    steps: StepStats,
}

/// One full NVPG retention cycle (store → super-cutoff shutdown →
/// restore) on an `size × size` checkerboard domain via the sparse
/// backend.
fn retention_cycle(size: usize) -> Result<CycleRun, Box<dyn Error>> {
    let design = CellDesign::table1();
    let t0 = Instant::now();
    let mut dom = DomainArray::with_solver(
        design,
        DomainKind::Nvpg,
        size,
        size,
        SolverChoice::Sparse,
        checkerboard,
    )?;
    let build_dc_s = t0.elapsed().as_secs_f64();
    let before = dom.pattern();
    dom.reset_step_stats();

    let t0 = Instant::now();
    let p_store = dom.store()?;
    let store_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let p_shut = dom.shutdown(true)?;
    let shutdown_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let p_rest = dom.restore()?;
    let restore_s = t0.elapsed().as_secs_f64();

    Ok(CycleRun {
        array: format!("{size}x{size}"),
        unknowns: dom.unknown_count(),
        build_dc_s,
        store_s,
        shutdown_s,
        restore_s,
        energy_j: (p_store.energy + p_shut.energy + p_rest.energy).0,
        data_survived: dom.pattern() == before,
        steps: *dom.step_stats(),
    })
}

struct ArchCycle {
    kind: &'static str,
    energy_j: f64,
    wall_s: f64,
}

/// The three architectures' standby round at 16×16: NVPG and NOF run
/// store → shutdown → restore (normal vs super cutoff), OSR runs
/// sleep → hold → wake — per the paper it never powers off.
fn architecture_cycle(kind: DomainKind) -> Result<ArchCycle, Box<dyn Error>> {
    let design = CellDesign::table1();
    let mut dom =
        DomainArray::with_solver(design, kind, 16, 16, SolverChoice::Sparse, checkerboard)?;
    let t0 = Instant::now();
    let (name, energy) = match kind {
        DomainKind::Nvpg => {
            let e = dom.store()?.energy + dom.shutdown(false)?.energy + dom.restore()?.energy;
            ("nvpg", e)
        }
        DomainKind::Nof => {
            let e = dom.store()?.energy + dom.shutdown(true)?.energy + dom.restore()?.energy;
            ("nof", e)
        }
        DomainKind::Osr => {
            let e = dom.sleep()?.energy + dom.hold(10e-9)?.energy + dom.wake()?.energy;
            ("osr", e)
        }
    };
    Ok(ArchCycle {
        kind: name,
        energy_j: energy.0,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------
// --check: deterministic gates
// ---------------------------------------------------------------------

fn check() -> Result<(), Box<dyn Error>> {
    let mut failures = Vec::new();

    // 1. The two backends must agree cell for cell on an 8×8 domain.
    let design = CellDesign::table1();
    let dense = DomainArray::with_solver(
        design,
        DomainKind::Nvpg,
        8,
        8,
        SolverChoice::Dense,
        checkerboard,
    )?;
    let sparse = DomainArray::with_solver(
        design,
        DomainKind::Nvpg,
        8,
        8,
        SolverChoice::Sparse,
        checkerboard,
    )?;
    if dense.pattern() != sparse.pattern() {
        failures.push("8x8 dense and sparse domains disagree on the data pattern".to_owned());
    }
    for r in 0..8 {
        for c in 0..8 {
            if dense.mtj_states(r, c) != sparse.mtj_states(r, c) {
                failures.push(format!("8x8 MTJ state mismatch at ({r}, {c})"));
            }
        }
    }

    // 2. A 16×16 retention cycle through the sparse backend keeps every
    //    bit and its counters stay in bounds.
    let cycle = retention_cycle(16)?;
    eprintln!("16x16 cycle telemetry: {}", cycle.steps);
    if cycle.unknowns <= SPARSE_THRESHOLD {
        failures.push(format!(
            "16x16 domain has {} unknowns — does not exercise the sparse path",
            cycle.unknowns
        ));
    }
    if !cycle.data_survived {
        failures.push("16x16 checkerboard lost through store/shutdown/restore".to_owned());
    }
    let (lo, hi) = BOUNDS.cycle_steps;
    if !(lo..=hi).contains(&cycle.steps.accepted_steps) {
        failures.push(format!(
            "cycle accepted_steps {} outside [{lo}, {hi}]",
            cycle.steps.accepted_steps
        ));
    }
    let ips = cycle.steps.iterations_per_solve();
    let (lo, hi) = BOUNDS.iterations_per_solve;
    if !(lo..=hi).contains(&ips) {
        failures.push(format!(
            "iterations_per_solve {ips:.3} outside [{lo}, {hi}]"
        ));
    }
    if cycle.steps.refactorizations_avoided == 0 {
        failures.push("refactorizations_avoided is 0 — modified Newton is dead on sparse".into());
    }
    if cycle.steps.device_bypasses == 0 {
        failures.push("device_bypasses is 0 — the eval bypass is dead on the domain".into());
    }

    // 3. The sparse refactor path must actually engage on a refill.
    let n = 512;
    let pattern = grid_pattern(n);
    let mut csc = CscMatrix::from_pattern(&pattern);
    fill_grid(n, &mut csc, None);
    let mut lu = SparseLu::new();
    lu.factor(&csc)?;
    fill_grid(n, &mut csc, None);
    lu.factor(&csc)?;
    if lu.refactorizations() == 0 {
        failures.push("SparseLu refill took a full factorisation, not the refactor path".into());
    }

    if failures.is_empty() {
        eprintln!("check OK ({} SIMD level)", simd::level().name());
        Ok(())
    } else {
        Err(format!("perf-regression check failed:\n  {}", failures.join("\n  ")).into())
    }
}

// ---------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------

fn steps_json(s: &StepStats) -> String {
    format!(
        "{{\"accepted_steps\": {}, \"rejected_lte\": {}, \"rejected_newton\": {}, \
         \"newton_iterations\": {}, \"newton_solves\": {}, \
         \"iterations_per_solve\": {:.3}, \
         \"jacobian_refactorizations\": {}, \"refactorizations_avoided\": {}, \
         \"reuse_rate\": {:.3}, \
         \"device_evals\": {}, \"device_bypasses\": {}, \"bypass_rate\": {:.3}}}",
        s.accepted_steps,
        s.rejected_lte,
        s.rejected_newton,
        s.newton_iterations,
        s.newton_solves,
        s.iterations_per_solve(),
        s.jacobian_refactorizations,
        s.refactorizations_avoided,
        s.reuse_rate(),
        s.device_evals,
        s.device_bypasses,
        s.bypass_rate(),
    )
}

fn kernels_json(k: &KernelRates) -> String {
    format!(
        "{{\"axpy\": {:.4e}, \"dot\": {:.4e}, \"norm_inf\": {:.4e}}}",
        k.axpy, k.dot, k.norm_inf
    )
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut out = String::from("BENCH_PR6.json");
    let mut check_only = false;
    let mut probe_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or("--out requires a path")?,
            "--check" => check_only = true,
            "--kernel-probe" => probe_only = true,
            "--help" | "-h" => {
                println!("usage: bench_pr6 [--out FILE] [--check]");
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    if probe_only {
        kernel_probe();
        return Ok(());
    }
    if check_only {
        return check();
    }

    eprintln!("measuring SIMD kernels ({} level)...", simd::level().name());
    let kernels = measure_kernels();
    eprintln!("re-measuring with NVPG_SIMD=scalar in a child process...");
    let scalar = measure_scalar_in_child();
    if scalar.is_none() {
        eprintln!("  (scalar child probe unavailable; ratios omitted)");
    }

    let mut cycles = Vec::new();
    for size in [16usize, 32, 64] {
        eprintln!("{size}x{size} NVPG retention cycle via sparse...");
        let c = retention_cycle(size)?;
        eprintln!(
            "  build {:.2} s, store {:.2} s, shutdown {:.2} s, restore {:.2} s, \
             data {}",
            c.build_dc_s,
            c.store_s,
            c.shutdown_s,
            c.restore_s,
            if c.data_survived { "OK" } else { "LOST" }
        );
        if !c.data_survived {
            return Err(format!("{size}x{size} retention cycle lost data").into());
        }
        cycles.push(c);
    }

    // Unknown counts come from the real netlists (the cycle domains for
    // 16×16/32×32, a sizing build for 8×8); the crossover matrices are
    // sized to match so the linear-algebra comparison reflects the
    // systems Newton actually hands the backends.
    let n8 = DomainArray::with_solver(
        CellDesign::table1(),
        DomainKind::Nvpg,
        8,
        8,
        SolverChoice::Sparse,
        checkerboard,
    )?
    .unknown_count();
    let n16 = cycles[0].unknowns;
    let n32 = cycles[1].unknowns;
    let mut crossover = Vec::new();
    for (label, n) in [("8x8", n8), ("16x16", n16), ("32x32", n32)] {
        eprintln!("crossover at {label} ({n} unknowns)...");
        let p = crossover_point(label, n)?;
        eprintln!(
            "  dense {:.3e} s, sparse first {:.3e} s, sparse refactor {:.3e} s",
            p.dense_s, p.sparse_first_s, p.sparse_refactor_s
        );
        crossover.push(p);
    }

    eprintln!("architecture comparison at 16x16 (NVPG / OSR / NOF)...");
    let arch: Vec<ArchCycle> = [DomainKind::Nvpg, DomainKind::Osr, DomainKind::Nof]
        .into_iter()
        .map(architecture_cycle)
        .collect::<Result<_, _>>()?;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"bench_pr6\",");
    let _ = writeln!(json, "  \"simd\": {{");
    let _ = writeln!(json, "    \"level\": \"{}\",", kernels.level);
    let _ = writeln!(
        json,
        "    \"kernels_elems_per_s\": {},",
        kernels_json(&kernels)
    );
    match &scalar {
        Some(s) => {
            let _ = writeln!(json, "    \"scalar_elems_per_s\": {},", kernels_json(s));
            let _ = writeln!(
                json,
                "    \"speedup_vs_scalar\": {{\"axpy\": {:.3}, \"dot\": {:.3}, \
                 \"norm_inf\": {:.3}}}",
                kernels.axpy / s.axpy,
                kernels.dot / s.dot,
                kernels.norm_inf / s.norm_inf
            );
        }
        None => {
            let _ = writeln!(json, "    \"scalar_elems_per_s\": null,");
            let _ = writeln!(json, "    \"speedup_vs_scalar\": null");
        }
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"crossover\": [");
    for (i, p) in crossover.iter().enumerate() {
        let comma = if i + 1 < crossover.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"array\": \"{}\", \"unknowns\": {}, \"dense_factor_solve_s\": {:.6e}, \
             \"sparse_first_factor_s\": {:.6e}, \"sparse_refactor_solve_s\": {:.6e}, \
             \"dense_over_sparse_first\": {:.2}, \"dense_over_sparse_refactor\": {:.2}}}{comma}",
            p.array,
            p.unknowns,
            p.dense_s,
            p.sparse_first_s,
            p.sparse_refactor_s,
            p.dense_s / p.sparse_first_s,
            p.dense_s / p.sparse_refactor_s,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"array_transients\": [");
    for (i, c) in cycles.iter().enumerate() {
        let comma = if i + 1 < cycles.len() { "," } else { "" };
        let total = c.store_s + c.shutdown_s + c.restore_s;
        let _ = writeln!(
            json,
            "    {{\"array\": \"{}\", \"kind\": \"nvpg\", \"solver\": \"sparse\", \
             \"unknowns\": {}, \"build_dc_s\": {:.3}, \"store_s\": {:.3}, \
             \"shutdown_s\": {:.3}, \"restore_s\": {:.3}, \"cycle_total_s\": {:.3}, \
             \"cycle_energy_j\": {:.6e}, \"data_survived\": {}, \"steps\": {}}}{comma}",
            c.array,
            c.unknowns,
            c.build_dc_s,
            c.store_s,
            c.shutdown_s,
            c.restore_s,
            total,
            c.energy_j,
            c.data_survived,
            steps_json(&c.steps),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"architecture_cycle_16x16\": {{");
    for (i, a) in arch.iter().enumerate() {
        let comma = if i + 1 < arch.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"energy_j\": {:.6e}, \"wall_s\": {:.3}}}{comma}",
            a.kind, a.energy_j, a.wall_s
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"notes\": \"Counters under steps are deterministic; wall seconds are not. \
         Crossover systems are banded stand-ins sized to the real domain unknown \
         counts (dense factor+solve vs sparse first factor and fixed-pattern \
         refactor+solve). Array transients run store/shutdown(super)/restore on \
         checkerboard NVPG domains through the sparse backend. The scalar SIMD \
         reference is measured in a child process because the dispatch level is \
         resolved once per process.\""
    );
    json.push_str("}\n");

    std::fs::write(&out, &json)?;
    let c64 = cycles.last().expect("64x64 cycle present");
    eprintln!(
        "wrote {out} (64x64 cycle {:.1} s wall, {} unknowns; dense/sparse at 32x32: {:.0}x)",
        c64.store_s + c64.shutdown_s + c64.restore_s,
        c64.unknowns,
        crossover
            .last()
            .map(|p| p.dense_s / p.sparse_refactor_s)
            .unwrap_or(f64::NAN)
    );
    Ok(())
}

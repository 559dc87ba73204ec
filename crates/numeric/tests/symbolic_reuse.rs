//! Wall-clock gate for `NewtonSolver`'s cached symbolic analysis: 1 000
//! same-pattern sparse solves on one reused workspace (one ordering and
//! symbolic analysis, then a refactorisation per solve) must run at
//! least 3× the solves per second of a fresh workspace per solve (a full
//! factorisation each time), with answers within 1e-6.
//!
//! Every sparse transient leans on this cache: each Newton iteration and
//! step after the first factor refactors over its analysis. A workspace
//! kept per netlist across analyses would lean on it too.
//!
//! The only test in its file, so no sibling test shares the CPU while it
//! is timed.

use std::time::Instant;

use nvpg_numeric::{
    CscMatrix, DenseMatrix, NewtonOptions, NewtonOutcome, NewtonSolver, NonlinearSystem,
    PatternBuilder, Rng64, SparsePattern,
};

/// Unknowns of the Monte-Carlo system: an 18×18 grid flattened to MNA
/// order, the size where the symbolic analysis costs ~10× one refactor,
/// which is exactly what a reused workspace amortises.
const UNKNOWNS: usize = 324;
/// Monte-Carlo points.
const POINTS: usize = 1000;
/// Seed of the variation stream.
const SEED: u64 = 0x6d63505238;

/// A grid-connected nonlinear network: diagonally dominant linear part
/// with nearest-neighbour (±1) and grid (±√n) coupling, the connectivity
/// profile of the domain netlists, plus a cubic diagonal nonlinearity so
/// Newton takes a few genuine iterations. Each sample perturbs the
/// diagonal conductances and the sources, as device variation perturbs
/// MNA stamps over a fixed topology.
struct GridMc {
    n: usize,
    k: usize,
    gdiag: Vec<f64>,
    src: Vec<f64>,
}

impl GridMc {
    /// Sample `i` of the variation stream (split streams: the solve order
    /// never changes the draw).
    fn sample(n: usize, seed: u64, i: u64) -> Self {
        let mut rng = Rng64::split(seed, i);
        GridMc {
            n,
            k: (n as f64).sqrt().ceil() as usize,
            gdiag: (0..n).map(|_| 4.0 + 0.2 * rng.normal()).collect(),
            src: (0..n).map(|_| 0.5 + 0.1 * rng.normal()).collect(),
        }
    }

    fn residual(&self, x: &[f64], residual: &mut [f64]) {
        let (n, k) = (self.n, self.k);
        for i in 0..n {
            let mut r = self.gdiag[i] * x[i] + 0.1 * x[i] * x[i] * x[i] - self.src[i];
            if i >= 1 {
                r += 0.9 * (x[i] - x[i - 1]);
            }
            if i + 1 < n {
                r += 0.9 * (x[i] - x[i + 1]);
            }
            if i >= k {
                r += 0.9 * (x[i] - x[i - k]);
            }
            if i + k < n {
                r += 0.9 * (x[i] - x[i + k]);
            }
            residual[i] = r;
        }
    }

    #[allow(clippy::needless_range_loop)] // `i` walks gdiag and x in lockstep
    fn stamp(&self, x: &[f64], mut add: impl FnMut(usize, usize, f64)) {
        let (n, k) = (self.n, self.k);
        for i in 0..n {
            let mut diag = self.gdiag[i] + 0.3 * x[i] * x[i];
            if i >= 1 {
                diag += 0.9;
                add(i, i - 1, -0.9);
            }
            if i + 1 < n {
                diag += 0.9;
                add(i, i + 1, -0.9);
            }
            if i >= k {
                diag += 0.9;
                add(i, i - k, -0.9);
            }
            if i + k < n {
                diag += 0.9;
                add(i, i + k, -0.9);
            }
            add(i, i, diag);
        }
    }
}

impl NonlinearSystem for GridMc {
    fn dim(&self) -> usize {
        self.n
    }

    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix) {
        self.residual(x, residual);
        self.stamp(x, |r, c, v| jacobian.add(r, c, v));
    }

    fn eval_sparse(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut CscMatrix) -> bool {
        self.residual(x, residual);
        jacobian.clear();
        self.stamp(x, |r, c, v| jacobian.add(r, c, v));
        true
    }
}

/// The structural pattern of [`GridMc`]: the fixed topology every sample
/// shares.
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

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only gate: cargo test --release")]
fn reused_workspace_solves_three_times_faster_than_fresh_ones() {
    let n = UNKNOWNS;
    let opts = NewtonOptions::default();

    // Fresh: per point, the pattern, matrix and solver a standalone
    // solve builds, with the symbolic analysis paid inside the first
    // factor.
    let mut fresh_x = vec![0.0f64; POINTS * n];
    let t0 = Instant::now();
    for (p, x) in fresh_x.chunks_exact_mut(n).enumerate() {
        let mut solver = NewtonSolver::with_sparse(opts, &grid_pattern(n));
        let mut system = GridMc::sample(n, SEED, p as u64);
        let outcome = solver.solve(&mut system, x);
        assert!(
            matches!(outcome, NewtonOutcome::Converged { .. }),
            "fresh-workspace point {p} failed to converge: {outcome:?}"
        );
    }
    let fresh_s = t0.elapsed().as_secs_f64();

    // Reused: one workspace for every point, so the first factor's
    // symbolic analysis serves all later points through refactorisation.
    let mut reused_x = vec![0.0f64; POINTS * n];
    let t0 = Instant::now();
    let mut solver = NewtonSolver::with_sparse(opts, &grid_pattern(n));
    for (p, x) in reused_x.chunks_exact_mut(n).enumerate() {
        let mut system = GridMc::sample(n, SEED, p as u64);
        let outcome = solver.solve(&mut system, x);
        assert!(
            matches!(outcome, NewtonOutcome::Converged { .. }),
            "reused-workspace point {p} failed to converge: {outcome:?}"
        );
    }
    let reused_s = t0.elapsed().as_secs_f64();

    let mut devs = fresh_x.iter().zip(&reused_x).map(|(f, r)| (f - r).abs());
    let max_dev = devs.clone().fold(0.0f64, f64::max);
    // `all` also fails on a NaN deviation, which `f64::max` would skip.
    assert!(
        devs.all(|d| d < 1e-6),
        "reused- and fresh-workspace solutions deviate by {max_dev:.3e}"
    );
    let speedup = fresh_s / reused_s.max(1e-12);
    assert!(
        speedup >= 3.0,
        "a reused workspace solves {speedup:.2}x the points/s of fresh ones (gate: >= 3x; \
         fresh {fresh_s:.3} s, reused {reused_s:.3} s)"
    );
}

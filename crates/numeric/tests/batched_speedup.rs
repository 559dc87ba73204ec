//! Wall-clock gate for the batched sparse backend: a 1 000-sample
//! Monte-Carlo over one shared symbolic schedule must solve at least 3×
//! the points per second of the serial engine, with identical answers.
//!
//! The only test in its file, so no sibling test shares the CPU while it
//! is timed.

use std::time::Instant;

use nvpg_numeric::{
    BatchedNewton, BatchedSparseLu, CscMatrix, DenseMatrix, LaneOutcome, NewtonOptions,
    NewtonOutcome, NewtonSolver, NonlinearSystem, PatternBuilder, PeelReason, Rng64, SparsePattern,
};

/// Unknowns of the Monte-Carlo system: an 18×18 grid flattened to MNA
/// order, the size where the symbolic analysis costs ~10× one refactor,
/// which is exactly what batching amortises.
const UNKNOWNS: usize = 324;
/// Monte-Carlo points.
const POINTS: usize = 1000;
/// Lock-step lanes per batch chunk (the production
/// `DEFAULT_BATCH_LANES` width).
const CHUNK: usize = 64;
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
    /// Sample `i` of the variation stream (split streams: the lane count
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
fn batched_monte_carlo_is_three_times_serial() {
    let n = UNKNOWNS;
    let opts = NewtonOptions::default();

    // Serial: per point, the pattern, matrix and solver the serial
    // Monte-Carlo loop builds, with the symbolic analysis paid inside the
    // first factor.
    let mut serial_x = vec![0.0f64; POINTS * n];
    let t0 = Instant::now();
    for (p, x) in serial_x.chunks_exact_mut(n).enumerate() {
        let mut solver = NewtonSolver::with_sparse(opts, &grid_pattern(n));
        let mut system = GridMc::sample(n, SEED, p as u64);
        let outcome = solver.solve(&mut system, x);
        assert!(
            matches!(outcome, NewtonOutcome::Converged { .. }),
            "serial point {p} failed to converge: {outcome:?}"
        );
    }
    let serial_s = t0.elapsed().as_secs_f64();

    // Batched: one symbolic schedule shared by every lane, `CHUNK`
    // lock-step lanes at a time (wide enough to amortise the symbolic
    // analysis, narrow enough that the per-lane L/U values stay in cache).
    let mut batched_x = vec![0.0f64; POINTS * n];
    let mut outcomes = vec![
        LaneOutcome::Peeled {
            iteration: 0,
            reason: PeelReason::IterationLimit,
        };
        POINTS
    ];
    let t0 = Instant::now();
    let mut newton = BatchedNewton::new(BatchedSparseLu::new(&grid_pattern(n), CHUNK), opts);
    for (c, (x, out)) in batched_x
        .chunks_mut(CHUNK * n)
        .zip(outcomes.chunks_mut(CHUNK))
        .enumerate()
    {
        let mut systems: Vec<GridMc> = (c * CHUNK..c * CHUNK + out.len())
            .map(|i| GridMc::sample(n, SEED, i as u64))
            .collect();
        newton.solve(&mut systems, x, out);
    }
    let batched_s = t0.elapsed().as_secs_f64();

    let peeled = outcomes
        .iter()
        .filter(|o| matches!(o, LaneOutcome::Peeled { .. }))
        .count();
    assert_eq!(peeled, 0, "well-conditioned lanes peeled off the batch");
    let mut devs = serial_x.iter().zip(&batched_x).map(|(s, b)| (s - b).abs());
    let max_dev = devs.clone().fold(0.0f64, f64::max);
    // `all` also fails on a NaN deviation, which `f64::max` would skip.
    assert!(
        devs.all(|d| d < 1e-6),
        "batched and serial solutions deviate by {max_dev:.3e}"
    );
    let speedup = serial_s / batched_s.max(1e-12);
    assert!(
        speedup >= 3.0,
        "batched Monte-Carlo is {speedup:.2}x serial points/s (gate: >= 3x; \
         serial {serial_s:.3} s, batched {batched_s:.3} s)"
    );
}

//! Verifies the Newton hot path performs zero heap allocations after
//! warm-up: the first `solve` sizes the residual/Jacobian/LU/delta
//! buffers, and every subsequent solve at the same dimension reuses them.
//!
//! The check uses a counting global allocator, so this lives in its own
//! integration-test binary. The allocator counts only on the measuring
//! thread, so libtest's own threads and sibling tests running in parallel
//! never land in a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvpg_numeric::{
    CscMatrix, DenseMatrix, NewtonOptions, NewtonSolver, NonlinearSystem, PatternBuilder, SparseLu,
    SparsePattern,
};

thread_local! {
    /// Allocations made on this thread inside a measured window; `None`
    /// outside one. `const`-initialised and drop-free, so reading it from
    /// the allocator never allocates.
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = MEASURED.try_with(|m| {
        if let Some(n) = m.get() {
            m.set(Some(n + 1));
        }
    });
}

/// Runs `f` and returns the number of allocations it made on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    MEASURED.with(|m| m.set(Some(0)));
    f();
    MEASURED
        .with(Cell::take)
        .expect("measured window still open")
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// only a counter is added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn allocations_inside_the_window_are_counted() {
    let allocs = allocations_in(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(16));
    });
    assert_eq!(allocs, 1, "a deliberate allocation must be counted");
}

/// A dense nonlinear system with the flavour of an MNA stamp: diagonally
/// dominant linear part plus a cubic diagonal nonlinearity. When
/// `cheap_residuals` is set it also serves residual-only evaluations, so
/// the modified-Newton stale-LU path is reachable.
struct CubicNetwork {
    n: usize,
    cheap_residuals: bool,
}

impl CubicNetwork {
    fn residual(&self, x: &[f64], residual: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            let mut r = x[i] * x[i] * x[i] + 4.0 * x[i] - 1.0;
            for j in 0..n {
                if j != i {
                    let g = 0.25 / (1.0 + (i + j) as f64);
                    r += g * (x[i] - x[j]);
                }
            }
            residual[i] = r;
        }
    }
}

impl NonlinearSystem for CubicNetwork {
    fn dim(&self) -> usize {
        self.n
    }

    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix) {
        let n = self.n;
        self.residual(x, residual);
        for i in 0..n {
            jacobian[(i, i)] = 3.0 * x[i] * x[i] + 4.0;
            for j in 0..n {
                if j != i {
                    let g = 0.25 / (1.0 + (i + j) as f64);
                    jacobian[(i, i)] += g;
                    jacobian[(i, j)] -= g;
                }
            }
        }
    }

    fn eval_residual_only(&mut self, x: &[f64], residual: &mut [f64]) -> bool {
        if !self.cheap_residuals {
            return false;
        }
        self.residual(x, residual);
        true
    }

    fn eval_sparse(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut CscMatrix) -> bool {
        let n = self.n;
        self.residual(x, residual);
        jacobian.clear();
        for (i, &xi) in x.iter().enumerate() {
            jacobian.add(i, i, 3.0 * xi * xi + 4.0);
            for j in 0..n {
                if j != i {
                    let g = 0.25 / (1.0 + (i + j) as f64);
                    jacobian.add(i, i, g);
                    jacobian.add(i, j, -g);
                }
            }
        }
        true
    }
}

/// The fully coupled pattern of [`CubicNetwork`].
fn full_pattern(n: usize) -> SparsePattern {
    let mut builder = PatternBuilder::new(n);
    for i in 0..n {
        for j in 0..n {
            builder.add(i, j);
        }
    }
    builder.build()
}

#[test]
fn newton_solve_allocates_nothing_after_warmup() {
    let n = 24;
    let mut solver = NewtonSolver::new(NewtonOptions {
        max_step: f64::INFINITY,
        ..NewtonOptions::default()
    });
    let mut system = CubicNetwork {
        n,
        cheap_residuals: false,
    };
    let mut x = vec![0.5; n];

    // Warm-up: sizes every internal buffer for dimension `n`.
    assert!(solver.solve(&mut system, &mut x).is_converged());

    let allocs = allocations_in(|| {
        for round in 0..10 {
            // Perturb so each solve genuinely iterates.
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += 0.3 * (1.0 + (round + i) as f64 * 0.01);
            }
            assert!(solver.solve(&mut system, &mut x).is_converged());
        }
    });

    assert_eq!(
        allocs, 0,
        "Newton hot path allocated {allocs} time(s) after warm-up"
    );
    assert!(solver.total_iterations() > 10);
}

#[test]
fn modified_newton_stale_path_allocates_nothing_after_warmup() {
    let n = 24;
    let mut solver = NewtonSolver::new(NewtonOptions {
        max_step: f64::INFINITY,
        reuse_jacobian: true,
        ..NewtonOptions::default()
    });
    let mut system = CubicNetwork {
        n,
        cheap_residuals: true,
    };
    let mut x = vec![0.5; n];
    assert!(solver.solve(&mut system, &mut x).is_converged());

    let allocs = allocations_in(|| {
        for round in 0..10 {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += 0.1 * (1.0 + (round + i) as f64 * 0.01);
            }
            assert!(solver.solve(&mut system, &mut x).is_converged());
        }
    });

    assert_eq!(
        allocs, 0,
        "modified-Newton stale path allocated {allocs} time(s) after warm-up"
    );
    // The stale-LU path actually ran: iterations were served without a
    // refactorisation.
    assert!(
        solver.refactorizations_avoided() > 0,
        "no iteration reused the factorisation"
    );
}

#[test]
fn sparse_newton_allocates_nothing_after_symbolic_analysis() {
    let n = 24;
    let mut solver = NewtonSolver::with_sparse(
        NewtonOptions {
            max_step: f64::INFINITY,
            ..NewtonOptions::default()
        },
        &full_pattern(n),
    );
    let mut system = CubicNetwork {
        n,
        cheap_residuals: false,
    };
    let mut x = vec![0.5; n];

    // Warm-up: the first solve performs the symbolic analysis (ordering,
    // reach sets, factor storage) and sizes every buffer.
    assert!(solver.solve(&mut system, &mut x).is_converged());

    let allocs = allocations_in(|| {
        for round in 0..10 {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += 0.3 * (1.0 + (round + i) as f64 * 0.01);
            }
            assert!(solver.solve(&mut system, &mut x).is_converged());
        }
    });

    assert_eq!(
        allocs, 0,
        "sparse Newton hot path allocated {allocs} time(s) after symbolic analysis"
    );
    // The hot path genuinely refactored into the preallocated buffers
    // rather than re-running the full (repivoting) factorisation.
    let lu = solver
        .linear_solver()
        .sparse_lu()
        .expect("sparse backend in use");
    assert_eq!(lu.full_factorizations(), 1, "symbolic analysis ran once");
    assert!(lu.refactorizations() >= 10, "refactor path served the loop");
}

#[test]
fn sparse_modified_newton_stale_path_allocates_nothing() {
    let n = 24;
    let mut solver = NewtonSolver::with_sparse(
        NewtonOptions {
            max_step: f64::INFINITY,
            reuse_jacobian: true,
            ..NewtonOptions::default()
        },
        &full_pattern(n),
    );
    let mut system = CubicNetwork {
        n,
        cheap_residuals: true,
    };
    let mut x = vec![0.5; n];
    assert!(solver.solve(&mut system, &mut x).is_converged());

    let allocs = allocations_in(|| {
        for round in 0..10 {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += 0.1 * (1.0 + (round + i) as f64 * 0.01);
            }
            assert!(solver.solve(&mut system, &mut x).is_converged());
        }
    });

    assert_eq!(
        allocs, 0,
        "sparse modified-Newton stale path allocated {allocs} time(s) after warm-up"
    );
    assert!(
        solver.refactorizations_avoided() > 0,
        "no iteration reused the sparse factorisation"
    );
}

#[test]
fn sparse_lu_refactor_and_solve_allocate_nothing() {
    let n = 32;
    // A tridiagonal-plus-arrow system with genuine fill.
    let mut builder = PatternBuilder::new(n);
    for i in 0..n {
        builder.add(i, i);
        if i + 1 < n {
            builder.add(i, i + 1);
            builder.add(i + 1, i);
        }
        builder.add(i, n - 1);
        builder.add(n - 1, i);
    }
    let pattern = builder.build();
    let mut a = CscMatrix::from_pattern(&pattern);
    let fill = |a: &mut CscMatrix, shift: f64| {
        a.clear();
        for i in 0..n {
            a.add(i, i, 8.0 + i as f64 + shift);
            if i + 1 < n {
                a.add(i, i + 1, -1.0);
                a.add(i + 1, i, -2.0);
            }
            a.add(i, n - 1, 0.5);
            a.add(n - 1, i, 0.25);
        }
    };
    fill(&mut a, 0.0);

    let mut lu = SparseLu::new();
    lu.factor(&a).expect("nonsingular");
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];

    let allocs = allocations_in(|| {
        for round in 0..10 {
            fill(&mut a, round as f64 * 0.1);
            lu.factor(&a).expect("nonsingular");
            lu.solve_into(&b, &mut x);
            lu.solve_neg_into(&b, &mut x);
        }
    });
    assert_eq!(allocs, 0, "SparseLu refactor/solve cycle allocated");
    assert_eq!(lu.full_factorizations(), 1);
    assert_eq!(lu.refactorizations(), 10);
    assert!(x.iter().all(|v| v.is_finite()));
}

#[test]
fn lu_solve_into_allocates_nothing() {
    use nvpg_numeric::LuWorkspace;

    let n = 16;
    let mut a = DenseMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 4.0 + i as f64;
        if i + 1 < n {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];

    // `LuFactors::solve_into`: factor once (allocates), then solve
    // repeatedly into a caller buffer with zero allocations.
    let factors = a.lu().expect("nonsingular");
    let allocs = allocations_in(|| {
        for _ in 0..10 {
            factors.solve_into(&b, &mut x);
        }
    });
    assert_eq!(allocs, 0, "LuFactors::solve_into allocated");
    assert!(x.iter().all(|v| v.is_finite() && *v != 0.0));

    // `LuWorkspace`: after the first factorisation sizes the buffers,
    // refactor + solve cycles allocate nothing.
    let mut ws = LuWorkspace::with_dim(n);
    ws.factor_from(&a).expect("nonsingular");
    let allocs = allocations_in(|| {
        for round in 0..10 {
            a[(0, 0)] = 4.0 + round as f64 * 0.1;
            ws.factor_from(&a).expect("nonsingular");
            ws.solve_into(&b, &mut x);
            ws.solve_neg_into(&b, &mut x);
        }
    });
    assert_eq!(allocs, 0, "LuWorkspace factor/solve cycle allocated");
}

//! Sparse linear algebra for array-scale MNA systems.
//!
//! A 64×64 NV-SRAM array produces a Jacobian with ~17 000 unknowns and a few
//! hundred thousand structural nonzeros; a dense O(n³) factorisation is hours
//! per solve there, while the sparse factorisation below is milliseconds.
//! Three pieces:
//!
//! * [`SparsePattern`] / [`PatternBuilder`] — the structural nonzero set of a
//!   circuit topology, collected once from a pattern-only MNA assembly and
//!   shared by every Newton iteration, transient step, and rescue retry.
//! * [`CscMatrix`] — compressed-sparse-column storage over a **fixed**
//!   pattern; `add` is a per-column binary search (`slot` + `add_at` let a
//!   caller that stamps the same positions every time search only once),
//!   `clear` zeroes values without touching structure, so assembly is
//!   alloc-free.
//! * [`SparseLu`] — left-looking Gilbert–Peierls LU with threshold partial
//!   pivoting (diagonal-preferring, as in KLU) over a fill-reducing
//!   minimum-degree column ordering. The **first** factorisation performs the
//!   symbolic analysis (pivot sequence + L/U patterns); every subsequent
//!   [`SparseLu::factor`] call reuses that analysis and runs a fixed-pattern
//!   numeric *refactorisation* into preallocated buffers — zero heap
//!   allocations, matching the dense `LuWorkspace` discipline. A pivot-decay
//!   monitor falls back to a full re-pivoting factorisation if the cached
//!   pivot sequence degrades numerically.
//!
//! Singularity is reported through the same [`SingularMatrixError`] as the
//! dense path, with `column` holding the *original* unknown index (not the
//! permuted position), so node-name diagnostics work unchanged upstream.

use crate::cancel;
use crate::matrix::{DenseMatrix, SingularMatrixError};
use crate::simd;

const NONE: usize = usize::MAX;

/// Structural nonzero set of an `n × n` matrix, in sorted CSC form.
#[derive(Debug, Clone)]
pub struct SparsePattern {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
}

impl SparsePattern {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }
}

/// Collects `(row, col)` stamp positions and produces a deduplicated
/// [`SparsePattern`].
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    entries: Vec<(usize, usize)>, // (col, row)
}

impl PatternBuilder {
    /// Starts a builder for an `n × n` pattern.
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Records position `(row, col)`; duplicates are fine.
    pub fn add(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.n && col < self.n);
        self.entries.push((col, row));
    }

    /// Sorts, deduplicates, and freezes the pattern.
    pub fn build(mut self) -> SparsePattern {
        self.entries.sort_unstable();
        self.entries.dedup();
        let mut colptr = vec![0usize; self.n + 1];
        for &(c, _) in &self.entries {
            colptr[c + 1] += 1;
        }
        for c in 0..self.n {
            colptr[c + 1] += colptr[c];
        }
        let rowind = self.entries.iter().map(|&(_, r)| r).collect();
        SparsePattern {
            n: self.n,
            colptr,
            rowind,
        }
    }
}

/// Compressed-sparse-column matrix over a fixed structural pattern.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates a zero-valued matrix over `pattern`.
    pub fn from_pattern(pattern: &SparsePattern) -> Self {
        CscMatrix {
            n: pattern.n,
            colptr: pattern.colptr.clone(),
            rowind: pattern.rowind.clone(),
            values: vec![0.0; pattern.rowind.len()],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Zeroes all values; the pattern is untouched.
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// Storage slot of `(row, col)` (a binary search over its column), or
    /// `None` outside the pattern. Slots are fixed with the pattern, so a
    /// caller that stamps the same positions again and again can look
    /// them up once and add through [`CscMatrix::add_at`].
    #[inline]
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.colptr[col];
        let hi = self.colptr[col + 1];
        self.rowind[lo..hi]
            .binary_search(&row)
            .ok()
            .map(|off| lo + off)
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is not part of the structural pattern — a stamp
    /// outside the analysed topology is a logic error, not a numeric one.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        match self.slot(row, col) {
            Some(p) => self.values[p] += value,
            None => panic!("stamp at ({row}, {col}) outside the sparse pattern"),
        }
    }

    /// Adds `value` at storage slot `slot`, as returned by
    /// [`CscMatrix::slot`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.nnz()`.
    #[inline]
    pub fn add_at(&mut self, slot: usize, value: f64) {
        self.values[slot] += value;
    }

    /// Value at `(row, col)`, `0.0` for positions outside the pattern.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |p| self.values[p])
    }

    /// `y = A·x` (sparse matvec, column-major scatter).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for p in self.colptr[c]..self.colptr[c + 1] {
                y[self.rowind[p]] += self.values[p] * xc;
            }
        }
    }

    /// Dense copy, for tests and differential checks.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for p in self.colptr[c]..self.colptr[c + 1] {
                d.add(self.rowind[p], c, self.values[p]);
            }
        }
        d
    }
}

/// Fill-reducing ordering via approximate minimum degree on the symmetrised
/// pattern `A + Aᵀ` (quotient-graph formulation, elements absorbed on
/// elimination). Returns `order` with `order[k]` = the original index
/// eliminated (pivoted) at step `k`. Deterministic: ties break on the
/// smallest node index.
pub fn min_degree_order(
    pattern_colptr: &[usize],
    pattern_rowind: &[usize],
    n: usize,
) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Symmetrised adjacency (no self-loops), sorted + deduped.
    let mut adj_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..n {
        for &r in &pattern_rowind[pattern_colptr[c]..pattern_colptr[c + 1]] {
            if r != c {
                adj_vars[r].push(c);
                adj_vars[c].push(r);
            }
        }
    }
    for a in &mut adj_vars {
        a.sort_unstable();
        a.dedup();
    }

    let mut adj_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = adj_vars.iter().map(Vec::len).collect();
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, &d) in degree.iter().enumerate() {
        heap.push(Reverse((d, v)));
    }
    let mut mark = vec![0u64; n];
    let mut stamp = 0u64;
    let mut order = Vec::with_capacity(n);
    let mut varset: Vec<usize> = Vec::new();

    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || deg != degree[v] {
            continue; // stale heap entry
        }
        eliminated[v] = true;
        order.push(v);

        // Reachable uneliminated variables: direct neighbours plus the
        // variables of every adjacent element.
        stamp += 1;
        mark[v] = stamp;
        varset.clear();
        for &u in &adj_vars[v] {
            if !eliminated[u] && mark[u] != stamp {
                mark[u] = stamp;
                varset.push(u);
            }
        }
        for &e in &adj_elems[v] {
            if absorbed[e] {
                continue;
            }
            for &u in &elem_vars[e] {
                if !eliminated[u] && mark[u] != stamp {
                    mark[u] = stamp;
                    varset.push(u);
                }
            }
            // Absorbed into the new element formed by eliminating `v`.
            absorbed[e] = true;
            elem_vars[e] = Vec::new();
        }
        adj_vars[v] = Vec::new();
        adj_elems[v] = Vec::new();
        if varset.is_empty() {
            continue;
        }
        varset.sort_unstable();
        elem_vars[v] = varset.clone();

        for &u in &varset {
            // Drop eliminated variables and absorbed elements from u's lists,
            // attach the new element, and refresh the approximate degree
            // (|variable neighbours| + Σ |element variable lists|, an AMD-style
            // upper bound that over-counts shared variables).
            let elim = &eliminated;
            adj_vars[u].retain(|&w| !elim[w]);
            adj_elems[u].retain(|&e| !absorbed[e]);
            adj_elems[u].push(v);
            let mut d = adj_vars[u].len();
            for &e in &adj_elems[u] {
                d += elem_vars[e].len().saturating_sub(1); // minus u itself
            }
            degree[u] = d;
            heap.push(Reverse((d, u)));
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Why a fixed-pattern refactorisation could not be completed.
pub(crate) enum RefactorFailure {
    /// The cached pivot sequence hit a non-finite / vanishing / badly decayed
    /// pivot; a full re-pivoting factorisation may still succeed.
    Unstable,
}

/// Sparse LU workspace: symbolic analysis cached across numeric
/// refactorisations, preallocated buffers, zero-alloc steady state.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    n: usize,
    analyzed: bool,
    /// Threshold for preferring the diagonal during partial pivoting.
    pivot_tol: f64,
    /// Relative pivot-decay bound under which a refactorisation bails out to
    /// a full re-pivoting factorisation.
    refactor_guard: f64,

    /// Fill-reducing column order: pivot column `j` factors `A[:, q[j]]`.
    q: Vec<usize>,
    /// `pinv[original_row] = pivot_row`.
    pinv: Vec<usize>,

    // L: strictly lower triangular, CSC by pivot column, pivot-space row
    // indices sorted ascending, unit diagonal implicit.
    l_colptr: Vec<usize>,
    l_rowind: Vec<usize>,
    l_values: Vec<f64>,
    // U: upper triangular including the diagonal (last entry of each
    // column), pivot-space rows sorted ascending.
    u_colptr: Vec<usize>,
    u_rowind: Vec<usize>,
    u_values: Vec<f64>,

    // Dense accumulators/scratch (all length n, preallocated at analysis).
    work: Vec<f64>,
    solve_work: Vec<f64>,
    xi: Vec<usize>,
    dfs_stack: Vec<usize>,
    pstack: Vec<usize>,
    flag: Vec<u64>,
    flag_stamp: u64,

    // First-pass (original-row-space) factor storage, reused by the rare
    // full refactorisations.
    raw_l_colptr: Vec<usize>,
    raw_l_rowind: Vec<usize>,
    raw_l_values: Vec<f64>,

    /// nnz of the analysed input pattern; a mismatch forces re-analysis.
    analyzed_nnz: usize,

    full_factorizations: u64,
    refactorizations: u64,
    refactor_fallbacks: u64,
}

impl SparseLu {
    /// Creates an empty workspace; the first [`SparseLu::factor`] call
    /// performs ordering and symbolic analysis.
    pub fn new() -> Self {
        SparseLu {
            pivot_tol: 1e-3,
            refactor_guard: 1e-9,
            ..SparseLu::default()
        }
    }

    /// Matrix dimension of the analysed system (0 before first factor).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzeros in the L factor (excluding the unit diagonal).
    pub fn nnz_l(&self) -> usize {
        self.l_rowind.len()
    }

    /// Nonzeros in the U factor (including the diagonal).
    pub fn nnz_u(&self) -> usize {
        self.u_rowind.len()
    }

    /// Full (re-pivoting, symbolic) factorisations performed.
    pub fn full_factorizations(&self) -> u64 {
        self.full_factorizations
    }

    /// Fixed-pattern numeric refactorisations performed.
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// Refactorisations that had to fall back to a full factorisation
    /// because the cached pivot sequence degraded.
    pub fn refactor_fallbacks(&self) -> u64 {
        self.refactor_fallbacks
    }

    /// Factors `a`. The first call analyses (ordering + symbolic + numeric);
    /// subsequent calls run the zero-alloc fixed-pattern refactorisation,
    /// falling back to a full re-pivoting factorisation only when the cached
    /// pivot sequence degrades or the values no longer admit it.
    pub fn factor(&mut self, a: &CscMatrix) -> Result<(), SingularMatrixError> {
        if self.analyzed && a.n == self.n && a.nnz() == self.analyzed_nnz {
            match self.refactor(a) {
                Ok(()) => {
                    self.refactorizations += 1;
                    return Ok(());
                }
                Err(RefactorFailure::Unstable) => {
                    // A cancellation token that fired mid-refactor surfaces
                    // as Unstable; bail out instead of paying for (and
                    // mis-counting) a full-factorisation fallback. The
                    // Newton driver re-classifies the error by consulting
                    // the token, so the column index is never reported.
                    if cancel::cancelled() {
                        return Err(SingularMatrixError { column: 0 });
                    }
                    self.refactor_fallbacks += 1;
                }
            }
        }
        self.factor_full(a)
    }

    /// Solves `A·x = b` using the current factors.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) {
        self.solve_impl(b, x, 1.0);
    }

    /// Solves `A·x = -b` using the current factors.
    pub fn solve_neg_into(&mut self, b: &[f64], x: &mut [f64]) {
        self.solve_impl(b, x, -1.0);
    }

    fn solve_impl(&mut self, b: &[f64], x: &mut [f64], scale: f64) {
        assert!(self.analyzed, "solve before factor");
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        let w = &mut self.solve_work;
        // Row-permute into pivot space: w = P·(scale·b).
        for i in 0..n {
            w[self.pinv[i]] = scale * b[i];
        }
        // Forward solve with unit-diagonal L.
        for j in 0..n {
            let wj = w[j];
            if wj != 0.0 {
                let (lo, hi) = (self.l_colptr[j], self.l_colptr[j + 1]);
                for (&i, &l) in self.l_rowind[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                    w[i] -= l * wj;
                }
            }
        }
        // Backward solve with U (diagonal stored last in each column).
        for j in (0..n).rev() {
            let hi = self.u_colptr[j + 1];
            let diag = self.u_values[hi - 1];
            debug_assert_eq!(self.u_rowind[hi - 1], j);
            let wj = w[j] / diag;
            w[j] = wj;
            if wj != 0.0 {
                let lo = self.u_colptr[j];
                for (&i, &u) in self.u_rowind[lo..hi - 1]
                    .iter()
                    .zip(&self.u_values[lo..hi - 1])
                {
                    w[i] -= u * wj;
                }
            }
        }
        // Column-unpermute: x = Q·w.
        for j in 0..n {
            x[self.q[j]] = w[j];
        }
    }

    /// Full factorisation: fill-reducing ordering (first time only), symbolic
    /// analysis, and numeric factorisation with threshold partial pivoting.
    fn factor_full(&mut self, a: &CscMatrix) -> Result<(), SingularMatrixError> {
        let n = a.n;
        if self.q.len() != n {
            self.q = min_degree_order(&a.colptr, &a.rowind, n);
        }
        self.n = n;
        self.analyzed = false;
        self.pinv.clear();
        self.pinv.resize(n, NONE);
        self.work.clear();
        self.work.resize(n, 0.0);
        self.solve_work.clear();
        self.solve_work.resize(n, 0.0);
        self.xi.clear();
        self.xi.resize(n, 0);
        self.dfs_stack.clear();
        self.dfs_stack.resize(n, 0);
        self.pstack.clear();
        self.pstack.resize(n, 0);
        self.flag.clear();
        self.flag.resize(n, 0);
        self.flag_stamp = 0;

        self.raw_l_colptr.clear();
        self.raw_l_colptr.push(0);
        self.raw_l_rowind.clear();
        self.raw_l_values.clear();
        self.u_colptr.clear();
        self.u_colptr.push(0);
        self.u_rowind.clear();
        self.u_values.clear();
        let nnz_guess = 4 * a.nnz() + 4 * n;
        self.raw_l_rowind
            .reserve(nnz_guess.saturating_sub(self.raw_l_rowind.capacity()));
        self.u_rowind
            .reserve(nnz_guess.saturating_sub(self.u_rowind.capacity()));

        for j in 0..n {
            // Cooperative cancellation checkpoint: array-scale numeric
            // factorisations run long enough that waiting for the Newton
            // loop's per-iteration poll would add whole-factorisation
            // latency to a deadline. `work` is all-zero at the top of the
            // column loop and `analyzed` is still false, so the early
            // return leaves the workspace clean for the next full factor.
            if j & 0xFF == 0 && cancel::checkpoint() {
                return Err(SingularMatrixError { column: self.q[j] });
            }
            let col = self.q[j];
            let top = self.reach_and_solve(a, col);

            // Pivot search among not-yet-pivotal rows; already-pivotal rows
            // belong to U's column j.
            let u_start = self.u_rowind.len();
            let mut ipiv = NONE;
            let mut amax = -1.0f64;
            for t in top..self.n {
                let i = self.xi[t];
                if self.pinv[i] == NONE {
                    let t_abs = self.work[i].abs();
                    // NaN compares false, so a NaN candidate never becomes
                    // the pivot; an all-NaN column leaves `ipiv == NONE`.
                    if t_abs > amax {
                        amax = t_abs;
                        ipiv = i;
                    }
                } else {
                    self.u_rowind.push(self.pinv[i]);
                    self.u_values.push(self.work[i]);
                }
            }
            // Threshold preference for the diagonal (KLU-style): keep MNA
            // diagonals pivotal whenever they are within `pivot_tol` of the
            // column maximum, which keeps the pivot sequence stable across
            // Newton refactorisations.
            if ipiv != NONE && self.pinv[col] == NONE {
                let d = self.work[col].abs();
                if d.is_finite() && d >= self.pivot_tol * amax && d > 0.0 {
                    ipiv = col;
                }
            }
            // On failure, report the *original* unknown index of the pivot
            // column so upstream node-name diagnostics work.
            if ipiv == NONE {
                self.clear_work(top);
                return Err(SingularMatrixError { column: col });
            }
            let pivot = self.work[ipiv];
            if !pivot.is_finite() || pivot.abs() < 1e-300 {
                self.clear_work(top);
                return Err(SingularMatrixError { column: col });
            }
            // Sort this U column by pivot row, then append the diagonal.
            sort_pairs(&mut self.u_rowind[u_start..], &mut self.u_values[u_start..]);
            self.u_rowind.push(j);
            self.u_values.push(pivot);
            self.u_colptr.push(self.u_rowind.len());
            self.pinv[ipiv] = j;

            // L column j (original-row space for now), including the unit
            // diagonal first — the DFS of later columns walks these entries.
            self.raw_l_rowind.push(ipiv);
            self.raw_l_values.push(1.0);
            for t in top..self.n {
                let i = self.xi[t];
                if self.pinv[i] == NONE {
                    self.raw_l_rowind.push(i);
                    self.raw_l_values.push(self.work[i] / pivot);
                }
                self.work[i] = 0.0;
            }
            self.raw_l_colptr.push(self.raw_l_rowind.len());
        }

        // Remap L to pivot-space rows, drop the unit diagonal, sort columns.
        self.l_colptr.clear();
        self.l_colptr.push(0);
        self.l_rowind.clear();
        self.l_values.clear();
        self.l_rowind.reserve(
            self.raw_l_rowind
                .len()
                .saturating_sub(self.l_rowind.capacity()),
        );
        for j in 0..n {
            let start = self.l_rowind.len();
            for p in self.raw_l_colptr[j]..self.raw_l_colptr[j + 1] {
                let r = self.pinv[self.raw_l_rowind[p]];
                if r != j {
                    self.l_rowind.push(r);
                    self.l_values.push(self.raw_l_values[p]);
                }
            }
            sort_pairs(&mut self.l_rowind[start..], &mut self.l_values[start..]);
            self.l_colptr.push(self.l_rowind.len());
        }

        self.analyzed = true;
        self.analyzed_nnz = a.nnz();
        self.full_factorizations += 1;
        Ok(())
    }

    /// Zeroes `work` at the pattern positions `xi[top..n]` after an aborted
    /// column, so the next factorisation starts clean.
    fn clear_work(&mut self, top: usize) {
        for t in top..self.n {
            self.work[self.xi[t]] = 0.0;
        }
    }

    /// Sparse triangular solve `L·x = A[:, col]` for the partially built L:
    /// computes the reach of the column's pattern through L (nonrecursive
    /// DFS), then applies the numeric updates in topological order.
    /// Returns `top`; the pattern is `xi[top..n]`, values in `work`.
    fn reach_and_solve(&mut self, a: &CscMatrix, col: usize) -> usize {
        let n = self.n;
        self.flag_stamp += 1;
        let stamp = self.flag_stamp;
        let mut top = n;

        for p in a.colptr[col]..a.colptr[col + 1] {
            let root = a.rowind[p];
            if self.flag[root] == stamp {
                continue;
            }
            // Depth-first search from `root` through the columns of L.
            let mut head = 0usize;
            self.dfs_stack[0] = root;
            loop {
                let node = self.dfs_stack[head];
                if self.flag[node] != stamp {
                    self.flag[node] = stamp;
                    self.pstack[head] = if self.pinv[node] == NONE {
                        NONE // not yet pivotal: leaf
                    } else {
                        self.raw_l_colptr[self.pinv[node]]
                    };
                }
                let mut descended = false;
                if self.pstack[head] != NONE {
                    let lcol = self.pinv[node];
                    let end = self.raw_l_colptr[lcol + 1];
                    while self.pstack[head] < end {
                        let child = self.raw_l_rowind[self.pstack[head]];
                        self.pstack[head] += 1;
                        if self.flag[child] != stamp {
                            head += 1;
                            self.dfs_stack[head] = child;
                            descended = true;
                            break;
                        }
                    }
                }
                if !descended {
                    top -= 1;
                    self.xi[top] = node;
                    if head == 0 {
                        break;
                    }
                    head -= 1;
                }
            }
        }

        // Numeric: scatter the column, then eliminate in topological order.
        for p in a.colptr[col]..a.colptr[col + 1] {
            self.work[a.rowind[p]] = a.values[p];
        }
        for t in top..n {
            let i = self.xi[t];
            let lcol = self.pinv[i];
            if lcol == NONE {
                continue;
            }
            let xi_val = self.work[i];
            if xi_val == 0.0 {
                continue;
            }
            // Skip the unit-diagonal entry at the head of the column.
            for p in self.raw_l_colptr[lcol] + 1..self.raw_l_colptr[lcol + 1] {
                self.work[self.raw_l_rowind[p]] -= self.raw_l_values[p] * xi_val;
            }
        }
        top
    }

    /// Fixed-pattern numeric refactorisation: reuses the cached pivot
    /// sequence and L/U patterns; performs no heap allocation.
    fn refactor(&mut self, a: &CscMatrix) -> Result<(), RefactorFailure> {
        let n = self.n;
        debug_assert_eq!(a.n, n);
        let w = &mut self.work; // all-zero on entry, restored on every exit
        for j in 0..n {
            // Cancellation checkpoint at the top of the column loop, where
            // `w` is clean; surfaces as Unstable and is re-classified by
            // `factor` before the fallback path runs.
            if j & 0xFF == 0 && cancel::checkpoint() {
                return Err(RefactorFailure::Unstable);
            }
            let col = self.q[j];
            // Scatter A's column into pivot space; track its magnitude for
            // the pivot-decay monitor.
            let mut colmax = 0.0f64;
            for p in a.colptr[col]..a.colptr[col + 1] {
                let v = a.values[p];
                w[self.pinv[a.rowind[p]]] = v;
                let av = v.abs();
                if av > colmax {
                    colmax = av;
                }
            }
            // Left-looking elimination along U's cached pattern (ascending
            // pivot rows = topological order). Each consumed position is
            // re-zeroed immediately, keeping `w` clean between columns.
            let u_lo = self.u_colptr[j];
            let u_hi = self.u_colptr[j + 1];
            for p in u_lo..u_hi - 1 {
                let r = self.u_rowind[p];
                let xr = w[r];
                w[r] = 0.0;
                self.u_values[p] = xr;
                if xr != 0.0 {
                    let (lo, hi) = (self.l_colptr[r], self.l_colptr[r + 1]);
                    for (&i, &l) in self.l_rowind[lo..hi].iter().zip(&self.l_values[lo..hi]) {
                        w[i] -= l * xr;
                    }
                }
            }
            let pivot = w[j];
            w[j] = 0.0;
            let l_lo = self.l_colptr[j];
            let l_hi = self.l_colptr[j + 1];
            // Pivot-decay monitor: the cached pivot must stay finite and
            // must not have become negligible relative to the rest of its
            // column, or the fixed pivot sequence is no longer trustworthy.
            let mut below = 0.0f64;
            for lp in l_lo..l_hi {
                let av = w[self.l_rowind[lp]].abs();
                if av > below {
                    below = av;
                }
            }
            let scale = below.max(colmax);
            let ok = pivot.is_finite()
                && scale.is_finite()
                && pivot.abs() >= 1e-300
                && pivot.abs() >= self.refactor_guard * scale;
            if !ok {
                // Restore `w` to all-zero before bailing out.
                for lp in l_lo..l_hi {
                    w[self.l_rowind[lp]] = 0.0;
                }
                for p in u_lo..u_hi - 1 {
                    w[self.u_rowind[p]] = 0.0;
                }
                return Err(RefactorFailure::Unstable);
            }
            self.u_values[u_hi - 1] = pivot;
            for lp in l_lo..l_hi {
                let i = self.l_rowind[lp];
                self.l_values[lp] = w[i] / pivot;
                w[i] = 0.0;
            }
        }
        Ok(())
    }

    /// Residual `‖A·x − b‖∞` via the SIMD kernels — used by differential
    /// tests to cross-check sparse solves against dense ones.
    pub fn residual_norm(a: &CscMatrix, x: &[f64], b: &[f64], scratch: &mut [f64]) -> f64 {
        a.mul_vec_into(x, scratch);
        for (s, bi) in scratch.iter_mut().zip(b) {
            *s -= bi;
        }
        simd::norm_inf(scratch)
    }
}

/// Sorts parallel row/value slices by ascending row index. Only runs during
/// the (cold) full factorisation, so the scratch allocation is acceptable.
fn sort_pairs(rows: &mut [usize], vals: &mut [f64]) {
    if rows.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let mut tmp: Vec<(usize, f64)> = rows.iter().copied().zip(vals.iter().copied()).collect();
    tmp.sort_unstable_by_key(|&(r, _)| r);
    for (i, (r, v)) in tmp.into_iter().enumerate() {
        rows[i] = r;
        vals[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn pattern_from(entries: &[(usize, usize)], n: usize) -> SparsePattern {
        let mut b = PatternBuilder::new(n);
        for &(r, c) in entries {
            b.add(r, c);
        }
        b.build()
    }

    /// Random diagonally-loaded sparse matrix with a banded + scattered
    /// pattern, mimicking MNA structure.
    fn random_system(n: usize, seed: u64) -> (CscMatrix, Vec<f64>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
            let j = (rng.next_u64() as usize) % n;
            entries.push((i, j));
            entries.push((j, i));
        }
        let p = pattern_from(&entries, n);
        let mut a = CscMatrix::from_pattern(&p);
        for c in 0..n {
            for pp in p.colptr[c]..p.colptr[c + 1] {
                let r = p.rowind[pp];
                let v = rng.gen_f64() - 0.5;
                a.add(r, c, if r == c { v + 4.0 } else { v });
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 2.0 - 1.0).collect();
        (a, b)
    }

    #[test]
    fn pattern_builder_dedups_and_sorts() {
        let p = pattern_from(&[(1, 0), (0, 0), (1, 0), (2, 1), (0, 1)], 3);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.colptr, vec![0, 2, 4, 4]);
        assert_eq!(p.rowind, vec![0, 1, 0, 2]);
    }

    #[test]
    fn csc_add_and_clear() {
        let p = pattern_from(&[(0, 0), (1, 0), (1, 1)], 2);
        let mut a = CscMatrix::from_pattern(&p);
        a.add(0, 0, 2.0);
        a.add(1, 0, 1.0);
        a.add(1, 0, 0.5);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 0), 1.5);
        assert_eq!(a.get(0, 1), 0.0);
        a.clear();
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "outside the sparse pattern")]
    fn csc_add_outside_pattern_panics() {
        let p = pattern_from(&[(0, 0)], 2);
        let mut a = CscMatrix::from_pattern(&p);
        a.add(1, 1, 1.0);
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let (a, _) = random_system(40, 7);
        let order = min_degree_order(&a.colptr, &a.rowind, a.dim());
        let mut seen = [false; 40];
        for &v in &order {
            assert!(!seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn factor_solve_matches_dense() {
        for seed in 1..6u64 {
            let n = 30;
            let (a, b) = random_system(n, seed);
            let mut lu = SparseLu::new();
            lu.factor(&a).expect("nonsingular");
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x);
            let dense = a.to_dense();
            let xd = dense.lu().expect("dense nonsingular").solve(&b);
            for i in 0..n {
                assert!(
                    (x[i] - xd[i]).abs() < 1e-9 * (1.0 + xd[i].abs()),
                    "seed={seed} i={i} sparse={} dense={}",
                    x[i],
                    xd[i]
                );
            }
            // Residual check through the matvec kernel too.
            let mut scratch = vec![0.0; n];
            assert!(SparseLu::residual_norm(&a, &x, &b, &mut scratch) < 1e-9);
        }
    }

    #[test]
    fn solve_neg_into_negates() {
        let (a, b) = random_system(20, 3);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        let mut x = vec![0.0; 20];
        let mut xn = vec![0.0; 20];
        lu.solve_into(&b, &mut x);
        lu.solve_neg_into(&b, &mut xn);
        for i in 0..20 {
            assert!((x[i] + xn[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_matches_full_factor() {
        let n = 30;
        let (mut a, b) = random_system(n, 11);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        assert_eq!(lu.full_factorizations(), 1);

        // Perturb the values (same pattern), refactor, and cross-check
        // against a from-scratch factorisation.
        let mut rng = Rng64::seed_from_u64(99);
        for c in 0..n {
            for p in a.colptr[c]..a.colptr[c + 1] {
                a.values[p] += 0.1 * (rng.gen_f64() - 0.5);
            }
        }
        lu.factor(&a).unwrap();
        assert_eq!(lu.refactorizations(), 1);
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x);

        let mut fresh = SparseLu::new();
        fresh.factor(&a).unwrap();
        let mut xf = vec![0.0; n];
        fresh.solve_into(&b, &mut xf);
        for i in 0..n {
            assert!((x[i] - xf[i]).abs() < 1e-10 * (1.0 + xf[i].abs()));
        }
    }

    #[test]
    fn repeated_refactor_stays_consistent() {
        let n = 25;
        let (mut a, b) = random_system(n, 21);
        let mut lu = SparseLu::new();
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        for step in 0..50 {
            let mut rng = Rng64::seed_from_u64(1000 + step);
            for c in 0..n {
                for p in a.colptr[c]..a.colptr[c + 1] {
                    a.values[p] += 0.02 * (rng.gen_f64() - 0.5);
                }
            }
            lu.factor(&a).unwrap();
            lu.solve_into(&b, &mut x);
            assert!(
                SparseLu::residual_norm(&a, &x, &b, &mut scratch) < 1e-8,
                "step {step}"
            );
        }
        assert!(lu.refactorizations() >= 49);
    }

    #[test]
    fn singular_matrix_reports_original_column() {
        // Column 2 is structurally present but numerically zero.
        let n = 4;
        let entries: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| vec![(i, i)])
            .chain([(0, 2), (2, 0)])
            .collect();
        let p = pattern_from(&entries, n);
        let mut a = CscMatrix::from_pattern(&p);
        for i in 0..n {
            if i != 2 {
                a.add(i, i, 1.0);
            }
        }
        let mut lu = SparseLu::new();
        let err = lu.factor(&a).unwrap_err();
        assert_eq!(err.column, 2);
    }

    #[test]
    fn all_zero_matrix_is_singular_not_panic() {
        let p = pattern_from(&[(0, 0), (1, 1), (0, 1)], 2);
        let a = CscMatrix::from_pattern(&p);
        let mut lu = SparseLu::new();
        assert!(lu.factor(&a).is_err());
    }

    #[test]
    fn refactor_with_nan_falls_back_and_reports_singular() {
        let n = 10;
        let (mut a, _) = random_system(n, 5);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        let poisoned = a.values[3];
        a.values[3] = f64::NAN;
        assert!(lu.factor(&a).is_err());
        assert!(lu.refactor_fallbacks() >= 1);
        // And the workspace recovers once the values are sane again.
        a.values[3] = poisoned;
        lu.factor(&a).unwrap();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        lu.solve_into(&b, &mut x);
        assert!(SparseLu::residual_norm(&a, &x, &b, &mut scratch) < 1e-9);
    }

    #[test]
    fn matvec_matches_dense() {
        let (a, x) = random_system(15, 8);
        let mut y = vec![0.0; 15];
        a.mul_vec_into(&x, &mut y);
        let d = a.to_dense();
        let yd = d.mul_vec(&x);
        for i in 0..15 {
            assert!((y[i] - yd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn fill_reducing_order_beats_worst_case_on_arrow_matrix() {
        // Arrow matrix: dense first row/column + diagonal. Natural order
        // fills in completely (O(n²)); minimum degree eliminates the hub
        // last and keeps the factors O(n).
        let n = 50;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i));
            if i > 0 {
                entries.push((0, i));
                entries.push((i, 0));
            }
        }
        let p = pattern_from(&entries, n);
        let mut a = CscMatrix::from_pattern(&p);
        for i in 0..n {
            a.add(i, i, 4.0);
            if i > 0 {
                a.add(0, i, 1.0);
                a.add(i, 0, 1.0);
            }
        }
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        // Fill-in should stay linear, far below the ~n²/2 of natural order.
        assert!(
            lu.nnz_l() + lu.nnz_u() < 6 * n,
            "fill-in too large: L={} U={}",
            lu.nnz_l(),
            lu.nnz_u()
        );
        // And the solve is still correct.
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        lu.solve_into(&b, &mut x);
        assert!(SparseLu::residual_norm(&a, &x, &b, &mut scratch) < 1e-10);
    }
}

//! Dense row-major matrices and LU factorisation with partial pivoting.
//!
//! Modified-nodal-analysis matrices for a single SRAM cell plus its drivers
//! are ~10–40 unknowns, well inside the regime where dense LU with partial
//! pivoting is both the fastest and the most robust choice. The factors are
//! a separate type ([`LuFactors`]) so a factorisation can be reused across
//! multiple right-hand sides (e.g. during source stepping).

use std::fmt;

/// Error returned when a factorisation encounters a (numerically) singular
/// matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Elimination column at which no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular at elimination column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// A dense, row-major `n × n`-capable matrix (rectangular storage allowed,
/// but factorisation requires square).
///
/// # Examples
///
/// ```
/// use nvpg_numeric::DenseMatrix;
/// let mut m = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 4.0;
/// m[(1, 1)] = 2.0;
/// let x = m.lu()?.solve(&[8.0, 4.0]);
/// assert_eq!(x, vec![2.0, 2.0]);
/// # Ok::<(), nvpg_numeric::SingularMatrixError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA "stamp"
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)] // paired row/entry indexing
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// The maximum absolute entry (∞-norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// LU-factorises a square matrix with partial pivoting.
    ///
    /// This is the allocating convenience wrapper around the in-place
    /// kernel; hot paths should hold a [`LuWorkspace`] and call
    /// [`LuWorkspace::factor_from`] instead so the factor storage is
    /// reused across solves.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn lu(&self) -> Result<LuFactors, SingularMatrixError> {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let sign = factor_in_place(n, &mut lu, &mut perm)?;
        Ok(LuFactors { n, lu, perm, sign })
    }
}

/// The in-place Doolittle factorisation kernel shared by [`DenseMatrix::lu`]
/// and [`LuWorkspace::factor_from`]: overwrites `lu` with the combined L/U
/// factors, fills `perm`, and returns the permutation sign. Both entry
/// points run the *same* instruction sequence, so they agree bit for bit.
fn factor_in_place(
    n: usize,
    lu: &mut [f64],
    perm: &mut [usize],
) -> Result<f64, SingularMatrixError> {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(perm.len(), n);
    let mut sign = 1.0;
    for k in 0..n {
        // Partial pivot: largest |entry| in column k at or below row k.
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        // A NaN diagonal start survives the `>` comparisons above (NaN
        // compares false), so a poisoned matrix must be rejected here
        // explicitly rather than factored into garbage.
        if !pivot_val.is_finite() || pivot_val < 1e-300 {
            return Err(SingularMatrixError { column: k });
        }
        if pivot_row != k {
            for j in 0..n {
                lu.swap(k * n + j, pivot_row * n + j);
            }
            perm.swap(k, pivot_row);
            sign = -sign;
        }
        let pivot = lu[k * n + k];
        // Rank-1 row updates: row_i[k+1..] -= factor * row_k[k+1..].
        // Row k lives before row i, so split the storage at row i to get
        // simultaneous access; the contiguous tails go through the SIMD
        // axpy kernel (this loop nest is the O(n³) heart of the factor).
        for i in (k + 1)..n {
            let (head, tail) = lu.split_at_mut(i * n);
            let row_k = &head[k * n + k + 1..k * n + n];
            let row_i = &mut tail[..n];
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            crate::simd::axpy(-factor, row_k, &mut row_i[k + 1..n]);
        }
    }
    Ok(sign)
}

/// Permuted forward/backward substitution on combined L/U factors,
/// writing the solution into `x`. `x` must already hold the permuted
/// right-hand side (`x[i] = b[perm[i]]`).
fn substitute_in_place(n: usize, lu: &[f64], x: &mut [f64]) {
    // Forward substitution (L has unit diagonal). The row prefix
    // `lu[i*n..i*n+i]` and the already-final prefix `x[..i]` are both
    // contiguous, so the reductions go through the SIMD dot kernel.
    for i in 1..n {
        x[i] -= crate::simd::dot(&lu[i * n..i * n + i], &x[..i]);
    }
    // Backward substitution with U.
    for i in (0..n).rev() {
        let sum = x[i] - crate::simd::dot(&lu[i * n + i + 1..i * n + n], &x[i + 1..n]);
        x[i] = sum / lu[i * n + i];
    }
}

/// Reusable LU factorisation workspace: factor storage, permutation and
/// right-hand-side scratch that survive across repeated factor/solve
/// cycles, so a Newton iteration performs zero heap allocations after
/// the first solve at a given dimension.
///
/// # Examples
///
/// ```
/// use nvpg_numeric::{DenseMatrix, LuWorkspace};
///
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let mut ws = LuWorkspace::new();
/// ws.factor_from(&a)?;
/// let mut x = [0.0; 2];
/// ws.solve_into(&[3.0, 5.0], &mut x);
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok::<(), nvpg_numeric::SingularMatrixError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
    factored: bool,
}

impl LuWorkspace {
    /// Creates an empty workspace; storage grows on first use.
    pub fn new() -> Self {
        LuWorkspace::default()
    }

    /// Creates a workspace with storage pre-sized for `n × n` systems.
    pub fn with_dim(n: usize) -> Self {
        LuWorkspace {
            n,
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            sign: 1.0,
            factored: false,
        }
    }

    /// Dimension of the last factored (or pre-sized) system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Copies `matrix` into the workspace and factorises it in place.
    /// Reuses the existing storage whenever the dimension matches the
    /// previous call (the hot-loop case), so no allocation happens.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] on a numerically singular matrix;
    /// the workspace is left unfactored.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square.
    pub fn factor_from(&mut self, matrix: &DenseMatrix) -> Result<(), SingularMatrixError> {
        assert_eq!(matrix.rows, matrix.cols, "LU requires a square matrix");
        let n = matrix.rows;
        if self.lu.len() != n * n {
            self.lu.resize(n * n, 0.0);
            self.perm.resize(n, 0);
        }
        self.n = n;
        self.lu.copy_from_slice(&matrix.data);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.factored = false;
        self.sign = factor_in_place(n, &mut self.lu, &mut self.perm)?;
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, writing into `x` without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds no factorisation or the slice
    /// lengths don't match its dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert!(self.factored, "solve_into before a successful factor_from");
        assert_eq!(b.len(), self.n, "dimension mismatch in solve_into");
        assert_eq!(x.len(), self.n, "dimension mismatch in solve_into");
        for i in 0..self.n {
            x[i] = b[self.perm[i]];
        }
        substitute_in_place(self.n, &self.lu, x);
    }

    /// Solves `A·x = -b` (the Newton right-hand side) into `x` without
    /// allocating or materialising the negated vector.
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds no factorisation or the slice
    /// lengths don't match its dimension.
    pub fn solve_neg_into(&self, b: &[f64], x: &mut [f64]) {
        assert!(
            self.factored,
            "solve_neg_into before a successful factor_from"
        );
        assert_eq!(b.len(), self.n, "dimension mismatch in solve_neg_into");
        assert_eq!(x.len(), self.n, "dimension mismatch in solve_neg_into");
        for i in 0..self.n {
            x[i] = -b[self.perm[i]];
        }
        substitute_in_place(self.n, &self.lu, x);
    }

    /// Determinant of the last factored matrix.
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds no factorisation.
    pub fn det(&self) -> f64 {
        assert!(self.factored, "det before a successful factor_from");
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// LU factors of a square matrix, reusable across right-hand sides.
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactors {
    n: usize,
    /// Combined L (unit diagonal, below) and U (on/above diagonal), permuted.
    lu: Vec<f64>,
    /// `perm[i]` = original row stored at permuted row `i`.
    perm: Vec<usize>,
    sign: f64,
}

impl LuFactors {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// Allocates the solution vector; hot loops should prefer
    /// [`solve_into`](LuFactors::solve_into) (or an [`LuWorkspace`]) to
    /// reuse a caller-owned buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-owned buffer, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "dimension mismatch in solve");
        assert_eq!(x.len(), self.n, "solution buffer dimension mismatch");
        // Apply permutation, then substitute in place.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        substitute_in_place(self.n, &self.lu, x);
    }

    /// Determinant of the original matrix (product of U's diagonal, signed
    /// by the permutation parity).
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.n {
            d *= self.lu[i * self.n + i];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solve_2x2() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.lu().unwrap().solve(&[3.0, 5.0]);
        assert!(residual(&a, &x, &[3.0, 5.0]) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal: naive elimination would divide by 0.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.lu().unwrap().solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = a.lu().unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = DenseMatrix::identity(5);
        let b = [1.0, -2.0, 3.0, -4.0, 5.0];
        assert_eq!(a.lu().unwrap().solve(&b), b.to_vec());
    }

    #[test]
    fn determinant() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((a.lu().unwrap().det() - 6.0).abs() < 1e-12);
        // Row-swapped version flips the sign.
        let a = DenseMatrix::from_rows(&[&[0.0, 3.0], &[2.0, 0.0]]);
        assert!((a.lu().unwrap().det() + 6.0).abs() < 1e-12);
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic "pseudo-random" well-conditioned system.
        let n = 12;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 31 + j * 17) % 19) as f64 / 19.0;
            }
            a[(i, i)] += n as f64; // diagonal dominance
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = a.lu().unwrap().solve(&b);
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn conditioning_badly_scaled_rows() {
        // MNA matrices mix kΩ-level conductances with unit rows from voltage
        // sources; partial pivoting must cope with 12 orders of magnitude.
        let a = DenseMatrix::from_rows(&[&[1e-12, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 1e-12]]);
        let b = [1.0, 2.0, 3.0];
        let x = a.lu().unwrap().solve(&b);
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn stamp_and_clear() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.add(1, 1, 2.5);
        m.add(1, 1, 0.5);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m.max_abs(), 3.0);
        m.clear();
        assert_eq!(m.max_abs(), 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn mul_vec_rectangular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged() {
        let _ = DenseMatrix::from_rows(&[&[1.0, 2.0], &[1.0][..]]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn lu_rejects_rectangular() {
        let _ = DenseMatrix::zeros(2, 3).lu();
    }

    #[test]
    fn display_is_nonempty() {
        let s = DenseMatrix::identity(2).to_string();
        assert!(s.contains('['));
    }

    #[test]
    fn workspace_matches_allocating_lu() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0], &[6.0, 7.0, 9.0]]);
        let b = [1.0, -2.0, 3.0];
        let expect = a.lu().unwrap().solve(&b);
        let mut ws = LuWorkspace::new();
        ws.factor_from(&a).unwrap();
        let mut x = [0.0; 3];
        ws.solve_into(&b, &mut x);
        assert_eq!(x.to_vec(), expect);
        assert!((ws.det() - a.lu().unwrap().det()).abs() < 1e-12);
    }

    #[test]
    fn workspace_solve_neg() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut ws = LuWorkspace::with_dim(2);
        ws.factor_from(&a).unwrap();
        let mut x = [0.0; 2];
        ws.solve_neg_into(&[-3.0, -5.0], &mut x);
        assert!(residual(&a, &x, &[3.0, 5.0]) < 1e-12);
    }

    #[test]
    fn workspace_reuse_across_dimensions() {
        let mut ws = LuWorkspace::new();
        ws.factor_from(&DenseMatrix::identity(4)).unwrap();
        assert_eq!(ws.dim(), 4);
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        ws.factor_from(&a).unwrap();
        let mut x = [0.0; 2];
        ws.solve_into(&[2.0, 3.0], &mut x);
        assert_eq!(x, [3.0, 2.0]);
    }

    #[test]
    fn workspace_singular_left_unfactored() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut ws = LuWorkspace::new();
        assert!(ws.factor_from(&a).is_err());
        // A later successful factorisation recovers the workspace.
        ws.factor_from(&DenseMatrix::identity(2)).unwrap();
        let mut x = [0.0; 2];
        ws.solve_into(&[5.0, 7.0], &mut x);
        assert_eq!(x, [5.0, 7.0]);
    }
}

//! Parameter-sweep helpers.
//!
//! The paper's figures are families of sweeps: `V_CTRL` from 0 to 0.2 V
//! (Fig. 3(a)), `n_RW` on a log axis from 1 to 10⁴ (Fig. 7), `t_SD`
//! logarithmically from 1 µs to 10 ms (Fig. 8). [`linspace`] and
//! [`logspace`] feed those axes.

/// `n` evenly spaced points from `start` to `end` inclusive.
///
/// Returns a single-element vector for `n == 1` (the start point) and an
/// empty vector for `n == 0`.
///
/// # Examples
///
/// ```
/// use nvpg_units::linspace;
/// assert_eq!(linspace(0.0, 1.0, 5), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![start],
        _ => {
            let step = (end - start) / (n - 1) as f64;
            (0..n)
                .map(|i| {
                    if i == n - 1 {
                        end // avoid accumulated rounding on the endpoint
                    } else {
                        start + step * i as f64
                    }
                })
                .collect()
        }
    }
}

/// `n` logarithmically spaced points from `start` to `end` inclusive.
///
/// # Panics
///
/// Panics if `start` or `end` is not strictly positive.
///
/// # Examples
///
/// ```
/// use nvpg_units::logspace;
/// let pts = logspace(1e-6, 1e-2, 5);
/// assert!((pts[1] - 1e-5).abs() < 1e-12);
/// assert_eq!(pts.len(), 5);
/// ```
pub fn logspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && end > 0.0,
        "logspace endpoints must be positive, got {start} and {end}"
    );
    linspace(start.ln(), end.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let pts = linspace(0.0, 0.2, 21);
        assert_eq!(pts.len(), 21);
        assert_eq!(pts[0], 0.0);
        assert_eq!(pts[20], 0.2);
        assert!((pts[10] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn linspace_degenerate() {
        assert!(linspace(1.0, 2.0, 0).is_empty());
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
        assert_eq!(linspace(1.0, 2.0, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn linspace_descending() {
        let pts = linspace(1.0, 0.0, 3);
        assert_eq!(pts, vec![1.0, 0.5, 0.0]);
    }

    #[test]
    fn logspace_decades() {
        let pts = logspace(1.0, 1000.0, 4);
        let expect = [1.0, 10.0, 100.0, 1000.0];
        for (p, e) in pts.iter().zip(expect) {
            assert!((p - e).abs() / e < 1e-12, "{p} vs {e}");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn logspace_rejects_nonpositive() {
        let _ = logspace(0.0, 1.0, 3);
    }
}

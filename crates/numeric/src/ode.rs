//! Explicit ODE integration: adaptive RKF45.
//!
//! The integrator drives the optional macrospin Landau–Lifshitz–Gilbert
//! (LLG) engine in `nvpg_devices::llg`, which integrates the free-layer
//! magnetisation under spin-transfer torque to validate the threshold CIMS
//! macromodel. State vectors are small (3 components for a macrospin), so
//! the implementation favours clarity over allocation tricks.

/// Options for the adaptive RKF45 integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rkf45Options {
    /// Relative error tolerance per step.
    pub reltol: f64,
    /// Absolute error tolerance per step.
    pub abstol: f64,
    /// Smallest step permitted before giving up on refinement.
    pub min_step: f64,
    /// Largest step permitted.
    pub max_step: f64,
}

impl Default for Rkf45Options {
    fn default() -> Self {
        Rkf45Options {
            reltol: 1e-7,
            abstol: 1e-10,
            min_step: 1e-18,
            max_step: f64::INFINITY,
        }
    }
}

/// Adaptive Runge–Kutta–Fehlberg 4(5) integrator.
///
/// # Examples
///
/// ```
/// use nvpg_numeric::{Rkf45, Rkf45Options};
/// // dy/dt = -y from t = 0 to 1.
/// let mut solver = Rkf45::new(Rkf45Options::default());
/// let mut y = vec![1.0];
/// solver.integrate(|_t, y, dy| dy[0] = -y[0], 0.0, 1.0, &mut y);
/// assert!((y[0] - (-1.0_f64).exp()).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Rkf45 {
    options: Rkf45Options,
    /// Steps taken in the last `integrate` call (accepted only).
    steps_taken: usize,
    /// Steps rejected in the last `integrate` call.
    steps_rejected: usize,
}

impl Rkf45 {
    /// Creates an integrator with the given options.
    pub fn new(options: Rkf45Options) -> Self {
        Rkf45 {
            options,
            steps_taken: 0,
            steps_rejected: 0,
        }
    }

    /// Accepted steps in the most recent [`integrate`](Self::integrate) call.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Rejected (re-tried) steps in the most recent call.
    pub fn steps_rejected(&self) -> usize {
        self.steps_rejected
    }

    /// Integrates `dy/dt = f(t, y)` from `t0` to `t1`, updating `y` in place.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn integrate(
        &mut self,
        mut f: impl FnMut(f64, &[f64], &mut [f64]),
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) {
        assert!(t1 >= t0, "integration interval must be forward in time");
        self.steps_taken = 0;
        self.steps_rejected = 0;
        if t1 == t0 {
            return;
        }
        let n = y.len();
        let mut t = t0;
        let mut h = ((t1 - t0) / 64.0).min(self.options.max_step);

        // Fehlberg coefficients.
        const A: [f64; 6] = [0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5];
        const B: [[f64; 5]; 6] = [
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 0.0, 0.0],
            [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
            [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
            [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
            [
                -8.0 / 27.0,
                2.0,
                -3544.0 / 2565.0,
                1859.0 / 4104.0,
                -11.0 / 40.0,
            ],
        ];
        // 5th-order weights (solution) and 4th-order weights (error est.).
        const C5: [f64; 6] = [
            16.0 / 135.0,
            0.0,
            6656.0 / 12825.0,
            28561.0 / 56430.0,
            -9.0 / 50.0,
            2.0 / 55.0,
        ];
        const C4: [f64; 6] = [
            25.0 / 216.0,
            0.0,
            1408.0 / 2565.0,
            2197.0 / 4104.0,
            -0.2,
            0.0,
        ];

        let mut k = vec![vec![0.0; n]; 6];
        let mut tmp = vec![0.0; n];

        while t < t1 {
            if t + h > t1 {
                h = t1 - t;
            }
            // Evaluate the six stages.
            f(t, y, &mut k[0]);
            for s in 1..6 {
                for i in 0..n {
                    let mut acc = y[i];
                    for (j, bj) in B[s].iter().enumerate().take(s) {
                        acc += h * bj * k[j][i];
                    }
                    tmp[i] = acc;
                }
                let (head, tail) = k.split_at_mut(s);
                let _ = head;
                f(t + A[s] * h, &tmp, &mut tail[0]);
            }
            // Error estimate = |y5 - y4| per component.
            let mut err_ratio = 0.0_f64;
            for i in 0..n {
                let mut y5 = y[i];
                let mut y4 = y[i];
                for s in 0..6 {
                    y5 += h * C5[s] * k[s][i];
                    y4 += h * C4[s] * k[s][i];
                }
                let sc = self.options.abstol + self.options.reltol * y5.abs().max(y[i].abs());
                err_ratio = err_ratio.max((y5 - y4).abs() / sc);
                tmp[i] = y5;
            }

            if err_ratio <= 1.0 || h <= self.options.min_step {
                // Accept.
                y.copy_from_slice(&tmp);
                t += h;
                self.steps_taken += 1;
            } else {
                self.steps_rejected += 1;
            }
            // Step-size controller (safety factor 0.9, order 5).
            let factor = if err_ratio > 0.0 {
                0.9 * err_ratio.powf(-0.2)
            } else {
                4.0
            };
            h = (h * factor.clamp(0.2, 4.0)).clamp(self.options.min_step, self.options.max_step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rkf45_harmonic_oscillator_energy_conserved() {
        // y'' = -y as a 2-state system; |y|² + |y'|² should stay ~1.
        let mut solver = Rkf45::new(Rkf45Options {
            reltol: 1e-9,
            abstol: 1e-12,
            ..Default::default()
        });
        let mut y = vec![1.0, 0.0];
        solver.integrate(
            |_t, y, dy| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            0.0,
            2.0 * std::f64::consts::PI,
            &mut y,
        );
        assert!((y[0] - 1.0).abs() < 1e-6, "y = {y:?}");
        assert!(y[1].abs() < 1e-6);
        assert!(solver.steps_taken() > 0);
    }

    #[test]
    fn rkf45_stiffish_decay() {
        // Fast decay: adaptivity must shrink the step near t = 0.
        let mut solver = Rkf45::new(Rkf45Options::default());
        let mut y = vec![1.0];
        solver.integrate(|_t, y, dy| dy[0] = -1000.0 * y[0], 0.0, 0.01, &mut y);
        assert!((y[0] - (-10.0_f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn rkf45_zero_interval_is_noop() {
        let mut solver = Rkf45::new(Rkf45Options::default());
        let mut y = vec![42.0];
        solver.integrate(|_t, _y, dy| dy[0] = 1.0, 1.0, 1.0, &mut y);
        assert_eq!(y[0], 42.0);
        assert_eq!(solver.steps_taken(), 0);
    }

    #[test]
    #[should_panic(expected = "forward in time")]
    fn rkf45_rejects_backward_interval() {
        let mut solver = Rkf45::new(Rkf45Options::default());
        let mut y = vec![0.0];
        solver.integrate(|_t, _y, dy| dy[0] = 1.0, 1.0, 0.0, &mut y);
    }

    #[test]
    fn rkf45_linear_growth_exact() {
        let mut solver = Rkf45::new(Rkf45Options::default());
        let mut y = vec![0.0];
        solver.integrate(|t, _y, dy| dy[0] = 2.0 * t, 0.0, 3.0, &mut y);
        assert!((y[0] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn rkf45_respects_max_step() {
        let mut solver = Rkf45::new(Rkf45Options {
            max_step: 1e-3,
            ..Default::default()
        });
        let mut y = vec![1.0];
        solver.integrate(|_t, y, dy| dy[0] = -y[0], 0.0, 0.1, &mut y);
        assert!(solver.steps_taken() >= 100);
    }
}

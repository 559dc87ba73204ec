//! Adaptive-step transient analysis (backward Euler).
//!
//! Implicit integration with per-step Newton solves. The step size is
//! driven by a second-order local-truncation-error (LTE) controller: a
//! linear polynomial predictor extrapolates each unknown across the step,
//! the predictor–corrector difference estimates the curvature term
//! `(dt²/2)·x″` of the backward-Euler error, and the step is rejected and
//! redone smaller whenever that estimate exceeds the per-unknown error
//! tolerance. Through quiescent intervals the estimate collapses and dt
//! grows geometrically to `dt_max`; at waveform edges it spikes and dt
//! shrinks — exactly the store/restore-pulse-between-long-sleeps profile
//! of the paper's NV-SRAM sequences. The pre-existing iteration-count
//! heuristic survives as the inner rescue for Newton failures (quarter the
//! step, then escalate through the rescue ladder), and every step still
//! lands exactly on waveform breakpoints so nanosecond store pulses are
//! never stepped over. Backward Euler is unconditionally stable and damps
//! the parasitic ringing that second-order methods exhibit on switching
//! circuits.

use nvpg_numeric::cancel;
use nvpg_numeric::newton::{NewtonOptions, NewtonOutcome};

use crate::circuit::Circuit;
use crate::dc::solve_with_faults;
use crate::element::Element;
use crate::engine::{MnaContext, MnaSystem};
use crate::error::CircuitError;
use crate::node::NodeId;
use crate::rescue::RescueStats;
use crate::solution::DcSolution;
use crate::solver::SolverChoice;
use crate::steptel::StepStats;
use crate::trace::Trace;

/// Options for [`transient`].
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Simulation end time (seconds).
    pub t_stop: f64,
    /// Largest step the controller may take.
    pub dt_max: f64,
    /// Smallest step before the run is declared non-convergent.
    pub dt_min: f64,
    /// Initial step.
    pub dt_init: f64,
    /// Newton settings for each implicit step.
    pub newton: NewtonOptions,
    /// Hard cap on attempted steps (accepted + rejected): a runaway run
    /// fails with [`CircuitError::StepBudgetExhausted`] instead of looping
    /// forever at `dt_min`.
    pub max_steps: u64,
    /// Local-truncation-error step control (the default). When `false`,
    /// the controller falls back to the iteration-count heuristic alone
    /// (grow ×1.5 on easy steps, halve on hard ones) — useful for
    /// fixed-step convergence studies.
    pub lte_control: bool,
    /// Relative per-unknown LTE tolerance: each unknown's estimated
    /// truncation error must stay below `lte_abstol + lte_reltol·|x|`.
    pub lte_reltol: f64,
    /// Absolute per-unknown LTE tolerance (volts / amps).
    pub lte_abstol: f64,
    /// Safety factor applied to the ideal next step (in `(0, 1]`).
    pub lte_safety: f64,
    /// Cap on step growth per accepted step (≥ 1).
    pub lte_max_growth: f64,
    /// Device-eval bypass tolerance: nonlinear devices whose terminal
    /// voltages all moved less than this (scaled per device) since their
    /// last full evaluation re-emit a linearised cached stamp instead of
    /// re-running the compact model. `0.0` disables bypass.
    pub device_bypass_tol: f64,
    /// Linear-solver backend (default [`SolverChoice::Auto`]: dense for
    /// cell-sized systems, sparse above [`crate::SPARSE_THRESHOLD`]).
    pub solver: SolverChoice,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            t_stop: 1e-9,
            dt_max: 50e-12,
            dt_min: 1e-16,
            dt_init: 1e-12,
            newton: NewtonOptions {
                max_iter: 100,
                // Modified Newton: carry the LU factorisation across
                // iterations and accepted steps; the residual is still
                // evaluated genuinely every iteration, so converged
                // solutions meet the same tolerances.
                reuse_jacobian: true,
                ..NewtonOptions::default()
            },
            max_steps: 10_000_000,
            lte_control: true,
            lte_reltol: 1e-3,
            lte_abstol: 1e-6,
            lte_safety: 0.9,
            lte_max_growth: 2.5,
            device_bypass_tol: 0.0,
            solver: SolverChoice::Auto,
        }
    }
}

impl TransientOptions {
    /// Convenience constructor: simulate until `t_stop` with a maximum
    /// step of `t_stop / 400` (clamped to at most 100 ps).
    pub fn to(t_stop: f64) -> Self {
        let dt_max = (t_stop / 400.0).min(100e-12);
        TransientOptions {
            t_stop,
            dt_max,
            dt_init: dt_max / 10.0,
            ..TransientOptions::default()
        }
    }

    /// Checks the options for sanity: every time quantity positive and
    /// finite, `dt_min <= dt_max`, a nonzero step budget, and valid Newton
    /// settings.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOptions`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let pos_finite = |field: &'static str, v: f64| -> Result<(), CircuitError> {
            if !v.is_finite() || v <= 0.0 {
                Err(CircuitError::InvalidOptions {
                    field,
                    reason: format!("must be positive and finite, got {v}"),
                })
            } else {
                Ok(())
            }
        };
        pos_finite("t_stop", self.t_stop)?;
        pos_finite("dt_max", self.dt_max)?;
        pos_finite("dt_min", self.dt_min)?;
        pos_finite("dt_init", self.dt_init)?;
        if self.dt_min > self.dt_max {
            return Err(CircuitError::InvalidOptions {
                field: "dt_min",
                reason: format!(
                    "dt_min ({:e}) exceeds dt_max ({:e})",
                    self.dt_min, self.dt_max
                ),
            });
        }
        if self.max_steps == 0 {
            return Err(CircuitError::InvalidOptions {
                field: "max_steps",
                reason: "must be at least 1".to_owned(),
            });
        }
        pos_finite("lte_reltol", self.lte_reltol)?;
        pos_finite("lte_abstol", self.lte_abstol)?;
        if !self.lte_safety.is_finite() || self.lte_safety <= 0.0 || self.lte_safety > 1.0 {
            return Err(CircuitError::InvalidOptions {
                field: "lte_safety",
                reason: format!("must lie in (0, 1], got {}", self.lte_safety),
            });
        }
        if !self.lte_max_growth.is_finite() || self.lte_max_growth < 1.0 {
            return Err(CircuitError::InvalidOptions {
                field: "lte_max_growth",
                reason: format!("must be at least 1, got {}", self.lte_max_growth),
            });
        }
        if !self.device_bypass_tol.is_finite() || self.device_bypass_tol < 0.0 {
            return Err(CircuitError::InvalidOptions {
                field: "device_bypass_tol",
                reason: format!(
                    "must be non-negative and finite (0 disables), got {}",
                    self.device_bypass_tol
                ),
            });
        }
        self.newton.validate()?;
        Ok(())
    }
}

/// Recorded signal layout for a transient run.
struct Recorder {
    /// Non-ground node ids in unknown order.
    nodes: Vec<NodeId>,
    /// `(name, pos, neg, branch_index)` per voltage source.
    vsources: Vec<(String, NodeId, NodeId, usize)>,
}

impl Recorder {
    fn build(circuit: &Circuit) -> (Self, Trace) {
        let nodes: Vec<NodeId> = circuit
            .nodes
            .iter()
            .map(|(id, _)| id)
            .filter(|id| !id.is_ground())
            .collect();
        let branch_idx = circuit.branch_indices();
        let mut vsources = Vec::new();
        let mut names: Vec<String> = nodes
            .iter()
            .map(|&id| format!("v({})", circuit.node_name(id)))
            .collect();
        for (eidx, e) in circuit.elements().enumerate() {
            if let Element::VoltageSource { name, pos, neg, .. } = e {
                let br = branch_idx[eidx].expect("vsource branch");
                names.push(format!("i({name})"));
                names.push(format!("p({name})"));
                vsources.push((name.clone(), *pos, *neg, br));
            }
        }
        let trace = Trace::new(names);
        (Recorder { nodes, vsources }, trace)
    }

    fn sample(&self, x: &[f64], t: f64, trace: &mut Trace, row: &mut Vec<f64>) {
        row.clear();
        for &n in &self.nodes {
            row.push(x[n.unknown_index().expect("non-ground")]);
        }
        let volt = |n: NodeId| n.unknown_index().map_or(0.0, |i| x[i]);
        for (_, pos, neg, br) in &self.vsources {
            let i = x[*br];
            let v = volt(*pos) - volt(*neg);
            row.push(i);
            // Power delivered BY the source to the circuit.
            row.push(-v * i);
        }
        trace.push(t, row);
    }
}

/// Collects, sorts and dedups waveform breakpoints in `(0, t_stop]`.
///
/// Waveforms are user input (PWL corner lists in particular), so a
/// non-finite corner time is reported as [`CircuitError::InvalidOptions`]
/// up front. The finiteness check runs *before* the range filter: a NaN
/// fails every comparison, so `retain` would silently drop it and the
/// run would proceed with the user's breakpoint list quietly truncated.
fn breakpoints(circuit: &Circuit, t_stop: f64) -> Result<Vec<f64>, CircuitError> {
    let mut bps = Vec::new();
    for e in circuit.elements() {
        match e {
            Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } => {
                wave.breakpoints(t_stop, &mut bps);
            }
            _ => {}
        }
    }
    if let Some(bad) = bps.iter().find(|t| !t.is_finite()) {
        return Err(CircuitError::InvalidOptions {
            field: "waveform breakpoints",
            reason: format!("non-finite breakpoint time {bad}"),
        });
    }
    bps.retain(|&t| t > 0.0 && t <= t_stop);
    // All values are finite here, but total_cmp keeps the sort panic-free
    // by construction rather than by the check above.
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
    Ok(bps)
}

/// Output of a transient run: the recorded waveforms plus the final
/// circuit state, reusable as the initial condition of a follow-on phase.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Recorded waveforms.
    pub trace: Trace,
    /// MNA state at `t_stop` (node voltages + branch currents).
    pub final_state: DcSolution,
    /// Newton iterations summed over every attempted step.
    pub newton_iterations: u64,
    /// Newton solves attempted (accepted + rejected steps).
    pub newton_solves: u64,
    /// Rescue-ladder telemetry: step rejections, damped retries, gmin
    /// ramps, injected faults. All zero for a clean run (LTE rejections
    /// are routine step control, not rescue events, and are counted in
    /// [`steps`](TransientResult::steps) instead).
    pub rescue: RescueStats,
    /// Step-control and solver-reuse telemetry.
    pub steps: StepStats,
}

/// Runs a transient analysis starting from the operating point `initial`.
///
/// Records every non-ground node voltage (`v(<node>)`), every voltage
/// source's branch current (`i(<name>)`) and delivered power
/// (`p(<name>)`), and optionally nonlinear-device state signals.
///
/// Nonlinear devices advance their internal state (e.g. MTJ magnetisation)
/// as steps are accepted, so the circuit is left in its post-simulation
/// state, and the returned [`TransientResult::final_state`] can seed the
/// next phase — this is how multi-phase sequences (store → shutdown →
/// restore) compose.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidOptions`] for malformed options,
/// [`CircuitError::StepBudgetExhausted`] if the attempted-step budget runs
/// out, and [`CircuitError::TransientNonConvergence`] (or
/// [`CircuitError::NonFiniteSolution`] / [`CircuitError::SingularMatrix`])
/// if a step fails to converge at `dt_min` even after the rescue ladder:
/// a damped/backtracking Newton retry, then a gmin ramp.
///
/// # Panics
///
/// Panics if `initial` does not match the circuit's unknown layout.
pub fn transient(
    circuit: &mut Circuit,
    opts: &TransientOptions,
    initial: &DcSolution,
) -> Result<TransientResult, CircuitError> {
    assert_eq!(
        initial.as_slice().len(),
        circuit.unknown_count(),
        "initial solution does not match circuit"
    );
    opts.validate()?;
    let _span = nvpg_obs::span_labeled("solve", "transient");
    let bps = breakpoints(circuit, opts.t_stop)?;
    let (recorder, mut trace) = Recorder::build(circuit);

    let mut solver = crate::solver::build_newton(circuit, opts.newton, opts.solver);
    let mut sys = MnaSystem::new(circuit, MnaContext::dc());
    sys.set_bypass_tol(opts.device_bypass_tol);
    let mut x = initial.as_slice().to_vec();
    sys.init_integration(&x);

    // Per-step scratch, allocated once: the Newton trial vector, the
    // LTE controller's solution history, and the recorder's sample row.
    // The step loop allocates nothing else; only the trace's columns
    // grow, amortised.
    let mut x_try = x.clone();
    let mut x_prev = x.clone();
    let mut row: Vec<f64> = Vec::with_capacity(trace.signal_names().len());

    let mut t = 0.0_f64;
    recorder.sample(&x, t, &mut trace, &mut row);

    let mut dt = opts.dt_init.min(opts.dt_max);
    let mut bp_iter = bps.iter().copied().peekable();
    let mut rescue = RescueStats::default();
    let mut steps = StepStats::default();
    let mut attempted: u64 = 0;
    // LTE history: the previous accepted solution and its step size.
    let mut dt_prev = 0.0_f64;
    let mut have_history = false;
    // Step size the retained LU factorisation was built at: changing dt
    // rescales every companion-model C/dt term, so the factorisation must
    // be refreshed even though the residual stays exact.
    let mut dt_of_lu = f64::NAN;

    while t < opts.t_stop {
        // Cooperative cancellation checkpoint once per attempted step (the
        // Newton loop polls per iteration too; this catches cancellation
        // during the step bookkeeping between solves). One thread-local
        // read when no token is installed.
        if cancel::checkpoint() {
            return Err(CircuitError::cancelled_at(format!(
                "transient t = {t:e} s of {:e} s ({} steps accepted)",
                opts.t_stop, steps.accepted_steps
            )));
        }
        // Aim for the next breakpoint or the end of the run.
        while let Some(&bp) = bp_iter.peek() {
            if bp <= t + 1e-21 + t.abs() * 1e-15 {
                bp_iter.next();
            } else {
                break;
            }
        }
        let limit = bp_iter
            .peek()
            .copied()
            .unwrap_or(opts.t_stop)
            .min(opts.t_stop);
        let mut step = dt.min(opts.dt_max);
        if t + step > limit {
            step = limit - t;
        }
        // Avoid leaving a sliver smaller than dt_min before the limit.
        if limit - (t + step) < opts.dt_min {
            step = limit - t;
        }

        attempted += 1;
        if attempted > opts.max_steps {
            return Err(CircuitError::StepBudgetExhausted {
                time: t,
                steps: opts.max_steps,
            });
        }

        let t_new = t + step;
        sys.ctx.time = t_new;
        if let Some(integ) = &mut sys.ctx.integ {
            integ.dt = step;
        }
        // A retained LU is only as good as its companion terms: any dt
        // change invalidates it. Through quiescent intervals dt pins at
        // dt_max, so reuse thrives exactly where the work is.
        if step != dt_of_lu {
            solver.invalidate_jacobian();
            dt_of_lu = step;
        }
        if opts.lte_control && have_history {
            // Seed Newton from the polynomial predictor — in smooth
            // intervals it starts within the convergence tolerance.
            let a = step / dt_prev;
            for ((xt, &xi), &xp) in x_try.iter_mut().zip(x.iter()).zip(x_prev.iter()) {
                *xt = xi + a * (xi - xp);
            }
        } else {
            x_try.copy_from_slice(&x);
        }
        let mut outcome = solve_with_faults(&mut solver, &mut sys, &mut x_try, &mut rescue);

        if !outcome.is_converged() {
            // A cancelled solve must not enter the shrink-and-retry or
            // rescue machinery: the token stays latched, so every retry
            // would fail the same way after burning its own checkpoints.
            if matches!(outcome, NewtonOutcome::Cancelled { .. }) {
                return Err(CircuitError::cancelled_at(format!(
                    "transient t = {t_new:e} s of {:e} s ({} steps accepted)",
                    opts.t_stop, steps.accepted_steps
                )));
            }
            rescue.rejected_steps += 1;
            steps.rejected_newton += 1;
            let reduced = step * 0.25;
            if reduced >= opts.dt_min {
                // Cheapest cure first: retry the step 4× smaller.
                dt = reduced;
                continue;
            }

            // At the dt_min floor; escalate through the rescue ladder at
            // the current step size before giving up. The rungs run full
            // Newton: a stale factorisation is the last thing a solve
            // that already failed needs.
            let no_reuse = NewtonOptions {
                reuse_jacobian: false,
                ..opts.newton
            };
            solver.invalidate_jacobian();

            // Rung 1: damped Newton with backtracking line search.
            rescue.damped_retries += 1;
            let damped = NewtonOptions {
                max_step: if opts.newton.max_step.is_finite() {
                    opts.newton.max_step * 0.25
                } else {
                    0.25
                },
                backtrack: 4,
                max_iter: opts.newton.max_iter * 2,
                ..no_reuse
            };
            solver.set_options(damped);
            x_try.copy_from_slice(&x);
            outcome = solve_with_faults(&mut solver, &mut sys, &mut x_try, &mut rescue);
            solver.set_options(no_reuse);

            // Rung 2: gmin ramp — solve with a shrinking extra shunt
            // conductance, then polish without it.
            if !outcome.is_converged() {
                rescue.gmin_ramps += 1;
                x_try.copy_from_slice(&x);
                let mut ramped = true;
                for exp in [-3_i32, -6, -9, -12] {
                    sys.ctx.extra_gmin = 10f64.powi(exp);
                    if !solve_with_faults(&mut solver, &mut sys, &mut x_try, &mut rescue)
                        .is_converged()
                    {
                        ramped = false;
                        break;
                    }
                }
                sys.ctx.extra_gmin = 0.0;
                if ramped {
                    outcome = solve_with_faults(&mut solver, &mut sys, &mut x_try, &mut rescue);
                }
            }

            solver.set_options(opts.newton);
            solver.invalidate_jacobian();
            dt_of_lu = f64::NAN;

            if outcome.is_converged() {
                rescue.rescued_solves += 1;
            } else {
                return Err(match outcome {
                    NewtonOutcome::NonFiniteState { .. } => CircuitError::NonFiniteSolution {
                        analysis: "transient",
                        time: t_new,
                    },
                    NewtonOutcome::SingularJacobian { iteration, column } => {
                        CircuitError::SingularMatrix {
                            detail: format!(
                                "transient step at t = {t_new:e} s (Newton iteration {iteration}, \
                                 pivot column {column} = {}, after rescue ladder [{rescue}])",
                                sys.circuit.unknown_name(column)
                            ),
                        }
                    }
                    NewtonOutcome::IterationLimit {
                        last_residual,
                        worst_index,
                        ..
                    } => CircuitError::TransientNonConvergence {
                        time: t_new,
                        worst_unknown: sys.circuit.unknown_name(worst_index),
                        residual: last_residual,
                    },
                    NewtonOutcome::Cancelled { .. } => CircuitError::cancelled_at(format!(
                        "transient t = {t_new:e} s of {:e} s (rescue ladder, {} steps \
                         accepted)",
                        opts.t_stop, steps.accepted_steps
                    )),
                    NewtonOutcome::Converged { .. } => unreachable!(),
                });
            }
        }

        let NewtonOutcome::Converged { iterations } = outcome else {
            unreachable!()
        };

        // LTE estimate from the predictor–corrector difference. With a
        // linear predictor over history step `dt_prev` and the backward-
        // Euler corrector, d = x_new − x_pred = (dt(2dt + dt_prev)/2)·x″,
        // while the corrector's own truncation error is (dt²/2)·x″ — so
        // LTE = |d|·dt/(2dt + dt_prev), normalised per unknown against
        // `lte_abstol + lte_reltol·|x|`.
        let mut lte_ratio = 0.0_f64;
        if opts.lte_control && have_history {
            let a = step / dt_prev;
            let scale = step / (2.0 * step + dt_prev);
            for ((&xn, &xi), &xp) in x_try.iter().zip(x.iter()).zip(x_prev.iter()) {
                let pred = xi + a * (xi - xp);
                let lte = (xn - pred).abs() * scale;
                let tol = opts.lte_abstol + opts.lte_reltol * xn.abs();
                lte_ratio = lte_ratio.max(lte / tol);
            }
            if lte_ratio > 1.0 && step > opts.dt_min {
                let shrink = (opts.lte_safety / lte_ratio.sqrt()).clamp(0.1, 0.9);
                let dt_retry = (step * shrink).max(opts.dt_min);
                // The retry re-derives its step from the unchanged t and
                // limit, including the sliver stretch; if that bounces it
                // straight back to the step just rejected, no smaller
                // step exists and rejecting would loop forever — accept.
                let mut retry_step = dt_retry.min(opts.dt_max).min(limit - t);
                if limit - (t + retry_step) < opts.dt_min {
                    retry_step = limit - t;
                }
                if retry_step < step {
                    // Converged but too inaccurate: redo the step
                    // smaller. Routine step control, not a rescue event.
                    steps.rejected_lte += 1;
                    dt = dt_retry;
                    continue;
                }
            }
            // At the dt_min floor (or when the limit leaves no smaller
            // step) the step is accepted regardless, and the ratio shows
            // up in `max_lte_ratio`.
        }

        steps.accepted_steps += 1;
        steps.max_lte_ratio = steps.max_lte_ratio.max(lte_ratio);
        x_prev.copy_from_slice(&x);
        dt_prev = step;
        have_history = true;
        std::mem::swap(&mut x, &mut x_try);
        sys.accept_step(&x, t_new, step);
        t = t_new;
        recorder.sample(&x, t, &mut trace, &mut row);

        if opts.lte_control && have_history {
            // Ideal next step for a first-order method: LTE ∝ dt², so
            // dt_next = dt·safety/√ratio, growth-capped. A hard Newton
            // solve still halves the step as the inner heuristic.
            let factor = if lte_ratio > 0.0 {
                (opts.lte_safety / lte_ratio.sqrt()).min(opts.lte_max_growth)
            } else {
                opts.lte_max_growth
            };
            dt = (step * factor).clamp(opts.dt_min, opts.dt_max);
            if iterations > 20 {
                dt = (dt * 0.5).max(opts.dt_min);
            }
        } else if iterations <= 5 {
            dt = (step * 1.5).min(opts.dt_max);
        } else if iterations > 20 {
            dt = (step * 0.5).max(opts.dt_min);
        } else {
            dt = step;
        }
    }

    steps.newton_iterations = solver.total_iterations();
    steps.newton_solves = solver.total_solves();
    steps.jacobian_refactorizations = solver.total_refactorizations();
    steps.refactorizations_avoided = solver.refactorizations_avoided();
    steps.device_evals = sys.device_evals();
    steps.device_deferred_evals = sys.device_deferred_evals();
    steps.device_bypasses = sys.device_bypasses();

    // One registry deposit per run, from the aggregated stats, so the
    // global metrics reconcile exactly with the sum of returned stats.
    steps.record_metrics();
    rescue.record_metrics();
    nvpg_obs::metrics::counters::TRANSIENT_RUNS.add(1);

    let final_state = DcSolution::new(sys.circuit, x);
    Ok(TransientResult {
        trace,
        final_state,
        newton_iterations: solver.total_iterations(),
        newton_solves: solver.total_solves(),
        rescue,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{operating_point, DcOptions};
    use crate::element::{DeviceStamp, NonlinearDevice};
    use crate::waveform::{Pulse, Waveform};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A two-terminal cubic conductance with a linear charge that counts
    /// its `load` calls.
    #[derive(Debug)]
    struct CountingDevice {
        nodes: [NodeId; 2],
        loads: Arc<AtomicU64>,
    }

    const COUNTING_C: f64 = 1e-15;

    impl NonlinearDevice for CountingDevice {
        fn name(&self) -> &str {
            "xcount"
        }

        fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }

        fn load(&self, v: &[f64], stamp: &mut DeviceStamp) {
            self.loads.fetch_add(1, Ordering::Relaxed);
            let u = v[0] - v[1];
            let i = 1e-4 * u + 1e-4 * u * u * u;
            let g = 1e-4 + 3e-4 * u * u;
            stamp.current[0] = i;
            stamp.current[1] = -i;
            stamp.conductance[0][0] = g;
            stamp.conductance[0][1] = -g;
            stamp.conductance[1][0] = -g;
            stamp.conductance[1][1] = g;
            self.charge(v, &mut stamp.charge);
            stamp.capacitance[0][0] = COUNTING_C;
            stamp.capacitance[0][1] = -COUNTING_C;
            stamp.capacitance[1][0] = -COUNTING_C;
            stamp.capacitance[1][1] = COUNTING_C;
        }

        fn charge(&self, v: &[f64], q: &mut [f64]) {
            q[0] = COUNTING_C * (v[0] - v[1]);
            q[1] = -q[0];
        }
    }

    /// Every `load` a transient runs shows up once in its `StepStats`:
    /// at a Newton iterate (`device_evals`) or as a committed step's
    /// stamp evaluated when a bypass test reads it
    /// (`device_deferred_evals`). Committing a step evaluates only the
    /// charge, so with bypass off no stamp is ever deferred.
    #[test]
    fn every_device_load_is_counted_once() {
        for tol in [1e-6, 0.0] {
            let loads = Arc::new(AtomicU64::new(0));
            let mut ckt = Circuit::new();
            let vin = ckt.node("vin");
            let out = ckt.node("out");
            ckt.vsource(
                "v1",
                vin,
                Circuit::GROUND,
                Waveform::Pulse(Pulse {
                    v1: 0.0,
                    v2: 1.0,
                    delay: 1e-9,
                    rise: 50e-12,
                    fall: 50e-12,
                    width: 2e-9,
                    period: f64::INFINITY,
                }),
            )
            .unwrap();
            ckt.resistor("r1", vin, out, 1e3).unwrap();
            ckt.device(Box::new(CountingDevice {
                nodes: [out, Circuit::GROUND],
                loads: Arc::clone(&loads),
            }))
            .unwrap();
            let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
            loads.store(0, Ordering::Relaxed);
            let opts = TransientOptions {
                device_bypass_tol: tol,
                solver: SolverChoice::Dense,
                ..TransientOptions::to(6e-9)
            };
            let s = transient(&mut ckt, &opts, &op).unwrap().steps;
            let loads = loads.load(Ordering::Relaxed);
            assert!(s.accepted_steps > 10, "tol {tol}: {s}");
            assert_eq!(
                loads,
                s.device_evals + s.device_deferred_evals,
                "tol {tol}: {s:?}"
            );
            if tol > 0.0 {
                assert!(s.device_bypasses > 0, "the bypass never fired: {s:?}");
                assert!(s.device_deferred_evals > 0, "nothing was deferred: {s:?}");
                assert!(
                    s.device_deferred_evals < s.accepted_steps,
                    "a deferred stamp was evaluated for every step: {s:?}"
                );
            } else {
                assert_eq!(s.device_deferred_evals, 0, "{s:?}");
                assert_eq!(s.device_bypasses, 0, "{s:?}");
            }
        }
    }

    /// RC low-pass step response: v(out) = 1 − exp(−t/RC).
    #[test]
    fn rc_step_response() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        ckt.resistor("r1", vin, out, 1e3).unwrap();
        ckt.capacitor("c1", out, Circuit::GROUND, 1e-12).unwrap();

        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TransientOptions {
            t_stop: 5e-9,
            dt_max: 10e-12,
            dt_init: 1e-12,
            ..TransientOptions::default()
        };
        let tr = transient(&mut ckt, &opts, &op).unwrap().trace;
        // At t = RC = 1 ns: 1 − e⁻¹ ≈ 0.632.
        let v = tr.value_at("v(out)", 1e-9).unwrap();
        assert!((v - 0.632).abs() < 0.01, "v(RC) = {v}");
        // At 5 RC, nearly settled.
        let v = tr.value_at("v(out)", 5e-9).unwrap();
        assert!(v > 0.99, "v(5RC) = {v}");
    }

    /// A NaN corner time in a source waveform must surface as a typed
    /// error, not a sort panic (and not be silently filtered out, which
    /// is what `retain(t > 0.0)` used to do to NaNs).
    #[test]
    fn nan_breakpoint_is_a_typed_error() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (f64::NAN, 1.0), (2e-9, 1.0)]),
        )
        .unwrap();
        ckt.resistor("r1", vin, Circuit::GROUND, 1e3).unwrap();

        let op = DcSolution::new(&ckt, vec![0.0; ckt.unknown_count()]);
        let opts = TransientOptions {
            t_stop: 5e-9,
            ..TransientOptions::default()
        };
        let err = transient(&mut ckt, &opts, &op).unwrap_err();
        match err {
            CircuitError::InvalidOptions { field, reason } => {
                assert_eq!(field, "waveform breakpoints");
                assert!(reason.contains("NaN"), "{reason}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
        // Infinite corner times are equally invalid.
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (f64::INFINITY, 1.0)]),
        )
        .unwrap();
        ckt.resistor("r1", vin, Circuit::GROUND, 1e3).unwrap();
        let op = DcSolution::new(&ckt, vec![0.0; ckt.unknown_count()]);
        assert!(matches!(
            transient(&mut ckt, &opts, &op),
            Err(CircuitError::InvalidOptions { .. })
        ));
    }

    /// Energy drawn from the source charging C through R: C·V²
    /// (half stored, half burned in R).
    #[test]
    fn rc_charging_energy() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        ckt.resistor("r1", vin, out, 1e3).unwrap();
        ckt.capacitor("c1", out, Circuit::GROUND, 1e-12).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TransientOptions {
            t_stop: 20e-9, // 20 RC: fully settled
            dt_max: 20e-12,
            dt_init: 1e-12,
            ..TransientOptions::default()
        };
        let tr = transient(&mut ckt, &opts, &op).unwrap().trace;
        let e = tr.integral("p(v1)").unwrap();
        let expect = 1e-12; // C·V² with C = 1 pF, V = 1 V
        assert!((e - expect).abs() / expect < 0.05, "E = {e:e}");
    }

    /// A pulse through the switch: output follows the control.
    #[test]
    fn switched_pulse() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        let ctl = ckt.node("ctl");
        ckt.vsource("v1", vin, Circuit::GROUND, 1.0).unwrap();
        ckt.vsource(
            "vc",
            ctl,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: f64::INFINITY,
            }),
        )
        .unwrap();
        ckt.switch("s1", vin, out, ctl, Circuit::GROUND, 0.5, 10.0, 1e12)
            .unwrap();
        ckt.resistor("rl", out, Circuit::GROUND, 1e4).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let tr = transient(&mut ckt, &TransientOptions::to(5e-9), &op)
            .unwrap()
            .trace;
        assert!(tr.value_at("v(out)", 0.5e-9).unwrap() < 0.01);
        assert!(tr.value_at("v(out)", 2e-9).unwrap() > 0.95);
        assert!(tr.value_at("v(out)", 4.5e-9).unwrap() < 0.01);
    }

    /// Breakpoints: a 100 ps pulse inside a 1 µs run must not be skipped.
    #[test]
    fn narrow_pulse_not_stepped_over() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 500e-9,
                rise: 10e-12,
                fall: 10e-12,
                width: 100e-12,
                period: f64::INFINITY,
            }),
        )
        .unwrap();
        ckt.resistor("r1", vin, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TransientOptions {
            t_stop: 1e-6,
            dt_max: 50e-9, // 500× wider than the pulse
            dt_init: 1e-9,
            ..TransientOptions::default()
        };
        let tr = transient(&mut ckt, &opts, &op).unwrap().trace;
        assert!(tr.max("v(vin)").unwrap() > 0.99);
    }

    #[test]
    fn current_source_charges_capacitor_linearly() {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.isource("i1", Circuit::GROUND, n, 1e-6).unwrap();
        ckt.capacitor("c1", n, Circuit::GROUND, 1e-12).unwrap();
        // A bleed resistor so DC has a solution; its RC (1 µs) is three
        // orders above the 1 ns run, so the charging stays linear.
        ckt.resistor("r1", n, Circuit::GROUND, 1e6).unwrap();
        let mut op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        // Start the cap at 0 V regardless of the DC solution.
        let mut x = op.as_slice().to_vec();
        x[n.unknown_index().unwrap()] = 0.0;
        op = DcSolution::new(&ckt, x);
        let opts = TransientOptions {
            t_stop: 1e-9,
            dt_max: 5e-12,
            dt_init: 1e-12,
            ..TransientOptions::default()
        };
        let tr = transient(&mut ckt, &opts, &op).unwrap().trace;
        // dV/dt = I/C = 1e6 V/s → 1 mV at 1 ns.
        let v = tr.value_at("v(n)", 1e-9).unwrap();
        assert!((v - 1e-3).abs() < 5e-5, "v = {v}");
    }

    /// RL step response: i(t) = (V/R)·(1 − e^{−t·R/L}).
    #[test]
    fn rl_step_response() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        ckt.vsource(
            "v1",
            vin,
            Circuit::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        ckt.resistor("r1", vin, mid, 1e3).unwrap();
        ckt.inductor("l1", mid, Circuit::GROUND, 1e-6).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let opts = TransientOptions {
            t_stop: 5e-9,
            dt_max: 10e-12,
            dt_init: 1e-12,
            ..TransientOptions::default()
        };
        let tr = transient(&mut ckt, &opts, &op).unwrap().trace;
        // τ = L/R = 1 ns: the source current reaches (1 − e⁻¹) mA at τ.
        let i = -tr.value_at("i(v1)", 1e-9).unwrap();
        let expect = 1e-3 * (1.0 - (-1.0_f64).exp());
        assert!((i - expect).abs() < 0.03e-3, "i(τ) = {i:e}");
        // Settles to V/R.
        let i = -tr.value_at("i(v1)", 5e-9).unwrap();
        assert!((i - 1e-3).abs() < 0.02e-3, "i(5τ) = {i:e}");
    }

    /// VCVS and VCCS behave as ideal controlled sources in DC and
    /// transient.
    #[test]
    fn controlled_sources() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let amp = ckt.node("amp");
        let cur = ckt.node("cur");
        ckt.vsource("v1", a, Circuit::GROUND, 0.25).unwrap();
        // E: amp = 3 × v(a).
        ckt.vcvs("e1", amp, Circuit::GROUND, a, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.resistor("rl1", amp, Circuit::GROUND, 1e3).unwrap();
        // G: push gm·v(a) into `cur` loaded by 1 kΩ: v(cur) = gm·R·v(a).
        ckt.vccs("g1", Circuit::GROUND, cur, a, Circuit::GROUND, 2e-3)
            .unwrap();
        ckt.resistor("rl2", cur, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        assert!(
            (op.voltage(amp) - 0.75).abs() < 1e-9,
            "vcvs: {}",
            op.voltage(amp)
        );
        assert!(
            (op.voltage(cur) - 0.5).abs() < 1e-6,
            "vccs: {}",
            op.voltage(cur)
        );
        // Transient keeps tracking a moving control voltage.
        ckt.set_source("v1", Waveform::Pwl(vec![(0.0, 0.25), (1e-9, 0.1)]))
            .unwrap();
        let tr = transient(&mut ckt, &TransientOptions::to(2e-9), &op)
            .unwrap()
            .trace;
        assert!((tr.value_at("v(amp)", 2e-9).unwrap() - 0.3).abs() < 1e-6);
        assert!((tr.value_at("v(cur)", 2e-9).unwrap() - 0.2).abs() < 1e-4);
    }

    #[test]
    fn trace_contains_expected_signals() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("vs", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("r", a, Circuit::GROUND, 1e3).unwrap();
        let op = operating_point(&mut ckt, &DcOptions::default()).unwrap();
        let tr = transient(&mut ckt, &TransientOptions::to(1e-9), &op)
            .unwrap()
            .trace;
        let names = tr.signal_names();
        assert!(names.contains(&"v(a)".to_owned()));
        assert!(names.contains(&"i(vs)".to_owned()));
        assert!(names.contains(&"p(vs)".to_owned()));
        // Steady state: p = V²/R = 1 mW.
        let p = tr.value_at("p(vs)", 0.5e-9).unwrap();
        assert!((p - 1e-3).abs() < 1e-6);
    }
}

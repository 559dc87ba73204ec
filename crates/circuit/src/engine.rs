//! MNA assembly: turns a [`Circuit`] plus an evaluation context into the
//! [`NonlinearSystem`] consumed by the Newton solver.
//!
//! Unknown ordering: the `nv` non-ground node voltages first, then one
//! branch current per voltage source (in element order). The residual is
//! Kirchhoff's current law per node (currents *leaving* the node sum to
//! zero) plus one constraint row per voltage source.

use nvpg_numeric::matrix::DenseMatrix;
use nvpg_numeric::newton::NonlinearSystem;
use nvpg_numeric::sparse::{CscMatrix, PatternBuilder, SparsePattern};

use crate::circuit::Circuit;
use crate::element::{DeviceStamp, Element};
use crate::fault::FaultKind;
use crate::node::NodeId;

/// Companion-model state for backward-Euler transient integration.
#[derive(Debug, Clone, Default)]
pub(crate) struct Integration {
    /// Current step size.
    pub dt: f64,
    /// Previous accepted voltage across each linear capacitor (element
    /// order, capacitors only).
    pub cap_v_prev: Vec<f64>,
    /// Previous accepted terminal charges of each nonlinear device
    /// (element order, nonlinear devices only).
    pub dev_q_prev: Vec<Vec<f64>>,
    /// Previous accepted branch current of each inductor (element order,
    /// inductors only).
    pub ind_i_prev: Vec<f64>,
}

/// Evaluation context: time, stepping scale factors, integration state.
#[derive(Debug, Clone, Default)]
pub(crate) struct MnaContext {
    /// Source evaluation time (transient) — DC uses each waveform's value
    /// at `t = 0`.
    pub time: f64,
    /// Scale factor on independent sources (source stepping).
    pub source_scale: f64,
    /// Additional gmin from every node to ground (gmin stepping).
    pub extra_gmin: f64,
    /// Transient integration state; `None` in DC (capacitors open).
    pub integ: Option<Integration>,
}

impl MnaContext {
    pub(crate) fn dc() -> Self {
        MnaContext {
            time: 0.0,
            source_scale: 1.0,
            extra_gmin: 0.0,
            integ: None,
        }
    }
}

/// The assembled nonlinear system for one circuit + context.
pub(crate) struct MnaSystem<'a> {
    pub circuit: &'a mut Circuit,
    pub ctx: MnaContext,
    /// Fault to inject into the next solve's assemblies (set by the
    /// analysis driver from the active [`crate::fault::FaultPlan`]).
    pub fault: Option<FaultKind>,
    branch_idx: Vec<Option<usize>>,
    nv: usize,
    dim: usize,
    /// Scratch stamps, one per nonlinear device (ordinal order).
    stamps: Vec<DeviceStamp>,
    /// Device-eval bypass tolerance on terminal voltages; `0.0` disables
    /// bypass (the DC default). Set by the transient driver from
    /// [`crate::transient::TransientOptions::device_bypass_tol`].
    bypass_tol: f64,
    /// Terminal voltages of each device's bypass linearisation point.
    dev_v_cache: Vec<Vec<f64>>,
    /// What each device's bypass cache holds.
    dev_cached: Vec<Cached>,
    /// Scratch: current terminal voltages of the device being assembled.
    dev_v_scratch: Vec<f64>,
    /// Scratch: voltage deltas vs the cached linearisation point.
    dev_dv_scratch: Vec<f64>,
    /// `dev.load` evaluations at Newton iterates (bypass telemetry).
    device_evals: u64,
    /// `dev.load` evaluations of a committed step's stamp, deferred until
    /// a bypass test read it.
    device_deferred_evals: u64,
    /// Evaluations skipped by re-emitting the cached stamp.
    device_bypasses: u64,
    /// CSC slot of every Jacobian add of a sparse full assembly, in
    /// stamping order: recorded by the first, replayed by the rest.
    slot_tape: Option<Vec<u32>>,
}

/// What a device's bypass cache holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    /// Nothing: the next assembly evaluates the device.
    Empty,
    /// A committed step's terminal voltages, with the stamp at them not
    /// yet evaluated. The device's state changes only when a step is
    /// committed and a stamp is a pure function of (state, voltages), so
    /// evaluating it when a bypass test first reads it gives the stamp
    /// the commit would have computed, bit for bit — and a device the
    /// next iterate re-evaluates anyway never pays for it.
    Voltages,
    /// Terminal voltages and the stamp evaluated at them.
    Stamp,
}

/// Jacobian destination for [`MnaSystem::assemble`]: either the real
/// matrix (full Newton iteration) or a no-op sink (residual-only
/// evaluation for modified-Newton stale iterations). Monomorphised, so
/// the residual-only path pays nothing for the abstraction.
pub(crate) trait JacSink {
    /// `false` for the no-op sink — lets assembly skip derivative-only
    /// arithmetic.
    const ACTIVE: bool;
    fn add(&mut self, r: usize, c: usize, v: f64);
}

/// Discards Jacobian entries (residual-only assembly).
pub(crate) struct NoJac;

impl JacSink for NoJac {
    const ACTIVE: bool = false;
    #[inline]
    fn add(&mut self, _r: usize, _c: usize, _v: f64) {}
}

impl JacSink for DenseMatrix {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        DenseMatrix::add(self, r, c, v);
    }
}

/// Sparse sink for an [`MnaSystem`]'s first full assembly: adds by
/// `(row, col)` search and records the slot each add landed in.
struct SlotRecorder<'m> {
    matrix: &'m mut CscMatrix,
    tape: Vec<u32>,
}

impl JacSink for SlotRecorder<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.matrix.add(r, c, v);
        let slot = self.matrix.slot(r, c).expect("added above");
        self.tape
            .push(u32::try_from(slot).expect("sparse pattern exceeds u32 slots"));
    }
}

/// Sparse sink for every later full assembly. One `MnaSystem` stamps the
/// same sequence of positions every time (it branches only on element
/// kinds, node grounding and whether the context integrates), so the
/// `k`-th add goes to the `k`-th recorded slot without a search.
struct SlotReplay<'m> {
    matrix: &'m mut CscMatrix,
    tape: &'m [u32],
    next: usize,
}

impl JacSink for SlotReplay<'_> {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let slot = self.tape[self.next] as usize;
        self.next += 1;
        debug_assert_eq!(
            self.matrix.slot(r, c),
            Some(slot),
            "replayed stamp ({r}, {c}) left its recorded slot"
        );
        self.matrix.add_at(slot, v);
    }
}

/// Collects Jacobian stamp *positions* (values discarded) — used once per
/// sparse analysis to build the structural pattern.
struct PatternSink(PatternBuilder);

impl JacSink for PatternSink {
    const ACTIVE: bool = true;
    #[inline]
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.0.add(r, c);
    }
}

/// Structural Jacobian pattern of `circuit`, valid for **every** analysis
/// context: the assembly runs once in a transient context (backward Euler,
/// `dt = 1`), whose stamp set is a superset of the DC one — capacitor
/// companion stamps and the inductor `(branch, branch)` term only exist in
/// transient, every other element stamps the same positions in both — and is
/// independent of gmin/source stepping (those only scale diagonal entries
/// already present). One symbolic analysis therefore serves DC, transient,
/// and the whole rescue ladder.
pub(crate) fn jacobian_pattern(circuit: &mut Circuit) -> SparsePattern {
    let dim = circuit.unknown_count();
    let mut sys = MnaSystem::new(circuit, MnaContext::dc());
    let x = vec![0.0; dim];
    sys.init_integration(&x);
    if let Some(integ) = &mut sys.ctx.integ {
        integ.dt = 1.0;
    }
    let mut residual = vec![0.0; dim];
    let mut sink = PatternSink(PatternBuilder::new(dim));
    sys.assemble(&x, &mut residual, &mut sink);
    sink.0.build()
}

#[inline]
fn volt(x: &[f64], node: NodeId) -> f64 {
    match node.unknown_index() {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Smooth logistic used by the voltage-controlled switch.
#[inline]
fn logistic(z: f64) -> f64 {
    if z > 40.0 {
        1.0
    } else if z < -40.0 {
        0.0
    } else {
        1.0 / (1.0 + (-z).exp())
    }
}

impl<'a> MnaSystem<'a> {
    pub(crate) fn new(circuit: &'a mut Circuit, ctx: MnaContext) -> Self {
        let branch_idx = circuit.branch_indices();
        let nv = circuit.nodes.unknown_count();
        let dim = circuit.unknown_count();
        let stamps: Vec<DeviceStamp> = circuit
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Nonlinear(dev) => Some(DeviceStamp::new(dev.nodes().len())),
                _ => None,
            })
            .collect();
        let dev_v_cache: Vec<Vec<f64>> = stamps.iter().map(|s| vec![0.0; s.terminals()]).collect();
        let max_terminals = stamps.iter().map(|s| s.terminals()).max().unwrap_or(0);
        let n_devs = stamps.len();
        MnaSystem {
            circuit,
            ctx,
            fault: None,
            branch_idx,
            nv,
            dim,
            stamps,
            bypass_tol: 0.0,
            dev_v_cache,
            dev_cached: vec![Cached::Empty; n_devs],
            dev_v_scratch: vec![0.0; max_terminals],
            dev_dv_scratch: vec![0.0; max_terminals],
            device_evals: 0,
            device_deferred_evals: 0,
            device_bypasses: 0,
            slot_tape: None,
        }
    }

    /// Enables device-eval bypass: devices whose terminal voltages moved
    /// less than `tol` (scaled per device) since their last full
    /// evaluation re-emit the cached stamp, linearised at the cached
    /// point, instead of re-running the I–V model. `0.0` disables.
    pub(crate) fn set_bypass_tol(&mut self, tol: f64) {
        self.bypass_tol = tol;
    }

    /// Device-model evaluations at Newton iterates.
    pub(crate) fn device_evals(&self) -> u64 {
        self.device_evals
    }

    /// Deferred device-model evaluations at committed steps' voltages.
    pub(crate) fn device_deferred_evals(&self) -> u64 {
        self.device_deferred_evals
    }

    /// Device evaluations skipped via the bypass cache.
    pub(crate) fn device_bypasses(&self) -> u64 {
        self.device_bypasses
    }

    /// Initialises integration state from a converged solution `x` at the
    /// start of a transient run. Like [`accept_step`](Self::accept_step),
    /// it evaluates only device charges and leaves each stamp pending.
    pub(crate) fn init_integration(&mut self, x: &[f64]) {
        let mut cap_v_prev = Vec::new();
        let mut dev_q_prev = Vec::new();
        let mut dev_ord = 0usize;
        for e in &self.circuit.elements {
            match e {
                Element::Capacitor { a, b, .. } => {
                    cap_v_prev.push(volt(x, *a) - volt(x, *b));
                }
                Element::Nonlinear(dev) => {
                    let cache = &mut self.dev_v_cache[dev_ord];
                    for (c, &n) in cache.iter_mut().zip(dev.nodes()) {
                        *c = volt(x, n);
                    }
                    let mut q = vec![0.0; cache.len()];
                    dev.charge(cache, &mut q);
                    dev_q_prev.push(q);
                    self.dev_cached[dev_ord] = Cached::Voltages;
                    dev_ord += 1;
                }
                _ => {}
            }
        }
        // Inductor currents: take their DC branch solution as history.
        let mut ind_i_prev = Vec::new();
        for (eidx, e) in self.circuit.elements.iter().enumerate() {
            if matches!(e, Element::Inductor { .. }) {
                let br = self.branch_idx[eidx].expect("inductor branch");
                ind_i_prev.push(x[br]);
            }
        }
        self.ctx.integ = Some(Integration {
            dt: 0.0,
            cap_v_prev,
            dev_q_prev,
            ind_i_prev,
        });
        // Capacitor companions stamp only in an integrating context, so
        // a tape recorded before this call no longer matches.
        self.slot_tape = None;
    }

    /// Commits an accepted transient step: updates companion-model history
    /// and lets devices advance their internal state. Each device's charge
    /// is evaluated at the accepted voltages for the history; its stamp
    /// there is left pending ([`Cached::Voltages`]) for the bypass test.
    pub(crate) fn accept_step(&mut self, x: &[f64], t: f64, dt: f64) {
        let mut cap_ord = 0usize;
        let mut dev_ord = 0usize;
        let mut ind_ord = 0usize;
        let integ = self.ctx.integ.as_mut().expect("accept_step without init");
        for (eidx, e) in self.circuit.elements.iter_mut().enumerate() {
            match e {
                Element::Inductor { .. } => {
                    let br = self.branch_idx[eidx].expect("inductor branch");
                    integ.ind_i_prev[ind_ord] = x[br];
                    ind_ord += 1;
                }
                Element::Capacitor { a, b, .. } => {
                    integ.cap_v_prev[cap_ord] = volt(x, *a) - volt(x, *b);
                    cap_ord += 1;
                }
                Element::Nonlinear(dev) => {
                    let cache = &mut self.dev_v_cache[dev_ord];
                    for (c, &n) in cache.iter_mut().zip(dev.nodes().iter()) {
                        *c = volt(x, n);
                    }
                    dev.accept_step(cache, t, dt);
                    // Charge at the accepted voltages and post-advance
                    // state; the accepted voltages also become the bypass
                    // linearisation point.
                    dev.charge(cache, &mut integ.dev_q_prev[dev_ord]);
                    self.dev_cached[dev_ord] = Cached::Voltages;
                    dev_ord += 1;
                }
                _ => {}
            }
        }
    }
}

impl NonlinearSystem for MnaSystem<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut DenseMatrix) {
        self.assemble(x, residual, jacobian);

        // Injected faults corrupt the assembled system at its natural
        // site; `RejectStep` and `Stall` are handled by the analysis
        // driver instead and never reach assembly.
        match self.fault {
            Some(FaultKind::NanResidual) => {
                if let Some(r) = residual.first_mut() {
                    *r = f64::NAN;
                }
            }
            Some(FaultKind::SingularMatrix) => jacobian.clear(),
            Some(FaultKind::Panic) => panic!("injected fault: panic during MNA assembly"),
            Some(FaultKind::RejectStep | FaultKind::Stall(_)) | None => {}
        }
    }

    fn eval_residual_only(&mut self, x: &[f64], residual: &mut [f64]) -> bool {
        // A pending fault must land on a full assembly, so every
        // corruption site (residual, Jacobian, panic) stays reachable on
        // the modified-Newton path.
        if self.fault.is_some() {
            return false;
        }
        self.assemble(x, residual, &mut NoJac);
        true
    }

    fn eval_sparse(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut CscMatrix) -> bool {
        // Taken out for the assembly; a panic inside it leaves `None`, so
        // the next assembly records afresh.
        match self.slot_tape.take() {
            Some(tape) => {
                let mut sink = SlotReplay {
                    matrix: jacobian,
                    tape: &tape,
                    next: 0,
                };
                self.assemble(x, residual, &mut sink);
                debug_assert_eq!(
                    sink.next,
                    tape.len(),
                    "assembly stamped fewer entries than recorded"
                );
                self.slot_tape = Some(tape);
            }
            None => {
                let mut sink = SlotRecorder {
                    matrix: jacobian,
                    tape: Vec::new(),
                };
                self.assemble(x, residual, &mut sink);
                self.slot_tape = Some(sink.tape);
            }
        }

        // Mirror `eval`'s fault handling exactly, so the fault-injection
        // suite exercises the same corruption sites on the sparse path.
        // `CscMatrix::clear` zeroes values while keeping the pattern, which
        // is precisely a singular (all-zero) Jacobian.
        match self.fault {
            Some(FaultKind::NanResidual) => {
                if let Some(r) = residual.first_mut() {
                    *r = f64::NAN;
                }
            }
            Some(FaultKind::SingularMatrix) => jacobian.clear(),
            Some(FaultKind::Panic) => panic!("injected fault: panic during MNA assembly"),
            Some(FaultKind::RejectStep | FaultKind::Stall(_)) | None => {}
        }
        true
    }
}

impl MnaSystem<'_> {
    /// Stamps the whole MNA system into `residual` and `jacobian`; the
    /// latter may be [`NoJac`], which turns this into the residual-only
    /// evaluation used by stale modified-Newton iterations.
    fn assemble<J: JacSink>(&mut self, x: &[f64], residual: &mut [f64], jacobian: &mut J) {
        let gmin = self.circuit.gmin + self.ctx.extra_gmin;
        for i in 0..self.nv {
            residual[i] += gmin * x[i];
            jacobian.add(i, i, gmin);
        }

        let scale = self.ctx.source_scale;
        let time = self.ctx.time;
        let mut cap_ord = 0usize;
        let mut dev_ord = 0usize;
        let mut ind_ord = 0usize;

        for (eidx, e) in self.circuit.elements.iter().enumerate() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    let g = 1.0 / ohms;
                    stamp_conductance(residual, jacobian, x, *a, *b, g);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    if let Some(integ) = &self.ctx.integ {
                        // Backward-Euler companion: i = (C/dt)·(v − v_prev).
                        let vab = volt(x, *a) - volt(x, *b);
                        let geq = farads / integ.dt;
                        let ieq = geq * (vab - integ.cap_v_prev[cap_ord]);
                        add_current(residual, *a, ieq);
                        add_current(residual, *b, -ieq);
                        stamp_g_only(jacobian, *a, *b, geq);
                    }
                    cap_ord += 1;
                }
                Element::VoltageSource { pos, neg, wave, .. } => {
                    let br = self.branch_idx[eidx].expect("vsource has branch");
                    let i_br = x[br];
                    add_current(residual, *pos, i_br);
                    add_current(residual, *neg, -i_br);
                    if let Some(p) = pos.unknown_index() {
                        jacobian.add(p, br, 1.0);
                        jacobian.add(br, p, 1.0);
                    }
                    if let Some(nn) = neg.unknown_index() {
                        jacobian.add(nn, br, -1.0);
                        jacobian.add(br, nn, -1.0);
                    }
                    residual[br] += volt(x, *pos) - volt(x, *neg) - wave.value(time) * scale;
                }
                Element::CurrentSource { from, to, wave, .. } => {
                    let i = wave.value(time) * scale;
                    // Current leaves `from` (into the source) and enters `to`.
                    add_current(residual, *from, i);
                    add_current(residual, *to, -i);
                }
                Element::Switch {
                    a,
                    b,
                    ctrl_pos,
                    ctrl_neg,
                    threshold,
                    r_on,
                    r_off,
                    smooth,
                    ..
                } => {
                    let vc = volt(x, *ctrl_pos) - volt(x, *ctrl_neg);
                    let z = (vc - threshold) / smooth;
                    let s = logistic(z);
                    // Interpolate conductance in log space for smoothness
                    // across many orders of magnitude.
                    let (ln_on, ln_off) = ((1.0 / r_on).ln(), (1.0 / r_off).ln());
                    let ln_g = ln_off + (ln_on - ln_off) * s;
                    let g = ln_g.exp();

                    let vab = volt(x, *a) - volt(x, *b);
                    let i = g * vab;
                    add_current(residual, *a, i);
                    add_current(residual, *b, -i);
                    stamp_g_only(jacobian, *a, *b, g);
                    // ∂i/∂vc terms (derivative-only work, skipped by the
                    // residual-only sink).
                    if J::ACTIVE {
                        let ds_dz = s * (1.0 - s);
                        let dg_dvc = g * (ln_on - ln_off) * ds_dz / smooth;
                        for (node, sign) in [(*a, 1.0), (*b, -1.0)] {
                            if let Some(r) = node.unknown_index() {
                                if let Some(cp) = ctrl_pos.unknown_index() {
                                    jacobian.add(r, cp, sign * vab * dg_dvc);
                                }
                                if let Some(cn) = ctrl_neg.unknown_index() {
                                    jacobian.add(r, cn, -sign * vab * dg_dvc);
                                }
                            }
                        }
                    }
                }
                Element::Inductor { a, b, henries, .. } => {
                    let br = self.branch_idx[eidx].expect("inductor branch");
                    let i_br = x[br];
                    add_current(residual, *a, i_br);
                    add_current(residual, *b, -i_br);
                    if let Some(ia) = a.unknown_index() {
                        jacobian.add(ia, br, 1.0);
                        jacobian.add(br, ia, 1.0);
                    }
                    if let Some(ib) = b.unknown_index() {
                        jacobian.add(ib, br, -1.0);
                        jacobian.add(br, ib, -1.0);
                    }
                    match &self.ctx.integ {
                        Some(integ) => {
                            // BE companion: v_ab = (L/dt)·(i − i_prev).
                            let req = henries / integ.dt;
                            residual[br] += volt(x, *a) - volt(x, *b) - req * i_br
                                + req * integ.ind_i_prev[ind_ord];
                            jacobian.add(br, br, -req);
                        }
                        None => {
                            // DC: a short — v(a) = v(b).
                            residual[br] += volt(x, *a) - volt(x, *b);
                        }
                    }
                    ind_ord += 1;
                }
                Element::Vcvs {
                    pos,
                    neg,
                    ctrl_pos,
                    ctrl_neg,
                    gain,
                    ..
                } => {
                    let br = self.branch_idx[eidx].expect("vcvs branch");
                    let i_br = x[br];
                    add_current(residual, *pos, i_br);
                    add_current(residual, *neg, -i_br);
                    if let Some(p) = pos.unknown_index() {
                        jacobian.add(p, br, 1.0);
                        jacobian.add(br, p, 1.0);
                    }
                    if let Some(n) = neg.unknown_index() {
                        jacobian.add(n, br, -1.0);
                        jacobian.add(br, n, -1.0);
                    }
                    residual[br] += volt(x, *pos)
                        - volt(x, *neg)
                        - gain * (volt(x, *ctrl_pos) - volt(x, *ctrl_neg));
                    if let Some(cp) = ctrl_pos.unknown_index() {
                        jacobian.add(br, cp, -gain);
                    }
                    if let Some(cn) = ctrl_neg.unknown_index() {
                        jacobian.add(br, cn, *gain);
                    }
                }
                Element::Vccs {
                    from,
                    to,
                    ctrl_pos,
                    ctrl_neg,
                    gm,
                    ..
                } => {
                    let i = gm * (volt(x, *ctrl_pos) - volt(x, *ctrl_neg));
                    add_current(residual, *from, i);
                    add_current(residual, *to, -i);
                    for (node, sign) in [(*from, 1.0), (*to, -1.0)] {
                        if let Some(r) = node.unknown_index() {
                            if let Some(cp) = ctrl_pos.unknown_index() {
                                jacobian.add(r, cp, sign * gm);
                            }
                            if let Some(cn) = ctrl_neg.unknown_index() {
                                jacobian.add(r, cn, -sign * gm);
                            }
                        }
                    }
                }
                Element::Nonlinear(dev) => {
                    let nodes = dev.nodes();
                    let nt = nodes.len();
                    let vs = &mut self.dev_v_scratch[..nt];
                    for (s, &n) in vs.iter_mut().zip(nodes) {
                        *s = volt(x, n);
                    }

                    // Device-eval bypass: if every terminal voltage is
                    // within tolerance of the cached linearisation point,
                    // re-emit the cached stamp instead of re-running the
                    // I–V model. Devices veto by scaling the tolerance to
                    // zero (e.g. an MTJ mid-switching).
                    let tol = self.bypass_tol * dev.bypass_tolerance_scale();
                    let cache = &mut self.dev_v_cache[dev_ord];
                    let cached = &mut self.dev_cached[dev_ord];
                    let bypass = tol > 0.0
                        && *cached != Cached::Empty
                        && vs
                            .iter()
                            .zip(cache.iter())
                            .all(|(s, c)| (s - c).abs() <= tol);
                    let stamp = &mut self.stamps[dev_ord];
                    if bypass {
                        if *cached == Cached::Voltages {
                            stamp.clear();
                            dev.load(cache, stamp);
                            *cached = Cached::Stamp;
                            self.device_deferred_evals += 1;
                        }
                        self.device_bypasses += 1;
                    } else {
                        stamp.clear();
                        dev.load(vs, stamp);
                        cache.copy_from_slice(vs);
                        *cached = Cached::Stamp;
                        self.device_evals += 1;
                    }

                    // Linearise the stamp at the cached point:
                    // i(v) ≈ i(v_c) + G·(v − v_c), q(v) ≈ q(v_c) + C·(v − v_c).
                    // After a fresh evaluation dv is identically zero, so
                    // this is exact; under bypass the model error is
                    // bounded by the curvature over a ≤ tol interval, and
                    // the stamped Jacobian G stays consistent with the
                    // residual, so Newton sees a genuinely linear device.
                    let dv = &mut self.dev_dv_scratch[..nt];
                    for ((d, s), c) in dv.iter_mut().zip(vs.iter()).zip(cache.iter()) {
                        *d = s - c;
                    }
                    for (t, &node_t) in nodes.iter().enumerate() {
                        let mut i_t = stamp.current[t];
                        let mut q_t = stamp.charge[t];
                        for (u, d) in dv.iter().enumerate() {
                            i_t += stamp.conductance[t][u] * d;
                            q_t += stamp.capacitance[t][u] * d;
                        }
                        // Charge contribution (backward Euler) in transient.
                        if let Some(integ) = &self.ctx.integ {
                            i_t += (q_t - integ.dev_q_prev[dev_ord][t]) / integ.dt;
                        }
                        add_current(residual, node_t, i_t);
                        if J::ACTIVE {
                            if let Some(r) = node_t.unknown_index() {
                                for (u, &nu) in nodes.iter().enumerate() {
                                    if let Some(c) = nu.unknown_index() {
                                        let mut g = stamp.conductance[t][u];
                                        if let Some(integ) = &self.ctx.integ {
                                            g += stamp.capacitance[t][u] / integ.dt;
                                        }
                                        jacobian.add(r, c, g);
                                    }
                                }
                            }
                        }
                    }
                    dev_ord += 1;
                }
            }
        }
    }
}

#[inline]
fn add_current(residual: &mut [f64], node: NodeId, i: f64) {
    if let Some(idx) = node.unknown_index() {
        residual[idx] += i;
    }
}

/// Stamps a two-terminal conductance's current and Jacobian.
#[inline]
fn stamp_conductance<J: JacSink>(
    residual: &mut [f64],
    jacobian: &mut J,
    x: &[f64],
    a: NodeId,
    b: NodeId,
    g: f64,
) {
    let i = g * (volt(x, a) - volt(x, b));
    add_current(residual, a, i);
    add_current(residual, b, -i);
    stamp_g_only(jacobian, a, b, g);
}

/// Stamps only the Jacobian entries of a two-terminal conductance.
#[inline]
fn stamp_g_only<J: JacSink>(jacobian: &mut J, a: NodeId, b: NodeId, g: f64) {
    if let Some(ia) = a.unknown_index() {
        jacobian.add(ia, ia, g);
        if let Some(ib) = b.unknown_index() {
            jacobian.add(ia, ib, -g);
            jacobian.add(ib, ia, -g);
            jacobian.add(ib, ib, g);
        }
    } else if let Some(ib) = b.unknown_index() {
        jacobian.add(ib, ib, g);
    }
}

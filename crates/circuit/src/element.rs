//! Circuit elements and the nonlinear-device plug-in interface.
//!
//! Linear elements (R, C, sources, controlled sources, switches) are
//! closed enum variants the engine stamps directly. Nonlinear compact
//! models (FinFETs, MTJs) live in `nvpg-devices` and plug in through the
//! [`NonlinearDevice`] trait: each Newton iteration the engine hands the
//! device its terminal voltages and receives terminal currents plus the
//! small-signal conductance matrix (the "stamp").

use crate::node::NodeId;
use crate::waveform::Waveform;

/// Per-evaluation output of a nonlinear device.
///
/// For a device with `n` terminals:
/// * `current[t]` — current flowing **into the device** through terminal
///   `t` (amps);
/// * `conductance[t][u]` — `∂current[t] / ∂v[u]` (siemens);
/// * `charge[t]` — optional terminal charge (coulombs) integrated by the
///   transient engine as an additional capacitive current.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceStamp {
    /// Terminal currents into the device.
    pub current: Vec<f64>,
    /// Jacobian of terminal currents w.r.t. terminal voltages.
    pub conductance: Vec<Vec<f64>>,
    /// Terminal charges (for charge-based capacitance models).
    pub charge: Vec<f64>,
    /// Jacobian of terminal charges w.r.t. terminal voltages.
    pub capacitance: Vec<Vec<f64>>,
}

impl DeviceStamp {
    /// Creates a zeroed stamp for an `n`-terminal device.
    pub fn new(n: usize) -> Self {
        DeviceStamp {
            current: vec![0.0; n],
            conductance: vec![vec![0.0; n]; n],
            charge: vec![0.0; n],
            capacitance: vec![vec![0.0; n]; n],
        }
    }

    /// Zeroes all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.current.fill(0.0);
        self.charge.fill(0.0);
        for row in &mut self.conductance {
            row.fill(0.0);
        }
        for row in &mut self.capacitance {
            row.fill(0.0);
        }
    }

    /// Number of terminals this stamp covers.
    pub fn terminals(&self) -> usize {
        self.current.len()
    }
}

/// A nonlinear multi-terminal compact model.
///
/// Implementations are evaluated inside the Newton loop; they must be
/// smooth in the terminal voltages and provide consistent analytic
/// derivatives, or convergence will suffer.
pub trait NonlinearDevice: std::fmt::Debug {
    /// Instance name (diagnostics and trace labels).
    fn name(&self) -> &str;

    /// Terminal nodes, in the device's own fixed order.
    fn nodes(&self) -> &[NodeId];

    /// Evaluates currents/charges and their derivatives at the terminal
    /// voltages `v` (same order as [`nodes`](Self::nodes); ground = 0 V).
    ///
    /// `stamp` arrives zeroed with `stamp.terminals() == nodes().len()`.
    /// The result must depend only on `v` and the device's state: the
    /// engine may evaluate a committed step's stamp later, when a bypass
    /// test first reads it, and relies on getting the same bits.
    fn load(&self, v: &[f64], stamp: &mut DeviceStamp);

    /// Writes the terminal charges at the terminal voltages `v` into every
    /// entry of `q` (`q.len() == nodes().len()`): the same values
    /// [`load`](Self::load) puts in `stamp.charge`, bit for bit. Devices
    /// without a charge model write zeros.
    ///
    /// When a transient step is committed the engine needs only the
    /// charge history, so it calls this there instead of `load`; the
    /// stamp at the committed voltages is evaluated only if the next
    /// assembly's bypass test reads it.
    fn charge(&self, v: &[f64], q: &mut [f64]);

    /// Called once when a transient step from `t` to `t + dt` is accepted,
    /// with the solved terminal voltages. State machines (e.g. MTJ
    /// magnetisation) advance here — never inside [`load`](Self::load),
    /// which may be called many times per step.
    fn accept_step(&mut self, _v: &[f64], _t: f64, _dt: f64) {}

    /// Internal state snapshot for tracing (e.g. MTJ parallel/antiparallel
    /// flag). Returns `(label, value)` pairs.
    fn state(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Scale factor on the engine's device-eval bypass tolerance.
    ///
    /// The transient engine may skip [`load`](Self::load) and re-emit the
    /// cached stamp when every terminal voltage moved less than
    /// `bypass_tol × this` since the last full evaluation. Devices whose
    /// stamp depends on fast-moving *internal* state return `0.0` while
    /// that state is in flight (e.g. an MTJ mid-switching), which vetoes
    /// bypass regardless of how quiet the terminals are. The default of
    /// `1.0` takes the engine tolerance as-is.
    fn bypass_tolerance_scale(&self) -> f64 {
        1.0
    }
}

/// A circuit element.
#[derive(Debug)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        farads: f64,
    },
    /// Independent voltage source from `pos` to `neg` (v(pos) − v(neg) =
    /// waveform value). Adds one MNA branch-current unknown.
    VoltageSource {
        /// Instance name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source waveform.
        wave: Waveform,
    },
    /// Independent current source driving current from `from`, through the
    /// source, into `to` (SPICE convention: positive value pulls current
    /// out of `from` and pushes it into `to`).
    CurrentSource {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        from: NodeId,
        /// Terminal the current is pushed into.
        to: NodeId,
        /// Source waveform (amps).
        wave: Waveform,
    },
    /// Voltage-controlled switch: `r_on` between `a` and `b` when
    /// v(ctrl_pos) − v(ctrl_neg) > threshold, else `r_off`. The resistance
    /// transitions smoothly over `smooth` volts around the threshold to
    /// keep Newton happy.
    Switch {
        /// Instance name.
        name: String,
        /// First switched terminal.
        a: NodeId,
        /// Second switched terminal.
        b: NodeId,
        /// Positive control terminal.
        ctrl_pos: NodeId,
        /// Negative control terminal.
        ctrl_neg: NodeId,
        /// Control threshold in volts.
        threshold: f64,
        /// On resistance in ohms.
        r_on: f64,
        /// Off resistance in ohms.
        r_off: f64,
        /// Transition width in volts.
        smooth: f64,
    },
    /// Linear inductor between `a` and `b` (adds one MNA branch-current
    /// unknown; a short at DC, backward-Euler companion in transient).
    Inductor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance in henries (must be positive).
        henries: f64,
    },
    /// Voltage-controlled voltage source: `v(pos) − v(neg) =
    /// gain·(v(ctrl_pos) − v(ctrl_neg))`. Adds one branch unknown.
    Vcvs {
        /// Instance name.
        name: String,
        /// Positive output terminal.
        pos: NodeId,
        /// Negative output terminal.
        neg: NodeId,
        /// Positive control terminal.
        ctrl_pos: NodeId,
        /// Negative control terminal.
        ctrl_neg: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source: drives
    /// `gm·(v(ctrl_pos) − v(ctrl_neg))` out of `from` into `to`.
    Vccs {
        /// Instance name.
        name: String,
        /// Terminal the current is drawn from.
        from: NodeId,
        /// Terminal the current is pushed into.
        to: NodeId,
        /// Positive control terminal.
        ctrl_pos: NodeId,
        /// Negative control terminal.
        ctrl_neg: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// A nonlinear compact model (FinFET, MTJ, …).
    Nonlinear(Box<dyn NonlinearDevice + Send>),
}

impl Element {
    /// Instance name of the element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::Switch { name, .. }
            | Element::Inductor { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. } => name,
            Element::Nonlinear(dev) => dev.name(),
        }
    }

    /// `true` if the element requires Newton iteration (has a
    /// voltage-dependent stamp).
    pub fn is_nonlinear(&self) -> bool {
        matches!(self, Element::Nonlinear(_) | Element::Switch { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_allocation_and_clear() {
        let mut s = DeviceStamp::new(3);
        assert_eq!(s.terminals(), 3);
        s.current[1] = 1.0;
        s.conductance[2][0] = 5.0;
        s.charge[0] = 2.0;
        s.capacitance[1][1] = 3.0;
        s.clear();
        assert_eq!(s, DeviceStamp::new(3));
    }

    #[test]
    fn element_names_and_linearity() {
        let r = Element::Resistor {
            name: "r1".into(),
            a: NodeId::GROUND,
            b: NodeId::GROUND,
            ohms: 1.0,
        };
        assert_eq!(r.name(), "r1");
        assert!(!r.is_nonlinear());
        let sw = Element::Switch {
            name: "s1".into(),
            a: NodeId::GROUND,
            b: NodeId::GROUND,
            ctrl_pos: NodeId::GROUND,
            ctrl_neg: NodeId::GROUND,
            threshold: 0.5,
            r_on: 1.0,
            r_off: 1e9,
            smooth: 0.01,
        };
        assert!(sw.is_nonlinear());
    }
}

//! The solver counts every workload reads (from `StepStats`, the in-process
//! `nvpg_obs` registry, or the daemon's `/metrics` text) and the
//! `numeric`/`devices`/`circuit` per-layer metrics derived from them.

use nvpg_circuit::StepStats;
use nvpg_obs::MetricsSnapshot;

use crate::probe::LuTimes;
use crate::report::Report;

/// The value of `name` in a `/metrics` exposition (`<name> <value>`
/// lines), 0 when absent.
pub fn exposition_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == name)
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `solve.*`, `rescue.*` and `engine.batched_*` counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverCounts {
    pub accepted_steps: u64,
    pub rejected_newton: u64,
    pub rejected_lte: u64,
    pub newton_iterations: u64,
    pub newton_solves: u64,
    pub lu_refactors: u64,
    pub lu_reuses: u64,
    pub device_evals: u64,
    pub device_bypasses: u64,
    pub rescued_solves: u64,
    pub batched_points: u64,
    pub batched_peels: u64,
}

/// Registry name of each field, in declaration order.
const NAMES: [&str; 12] = [
    "solve.accepted_steps",
    "solve.rejected_newton",
    "solve.rejected_lte",
    "solve.newton_iterations",
    "solve.newton_solves",
    "solve.lu_refactorizations",
    "solve.lu_reuses",
    "solve.device_evals",
    "solve.device_bypasses",
    "rescue.rescued_solves",
    "engine.batched_points",
    "engine.batched_peels",
];

impl SolverCounts {
    fn from_values(v: [u64; 12]) -> Self {
        SolverCounts {
            accepted_steps: v[0],
            rejected_newton: v[1],
            rejected_lte: v[2],
            newton_iterations: v[3],
            newton_solves: v[4],
            lu_refactors: v[5],
            lu_reuses: v[6],
            device_evals: v[7],
            device_bypasses: v[8],
            rescued_solves: v[9],
            batched_points: v[10],
            batched_peels: v[11],
        }
    }

    pub fn values(&self) -> [u64; 12] {
        [
            self.accepted_steps,
            self.rejected_newton,
            self.rejected_lte,
            self.newton_iterations,
            self.newton_solves,
            self.lu_refactors,
            self.lu_reuses,
            self.device_evals,
            self.device_bypasses,
            self.rescued_solves,
            self.batched_points,
            self.batched_peels,
        ]
    }

    /// The current in-process registry values.
    pub fn snapshot() -> Self {
        let snap: MetricsSnapshot = nvpg_obs::metrics::snapshot();
        Self::from_values(NAMES.map(|n| snap.counter(n).unwrap_or(0)))
    }

    /// Parses the daemon's `/metrics` exposition.
    pub fn from_exposition(text: &str) -> Self {
        Self::from_values(NAMES.map(|n| exposition_value(text, n) as u64))
    }

    /// The counts one analysis' `StepStats` carries (rescue and batched
    /// counts are not part of it and read zero).
    pub fn from_stats(s: &StepStats) -> Self {
        SolverCounts {
            accepted_steps: s.accepted_steps,
            rejected_newton: s.rejected_newton,
            rejected_lte: s.rejected_lte,
            newton_iterations: s.newton_iterations,
            newton_solves: s.newton_solves,
            lu_refactors: s.jacobian_refactorizations,
            lu_reuses: s.refactorizations_avoided,
            device_evals: s.device_evals,
            device_bypasses: s.device_bypasses,
            ..SolverCounts::default()
        }
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &SolverCounts) -> Self {
        let (a, b) = (self.values(), earlier.values());
        Self::from_values(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &SolverCounts) -> Self {
        let (a, b) = (self.values(), other.values());
        Self::from_values(std::array::from_fn(|i| a[i] + b[i]))
    }

    /// Records every field for the same-seed repeat check.
    pub fn record(&self, rep: &mut Report) {
        for (name, v) in NAMES.iter().zip(self.values()) {
            rep.count(name, v);
        }
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// The `numeric`, `devices` and `circuit` count metrics every workload
    /// reports. The registry's `solve.*` counters are fed by transient
    /// analyses; DC solves add only to the rescue and batched counts.
    pub fn count_layers(&self, rep: &mut Report) {
        rep.layer(
            "numeric.newton_iterations",
            self.newton_iterations as f64,
            "count",
        );
        rep.layer(
            "numeric.iterations_per_solve",
            Self::ratio(self.newton_iterations, self.newton_solves),
            "1",
        );
        rep.layer("numeric.lu_refactors", self.lu_refactors as f64, "count");
        rep.layer(
            "numeric.lu_reuse_rate",
            Self::ratio(self.lu_reuses, self.newton_iterations),
            "1",
        );
        rep.layer("devices.evals", self.device_evals as f64, "count");
        rep.layer(
            "devices.bypass_rate",
            Self::ratio(
                self.device_bypasses,
                self.device_evals + self.device_bypasses,
            ),
            "1",
        );
        rep.layer(
            "numeric.batched_points",
            self.batched_points as f64,
            "count",
        );
        rep.layer("numeric.batched_peels", self.batched_peels as f64, "count");
        rep.layer(
            "circuit.accepted_steps",
            self.accepted_steps as f64,
            "count",
        );
        rep.layer(
            "circuit.rejected_steps",
            (self.rejected_lte + self.rejected_newton) as f64,
            "count",
        );
        rep.layer(
            "circuit.rescued_solves",
            self.rescued_solves as f64,
            "count",
        );
    }
}

/// The in-process solver split of one workload's timed section.
pub struct SolverSplit {
    /// Counts of the timed section.
    pub counts: SolverCounts,
    /// LU probe on the workload's circuit.
    pub lu: LuTimes,
    /// Mean `NonlinearDevice::load` time on the workload's circuit.
    pub load_ns: f64,
    /// Outermost `solve:*` span seconds of the timed section.
    pub solve_s: f64,
    /// Largest LTE ratio on an accepted step.
    pub max_lte_ratio: f64,
}

impl SolverSplit {
    /// Records the `numeric`, `devices` and `circuit` per-layer metrics and
    /// the accounting check `lu_est_s + eval_est_s ≤ solve_s`.
    pub fn record(&self, rep: &mut Report) {
        let c = &self.counts;
        c.count_layers(rep);
        let lu_est_s = c.lu_refactors as f64 * self.lu.refactor_us * 1e-6
            + c.newton_iterations as f64 * self.lu.solve_us * 1e-6;
        let eval_est_s = c.device_evals as f64 * self.load_ns * 1e-9;
        rep.layer("numeric.refactor_us", self.lu.refactor_us, "us");
        rep.layer("numeric.lu_solve_us", self.lu.solve_us, "us");
        rep.layer("numeric.lu_est_s", lu_est_s, "s");
        rep.layer("devices.load_ns", self.load_ns, "ns");
        rep.layer("devices.eval_est_s", eval_est_s, "s");
        rep.layer("circuit.solve_s", self.solve_s, "s");
        rep.layer(
            "circuit.steps_per_s",
            c.accepted_steps as f64 / self.solve_s.max(f64::MIN_POSITIVE),
            "1/s",
        );
        rep.layer("circuit.max_lte_ratio", self.max_lte_ratio, "1");
        rep.layer(
            "circuit.other_est_s",
            self.solve_s - lu_est_s - eval_est_s,
            "s",
        );
        rep.note("numeric.probe_unknowns", self.lu.unknowns);
        rep.check(
            "accounting.lu_plus_eval_within_solve",
            lu_est_s + eval_est_s <= self.solve_s,
            format!(
                "lu_est_s {lu_est_s:.4} + eval_est_s {eval_est_s:.4} vs solve_s {:.4}",
                self.solve_s
            ),
        );
    }
}

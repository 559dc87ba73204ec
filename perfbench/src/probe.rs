//! Direct timings of the `numeric` and `devices` public functions on a
//! workload's own circuit: LU factor/solve on a matrix with the circuit's
//! structural MNA pattern, and `NonlinearDevice::load` over every device
//! at the circuit's DC point. Multiplied by the solver's counts they give
//! the `_est_` shares of the per-layer split.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use nvpg_circuit::element::{DeviceStamp, Element};
use nvpg_circuit::{Circuit, DcSolution, NodeId};
use nvpg_numeric::{CscMatrix, DenseMatrix, LuWorkspace, PatternBuilder, Rng64, SparseLu};

use crate::stats::median;

/// How long each timed batch runs, and how many batches the median takes.
const BATCH: Duration = Duration::from_millis(60);
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean time of one `op` call, in
/// nanoseconds. Each batch repeats `op` until [`BATCH`] has passed.
fn time_ns(mut op: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < BATCH {
                op();
                calls += 1;
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// The structural (row, col) entries MNA assembly stamps for `ckt`:
/// node unknowns first in node-id order, then one branch unknown per
/// voltage source, inductor and VCVS in element order, plus the diagonal.
pub fn mna_pattern(ckt: &Circuit) -> (usize, Vec<(usize, usize)>) {
    let mut ids: Vec<NodeId> = ckt
        .node_names_iter()
        .map(|(id, _)| id)
        .filter(|id| !id.is_ground())
        .collect();
    ids.sort();
    let index: HashMap<NodeId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let nv = ids.len();
    let mut entries = Vec::new();
    let mut branches = 0usize;
    let block = |entries: &mut Vec<(usize, usize)>, rows: &[NodeId], cols: &[NodeId]| {
        for r in rows.iter().filter_map(|n| index.get(n)) {
            for c in cols.iter().filter_map(|n| index.get(n)) {
                entries.push((*r, *c));
            }
        }
    };
    // Entries coupling a branch unknown `br` to node terminals.
    let branch = |entries: &mut Vec<(usize, usize)>, br: usize, nodes: &[NodeId]| {
        for n in nodes.iter().filter_map(|n| index.get(n)) {
            entries.push((*n, br));
            entries.push((br, *n));
        }
    };
    for el in ckt.elements() {
        match el {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                block(&mut entries, &[*a, *b], &[*a, *b]);
            }
            Element::Switch {
                a,
                b,
                ctrl_pos,
                ctrl_neg,
                ..
            } => block(&mut entries, &[*a, *b], &[*a, *b, *ctrl_pos, *ctrl_neg]),
            Element::Vccs {
                from,
                to,
                ctrl_pos,
                ctrl_neg,
                ..
            } => block(&mut entries, &[*from, *to], &[*ctrl_pos, *ctrl_neg]),
            Element::VoltageSource { pos, neg, .. } => {
                branch(&mut entries, nv + branches, &[*pos, *neg]);
                branches += 1;
            }
            Element::Inductor { a, b, .. } => {
                let br = nv + branches;
                branch(&mut entries, br, &[*a, *b]);
                entries.push((br, br));
                branches += 1;
            }
            Element::Vcvs {
                pos,
                neg,
                ctrl_pos,
                ctrl_neg,
                ..
            } => {
                let br = nv + branches;
                branch(&mut entries, br, &[*pos, *neg]);
                for c in [ctrl_pos, ctrl_neg]
                    .into_iter()
                    .filter_map(|n| index.get(n))
                {
                    entries.push((br, *c));
                }
                branches += 1;
            }
            Element::CurrentSource { .. } => {}
            Element::Nonlinear(dev) => block(&mut entries, dev.nodes(), dev.nodes()),
        }
    }
    let n = nv + branches;
    entries.extend((0..n).map(|i| (i, i)));
    (n, entries)
}

/// Diagonally dominant values on the pattern, so every factorisation
/// keeps its pivots and a refactor never falls back.
fn values(n: usize, entries: &[(usize, usize)]) -> HashMap<(usize, usize), f64> {
    let mut rng = Rng64::seed_from_u64(0x5eed);
    let mut vals = HashMap::new();
    for &(r, c) in entries {
        if r != c {
            vals.entry((r, c))
                .or_insert_with(|| -rng.gen_range(0.5..1.5));
        }
    }
    let mut diag = vec![1.0; n];
    for (&(r, _), v) in &vals {
        diag[r] += v.abs();
    }
    for (i, d) in diag.into_iter().enumerate() {
        vals.insert((i, i), d);
    }
    vals
}

/// Per-call times of one LU backend on the circuit's pattern.
#[derive(Debug, Clone, Copy)]
pub struct LuTimes {
    pub unknowns: usize,
    pub refactor_us: f64,
    pub solve_us: f64,
}

/// Times `SparseLu::factor` (after the first, analysing call: the
/// fixed-pattern refactorisation the transient engine runs) and
/// `SparseLu::solve_into`.
pub fn sparse_lu(ckt: &Circuit) -> LuTimes {
    let (n, entries) = mna_pattern(ckt);
    let vals = values(n, &entries);
    let mut pb = PatternBuilder::new(n);
    for &(r, c) in vals.keys() {
        pb.add(r, c);
    }
    let mut a = CscMatrix::from_pattern(&pb.build());
    for (&(r, c), &v) in &vals {
        a.add(r, c, v);
    }
    let mut lu = SparseLu::new();
    lu.factor(&a).expect("diagonally dominant probe matrix");
    let refactor_ns = time_ns(|| lu.factor(black_box(&a)).expect("refactor"));
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let mut x = vec![0.0; n];
    let solve_ns = time_ns(|| {
        lu.solve_into(black_box(&b), &mut x);
        black_box(&x);
    });
    LuTimes {
        unknowns: n,
        refactor_us: refactor_ns / 1e3,
        solve_us: solve_ns / 1e3,
    }
}

/// Times `LuWorkspace::factor_from` and `LuWorkspace::solve_into`, the
/// dense backend's hot path.
pub fn dense_lu(ckt: &Circuit) -> LuTimes {
    let (n, entries) = mna_pattern(ckt);
    let mut m = DenseMatrix::zeros(n, n);
    for (&(r, c), &v) in &values(n, &entries) {
        m.add(r, c, v);
    }
    let mut lu = LuWorkspace::with_dim(n);
    let refactor_ns = time_ns(|| lu.factor_from(black_box(&m)).expect("dense factor"));
    let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let mut x = vec![0.0; n];
    let solve_ns = time_ns(|| {
        lu.solve_into(black_box(&b), &mut x);
        black_box(&x);
    });
    LuTimes {
        unknowns: n,
        refactor_us: refactor_ns / 1e3,
        solve_us: solve_ns / 1e3,
    }
}

/// Mean nanoseconds of one `NonlinearDevice::load` (stamp cleared first,
/// as the engine hands it over) over every nonlinear device of `ckt`,
/// each at its terminal voltages in `state`. Returns `(devices, ns)`.
pub fn device_load(ckt: &Circuit, state: &DcSolution) -> (usize, f64) {
    let devices: Vec<_> = ckt
        .elements()
        .filter_map(|e| match e {
            Element::Nonlinear(dev) => Some(dev),
            _ => None,
        })
        .collect();
    let volts: Vec<Vec<f64>> = devices
        .iter()
        .map(|d| d.nodes().iter().map(|&n| state.voltage(n)).collect())
        .collect();
    let mut stamps: Vec<DeviceStamp> = devices
        .iter()
        .map(|d| DeviceStamp::new(d.nodes().len()))
        .collect();
    let pass_ns = time_ns(|| {
        for ((dev, v), stamp) in devices.iter().zip(&volts).zip(&mut stamps) {
            stamp.clear();
            dev.load(black_box(v), stamp);
        }
        black_box(&stamps);
    });
    (devices.len(), pass_ns / devices.len().max(1) as f64)
}

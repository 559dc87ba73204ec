//! `--compare OLD NEW`: medians, quartiles and deltas of every metric
//! between two result files (the JSON lines `--out` appends, one per run).

use std::collections::BTreeMap;
use std::error::Error;

use nvpg_obs::json::{parse, Json};

use crate::stats::{median, quartiles};
use crate::Spec;

/// Deterministic counts of one run.
type Counts = BTreeMap<String, u64>;

/// workload → metric → (unit, values over runs); workload → seed → the
/// counts of every run with that seed.
#[derive(Default)]
struct Results {
    metrics: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>,
    counts: BTreeMap<String, BTreeMap<u64, Vec<Counts>>>,
    runs: BTreeMap<String, usize>,
}

fn load(path: &str) -> Result<Results, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Results::default();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(json) = parse(line) else { continue };
        let Some(obj) = json.as_obj() else { continue };
        let Some(workload) = obj.get("workload").and_then(Json::as_str) else {
            continue;
        };
        *out.runs.entry(workload.to_owned()).or_default() += 1;
        let per_workload = out.metrics.entry(workload.to_owned()).or_default();
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in obj
                .get(section)
                .and_then(Json::as_obj)
                .into_iter()
                .flatten()
            {
                let value = m
                    .as_obj()
                    .and_then(|o| o.get("value"))
                    .and_then(Json::as_num);
                let unit = m
                    .as_obj()
                    .and_then(|o| o.get("unit"))
                    .and_then(Json::as_str);
                if let (Some(v), Some(u)) = (value, unit) {
                    let slot = per_workload
                        .entry(name.clone())
                        .or_insert_with(|| (u.to_owned(), Vec::new()));
                    slot.1.push(v);
                }
            }
        }
        let seed = obj.get("seed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(counts) = obj.get("counts").and_then(Json::as_obj) {
            let c: Counts = counts
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect();
            if !c.is_empty() {
                let per_seed = out.counts.entry(workload.to_owned()).or_default();
                per_seed.entry(seed).or_default().push(c);
            }
        }
    }
    if out.metrics.is_empty() {
        return Err(format!("{path}: no result lines").into());
    }
    Ok(out)
}

/// Prints whether counts repeat exactly across runs with the same seed
/// (within each file), and which counts changed between the files for the
/// seeds both measured.
fn compare_counts(
    old: Option<&BTreeMap<u64, Vec<Counts>>>,
    new: Option<&BTreeMap<u64, Vec<Counts>>>,
) {
    let (Some(old), Some(new)) = (old, new) else {
        return;
    };
    let repeat = |m: &BTreeMap<u64, Vec<Counts>>| {
        let repeated = m.values().filter(|runs| runs.len() > 1).count();
        let exact = m.values().all(|runs| runs.windows(2).all(|w| w[0] == w[1]));
        format!("{repeated} seeds run twice or more, repeat exactly {exact}")
    };
    let mut shared = 0;
    let mut changed = Vec::new();
    for (seed, runs) in new {
        let (Some(o), Some(n)) = (old.get(seed).and_then(|r| r.first()), runs.first()) else {
            continue;
        };
        shared += 1;
        for (k, v) in n {
            if o.get(k) != Some(v) {
                let was = o.get(k).map_or("-".to_owned(), u64::to_string);
                changed.push(format!("seed {seed} {k} {was} -> {v}"));
            }
        }
    }
    println!(
        "  counts: old {}; new {}; {shared} seeds in both files, {}",
        repeat(old),
        repeat(new),
        if changed.is_empty() {
            "none changed".to_owned()
        } else {
            format!("changed: {}", changed.join(", "))
        }
    );
}

/// `(median, q1, q3, spread)`, spread being `(q3 − q1) / |median|`.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let m = median(values);
    let (q1, q3) = quartiles(values);
    (m, q1, q3, (q3 - q1) / m.abs().max(f64::MIN_POSITIVE))
}

pub fn compare(old_path: &str, new_path: &str, spec: &Spec) -> Result<(), Box<dyn Error>> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    println!("old: {old_path}\nnew: {new_path}");
    for (workload, new_metrics) in &new.metrics {
        let Some(old_metrics) = old.metrics.get(workload) else {
            println!("\n== {workload}: no old results");
            continue;
        };
        let runs = |r: &Results| r.runs.get(workload).copied().unwrap_or(0);
        println!(
            "\n== {workload} ({} old runs, {} new runs)",
            runs(&old),
            runs(&new)
        );
        println!(
            "  {:<28} {:>12} {:>23} {:>12} {:>23} {:>9} {:>7}  unit verdict",
            "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "delta", "spread"
        );
        for (name, (unit, nv)) in new_metrics {
            let Some((_, ov)) = old_metrics.get(name) else {
                continue;
            };
            let (om, oq1, oq3, os) = summary(ov);
            let (nm, nq1, nq3, ns) = summary(nv);
            let delta = if nm == om { 0.0 } else { nm / om - 1.0 };
            let spread = os.max(ns);
            let verdict = match spec.end_to_end.iter().find(|m| m.name == *name) {
                None => String::new(),
                Some(m) => {
                    let worse = if m.lower_is_better { delta } else { -delta };
                    if spread > m.bound {
                        format!("unresolved (spread > bound {})", m.bound)
                    } else if worse > m.bound {
                        format!("worse by more than bound {}", m.bound)
                    } else if -worse > spread {
                        "better".to_owned()
                    } else {
                        "within bound".to_owned()
                    }
                }
            };
            println!(
                "  {name:<28} {om:>12.5} [{oq1:>10.5}, {oq3:>10.5}] {nm:>12.5} [{nq1:>10.5}, {nq3:>10.5}] \
                 {:>+8.2}% {spread:>7.3}  {unit} {verdict}",
                100.0 * delta
            );
        }
        compare_counts(old.counts.get(workload), new.counts.get(workload));
    }
    Ok(())
}

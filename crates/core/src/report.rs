//! Structured run reports for fail-soft experiment orchestration.
//!
//! A sweep or Monte-Carlo run no longer stops at its first broken point:
//! each point settles into a [`PointStatus`] and the whole run is
//! summarised by a [`RunReport`] — per-point status, rescue-ladder
//! telemetry, and a failure taxonomy — that the figures binary renders as
//! a "failures appendix" under the partial figures.
//!
//! Reports are deterministic: records are kept in point order and carry no
//! timestamps, so a report is byte-identical across worker counts.

use std::collections::BTreeMap;
use std::fmt;

use nvpg_circuit::{CircuitError, RescueStats};
use nvpg_exec::Settled;
use nvpg_obs::MetricsSnapshot;

/// How one experiment point ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus {
    /// Converged with no rescue rung taken.
    Ok,
    /// Converged, but only via the rescue ladder.
    Rescued,
    /// Failed; carries the taxonomy tag and the full error message.
    Failed {
        /// Stable failure-taxonomy tag (`"dc_nonconvergence"`, …).
        taxonomy: String,
        /// Human-readable error chain.
        message: String,
    },
}

impl PointStatus {
    /// `true` for [`PointStatus::Ok`] and [`PointStatus::Rescued`].
    pub fn succeeded(&self) -> bool {
        matches!(self, PointStatus::Ok | PointStatus::Rescued)
    }
}

/// One point's record in a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Experiment id the point belongs to (`"fig3a"`, `"variation"`, …).
    pub experiment: String,
    /// The point: its index plus a coordinate when one exists, e.g.
    /// `"sample 7"` or `"point 3 (V_SR=0.45)"`.
    pub point: String,
    /// How the point ended.
    pub status: PointStatus,
    /// Rescue telemetry for the point (all-zero when unknown).
    pub rescue: RescueStats,
}

/// The structured outcome of a fail-soft run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-point records in point order.
    pub records: Vec<PointRecord>,
    /// Global metrics-registry snapshot for the run, when tracing was on
    /// (attached via [`RunReport::attach_metrics`]); `None` otherwise so
    /// untraced reports render byte-identically to before.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Appends one point record.
    pub fn push(
        &mut self,
        experiment: impl Into<String>,
        point: impl Into<String>,
        status: PointStatus,
        rescue: RescueStats,
    ) {
        if let PointStatus::Failed { taxonomy, .. } = &status {
            if taxonomy == "cancelled" {
                nvpg_obs::metrics::counters::ENGINE_CANCELLED_POINTS.add(1);
            }
        }
        self.records.push(PointRecord {
            experiment: experiment.into(),
            point: point.into(),
            status,
            rescue,
        });
    }

    /// Records how one fail-soft point settled and returns its value.
    ///
    /// A point that returned is rescued when `rescue` shows any rescue
    /// activity (a survived injected fault included) and ok otherwise. An
    /// error fails the point under its taxonomy; with an `analysis` its
    /// message reads `experiment / point / analysis: error`. A panic fails
    /// it under `panic` with the panic message.
    pub fn settle<R>(
        &mut self,
        experiment: &str,
        point: String,
        analysis: Option<&str>,
        settled: Settled<R, CircuitError>,
        rescue: RescueStats,
    ) -> Option<R> {
        let (value, status) = match settled {
            Settled::Ok(r) if rescue.any() => (Some(r), PointStatus::Rescued),
            Settled::Ok(r) => (Some(r), PointStatus::Ok),
            Settled::Err(e) => {
                let message = match analysis {
                    Some(analysis) => format!("{experiment} / {point} / {analysis}: {e}"),
                    None => e.to_string(),
                };
                let taxonomy = e.taxonomy().to_owned();
                (None, PointStatus::Failed { taxonomy, message })
            }
            Settled::Panicked(message) => (
                None,
                PointStatus::Failed {
                    taxonomy: "panic".to_owned(),
                    message,
                },
            ),
        };
        self.push(experiment, point, status, rescue);
        value
    }

    /// Merges another report's records after this one's. A metrics
    /// snapshot already attached here wins over the other report's (the
    /// registry is global, so snapshots are not summable).
    pub fn extend(&mut self, other: RunReport) {
        self.records.extend(other.records);
        if self.metrics.is_none() {
            self.metrics = other.metrics;
        }
    }

    /// Attaches the current global metrics-registry snapshot, taken at
    /// the end of a traced run. Snapshots where nothing counted (tracing
    /// was off) are dropped so untraced reports render unchanged.
    pub fn attach_metrics(&mut self) {
        let snap = nvpg_obs::metrics::snapshot();
        if !snap.is_zero() {
            self.metrics = Some(snap);
        }
    }

    /// Number of points that succeeded (clean or rescued).
    pub fn succeeded(&self) -> usize {
        self.records.iter().filter(|r| r.status.succeeded()).count()
    }

    /// Number of points that failed.
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, PointStatus::Failed { .. }))
            .count()
    }

    /// Number of points rescued by the convergence ladder.
    pub fn rescued(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, PointStatus::Rescued))
            .count()
    }

    /// `true` when every point succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }

    /// Failure counts per taxonomy tag, sorted by tag (deterministic).
    pub fn taxonomy_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            if let PointStatus::Failed { taxonomy, .. } = &r.status {
                *counts.entry(taxonomy.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Total rescue telemetry summed over every point.
    pub fn total_rescue(&self) -> RescueStats {
        let mut total = RescueStats::default();
        for r in &self.records {
            total += r.rescue;
        }
        total
    }

    /// Renders the report as text: a one-line summary, then — only when
    /// something went wrong — a failures appendix naming every failed
    /// point with its taxonomy, message and rescue counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.records.len();
        out.push_str(&format!(
            "run report: {total} points, {ok} ok, {rescued} rescued, {failed} failed\n",
            ok = self.succeeded() - self.rescued(),
            rescued = self.rescued(),
            failed = self.failed(),
        ));
        let rescue = self.total_rescue();
        if rescue.any() {
            out.push_str(&format!("rescue totals: {rescue}\n"));
        }
        if let Some(metrics) = &self.metrics {
            out.push_str("metrics:\n");
            for &(name, value) in &metrics.counters {
                if value != 0 {
                    out.push_str(&format!("  {name} = {value}\n"));
                }
            }
            for &(name, value) in &metrics.gauges {
                if value != 0.0 {
                    out.push_str(&format!("  {name} = {value:.3}\n"));
                }
            }
        }
        if self.all_ok() {
            return out;
        }
        let taxa = self.taxonomy_counts();
        if !taxa.is_empty() {
            out.push_str("failure taxonomy:");
            for (tag, n) in &taxa {
                out.push_str(&format!(" {tag}×{n}"));
            }
            out.push('\n');
        }
        out.push_str("failures appendix:\n");
        for r in &self.records {
            if let PointStatus::Failed { taxonomy, message } = &r.status {
                out.push_str(&format!(
                    "  FAILED  {} / {} [{}]: {}",
                    r.experiment, r.point, taxonomy, message
                ));
                if r.rescue.any() {
                    out.push_str(&format!(" (rescue: {})", r.rescue));
                }
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(taxonomy: &str, message: &str) -> PointStatus {
        PointStatus::Failed {
            taxonomy: taxonomy.into(),
            message: message.into(),
        }
    }

    #[test]
    fn counts_and_render() {
        let mut rep = RunReport::new();
        rep.push("fig3a", "point 0", PointStatus::Ok, RescueStats::default());
        rep.push(
            "fig3a",
            "point 1",
            PointStatus::Rescued,
            RescueStats {
                damped_retries: 1,
                rescued_solves: 1,
                ..RescueStats::default()
            },
        );
        rep.push(
            "fig3a",
            "point 2",
            failed("dc_nonconvergence", "stalled"),
            RescueStats::default(),
        );
        assert_eq!(rep.succeeded(), 2);
        assert_eq!(rep.rescued(), 1);
        assert_eq!(rep.failed(), 1);
        assert!(!rep.all_ok());
        assert_eq!(rep.taxonomy_counts().get("dc_nonconvergence"), Some(&1));
        let text = rep.render();
        assert!(
            text.contains("3 points, 1 ok, 1 rescued, 1 failed\n"),
            "{text}"
        );
        assert!(
            text.contains("FAILED  fig3a / point 2 [dc_nonconvergence]: stalled"),
            "{text}"
        );
        assert!(text.contains("damped-retry×1"), "{text}");
    }

    #[test]
    fn settle_folds_each_outcome_into_one_record() {
        let injected = RescueStats {
            injected_faults: 2,
            ..RescueStats::default()
        };
        let none = RescueStats::default();
        let singular = || {
            Settled::<u8, _>::Err(CircuitError::SingularMatrix {
                detail: "zero pivot".into(),
            })
        };
        let mut rep = RunReport::new();
        assert_eq!(
            rep.settle("x", "p0".into(), None, Settled::Ok(1), none),
            Some(1)
        );
        assert_eq!(
            rep.settle("x", "p1".into(), None, Settled::Ok(2), injected),
            Some(2)
        );
        assert_eq!(
            rep.settle("x", "p2".into(), None, singular(), injected),
            None
        );
        let chained = rep.settle(
            "variation",
            "sample 7".into(),
            Some("characterize"),
            singular(),
            none,
        );
        assert_eq!(chained, None);
        let panicked = Settled::<u8, _>::Panicked("boom".into());
        assert_eq!(rep.settle("x", "p4".into(), None, panicked, none), None);

        let statuses: Vec<&PointStatus> = rep.records.iter().map(|r| &r.status).collect();
        let zero_pivot = "singular MNA matrix: zero pivot";
        assert_eq!(statuses[0], &PointStatus::Ok);
        assert_eq!(
            statuses[1],
            &PointStatus::Rescued,
            "a survived fault is a rescue"
        );
        assert_eq!(statuses[2], &failed("singular_matrix", zero_pivot));
        assert_eq!(
            statuses[3],
            &failed(
                "singular_matrix",
                &format!("variation / sample 7 / characterize: {zero_pivot}")
            )
        );
        assert_eq!(statuses[4], &failed("panic", "boom"));
        assert_eq!(
            rep.records[2].rescue, injected,
            "a failure keeps its telemetry"
        );
        assert_eq!(rep.records[3].point, "sample 7");
    }

    #[test]
    fn clean_report_has_no_appendix() {
        let mut rep = RunReport::new();
        rep.push("fig4", "point 0", PointStatus::Ok, RescueStats::default());
        assert!(rep.all_ok());
        let text = rep.render();
        assert!(!text.contains("appendix"), "{text}");
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn metrics_section_renders_only_when_attached() {
        let mut rep = RunReport::new();
        rep.push("fig4", "point 0", PointStatus::Ok, RescueStats::default());
        assert!(!rep.render().contains("metrics:"));
        rep.metrics = Some(MetricsSnapshot {
            counters: vec![("solve.newton_solves", 12), ("solve.dc_solves", 0)],
            gauges: vec![("solve.max_lte_ratio", 0.5)],
        });
        let text = rep.render();
        assert!(text.contains("metrics:"), "{text}");
        assert!(text.contains("  solve.newton_solves = 12"), "{text}");
        assert!(!text.contains("dc_solves"), "zero metrics omitted: {text}");
        assert!(text.contains("  solve.max_lte_ratio = 0.500"), "{text}");
    }

    #[test]
    fn extend_concatenates_in_order() {
        let mut a = RunReport::new();
        a.push("x", "p0", PointStatus::Ok, RescueStats::default());
        let mut b = RunReport::new();
        b.push("y", "p0", PointStatus::Ok, RescueStats::default());
        a.extend(b);
        assert_eq!(a.records.len(), 2);
        assert_eq!(a.records[1].experiment, "y");
    }
}

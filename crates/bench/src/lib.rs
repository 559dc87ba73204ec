//! Rendering helpers for the command-line tools.
//!
//! The [`figures`](../figures/index.html) binary and the `nvpg-serve`
//! daemon use these helpers to turn [`Figure`] data into aligned text
//! tables and CSV files.

pub mod obs_cli;
pub mod report;
pub mod svg;

use nvpg_core::Figure;
use nvpg_units::format_eng;

/// Renders a figure as an aligned text table, downsampled to at most
/// `max_rows` rows per series.
///
/// # Examples
///
/// ```
/// use nvpg_bench::render_text;
/// use nvpg_core::{Figure, Series};
///
/// let fig = Figure {
///     id: "demo".into(),
///     caption: "demo figure".into(),
///     x_label: "x".into(),
///     y_label: "y (A)".into(),
///     log_x: false,
///     log_y: false,
///     series: vec![Series::new("s", vec![(0.0, 1e-6), (1.0, 2e-6)])],
/// };
/// let text = render_text(&fig, 10);
/// assert!(text.contains("demo figure"));
/// assert!(text.contains("µ"));
/// ```
pub fn render_text(fig: &Figure, max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} — {}\n", fig.id, fig.caption));
    out.push_str(&format!(
        "   x: {}{}   y: {}{}\n",
        fig.x_label,
        if fig.log_x { " [log]" } else { "" },
        fig.y_label,
        if fig.log_y { " [log]" } else { "" },
    ));
    let y_unit = unit_of(&fig.y_label);
    let x_unit = unit_of(&fig.x_label);
    for s in &fig.series {
        out.push_str(&format!("   -- {}\n", s.label));
        let n = s.points.len();
        let step = n.div_ceil(max_rows.max(1)).max(1);
        for (i, &(x, y)) in s.points.iter().enumerate() {
            if i % step != 0 && i != n - 1 {
                continue;
            }
            let xs = match x_unit {
                Some(u) => format_eng(x, u),
                None => format!("{x:.6}"),
            };
            let ys = match y_unit {
                Some(u) => format_eng(y, u),
                None => format!("{y:.6e}"),
            };
            out.push_str(&format!("      {xs:>14}  {ys:>14}\n"));
        }
    }
    out
}

/// Extracts the unit inside trailing parentheses of an axis label, e.g.
/// `"I_L (A)"` → `Some("A")`. Composite units (containing `/`) are
/// returned as-is.
fn unit_of(label: &str) -> Option<&str> {
    let open = label.rfind('(')?;
    let close = label.rfind(')')?;
    if close <= open + 1 {
        return None;
    }
    let unit = &label[open + 1..close];
    // Only pure units make sense in engineering notation.
    if unit.len() <= 3 && !unit.contains('=') {
        Some(unit)
    } else {
        None
    }
}

/// Serialises a figure as CSV: one `series,x,y` row per point.
pub fn to_csv(fig: &Figure) -> String {
    let mut out = String::from("series,x,y\n");
    for s in &fig.series {
        for &(x, y) in &s.points {
            out.push_str(&format!("{},{x:e},{y:e}\n", s.label.replace(',', ";")));
        }
    }
    out
}

/// One-line-per-series summary: point count, first and last samples.
pub fn summarize(fig: &Figure) -> String {
    let mut out = String::new();
    for s in &fig.series {
        match (s.points.first(), s.points.last()) {
            (Some(&(x0, y0)), Some(&(x1, y1))) => {
                out.push_str(&format!(
                    "   {:<28} {:>3} pts   ({x0:.3e}, {y0:.3e}) … ({x1:.3e}, {y1:.3e})\n",
                    s.label,
                    s.points.len(),
                ));
            }
            _ => out.push_str(&format!("   {:<28} (empty)\n", s.label)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpg_core::Series;

    fn demo() -> Figure {
        Figure {
            id: "figX".into(),
            caption: "caption".into(),
            x_label: "t (s)".into(),
            y_label: "p (W)".into(),
            log_x: true,
            log_y: true,
            series: vec![
                Series::new("a", vec![(1e-9, 1e-6), (2e-9, 2e-6), (3e-9, 3e-6)]),
                Series::new("b", vec![]),
            ],
        }
    }

    #[test]
    fn text_render_contains_labels_and_units() {
        let text = render_text(&demo(), 100);
        assert!(text.contains("figX"));
        assert!(text.contains("caption"));
        assert!(text.contains("[log]"));
        assert!(text.contains("nW") || text.contains("µW"));
        assert!(text.contains("ns"));
    }

    #[test]
    fn downsampling_limits_rows() {
        let mut fig = demo();
        fig.series[0].points = (0..1000).map(|i| (i as f64, i as f64)).collect();
        let text = render_text(&fig, 10);
        let rows = text.lines().filter(|l| l.starts_with("      ")).count();
        assert!(rows <= 12, "rows = {rows}");
        // Last point always included.
        assert!(text.contains("999"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = to_csv(&demo());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,x,y");
        assert_eq!(lines.len(), 4); // header + 3 points
        assert!(lines[1].starts_with("a,"));
    }

    #[test]
    fn summary_reports_counts() {
        let s = summarize(&demo());
        assert!(s.contains("3 pts"));
        assert!(s.contains("(empty)"));
    }

    #[test]
    fn unit_extraction() {
        assert_eq!(unit_of("I_L (A)"), Some("A"));
        assert_eq!(unit_of("E_cyc (J)"), Some("J"));
        assert_eq!(unit_of("n_RW"), None);
        assert_eq!(unit_of("mode (0=normal, 1=sleep)"), None);
    }
}

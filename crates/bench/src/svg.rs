//! Self-contained SVG line-plot renderer for [`Figure`] data.
//!
//! No drawing dependencies: the renderer emits hand-built SVG with
//! linear or logarithmic axes (as each figure declares), nice tick
//! placement, polyline series in a small colour cycle, and a legend.
//! Output is deterministic, which keeps it testable.

use std::fmt::Write as _;

use nvpg_core::Figure;
use nvpg_units::format_eng;

const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 80.0;
const MARGIN_R: f64 = 190.0;
const MARGIN_T: f64 = 48.0;
const MARGIN_B: f64 = 56.0;

const COLORS: [&str; 10] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

/// One plot axis: maps data values to pixels, linear or log.
#[derive(Debug, Clone, Copy)]
struct Axis {
    min: f64,
    max: f64,
    log: bool,
    pix_lo: f64,
    pix_hi: f64,
}

impl Axis {
    fn new(values: impl Iterator<Item = f64>, log: bool, pix_lo: f64, pix_hi: f64) -> Axis {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            if log && v <= 0.0 {
                continue;
            }
            min = min.min(v);
            max = max.max(v);
        }
        if !min.is_finite() || !max.is_finite() {
            min = 0.0;
            max = 1.0;
        }
        if min == max {
            // Degenerate span: widen symmetrically.
            if log {
                min /= 2.0;
                max *= 2.0;
            } else {
                min -= 0.5;
                max += 0.5;
            }
        }
        // 5 % padding in transformed space.
        let (tmin, tmax) = if log {
            (min.log10(), max.log10())
        } else {
            (min, max)
        };
        let pad = 0.05 * (tmax - tmin);
        let (tmin, tmax) = (tmin - pad, tmax + pad);
        let (min, max) = if log {
            (10f64.powf(tmin), 10f64.powf(tmax))
        } else {
            (tmin, tmax)
        };
        Axis {
            min,
            max,
            log,
            pix_lo,
            pix_hi,
        }
    }

    fn transform(&self, v: f64) -> Option<f64> {
        if self.log && v <= 0.0 {
            return None;
        }
        let (t, tmin, tmax) = if self.log {
            (v.log10(), self.min.log10(), self.max.log10())
        } else {
            (v, self.min, self.max)
        };
        let f = (t - tmin) / (tmax - tmin);
        Some(self.pix_lo + f * (self.pix_hi - self.pix_lo))
    }

    /// Tick values: decades for log axes, ~5 round steps for linear. A
    /// linear tick is an integer multiple of the step, so no tick carries
    /// the rounding of a running sum.
    fn ticks(&self) -> Vec<f64> {
        if self.log {
            let lo = self.min.log10().ceil() as i32;
            let hi = self.max.log10().floor() as i32;
            (lo..=hi).map(|e| 10f64.powi(e)).collect()
        } else {
            let (step, _) = self.linear_step();
            let first = (self.min / step).ceil();
            (0..)
                .map(|k| (first + f64::from(k)) * step)
                .take_while(|&v| v <= self.max + 1e-12 * step)
                .collect()
        }
    }

    /// The linear tick step, the first of 1, 2, 5 and 10 × 10^e (10^e ≤
    /// span/5) that cuts the span into at most six intervals, and the
    /// decimal places it needs.
    fn linear_step(&self) -> (f64, usize) {
        let span = self.max - self.min;
        let e = (span / 5.0).log10().floor();
        let mag = 10f64.powf(e);
        let m = [1.0, 2.0, 5.0]
            .into_iter()
            .find(|&m| span / (m * mag) <= 6.0)
            .unwrap_or(10.0);
        let decimals = if m == 10.0 { -e - 1.0 } else { -e };
        (m * mag, decimals.max(0.0) as usize)
    }

    /// A tick's label: engineering notation when the axis has a unit;
    /// otherwise a linear tick prints at its step's precision.
    fn tick_label(&self, v: f64, unit: Option<&str>) -> String {
        match unit {
            Some(u) => format_eng(v, u),
            None if v == 0.0 => "0".to_owned(),
            None if v.abs() >= 1e4 || v.abs() < 1e-2 => format!("{v:.0e}"),
            None if self.log => format!("{v}"),
            None => {
                let (_, decimals) = self.linear_step();
                format!("{v:.decimals$}")
            }
        }
    }
}

fn unit_of(label: &str) -> Option<&str> {
    let open = label.rfind('(')?;
    let close = label.rfind(')')?;
    let unit = &label[open + 1..close];
    if !unit.is_empty() && unit.len() <= 3 && !unit.contains('=') {
        Some(unit)
    } else {
        None
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a figure to an SVG document string.
///
/// # Examples
///
/// ```
/// use nvpg_bench::svg::render_svg;
/// use nvpg_core::{Figure, Series};
///
/// let fig = Figure {
///     id: "demo".into(),
///     caption: "demo".into(),
///     x_label: "t (s)".into(),
///     y_label: "p (W)".into(),
///     log_x: false,
///     log_y: true,
///     series: vec![Series::new("a", vec![(0.0, 1e-9), (1.0, 1e-6)])],
/// };
/// let svg = render_svg(&fig);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
pub fn render_svg(fig: &Figure) -> String {
    let x_axis = Axis::new(
        fig.series.iter().flat_map(|s| s.points.iter().map(|p| p.0)),
        fig.log_x,
        MARGIN_L,
        WIDTH - MARGIN_R,
    );
    let y_axis = Axis::new(
        fig.series.iter().flat_map(|s| s.points.iter().map(|p| p.1)),
        fig.log_y,
        HEIGHT - MARGIN_B,
        MARGIN_T,
    );
    let x_unit = unit_of(&fig.x_label);
    let y_unit = unit_of(&fig.y_label);

    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    // Title.
    let _ = write!(
        out,
        r#"<text x="{}" y="24" font-size="15" font-weight="bold">{} — {}</text>"#,
        MARGIN_L,
        xml_escape(&fig.id),
        xml_escape(&fig.caption)
    );
    // Plot frame.
    let (px0, px1) = (MARGIN_L, WIDTH - MARGIN_R);
    let (py0, py1) = (HEIGHT - MARGIN_B, MARGIN_T);
    let _ = write!(
        out,
        r##"<rect x="{px0}" y="{py1}" width="{}" height="{}" fill="none" stroke="#444"/>"##,
        px1 - px0,
        py0 - py1
    );
    // Gridlines + ticks.
    for tx in x_axis.ticks() {
        if let Some(px) = x_axis.transform(tx) {
            let _ = write!(
                out,
                r##"<line x1="{px:.1}" y1="{py0}" x2="{px:.1}" y2="{py1}" stroke="#ddd"/>"##
            );
            let _ = write!(
                out,
                r##"<text x="{px:.1}" y="{}" text-anchor="middle" fill="#333">{}</text>"##,
                py0 + 18.0,
                xml_escape(&x_axis.tick_label(tx, x_unit))
            );
        }
    }
    for ty in y_axis.ticks() {
        if let Some(py) = y_axis.transform(ty) {
            let _ = write!(
                out,
                r##"<line x1="{px0}" y1="{py:.1}" x2="{px1}" y2="{py:.1}" stroke="#ddd"/>"##
            );
            let _ = write!(
                out,
                r##"<text x="{}" y="{:.1}" text-anchor="end" fill="#333">{}</text>"##,
                px0 - 6.0,
                py + 4.0,
                xml_escape(&y_axis.tick_label(ty, y_unit))
            );
        }
    }
    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
        0.5 * (px0 + px1),
        HEIGHT - 14.0,
        xml_escape(&fig.x_label)
    );
    let _ = write!(
        out,
        r#"<text x="18" y="{:.1}" text-anchor="middle" transform="rotate(-90 18 {:.1})">{}</text>"#,
        0.5 * (py0 + py1),
        0.5 * (py0 + py1),
        xml_escape(&fig.y_label)
    );
    // Series.
    for (i, s) in fig.series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let mut pts = String::new();
        for &(x, y) in &s.points {
            if let (Some(px), Some(py)) = (x_axis.transform(x), y_axis.transform(y)) {
                let _ = write!(pts, "{px:.1},{py:.1} ");
            }
        }
        if !pts.is_empty() {
            let _ = write!(
                out,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                pts.trim_end()
            );
        }
        // Legend entry.
        let ly = MARGIN_T + 8.0 + i as f64 * 18.0;
        let lx = WIDTH - MARGIN_R + 12.0;
        let _ = write!(
            out,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2.5"/>"#,
            lx + 18.0
        );
        let _ = write!(
            out,
            r##"<text x="{}" y="{}" fill="#111">{}</text>"##,
            lx + 24.0,
            ly + 4.0,
            xml_escape(&s.label)
        );
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpg_core::Series;

    fn demo(log_x: bool, log_y: bool) -> Figure {
        Figure {
            id: "figT".into(),
            caption: "test & <caption>".into(),
            x_label: "t (s)".into(),
            y_label: "E (J)".into(),
            log_x,
            log_y,
            series: vec![
                Series::new("one", vec![(1e-6, 1e-12), (1e-3, 1e-9), (1e-1, 1e-7)]),
                Series::new("two", vec![(1e-6, 5e-12), (1e-1, 5e-10)]),
            ],
        }
    }

    #[test]
    fn renders_wellformed_svg() {
        let svg = render_svg(&demo(true, true));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // Caption XML-escaped.
        assert!(svg.contains("test &amp; &lt;caption&gt;"));
        // Legend entries present.
        assert!(svg.contains(">one</text>"));
        assert!(svg.contains(">two</text>"));
    }

    #[test]
    fn log_axes_emit_decade_ticks() {
        let svg = render_svg(&demo(true, true));
        // Decades between 1 µs and 100 ms on x.
        for label in [
            "1.00 µs", "10.0 µs", "100 µs", "1.00 ms", "10.0 ms", "100 ms",
        ] {
            assert!(svg.contains(label), "missing tick {label}");
        }
    }

    #[test]
    fn linear_axes_have_round_ticks() {
        let fig = Figure {
            series: vec![Series::new("s", vec![(0.0, 0.0), (10.0, 5.0)])],
            log_x: false,
            log_y: false,
            x_label: "n".into(),
            y_label: "v".into(),
            ..demo(false, false)
        };
        let svg = render_svg(&fig);
        assert!(svg.contains(">2<") && svg.contains(">4<"), "{svg}");

        // A 0–1 unitless axis steps by 0.2: 3 × 0.2 is 0.6000000000000001
        // in binary, so the label must print at the step's precision.
        let fig = Figure {
            series: vec![Series::new("s", vec![(0.0, 0.0), (1.0, 1.0)])],
            ..fig
        };
        let svg = render_svg(&fig);
        for label in [">0<", ">0.2<", ">0.4<", ">0.6<", ">0.8<", ">1.0<"] {
            assert_eq!(svg.matches(label).count(), 2, "{label} on both axes: {svg}");
        }
        assert!(!svg.contains("0000"), "{svg}");
    }

    #[test]
    fn nonpositive_points_skipped_on_log_axes() {
        let fig = Figure {
            series: vec![Series::new("s", vec![(1.0, -1.0), (2.0, 1.0), (3.0, 2.0)])],
            ..demo(false, true)
        };
        let svg = render_svg(&fig);
        // Polyline exists but only contains the two positive points.
        let poly = svg.split("points=\"").nth(1).unwrap();
        let coords = poly.split('"').next().unwrap();
        assert_eq!(coords.split_whitespace().count(), 2);
    }

    #[test]
    fn empty_figure_degrades_gracefully() {
        let fig = Figure {
            series: vec![],
            ..demo(false, false)
        };
        let svg = render_svg(&fig);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
    }

    #[test]
    fn degenerate_single_value_span() {
        let fig = Figure {
            series: vec![Series::new("s", vec![(1.0, 5.0), (2.0, 5.0)])],
            ..demo(false, false)
        };
        let svg = render_svg(&fig);
        assert!(svg.contains("<polyline"));
    }
}

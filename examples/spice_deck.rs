//! SPICE-deck workflow: parse → DC → transient → SVG.
//!
//! ```text
//! cargo run --release --example spice_deck [out.svg]
//! ```
//!
//! Demonstrates the simulator as a standalone tool, independent of the
//! NV-SRAM study: a two-stage RC filter written as a SPICE deck with a
//! subcircuit, solved for its operating point, stepped through a pulse
//! transient, and rendered to an SVG plot of its node voltages.

use nvpg::circuit::parser::parse_deck;
use nvpg::circuit::{dc, transient, TransientOptions};
use nvpg::units::format_eng;
use nvpg_bench::svg::render_svg;
use nvpg_core::{Figure, Series};

const DECK: &str = "\
* two-stage RC low-pass built from a subcircuit
.subckt stage in out
Rs in out 10k
Cs out 0 1p
.ends
V1 vin 0 PULSE(0 1 2n 100p 100p 200n 500n)
Xa vin mid stage
Xb mid out stage
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let svg_path = std::env::args().nth(1);

    let mut ckt = parse_deck(DECK)?;
    println!(
        "parsed deck: {} elements, {} nodes",
        ckt.element_count(),
        ckt.node_count()
    );

    // DC operating point (pulse starts at 0).
    let op = dc::operating_point(&mut ckt, &Default::default())?;
    println!(
        "dc: v(mid) = {:.3} V, v(out) = {:.3} V",
        op.voltage_by_name("mid").unwrap(),
        op.voltage_by_name("out").unwrap()
    );

    // Transient: the pulse charges both stages.
    let tr = transient::transient(&mut ckt, &TransientOptions::to(120e-9), &op)?.trace;
    println!("transient: {} samples", tr.len());
    for node in ["v(mid)", "v(out)"] {
        match tr.crossing(node, 0.9, true, 0.0)? {
            Some(t) => println!("  {node} reaches 0.9 V at {}", format_eng(t, "s")),
            None => println!("  {node} did not reach 0.9 V in the window"),
        }
    }

    if let Some(path) = svg_path {
        let series = |node: &str| -> Result<Series, Box<dyn std::error::Error>> {
            let points = tr
                .time()
                .iter()
                .copied()
                .zip(tr.signal(node)?.iter().copied());
            Ok(Series::new(node, points.collect()))
        };
        let fig = Figure {
            id: "spice_deck".into(),
            caption: "two-stage RC filter pulse response".into(),
            x_label: "t (s)".into(),
            y_label: "v (V)".into(),
            log_x: false,
            log_y: false,
            series: vec![series("v(vin)")?, series("v(mid)")?, series("v(out)")?],
        };
        std::fs::write(&path, render_svg(&fig))?;
        println!("wrote {path}");
    }
    Ok(())
}

//! Normally-off microcontroller scenario.
//!
//! ```text
//! cargo run --release --example normally_off_mcu
//! ```
//!
//! The paper concedes that NOF is "literally applicable to normally-off
//! applications such as specific microcontrollers with very long standby
//! intervals between occasional operations" — while being unsuitable for
//! always-on parts. This example quantifies that boundary: a duty-cycled
//! MCU wakes up, performs a burst of `n_RW` access rounds on its working
//! SRAM, and sleeps for `t_standby`. We sweep the standby interval from
//! 10 µs to 10 s and report the average power of each architecture, and
//! the standby interval beyond which each nonvolatile scheme beats the
//! volatile baseline.

use nvpg::cells::design::CellDesign;
use nvpg::core::{Architecture, BenchmarkParams, Experiments, PowerDomain};
use nvpg::units::{format_eng, logspace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("characterising the Table I cell...");
    let exp = Experiments::new(CellDesign::table1())?;
    let model = exp.model();

    let n_rw = 10; // a short housekeeping burst
    let domain = PowerDomain::default_32x32();

    println!("duty-cycled MCU: burst of {n_rw} rounds, then standby (32x32 domain)\n");
    println!(
        "{:>12} | {:>12} {:>12} {:>12} | winner",
        "standby", "P_OSR", "P_NVPG", "P_NOF"
    );

    let mut nvpg_cross: Option<f64> = None;
    let mut nof_cross: Option<f64> = None;

    for t_standby in logspace(10e-6, 10.0, 13) {
        let params = BenchmarkParams {
            n_rw,
            t_sl: 0.0,
            t_sd: t_standby,
            domain,
            reads_per_write: 1,
            store_free: false,
        };
        // Average power = cycle energy / cycle duration.
        let avg = |arch| {
            let e = model.e_cyc(arch, &params).0;
            let t = model.cycle_duration(arch, &params).0;
            e / t
        };
        let (p_osr, p_nvpg, p_nof) = (
            avg(Architecture::Osr),
            avg(Architecture::Nvpg),
            avg(Architecture::Nof),
        );
        let winner = if p_nvpg <= p_osr && p_nvpg <= p_nof {
            "NVPG"
        } else if p_osr <= p_nof {
            "OSR"
        } else {
            "NOF"
        };
        if p_nvpg < p_osr && nvpg_cross.is_none() {
            nvpg_cross = Some(t_standby);
        }
        if p_nof < p_osr && nof_cross.is_none() {
            nof_cross = Some(t_standby);
        }
        println!(
            "{:>12} | {:>12} {:>12} {:>12} | {winner}",
            format_eng(t_standby, "s"),
            format_eng(p_osr, "W"),
            format_eng(p_nvpg, "W"),
            format_eng(p_nof, "W"),
        );
    }

    println!();
    match nvpg_cross {
        Some(t) => println!(
            "NVPG beats the volatile baseline for standbys ≥ {}",
            format_eng(t, "s")
        ),
        None => println!("NVPG never beat the baseline in the swept range"),
    }
    match nof_cross {
        Some(t) => println!(
            "NOF beats the volatile baseline for standbys ≥ {}",
            format_eng(t, "s")
        ),
        None => println!("NOF never beat the baseline in the swept range"),
    }
    println!(
        "\nthe paper's conclusion in one line: even where NOF wins against OSR,\n\
         NVPG wins harder — NOF's only niche is tolerating *unannounced* power loss."
    );
    Ok(())
}

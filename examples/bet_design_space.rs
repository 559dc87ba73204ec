//! Break-even-time design-space exploration + Monte-Carlo variation.
//!
//! ```text
//! cargo run --release --example bet_design_space [mc_samples]
//! ```
//!
//! Two studies beyond the paper's nominal analysis:
//!
//! 1. **Store-pulse design space** — the BET as a function of the store
//!    current margin (via `V_SR`) and the pulse duration, showing the
//!    energy/reliability trade the paper fixes at 1.5×I_C / 10 ns;
//! 2. **Device variation** — Gaussian `V_th`/TMR/`J_C` spread,
//!    re-simulating the cell per sample and reporting the BET
//!    distribution and any store/restore failures.

use nvpg::cells::design::CellDesign;
use nvpg::core::bet::bet_closed_form;
use nvpg::core::corners::{corner_analysis, Corner};
use nvpg::core::variation::{run_variation, VariationSpec};
use nvpg::core::{Architecture, BenchmarkParams, Bet, Experiments};
use nvpg::units::format_eng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mc_samples: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(15);

    let params = BenchmarkParams::fig7_default();

    println!("== store-pulse design space (BET for the 32x32 domain, n_RW = 10)\n");
    println!(
        "{:>8} {:>10} | {:>10} {:>12} {:>12} | {:>12}",
        "V_SR", "pulse", "store ok?", "E_store", "E_restore", "BET(NVPG)"
    );
    for v_sr in [0.55, 0.65, 0.75] {
        for pulse in [5e-9, 10e-9, 20e-9] {
            let mut design = CellDesign::table1();
            design.conditions.v_sr = v_sr;
            design.conditions.store_duration = pulse;
            let exp = Experiments::new(design)?;
            let ch = exp.characterization();
            let bet = match bet_closed_form(exp.model(), Architecture::Nvpg, &params) {
                Bet::At(t) => format_eng(t.0, "s"),
                other => format!("{other:?}"),
            };
            println!(
                "{:>7}V {:>10} | {:>10} {:>12} {:>12} | {:>12}",
                v_sr,
                format_eng(pulse, "s"),
                if ch.store_ok { "yes" } else { "NO" },
                format_eng(ch.e_store, "J"),
                format_eng(ch.e_restore, "J"),
                if ch.store_ok { bet } else { "-".into() },
            );
        }
    }
    println!(
        "\nreading: under-driven or too-short pulses genuinely fail to switch the\n\
         MTJs (store ok = NO); over-long pulses burn energy linearly and push the\n\
         BET up. The paper's 1.5x I_C x 10 ns sits at the knee.\n"
    );

    println!("== process corners (30 mV V_th steps)\n");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>10}",
        "corner", "P_normal", "P_sleep", "BET(NVPG)", "margins"
    );
    for r in corner_analysis(&CellDesign::table1(), 0.03, &Corner::ALL, &params)? {
        let sp = r.characterization.static_power;
        println!(
            "{:>6} | {:>12} {:>12} {:>12} | {:>10}",
            r.corner.to_string(),
            format_eng(sp.p_nv_normal, "W"),
            format_eng(sp.p_nv_sleep, "W"),
            r.bet.map_or("-".into(), |t| format_eng(t, "s")),
            if r.characterization.store_ok && r.characterization.restore_ok {
                "ok"
            } else {
                "FAIL"
            },
        );
    }
    println!();

    println!("== Monte-Carlo device variation ({mc_samples} samples)\n");
    let spec = VariationSpec {
        samples: mc_samples,
        ..VariationSpec::default()
    };
    let out = run_variation(&CellDesign::table1(), &spec, &params);
    println!(
        "   sigma(V_th) = {}, sigma(TMR)/TMR = {:.0}%, sigma(J_C)/J_C = {:.0}%",
        format_eng(spec.sigma_vth, "V"),
        spec.sigma_tmr_rel * 100.0,
        spec.sigma_jc_rel * 100.0
    );
    println!(
        "   store failures: {}   restore failures: {}   non-convergent: {}",
        out.store_failures, out.restore_failures, out.simulation_failures
    );
    if let (Some(mean), Some(std)) = (out.mean_bet(), out.std_bet()) {
        println!(
            "   BET over {} surviving samples: mean = {}, sigma = {}",
            out.bets.len(),
            format_eng(mean, "s"),
            format_eng(std, "s")
        );
        let min = out.bets.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = out.bets.iter().cloned().fold(0.0_f64, f64::max);
        println!(
            "   range: {} … {}",
            format_eng(min, "s"),
            format_eng(max, "s")
        );
    }
    Ok(())
}

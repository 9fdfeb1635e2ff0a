//! Runs the full experiment (Table I columns + model decisions) over the
//! *extended* benchmark set — the four Polybench programs beyond the
//! paper's evaluation (JACOBI2D, FDTD2D, GEMVER, TRMM) — checking that the
//! framework generalises past the kernels it was shaped on.

use hetsel_bench::fmt_time;
use hetsel_core::{Platform, Selector};
use hetsel_polybench::{extended_suite, Dataset};

fn main() {
    println!("Extended suite — programs beyond the paper's evaluation\n");
    for platform in [Platform::power8_k80(), Platform::power9_v100()] {
        let sel = Selector::new(platform.clone());
        println!("== {} ==", platform.name);
        println!(
            "{:<14} {:<9} {:>10} {:>10} {:>8} {:>9} {:>9}",
            "kernel", "mode", "host", "gpu", "speedup", "decision", "verdict"
        );
        for ds in Dataset::paper_modes() {
            for b in extended_suite() {
                for k in &b.kernels {
                    let bnd = (b.binding)(ds);
                    let d = sel.decide(k, &bnd);
                    let m = sel.measure(k, &bnd).expect("simulators run");
                    println!(
                        "{:<14} {:<9} {:>10} {:>10} {:>7.2}x {:>9} {:>9}",
                        k.name,
                        format!("{ds}"),
                        fmt_time(m.cpu_s),
                        fmt_time(m.gpu_s),
                        m.speedup().unwrap_or(f64::NAN),
                        format!("{}", d.device_id.kind()),
                        if d.device_id.kind() == m.best_device() {
                            "ok"
                        } else {
                            "WRONG"
                        }
                    );
                }
            }
        }
        println!();
    }
}

//! Figure 4 — MPQ performance vs sensitivity-set sample size: median and
//! quartiles over `CLADO_SETS` randomly sampled sensitivity sets (the paper
//! uses 24 sets, sizes 256–4096; defaults here are 8 sets, sizes 8–128,
//! scaled to the mini models).
//!
//! ```text
//! CLADO_SETS=8 cargo bench -p clado-bench --bench fig4_sample_size
//! ```

use clado_bench::{num_sets, table1_config};
use clado_core::{quartiles, Algorithm, ExperimentContext};
use clado_models::{pretrained, ModelKind};

fn main() {
    let kind = ModelKind::ResNet20;
    let sets = num_sets().min(6);
    println!(
        "=== Figure 4: accuracy vs sensitivity-set size ({} random sets, {}) ===",
        sets,
        kind.display_name()
    );
    let mut p = pretrained(kind);
    println!("FP32 accuracy {:.2}%\n", p.val_accuracy() * 100.0);
    let (bits, scheme) = table1_config(kind);
    let algorithms = [Algorithm::Hawq, Algorithm::Mpqco, Algorithm::Clado];

    println!(
        "{:>6} {:>28} {:>28} {:>28}",
        "size", "HAWQ (q25/med/q75)", "MPQCO (q25/med/q75)", "CLADO (q25/med/q75)"
    );
    for size in [8usize, 16, 32, 64, 128] {
        let mut accs: Vec<Vec<f64>> = vec![Vec::new(); algorithms.len()];
        for set_id in 0..sets {
            let pr = pretrained(kind);
            let sens = pr.data.train.sample_subset(size, set_id as u64 + 1);
            let mut ctx =
                ExperimentContext::new(pr.network, sens, pr.data.val.clone(), bits.clone(), scheme);
            let budget = ctx.sizes.budget_from_avg_bits(3.0);
            for (k, &alg) in algorithms.iter().enumerate() {
                let (_, acc) = ctx.run(alg, budget).expect("feasible budget");
                accs[k].push(acc * 100.0);
            }
        }
        print!("{size:>6}");
        for a in &accs {
            let q = quartiles(a);
            print!("      {:>6.2} / {:>6.2} / {:>6.2}", q.q25, q.median, q.q75);
        }
        println!();
    }
    println!("\n(expected shape: CLADO's lower quartile approaches or exceeds the");
    println!(" baselines' upper quartiles as the sample size grows — Fig. 4.)");
}

//! Table-1-style comparison on the ResNet-34 analogue: HAWQ vs MPQCO vs
//! CLADO\* vs CLADO at three size budgets.
//!
//! ```text
//! cargo run --release --example resnet_mpq
//! ```
//!
//! The first run trains and caches the model (~30 s); sensitivity
//! measurement dominates afterwards.

use clado_core::{Algorithm, ExperimentContext};
use clado_models::{pretrained, ModelKind};
use clado_quant::{bits_to_mb, BitWidthSet, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut p = pretrained(ModelKind::ResNet34);
    println!(
        "{} — FP32 accuracy {:.2}%, {} quantizable layers",
        ModelKind::ResNet34.display_name(),
        p.val_accuracy() * 100.0,
        p.network.quantizable_layers().len()
    );
    let sens_set = p.data.train.sample_subset(48, 0);
    let mut ctx = ExperimentContext::new(
        p.network,
        sens_set,
        p.data.val.clone(),
        BitWidthSet::standard(),
        QuantScheme::PerTensorSymmetric,
    );

    let budgets: Vec<(f64, u64)> = [2.5, 3.0, 3.5]
        .iter()
        .map(|&avg| (avg, ctx.sizes.budget_from_avg_bits(avg)))
        .collect();

    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>10}",
        "Size (MB)", "HAWQ", "MPQCO", "CLADO*", "CLADO"
    );
    for &(avg, budget) in &budgets {
        print!("{:<12.3}", bits_to_mb(budget));
        for alg in Algorithm::table1() {
            let (_, acc) = ctx.run(alg, budget)?;
            print!(" {:>9.2}%", acc * 100.0);
        }
        println!("   (avg {avg} bits)");
    }

    // Show the actual CLADO bit map at the tightest budget.
    let (a, _) = ctx.run(Algorithm::Clado, budgets[0].1)?;
    println!(
        "\nCLADO bit map @ {:.1} bits avg: {}",
        budgets[0].0,
        a.bitmap()
    );
    Ok(())
}

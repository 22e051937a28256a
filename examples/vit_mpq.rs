//! MPQ on the ViT analogue with per-channel affine quantization — the
//! configuration the paper marks `+` in Table 1 (ViT-base column).
//!
//! ```text
//! cargo run --release --example vit_mpq
//! ```

use clado_core::{Algorithm, ExperimentContext};
use clado_models::{pretrained, ModelKind};
use clado_quant::{BitWidthSet, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut p = pretrained(ModelKind::ViT);
    println!(
        "{} — FP32 accuracy {:.2}%, {} quantizable layers (q/k/v/out + MLP per block)",
        ModelKind::ViT.display_name(),
        p.val_accuracy() * 100.0,
        p.network.quantizable_layers().len()
    );
    let sens_set = p.data.train.sample_subset(48, 0);
    let mut ctx = ExperimentContext::new(
        p.network,
        sens_set,
        p.data.val.clone(),
        BitWidthSet::standard(),
        QuantScheme::PerChannelAffine, // the `+` configuration
    );

    println!(
        "\n{:<10} {:>10} {:>10} {:>10} {:>10}",
        "avg bits", "HAWQ", "MPQCO", "CLADO*", "CLADO"
    );
    for avg in [2.5f64, 3.0, 3.5] {
        let budget = ctx.sizes.budget_from_avg_bits(avg);
        print!("{avg:<10}");
        for alg in Algorithm::table1() {
            let (_, acc) = ctx.run(alg, budget)?;
            print!(" {:>9.2}%", acc * 100.0);
        }
        println!();
    }

    // The paper notes CLADO's edge grows as the budget tightens; print the
    // tight-budget bit maps so the structural difference is visible.
    let tight = ctx.sizes.budget_from_avg_bits(2.5);
    let (clado, _) = ctx.run(Algorithm::Clado, tight)?;
    let (hawq, _) = ctx.run(Algorithm::Hawq, tight)?;
    println!("\nCLADO @2.5b: {}", clado.bitmap());
    println!("HAWQ  @2.5b: {}", hawq.bitmap());
    Ok(())
}

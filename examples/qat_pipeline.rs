//! PTQ → QAT pipeline (Fig. 3): solve a CLADO assignment, then fine-tune
//! with the straight-through estimator and report the recovery.
//!
//! ```text
//! cargo run --release --example qat_pipeline
//! ```

use clado_core::{qat_finetune, Algorithm, ExperimentContext, QatConfig};
use clado_models::{pretrained, ModelKind};
use clado_quant::{BitWidthSet, QuantScheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut p = pretrained(ModelKind::ResNet20);
    println!(
        "{} — FP32 accuracy {:.2}%",
        ModelKind::ResNet20.display_name(),
        p.val_accuracy() * 100.0
    );
    let train_split = p.data.train.clone();
    let val_split = p.data.val.clone();
    let sens_set = p.data.train.sample_subset(48, 0);
    let scheme = QuantScheme::PerTensorSymmetric;
    let mut ctx = ExperimentContext::new(
        p.network,
        sens_set,
        val_split.clone(),
        BitWidthSet::standard(),
        scheme,
    );

    // An aggressive budget close to 3-bit UPQ, where PTQ degrades hard and
    // QAT has something to recover (the regime of Fig. 3).
    let budget = ctx.sizes.budget_from_avg_bits(2.8);

    for alg in [Algorithm::Hawq, Algorithm::Mpqco, Algorithm::Clado] {
        let (assignment, ptq_acc) = ctx.run(alg, budget)?;
        // QAT mutates the master weights; snapshot so each algorithm
        // fine-tunes from the same pretrained point.
        let master = ctx.network.snapshot_all();
        let report = qat_finetune(
            &mut ctx.network,
            &assignment.bits,
            scheme,
            &train_split,
            &val_split,
            &QatConfig::default(),
        );
        ctx.network.restore_all(&master);
        println!(
            "{:<8} PTQ {:>6.2}%  → QAT {:>6.2}%   bits {}",
            alg.label(),
            ptq_acc * 100.0,
            report.accuracy_after * 100.0,
            assignment.bitmap()
        );
    }
    Ok(())
}

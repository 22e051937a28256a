//! # clado-core
//!
//! CLADO — Cross-LAyer-Dependency-aware Optimization for mixed-precision
//! quantization (Deng, Sharify, Wang, Orshansky — DAC 2025), reproduced in
//! Rust.
//!
//! The crate implements:
//!
//! * **Algorithm 1**: backpropagation-free measurement of the full
//!   sensitivity matrix Ĝ, including all cross-layer terms
//!   ([`measure_sensitivities`]), as one [`OmegaPlan`] sweep
//!   ([`run_plan`]) that estimated and distributed sweeps share;
//! * the **PSD approximation** and the **IQP formulation** of eq. (11)
//!   ([`assign_bits`]);
//! * the **baselines** the paper compares against: HAWQ-style Hessian-trace
//!   and MPQCO-style empirical-Fisher sensitivities ([`hawq_sensitivities`],
//!   [`mpqco_sensitivities`]), plus the CLADO\* and BRECQ-style ablations;
//! * **QAT fine-tuning** with the straight-through estimator
//!   ([`qat_finetune`], Fig. 3);
//! * exact vs fast **vᵀHv** measurement ([`exact_vhv`], [`fast_vhv`],
//!   Table 2);
//! * experiment runners used by the benchmark harness
//!   ([`ExperimentContext`]).
//!
//! ## Example
//!
//! ```no_run
//! use clado_core::{assign_bits, measure_sensitivities, AssignOptions, SensitivityOptions};
//! use clado_models::{pretrained, ModelKind};
//! use clado_quant::{BitWidthSet, LayerSizes};
//!
//! let mut p = pretrained(ModelKind::ResNet34);
//! let sens_set = p.data.train.sample_subset(64, 0);
//! let bits = BitWidthSet::standard();
//! let sm = measure_sensitivities(
//!     &mut p.network, &sens_set, &bits, &SensitivityOptions::default())
//!     .expect("sensitivity measurement");
//! let sizes = LayerSizes::new(p.network.layer_param_counts());
//! let budget = sizes.budget_from_avg_bits(3.0);
//! let assignment = assign_bits(&sm, &sizes, budget, &AssignOptions::default())?;
//! println!("bit map: {}", assignment.bitmap());
//! # Ok::<(), clado_solver::IqpError>(())
//! ```

#![warn(missing_docs)]

mod assign;
mod baselines;
mod engine;
mod errors;
mod experiments;
mod hessian;
pub mod journal;
mod probe;
mod qat;
mod search;
mod sensitivity;
mod sensitivity_io;
mod shard;
mod sweep;

pub use assign::{assign_bits, solve_with_matrix, AssignOptions, BitAssignment, CladoVariant};
pub use baselines::{
    empirical_fisher, hawq_sensitivities, hessian_traces, mpqco_sensitivities, BaselineOptions,
};
pub use engine::{replica_map_checked, resolve_threads};
pub use errors::MeasureError;
pub use experiments::{quartiles, Algorithm, ExperimentContext, Quartiles};
pub use hessian::{exact_cross_vhv, exact_vhv, exact_vhv_direction, fast_cross_vhv, fast_vhv};
pub use journal::{fnv1a, JournalError, JournalState, JournalWriter, ProbeId, ProbeRecord};
pub use probe::{
    advance_prefix_cache, apply_quantization, build_prefix_cache, eval_loss, eval_loss_from,
    quant_error_table, quantizable_gradients, quantized_accuracy, train_mode_loss, PrefixCache,
    PROBE_BATCH,
};
pub use qat::{qat_finetune, QatConfig, QatReport};
pub use search::{annealing_search, random_search, SearchOptions, SearchReport};
pub use sensitivity::{
    measure_sensitivities, OmegaProvenance, SensitivityMatrix, SensitivityOptions, SensitivityStats,
};
pub use sensitivity_io::{
    load_sensitivities, save_sensitivities, sensitivities_from_bytes, sensitivities_to_bytes,
    SensitivityIoError,
};
pub use shard::{
    config_fingerprint, estimator_config_fingerprint, ModelTables, PartialAssembly, ShardContext,
    ShardRunStats, ShardSpec,
};
pub use sweep::{
    run_plan, run_plan_in_process, OmegaPlan, Records, Round, SweepOutcome, SweepState,
};

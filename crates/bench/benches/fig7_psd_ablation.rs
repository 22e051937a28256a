//! Figure 7 — ablation on the PSD approximation of Ĝ: solution quality and
//! consistency with vs without the projection, plus branch-and-bound node
//! counts (the paper reports CVXPY+GUROBI fails to converge in >3 h without
//! PSD; here the projection shows as fewer nodes, see the footer).
//!
//! ```text
//! cargo bench -p clado-bench --bench fig7_psd_ablation
//! ```

use clado_bench::{num_sets, sens_size, table1_config};
use clado_core::{quartiles, Algorithm, ExperimentContext};
use clado_models::{pretrained, ModelKind};

fn main() {
    let kind = ModelKind::ResNet34;
    let sets = num_sets().min(4);
    let budgets = [2.6f64, 3.0, 3.4];
    println!(
        "=== Figure 7: PSD approximation ablation ({}, {sets} sets) ===\n",
        kind.display_name()
    );
    let (bits, scheme) = table1_config(kind);

    let mut no_psd = vec![Vec::new(); budgets.len()];
    let mut psd = vec![Vec::new(); budgets.len()];
    let mut nodes_no_psd = vec![0u64; budgets.len()];
    let mut nodes_psd = vec![0u64; budgets.len()];
    let mut unproved = vec![0usize; budgets.len()];
    for set_id in 0..sets {
        let p = pretrained(kind);
        let sens = p
            .data
            .train
            .sample_subset(sens_size() / 2, set_id as u64 + 100);
        let mut ctx =
            ExperimentContext::new(p.network, sens, p.data.val.clone(), bits.clone(), scheme);
        for (bi, &avg) in budgets.iter().enumerate() {
            let budget = ctx.sizes.budget_from_avg_bits(avg);
            let (a_raw, acc_raw) = ctx.run(Algorithm::CladoNoPsd, budget).expect("feasible");
            let (a_psd, acc_psd) = ctx.run(Algorithm::Clado, budget).expect("feasible");
            no_psd[bi].push(acc_raw * 100.0);
            psd[bi].push(acc_psd * 100.0);
            nodes_no_psd[bi] += a_raw.solution.nodes_explored;
            nodes_psd[bi] += a_psd.solution.nodes_explored;
            if !a_raw.solution.proved_optimal {
                unproved[bi] += 1;
            }
        }
    }

    println!(
        "{:>8} {:>30} {:>30}  {:>22}",
        "avg bits", "no-PSD (q25/med/q75)", "PSD (q25/med/q75)", "B&B nodes (noPSD/PSD)"
    );
    for (bi, &avg) in budgets.iter().enumerate() {
        let qn = quartiles(&no_psd[bi]);
        let qp = quartiles(&psd[bi]);
        println!(
            "{avg:>8.1}       {:>6.2} / {:>6.2} / {:>6.2}        {:>6.2} / {:>6.2} / {:>6.2}   {:>10} / {:>8}{}",
            qn.q25,
            qn.median,
            qn.q75,
            qp.q25,
            qp.median,
            qp.q75,
            nodes_no_psd[bi] / sets as u64,
            nodes_psd[bi] / sets as u64,
            if unproved[bi] > 0 {
                format!("   ({} no-PSD runs hit the node cap)", unproved[bi])
            } else {
                String::new()
            }
        );
    }
    println!("\n(expected shape: PSD improves solution quality/consistency at mid and");
    println!(" loose budgets, and the PSD solves need fewer nodes: the branch and");
    println!(" bound's convex bound shifts Ĝ by λ = min(λ_min(Ĝ), 0), which is ≈ 0");
    println!(" after the projection and weakens the bound without it. Both variants");
    println!(" still prove optimality at mini scale, unlike the paper's CVXPY+GUROBI");
    println!(" on the indefinite objective. See EXPERIMENTS.md for the discussion.)");
}

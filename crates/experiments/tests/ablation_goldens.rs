//! Byte-for-byte goldens of every ablation CSV at quick scale.
//!
//! Each file under `data/` was generated by the per-module sweep runners
//! that predate the shared sweep harness, with the exact benchmark
//! subsets, rates and contexts below. The harness only moves where cells
//! run and how they are collected, so every CSV must stay identical: a
//! diff here means a cell's seed, config or row order changed.

#![forbid(unsafe_code)]

use pronghorn_experiments::{
    ablation, cluster_ablation, delta_ablation, provision_ablation, restore_ablation,
    storage_ablation, ExperimentContext,
};

fn ctx() -> ExperimentContext {
    ExperimentContext {
        invocations: 120,
        ..ExperimentContext::quick()
    }
}

#[test]
fn restore_ablation_csv_matches_golden() {
    let csv = restore_ablation::run_for(&ctx(), &["DFS", "Uploader", "Hash"], &[4]).to_csv();
    assert_eq!(csv, include_str!("data/restore_ablation_golden.csv"));
}

#[test]
fn delta_ablation_csv_matches_golden() {
    let csv = delta_ablation::run_for(&ctx(), &["DFS", "Compression", "Hash"], &[1, 4]).to_csv();
    assert_eq!(csv, include_str!("data/delta_ablation_golden.csv"));
}

#[test]
fn storage_ablation_csv_matches_golden() {
    let csv = storage_ablation::run_for(&ctx(), &["DFS", "Compression", "Hash"], &[1, 4]).to_csv();
    assert_eq!(csv, include_str!("data/storage_ablation_golden.csv"));
}

#[test]
fn cluster_ablation_csv_matches_golden() {
    let csv = cluster_ablation::run_for(&ctx(), &["DFS", "MatrixMult", "Hash"], &[1, 4]).to_csv();
    assert_eq!(csv, include_str!("data/cluster_ablation_golden.csv"));
}

#[test]
fn provision_ablation_csv_matches_golden() {
    let ablation = provision_ablation::run_for(
        &ExperimentContext::quick(),
        &["DFS", "Uploader"],
        provision_ablation::QUICK_HOURS,
    );
    assert_eq!(
        ablation.to_csv(),
        include_str!("data/provision_ablation_golden.csv")
    );
}

#[test]
fn design_ablations_csv_matches_golden() {
    let ctx = ExperimentContext {
        invocations: 300,
        ..ExperimentContext::quick()
    };
    let csv = ablation::run(&ctx).to_csv();
    assert_eq!(csv, include_str!("data/ablations_golden.csv"));
}

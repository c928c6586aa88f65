//! Regenerates the failure-sweep figure implemented by
//! `figures::failure_sweep`: BFC vs DCQCN+Win vs HPCC across three link-fault
//! shapes (single down/up, degraded core, flapping) and a failed-link-count
//! sweep, with the dynamics subsystem's recovery metrics.
//!
//! Runs at quick scale by default; pass `--full` for the paper's topologies
//! and trace lengths (use `--release`).
use bfc_experiments::figures::{failure_sweep, Scale};

fn main() -> std::process::ExitCode {
    Scale::figure_main(failure_sweep::run)
}

//! Regenerates the paper figure implemented by `figures::fig13`.
//!
//! Runs at quick scale by default; pass `--full` for the paper's topologies
//! and trace lengths (use `--release`).
use bfc_experiments::figures::{Scale, fig13};

fn main() -> std::process::ExitCode {
    Scale::figure_main(fig13::run)
}

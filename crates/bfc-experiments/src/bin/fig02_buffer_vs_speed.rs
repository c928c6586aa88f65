//! Regenerates the paper figure implemented by `figures::fig02`.
//!
//! Runs at quick scale by default; pass `--full` for the paper's topologies
//! and trace lengths (use `--release`).
use bfc_experiments::figures::{Scale, fig02};

fn main() -> std::process::ExitCode {
    Scale::figure_main(fig02::run)
}

//! Regenerates Fig. 5 (the headline tail-latency comparison, panels a/b/c).
//!
//! Runs at quick scale by default; pass `--full` for the paper's T1 topology
//! and longer traces (use `--release`).
use bfc_experiments::figures::{fig05, Scale};

fn main() -> std::process::ExitCode {
    Scale::figure_main(fig05::run)
}

//! `fig <NN|all> [--full] [--bursty] [--lognormal-incast] [--shards n]` —
//! regenerates the paper's figures (`bfc_experiments::figures::FIGURES`) at
//! quick scale, or at the paper's with `--full` (use `--release`).

use std::process::ExitCode;

use bfc_experiments::cli::{self, Io};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, err) = (&mut std::io::stdout(), &mut std::io::stderr());
    cli::fig(&args, &mut Io { out, err })
}

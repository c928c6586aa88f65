//! `trace-tool` — synthesize, summarize, replay, snapshot, serve, fault-inject,
//! fuzz and trace workload runs. The commands live in `bfc_experiments::cli`
//! (`trace-tool help` lists them); this is the process shell around them.

use std::process::ExitCode;

use bfc_experiments::cli::{self, Io};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, err) = (&mut std::io::stdout(), &mut std::io::stderr());
    cli::trace_tool(&args, &mut Io { out, err })
}

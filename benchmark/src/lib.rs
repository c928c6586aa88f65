//! The repository's benchmark: four workloads through the simulator's public
//! API, timed end to end and attributed layer by layer, all measured from
//! outside — by timing calls into the layers' public functions and reading
//! the counters every `ExperimentResult::registry` carries. `README.md`
//! holds the glossary; `../BENCHMARK.json` the contract with the pipeline.

pub mod alloc;
pub mod cli;
pub mod digest;
pub mod host;
pub mod json;
pub mod kernels;
pub mod names;
pub mod run;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;

//! The parallel experiment driver.
//!
//! The evaluation sweeps many independent (scheme, sweep-point, seed)
//! combinations, and every [`run_experiment`] call is a pure function of its
//! inputs: it builds its own switches, hosts, event queue and RNGs from the
//! `ExperimentConfig` seed, touches no global state, and all of its pieces
//! are `Send`. [`ParallelRunner`] exploits that by fanning jobs across
//! `std::thread` workers.
//!
//! **Determinism contract:** results are collected into a vector indexed by
//! job order, so the output is *bit-identical* at any thread count — only
//! wall-clock time changes. Every figure function routes its runs through
//! this module, which is what makes `BFC_THREADS=8 cargo run --release -p
//! bfc-experiments --bin fig -- 05 --full` both fast and exactly
//! reproducible.
//!
//! The runner also carries the **shard count** each of its runs is split
//! into (`BFC_SHARDS` / `--shards`): a value handed to the engine per run.
//! Both environment variables are read once per process, in
//! [`ParallelRunner::from_env`]; nothing in this crate writes the
//! environment.

use bfc_net::topology::Topology;
use bfc_workloads::TraceFlow;

use std::env::VarError;
use std::sync::OnceLock;

use crate::runner::{ExperimentConfig, ExperimentResult};
use crate::sharded::run_experiment_sharded;

/// Fans independent jobs across a fixed pool of `std::thread` workers while
/// preserving job order in the results, and splits each experiment it runs
/// across a fixed number of engine shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    threads: usize,
    shards: usize,
}

/// Parses a thread or shard count as the `--shards` flag and the
/// `BFC_THREADS` / `BFC_SHARDS` variables spell it: a positive integer,
/// surrounding whitespace ignored. `what` names the flag or variable in the
/// error.
pub fn parse_count(what: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!("{what} requires a positive count, got 0")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{what}: not a valid number: {value}")),
    }
}

/// The count an environment variable asks for, or `default` when it is
/// unset. A value that does not parse is reported on stderr and ignored — a
/// bad variable must neither stop a run nor silently change its engine.
fn env_count(name: &str, value: Result<String, VarError>, default: usize) -> usize {
    let rejected = match value {
        Ok(v) => match parse_count(name, &v) {
            Ok(n) => return n,
            Err(e) => e,
        },
        Err(VarError::NotPresent) => return default,
        Err(VarError::NotUnicode(raw)) => format!("{name}: not a valid number: {raw:?}"),
    };
    eprintln!("warning: {rejected}; using the default, {default}");
    default
}

impl ParallelRunner {
    /// A runner using exactly `threads` workers (clamped to at least 1),
    /// running every experiment on one shard.
    pub fn new(threads: usize) -> Self {
        ParallelRunner {
            threads: threads.max(1),
            shards: 1,
        }
    }

    /// The same runner with every experiment split across `shards` engine
    /// shards (clamped to at least 1). Results are bit-identical at any
    /// shard count; only wall-clock changes.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// A serial runner (one worker, no thread spawns).
    pub fn serial() -> Self {
        ParallelRunner::new(1)
    }

    /// Reads the worker count from `BFC_THREADS` (default: the machine's
    /// available parallelism) and the shard count from `BFC_SHARDS` (default
    /// 1). This is the constructor the `fig` and `trace-tool` binaries and
    /// the examples use: set `BFC_THREADS=1` to force serial execution, or
    /// leave it unset to use every core. The environment is read on the first call only; a
    /// malformed value is reported once on stderr and the default used.
    pub fn from_env() -> Self {
        static FROM_ENV: OnceLock<ParallelRunner> = OnceLock::new();
        *FROM_ENV.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let threads = env_count("BFC_THREADS", std::env::var("BFC_THREADS"), cores);
            let shards = env_count("BFC_SHARDS", std::env::var("BFC_SHARDS"), 1);
            ParallelRunner::new(threads).with_shards(shards)
        })
    }

    /// Number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of engine shards each experiment runs on.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs one experiment on this runner's shard count.
    pub fn run_experiment(
        &self,
        topo: &Topology,
        trace: &[TraceFlow],
        config: &ExperimentConfig,
    ) -> ExperimentResult {
        run_experiment_sharded(topo, trace, config, self.shards)
    }

    /// Runs `job` for every element of `jobs`, at most `threads` at a time,
    /// and returns the results **in job order** regardless of which worker
    /// finished first — the scheduling is work-stealing by index, the output
    /// is deterministic.
    pub fn run_all<J, R, F>(&self, jobs: &[J], job: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(jobs.len());
        if workers == 1 {
            // Inline serial path: no spawn overhead, and a direct witness
            // that the parallel path computes exactly the same thing.
            return jobs.iter().map(job).collect();
        }

        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        let slots = std::sync::Mutex::new(slots);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if index >= jobs.len() {
                        break;
                    }
                    let result = job(&jobs[index]);
                    slots
                        .lock()
                        .expect("result mutex poisoned: a worker panicked")
                        [index] = Some(result);
                });
            }
        });

        slots
            .into_inner()
            .expect("result mutex poisoned: a worker panicked")
            .into_iter()
            .map(|slot| slot.expect("every job index was claimed exactly once"))
            .collect()
    }

    /// Runs one experiment per config over a shared topology and trace —
    /// the common "same workload, many schemes/parameters" sweep shape.
    /// Results come back in `configs` order, bit-identical at any thread
    /// count. Each run is split across this runner's shard count
    /// (within-run sharding composes with the across-run fan-out; results
    /// stay bit-identical either way).
    pub fn run_experiments(
        &self,
        topo: &Topology,
        trace: &[TraceFlow],
        configs: &[ExperimentConfig],
    ) -> Vec<ExperimentResult> {
        self.run_all(configs, |config| self.run_experiment(topo, trace, config))
    }
}

impl Default for ParallelRunner {
    fn default() -> Self {
        ParallelRunner::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_sim::SimDuration;
    use bfc_workloads::{synthesize, TraceParams, Workload};

    use crate::scheme::Scheme;

    #[test]
    fn run_all_preserves_job_order() {
        for threads in [1, 2, 4, 7] {
            let jobs: Vec<u64> = (0..37).collect();
            let results = ParallelRunner::new(threads).run_all(&jobs, |&j| j * j);
            assert_eq!(results, (0..37).map(|j| j * j).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<u32> = ParallelRunner::new(4).run_all(&[] as &[u32], |&j| j);
        assert!(results.is_empty());
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(ParallelRunner::new(0).threads(), 1);
        assert_eq!(ParallelRunner::serial().threads(), 1);
        assert_eq!(ParallelRunner::serial().shards(), 1);
        assert_eq!(ParallelRunner::serial().with_shards(0).shards(), 1);
    }

    #[test]
    fn counts_parse_as_positive_integers_only() {
        assert_eq!(parse_count("--shards", " 4 "), Ok(4));
        for (bad, why) in [("", "not a valid number"), ("banana", "not a valid number"), ("0", "got 0")] {
            let err = parse_count("BFC_SHARDS", bad).expect_err(bad);
            assert!(err.starts_with("BFC_SHARDS") && err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_rejected_environment_value_falls_back_to_the_default() {
        assert_eq!(env_count("BFC_SHARDS", Err(VarError::NotPresent), 1), 1);
        assert_eq!(env_count("BFC_SHARDS", Ok(" 4 ".into()), 1), 4);
        for bad in ["", "0", "banana"] {
            assert_eq!(env_count("BFC_THREADS", Ok(bad.into()), 3), 3, "{bad:?}");
        }
    }

    #[test]
    fn experiments_are_bit_identical_across_thread_counts() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = synthesize(
            &topo.hosts(),
            &TraceParams::background_only(
                Workload::Google,
                0.3,
                SimDuration::from_micros(150),
                11,
            ),
        );
        let configs: Vec<ExperimentConfig> = [Scheme::bfc(), Scheme::Dcqcn { window: true, sfq: false }]
            .into_iter()
            .map(|s| ExperimentConfig::new(s, SimDuration::from_micros(150)))
            .collect();
        let serial = ParallelRunner::serial().run_experiments(&topo, &trace, &configs);
        let parallel = ParallelRunner::new(4).run_experiments(&topo, &trace, &configs);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.fct, b.fct, "FCT summaries must be bit-identical");
            assert_eq!(a.completed_flows, b.completed_flows);
            assert_eq!(a.end_time, b.end_time);
            assert_eq!(a.drops, b.drops);
        }
    }
}

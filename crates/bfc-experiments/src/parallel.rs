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
//! into (`--shards`): a value handed to the engine per run. `BFC_THREADS` is
//! read once per process, in [`ParallelRunner::from_env`]; nothing in this
//! crate writes the environment.

use bfc_net::topology::Topology;
use bfc_workloads::TraceFlow;

use std::env::VarError;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
/// `BFC_THREADS` variable spell it: a positive integer, surrounding
/// whitespace ignored. `what` names the flag or variable in the
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
    /// available parallelism); every run is on one shard until
    /// [`ParallelRunner::with_shards`] says otherwise. This is the
    /// constructor the `fig` and `trace-tool` binaries and the examples use:
    /// set `BFC_THREADS=1` to force serial execution, or leave it unset to
    /// use every core. The environment is read on the first call only; a
    /// malformed value is reported once on stderr and the default used.
    pub fn from_env() -> Self {
        static FROM_ENV: OnceLock<ParallelRunner> = OnceLock::new();
        *FROM_ENV.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            ParallelRunner::new(env_count(
                "BFC_THREADS",
                std::env::var("BFC_THREADS"),
                cores,
            ))
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
    /// is deterministic. If a job panics, its payload (the earliest job's,
    /// should several panic) is re-raised on the caller at any thread count,
    /// and no worker starts another job.
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

        let next = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        // A job's panic is caught where it happens and handed back as its
        // outcome (`thread::scope` alone would replace the message with "a
        // scoped thread panicked", after the surviving workers had run every
        // remaining job).
        let worker = || {
            let mut done: Vec<(usize, std::thread::Result<R>)> = Vec::new();
            while !panicked.load(Ordering::Relaxed) {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| job(&jobs[index])));
                panicked.fetch_or(outcome.is_err(), Ordering::Relaxed);
                done.push((index, outcome));
            }
            done
        };
        let mut outcomes: Vec<(usize, std::thread::Result<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("a worker catches its jobs' panics"))
                .collect()
        });
        // Indices are claimed in ascending order, so every job before a
        // panicked one has an outcome: in job order the first failure met is
        // the earliest, and without one every job is there exactly once.
        outcomes.sort_by_key(|(index, _)| *index);
        outcomes
            .into_iter()
            .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
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
    fn a_panicking_job_surfaces_its_own_message_at_any_thread_count() {
        for threads in [1, 4] {
            let jobs: Vec<u64> = (0..37).collect();
            let payload = catch_unwind(|| {
                ParallelRunner::new(threads).run_all(&jobs, |&j| {
                    assert!(j != 5 && j != 6, "invalid fault schedule for job {j}");
                    j
                })
            })
            .expect_err("job 5 always runs, and panics");
            // The earliest panicked job's message (job 6 may or may not have
            // run beside it), not the scope's.
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("invalid fault schedule for job 5"),
                "{threads} threads"
            );
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
        for (bad, why) in [
            ("", "not a valid number"),
            ("banana", "not a valid number"),
            ("0", "got 0"),
        ] {
            let err = parse_count("BFC_THREADS", bad).expect_err(bad);
            assert!(
                err.starts_with("BFC_THREADS") && err.contains(why),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn a_rejected_environment_value_falls_back_to_the_default() {
        assert_eq!(env_count("BFC_THREADS", Err(VarError::NotPresent), 1), 1);
        assert_eq!(env_count("BFC_THREADS", Ok(" 4 ".into()), 1), 4);
        for bad in ["", "0", "banana"] {
            assert_eq!(env_count("BFC_THREADS", Ok(bad.into()), 3), 3, "{bad:?}");
        }
    }

    #[test]
    fn experiments_are_bit_identical_across_thread_counts() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = synthesize(
            &topo.hosts(),
            &TraceParams::background_only(Workload::Google, 0.3, SimDuration::from_micros(150), 11),
        );
        let configs: Vec<ExperimentConfig> = [
            Scheme::bfc(),
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
        ]
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

//! The equivalences the one engine promises, on generated inputs.
//!
//! Every entry point is a composition of one engine (build · advance · save /
//! restore · finish), so for any (topology, workload, fault schedule) drawn
//! by the scenario fuzzer's generator and any lineup scheme, every way of
//! getting to the end of the run must produce the same `ExperimentResult`,
//! every field by bits:
//!
//! * `run_experiment` ≡ `run_experiment_sharded` at 1, 2 and 4 shards,
//! * ≡ the same with epoch batching off,
//! * ≡ `snapshot_experiment` at an arbitrary instant + `resume_experiment`,
//!   at each of 1, 2 and 4 shards — the cut is a time, not an epoch barrier,
//!   so the instants include zero, the middle of a fault, past the deadline
//!   and picosecond-granular points in between.
//!
//! A failure prints the case seed; `BFC_TESTKIT_SEED=<seed> cargo test --test
//! engine_equivalence` replays exactly that case.

use backpressure_flow_control::experiments::fuzz::{CaseGen, FuzzConfig, Reproducer};
use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment, run_experiment_sharded, snapshot_experiment, Scheme,
};
use bfc_testkit::{f64_range, int_range, pair, triple, Config};

mod common;
use common::{assert_identical, cut_instant};

#[test]
fn every_path_through_the_engine_agrees_on_generated_scenarios() {
    let lineup = Scheme::paper_lineup();
    let gen = triple(
        CaseGen::new(1),
        int_range(0..lineup.len() as u64),
        pair(int_range(0u64..4), f64_range(0.0..2.0)),
    );
    // Each case is a dozen full runs: keep the sweep and the shrink short.
    let mut sweep = Config::from_env().with_cases(12);
    sweep.max_shrink_evals = 8;
    bfc_testkit::check(
        "engine_equivalence",
        sweep,
        gen,
        |(case, scheme, (kind, frac))| {
            let mut fuzz = FuzzConfig::new();
            fuzz.scheme = lineup[*scheme as usize].clone();
            let (topo, trace, config) = Reproducer::from_case(&fuzz, case)
                .and_then(|r| r.materialize())
                .expect("generated cases resolve against the tiny fat-tree");
            let label = config.scheme.name();
            let serial = run_experiment(&topo, &trace, &config);
            let unbatched = config.clone().with_epoch_batching(false);

            for (i, shards) in [1usize, 2, 4].into_iter().enumerate() {
                let sharded = run_experiment_sharded(&topo, &trace, &config, shards);
                assert_identical(&format!("{label} @ {shards} shards"), &serial, &sharded);
                let off = run_experiment_sharded(&topo, &trace, &unbatched, shards);
                assert_identical(
                    &format!("{label} @ {shards} shards, batching off"),
                    &serial,
                    &off,
                );

                // Each shard count cuts at a different kind of instant, so every
                // case covers three of the four kinds.
                let at = cut_instant(kind + i as u64, *frac, &config);
                let snap = snapshot_experiment(&topo, &trace, &config, at, shards);
                let resumed = resume_experiment(&topo, &trace, &config, &snap)
                    .unwrap_or_else(|e| panic!("{label} @ {shards} shards, cut at {at}: {e}"));
                assert_identical(
                    &format!("{label} @ {shards} shards, cut at {at}"),
                    &serial,
                    &resumed,
                );
            }
        },
    );
}

//! The benchmark's vocabulary: every workload and metric name with its unit
//! and direction. `BENCHMARK.json` at the repository root states the same
//! lists (a test holds the two together); `README.md` is the glossary.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why it was chosen)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lineup_t2",
        "Fig. 5's six-scheme lineup, serial, T2 (64 hosts), Google 60% + 5% incast: every packet-path layer does a fair share; the per-scheme split separates bfc-core from bfc-transport CC",
    ),
    (
        "incast_t1",
        "BFC alone, serial, T1 (128 hosts), FbHadoop 40% + 20% 100-to-1 incast: flow table, pause frames, buffers and the largest event population do most of the work; DCQCN/HPCC code does none",
    ),
    (
        "incast_t1_shard2",
        "incast_t1's exact inputs through the 2-shard engine: ranked keys, mailboxes and the epoch barrier, so a gain that costs the sharded engine, or one only it sees, shows; same digest as serial",
    ),
    (
        "service_t2",
        "DCQCN+Win (bypasses bfc-core) on T2 with a link fault: serve, checkpoint and record phases put snapshot codec, ingest, registry render, flight recorder and rerouting ahead of the packet path",
    ),
];

/// `(name, unit, better, bound)`: what a user of the simulator sees. The
/// bounds are wide because the pipeline compares runs of *different* seeds on
/// a host whose speed drifts: each is about three times the spread measured
/// over ten seeds (see README, "Steadiness"), capped at the contract's 0.25.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("pkt_hops_per_s", "1/s", Higher, 0.25),
    ("allocs_per_khop", "count", Lower, 0.20),
    ("peak_rss_mb", "MB", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// `(name, unit, better)`: single layers, from a traced run. For the exact
/// counts the direction is nominal: a pure speed-up must not move them.
pub const PER_LAYER: [(&str, &str, Better); 65] = [
    ("sim.event.hold_ns_per_op", "ns", Lower),
    ("sim.event.hold_ref_ns_per_op", "ns", Lower),
    ("sim.event.overflow_pushes_per_khop", "count", Lower),
    ("sim.shard.barriers_per_khop", "count", Lower),
    ("sim.shard.boundary_events_per_khop", "count", Lower),
    ("sim.shard.windows_per_batch", "count", Higher),
    ("sim.snapshot.bytes", "B", Lower),
    ("sim.snapshot.save_ms", "ms", Lower),
    ("net.switch.fwd_ns_per_pkt", "ns", Lower),
    ("net.switch.pkt_hops", "count", Lower),
    ("net.switch.drops", "count", Lower),
    ("net.switch.pfc_pauses", "count", Lower),
    ("net.switch.ecn_marked", "count", Lower),
    ("net.routing.compute_ms", "ms", Lower),
    ("net.trace.record_overhead_frac", "ratio", Lower),
    ("net.trace.filtered_overhead_frac", "ratio", Lower),
    ("net.trace.records", "count", Lower),
    ("net.trace.write_mb_per_s", "MB/s", Higher),
    ("net.trace.read_mb_per_s", "MB/s", Higher),
    ("net.trace.diff_mrec_per_s", "Mrecords/s", Higher),
    ("core.policy.ns_per_pkt", "ns", Lower),
    ("core.flow_table.hot_lookup_ns", "ns", Lower),
    ("core.flow_table.lookups_per_khop", "count", Lower),
    ("core.flow_table.probe_steps_per_lookup", "count", Lower),
    ("core.policy.pauses_per_khop", "count", Lower),
    ("core.policy.resumes_per_khop", "count", Lower),
    ("runner.ns_per_hop.bfc", "ns", Lower),
    ("runner.ns_per_hop.ideal-fq", "ns", Lower),
    ("runner.ns_per_hop.dcqcn", "ns", Lower),
    ("runner.ns_per_hop.dcqcn-win", "ns", Lower),
    ("runner.ns_per_hop.hpcc", "ns", Lower),
    ("runner.ns_per_hop.dcqcn-win-sfq", "ns", Lower),
    ("workloads.synth_mflows_per_s", "Mflows/s", Higher),
    ("workloads.csv_export_mb_per_s", "MB/s", Higher),
    ("workloads.csv_import_mb_per_s", "MB/s", Higher),
    ("workloads.ingest_kflows_per_s", "kflows/s", Higher),
    ("metrics.series.sampling_overhead_frac", "ratio", Lower),
    ("metrics.registry.series", "count", Lower),
    ("metrics.registry.expose_us", "us", Lower),
    ("metrics.fct.p99_short_slowdown.bfc", "ratio", Lower),
    ("metrics.fct.p99_short_slowdown.dcqcn-win", "ratio", Lower),
    ("metrics.fct.p99_short_slowdown.hpcc", "ratio", Lower),
    ("metrics.fct.p99_slowdown.bfc", "ratio", Lower),
    ("metrics.fct.mean_slowdown.bfc", "ratio", Lower),
    ("metrics.pause.p99_ns", "ns", Lower),
    ("runner.rep_wall_s", "s", Lower),
    ("runner.sim_us_per_wall_ms", "us/ms", Higher),
    ("runner.sim_digest32", "number", Lower),
    ("sharded.over_serial_ratio", "ratio", Lower),
    ("sharded.one_shard_ratio", "ratio", Lower),
    ("sharded.batching_off_ratio", "ratio", Higher),
    ("parallel.speedup_2t", "ratio", Higher),
    ("service.serve_ms", "ms", Lower),
    ("service.hub_overhead_frac", "ratio", Lower),
    ("service.serve_over_replay_ratio", "ratio", Lower),
    ("service.hub_render_us", "us", Lower),
    ("service.snapshot_ms", "ms", Lower),
    ("service.resume_ms", "ms", Lower),
    ("service.checkpoint_tax_ratio", "ratio", Lower),
    ("fuzz.evals_per_s", "1/s", Higher),
    ("host.steal_share", "ratio", Lower),
    ("host.calib_ms", "ms", Lower),
    ("host.nproc", "count", Higher),
    ("bench.span_overhead_frac", "ratio", Lower),
    ("bench.harness_self_share", "ratio", Lower),
];

/// What `--seconds` defaults to: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
    }

    /// The manifest this module's tables describe, as `BENCHMARK.json` holds it.
    fn manifest() -> Json {
        Json::obj([
            (
                "command",
                Json::Arr(vec![
                    Json::Str("bash".into()),
                    Json::Str("benchmark/run.sh".into()),
                ]),
            ),
            ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
            ("run_seconds", Json::Int(RUN_SECONDS)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|(name, why)| {
                            Json::obj([
                                ("name", Json::Str(name.to_string())),
                                ("why", Json::Str(why.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|(name, unit, better, bound)| {
                            Json::obj([
                                ("name", Json::Str(name.to_string())),
                                ("unit", Json::Str(unit.to_string())),
                                ("better", Json::Str(better.as_str().to_string())),
                                ("bound", Json::Num(*bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|(name, unit, better)| {
                            Json::obj([
                                ("name", Json::Str(name.to_string())),
                                ("unit", Json::Str(unit.to_string())),
                                ("better", Json::Str(better.as_str().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn every_name_round_trips_through_the_json_writer() {
        let doc = manifest();
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn benchmark_json_states_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        let (Json::Obj(found), Json::Obj(expected)) = (on_disk, manifest()) else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys =
            |members: &[(String, Json)]| members.iter().map(|m| m.0.clone()).collect::<Vec<_>>();
        assert_eq!(
            keys(&found),
            keys(&expected),
            "BENCHMARK.json has other keys than the contract's"
        );
        for ((key, found), (_, expected)) in found.iter().zip(&expected) {
            match (found.as_arr(), expected.as_arr()) {
                (Some(found), Some(expected)) => {
                    assert_eq!(
                        found.len(),
                        expected.len(),
                        "`{key}` lists another number of entries"
                    );
                    for (f, e) in found.iter().zip(expected) {
                        assert_eq!(f, e, "`{key}` disagrees with names.rs");
                    }
                }
                _ => assert_eq!(found, expected, "`{key}` disagrees with names.rs"),
            }
        }
    }
}

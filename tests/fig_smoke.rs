//! Smoke tests for the whole evaluation surface: every scheme in
//! `Scheme::paper_lineup()` (plus the ablations that only appear in specific
//! figures) and every `figNN` figure function, all at quick scale on a tiny
//! config. The `fig` binary prints these same tables (`figures::FIGURES`);
//! each test reads their cells — which rows, in which order — so the figures
//! cannot silently rot. One test per figure, so the harness runs them in
//! parallel.

use backpressure_flow_control::core::BfcConfig;
use backpressure_flow_control::experiments::figures::{
    failure_sweep, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
    fig12, fig13, fig14, Scale,
};
use backpressure_flow_control::experiments::table::{Cell, Table};
use backpressure_flow_control::experiments::{run_experiment, ExperimentConfig, Scheme};
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams};
use backpressure_flow_control::sim::SimDuration;
use backpressure_flow_control::workloads::{
    concurrent_long_flows, synthesize, TraceParams, Workload,
};

/// Every scheme the paper evaluates — the Fig. 5 lineup plus the ablations
/// used by Figs. 7/10/11 — delivers all flows of a tiny background trace and
/// of a many-to-one incast of long flows (the grid behind Figs. 8 and 10).
#[test]
fn every_scheme_completes_a_tiny_trace() {
    let topo = fat_tree(FatTreeParams::tiny());
    let hosts = topo.hosts();
    let params =
        TraceParams::background_only(Workload::Google, 0.3, SimDuration::from_micros(150), 11);
    let traces = [
        ("background", synthesize(&hosts, &params)),
        (
            "incast",
            concurrent_long_flows(&hosts, hosts[0], 4, 200_000),
        ),
    ];
    let mut schemes = Scheme::paper_lineup();
    schemes.push(Scheme::bfc_vfid());
    schemes.push(Scheme::Bfc(BfcConfig::without_resume_limit()));
    schemes.push(Scheme::Bfc(BfcConfig::without_high_priority_queue()));
    schemes.push(Scheme::SfqInfBuffer);
    for scheme in schemes {
        for (trace_name, trace) in &traces {
            let name = scheme.name();
            let mut config = ExperimentConfig::new(scheme.clone(), SimDuration::from_micros(150));
            // Rate-based schemes (HPCC, DCQCN) can converge slowly on the
            // last straggler; give everyone a generous drain window.
            config.drain = SimDuration::from_micros(150) * 16;
            let result = run_experiment(&topo, trace, &config);
            assert_eq!(result.scheme, name);
            assert_eq!(
                result.completed_flows, result.total_flows,
                "{name} on the {trace_name} trace: {}/{} flows completed",
                result.completed_flows, result.total_flows
            );
        }
    }
}

/// Asserts that `table`'s column `name` holds exactly `want`, top to bottom.
fn assert_column(table: &Table, name: &str, want: impl IntoIterator<Item = Cell>) {
    let want: Vec<Cell> = want.into_iter().collect();
    assert_eq!(
        table.column(name),
        want.iter().collect::<Vec<_>>(),
        "\n{table}"
    );
}

fn text(s: impl ToString) -> Cell {
    Cell::Text(s.to_string())
}

fn int(n: impl TryInto<u64>) -> Cell {
    Cell::Int(n.try_into().unwrap_or_else(|_| panic!("a count")))
}

/// Each of `cells` `times` times in a row: a grid's outer column.
fn each(cells: impl IntoIterator<Item = Cell>, times: usize) -> Vec<Cell> {
    let repeat = |c| std::iter::repeat(c).take(times);
    cells.into_iter().flat_map(repeat).collect()
}

/// All of `cells`, `times` times over: a grid's inner column.
fn cycled(cells: impl IntoIterator<Item = Cell>, times: usize) -> Vec<Cell> {
    let cells: Vec<Cell> = cells.into_iter().collect();
    (0..times).flat_map(|_| cells.clone()).collect()
}

/// The one table of a single-table figure, checked to be `figure`'s.
fn only(mut tables: Vec<Table>, figure: &str) -> Table {
    assert_eq!(tables.len(), 1, "{tables:?}");
    let t = tables.remove(0);
    assert!(t.title.starts_with(&format!("{figure}:")), "{t}");
    t
}

/// `Scheme::paper_lineup()`'s names, in order.
const LINEUP: [&str; 6] = [
    "BFC",
    "Ideal-FQ",
    "DCQCN",
    "DCQCN+Win",
    "HPCC",
    "DCQCN+Win+SFQ",
];

#[test]
fn fig01_hw_trends_smoke() {
    let t = only(fig01::run(), "Fig 1");
    let chips = ["Trident2", "Tomahawk", "Tomahawk2", "Tomahawk3"];
    assert_column(&t, "chip", chips.map(text));
    assert_column(&t, "year", [2012, 2014, 2016, 2018].map(int));
}

#[test]
fn fig02_buffer_vs_speed_smoke() {
    let t = only(fig02::run(&Scale::quick()), "Fig 2");
    // One row per swept link speed.
    let speeds = [10.0, 40.0, 100.0].map(|g| Cell::Fixed(g, 0));
    assert_column(&t, "speed(Gbps)", speeds);
}

#[test]
fn fig03_buffer_ratio_smoke() {
    let t = only(fig03::run(&Scale::quick()), "Fig 3");
    let ratios = [30.0, 20.0, 10.0].map(|r| Cell::Fixed(r, 0));
    assert_column(&t, "buffer(us of capacity)", ratios);
}

#[test]
fn fig04_workload_cdf_smoke() {
    let tables = fig04::run();
    assert_eq!(tables.len(), 3);
    for (t, name) in tables.iter().zip(["Google", "FB_Hadoop", "WebSearch"]) {
        assert!(t.title.contains(&format!(", {name} (mean ")), "{t}");
        // A CDF over bytes ends at 1.
        let last = t.column("byte CDF").pop().expect("a row per size");
        assert_eq!(last.to_string(), "1.000", "{t}");
    }
}

#[test]
fn fig05_all_panels_smoke() {
    let tables = fig05::run(&Scale::quick());
    assert_eq!(tables.len(), 3);
    for (t, panel) in tables.iter().zip(["Fig 5a", "Fig 5b", "Fig 5c"]) {
        assert!(t.title.starts_with(panel), "{t}");
        // The lineup, in order: one row per scheme.
        assert_column(t, "scheme \\ size", LINEUP.map(text));
    }
}

#[test]
fn fig06_buffer_pfc_smoke() {
    let t = only(fig06::run(&Scale::quick()), "Fig 6");
    assert_column(&t, "scheme", LINEUP.map(text));
}

#[test]
fn fig07_queue_assignment_smoke() {
    let tables = fig07::run(&Scale::quick());
    let schemes = ["BFC", "BFC-VFID", "SFQ+InfBuffer"].map(text);
    assert_eq!(tables.len(), 2);
    assert_column(&tables[0], "scheme \\ size", schemes.clone());
    assert_column(&tables[1], "scheme", schemes);
}

#[test]
fn fig08_incast_fanin_smoke() {
    let scale = Scale::quick();
    let t = only(fig08::run(&scale), "Fig 8");
    let fan_ins = fig08::fan_ins(&scale);
    let schemes = ["BFC", "DCQCN+Win"].map(text);
    assert_column(&t, "scheme", each(schemes, fan_ins.len()));
    assert_column(&t, "fan-in", cycled(fan_ins.into_iter().map(int), 2));
}

#[test]
fn fig09_cross_dc_smoke() {
    let t = only(fig09::run(&Scale::quick()), "Fig 9");
    // Both traffic classes are populated under both schemes.
    assert_column(&t, "scheme", each(["BFC", "DCQCN+Win"].map(text), 2));
    assert_column(&t, "class", cycled(["intra-DC", "inter-DC"].map(text), 2));
}

#[test]
fn fig10_buffer_opt_smoke() {
    let scale = Scale::quick();
    let t = only(fig10::run(&scale), "Fig 10");
    let counts = fig10::flow_counts(&scale);
    let schemes = ["BFC", "BFC-BufferOpt"].map(text);
    assert_column(&t, "scheme", each(schemes, counts.len()));
    assert_column(&t, "flows", cycled(counts.into_iter().map(int), 2));
}

#[test]
fn fig11_high_priority_smoke() {
    let tables = fig11::run(&Scale::quick());
    let schemes = ["BFC", "BFC-HighPriorityQ"].map(text);
    assert_eq!(tables.len(), 2);
    let title = "Fig 11b: tail FCT with/without the high-priority queue (80% + 5%), T1";
    assert_eq!(tables[0].title, title);
    assert_column(&tables[0], "scheme \\ size", schemes.clone());
    assert!(tables[1].title.starts_with("Fig 11a"), "{}", tables[1]);
    assert_column(&tables[1], "scheme", schemes);
}

#[test]
fn fig12_num_queues_smoke() {
    let scale = Scale::quick();
    let t = only(fig12::run(&scale), "Fig 12");
    let queues = fig12::queue_counts(&scale).into_iter().map(int);
    assert_column(&t, "queues", queues);
}

#[test]
fn fig13_num_vfids_smoke() {
    let scale = Scale::quick();
    let t = only(fig13::run(&scale), "Fig 13");
    assert_column(&t, "vfids", fig13::vfid_counts(&scale).into_iter().map(int));
}

#[test]
fn fig14_bloom_size_smoke() {
    let t = only(fig14::run(&Scale::quick()), "Fig 14");
    assert_column(&t, "bloom(B)", fig14::bloom_sizes().into_iter().map(int));
}

#[test]
fn fig15_failure_sweep_smoke() {
    let scale = Scale::quick();
    let tables = failure_sweep::run(&scale);
    assert_eq!(tables.len(), 2);
    let schemes = ["BFC", "DCQCN+Win", "HPCC"].map(text);
    // Rows run scheme-fastest within each shape / failure count.
    let shapes = failure_sweep::shapes(&scale)
        .into_iter()
        .map(|(name, _)| text(name));
    let down = failure_sweep::failure_counts()
        .into_iter()
        .map(|k| text(format!("{k} links down")));
    for (t, points) in tables
        .iter()
        .zip([shapes.collect::<Vec<_>>(), down.collect()])
    {
        assert_column(t, "scheme", cycled(schemes.clone(), points.len()));
        assert_column(t, "shape", each(points, schemes.len()));
    }
}

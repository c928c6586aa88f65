//! Adversarial scenario search: a seeded random fuzzer over (topology,
//! workload, fault schedule) that hunts for the run a congestion-control
//! scheme handles *worst*, then greedily shrinks the offender to a minimal
//! reproducer.
//!
//! The search space is a [`FuzzCase`]: one of the built-in fat-tree
//! topologies, a synthetic [`TraceParams`] workload (flow-size CDF, load,
//! optional incast) and one to three structured link faults (down/up pulse,
//! flapping cable, rate degradation) on fabric cables. Cases are drawn with
//! the `bfc-testkit` generator machinery — one deterministic
//! [`SimRng`](bfc_sim::SimRng) stream per case index via
//! [`case_seed`](bfc_testkit::case_seed) — so a (seed, budget) pair always
//! explores the same cases and `fuzz` is a pure function.
//!
//! Each case is scored by an [`Objective`]: worst tail slowdown (p99 or
//! p99.9), deepest goodput dip, slowest recovery, or any safety violation
//! from the [`bfc_metrics::safety`] detectors (PFC deadlock, livelock). The
//! argmax case is then shrunk: candidates that drop faults, disable incast,
//! shorten the trace or simplify the workload are accepted while they retain
//! at least 90% of the offending score (and, for the safety objective, remain
//! violating). The result is a [`Reproducer`] — a small self-contained text
//! file (key-value header plus `at …` scenario directives, round-tripping
//! through [`ScenarioSpec`]'s parser) that replays the exact run, serially or
//! sharded, bit-identically.

use std::fmt;

use bfc_metrics::percentile;
use bfc_net::topology::{fat_tree, FatTreeParams, Topology};
use bfc_sim::{SimDuration, SimRng};
use bfc_testkit::{case_seed, Gen};
use bfc_workloads::{synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload};

use crate::runner::{horizon_from_micros, ExperimentConfig, ExperimentResult};
use crate::scenario::ScenarioSpec;
use crate::scheme::Scheme;
use crate::sharded::run_experiment_sharded;

/// Score assigned when a run completes no measurable flows at all — worse
/// than any finite slowdown, so "the network delivered nothing" wins the
/// argmax over merely slow runs.
const NO_COMPLETIONS_SCORE: f64 = 1e9;

/// Score floor for one safety violation. Dominates every latency-derived
/// tiebreak term so a violating case always outranks a non-violating one.
const VIOLATION_SCORE: f64 = 1e6;

/// Fraction of the original offender's score a shrink candidate must retain
/// to be adopted.
const SHRINK_KEEP: f64 = 0.9;

/// What the fuzzer maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Worst 99th-percentile FCT slowdown over non-incast flows.
    TailP99,
    /// Worst 99.9th-percentile FCT slowdown over non-incast flows.
    TailP999,
    /// Deepest relative goodput dip after a fault.
    GoodputDip,
    /// Slowest goodput recovery after the last fault (a run that never
    /// recovers scores the whole measurement window).
    RecoveryTime,
    /// Any safety violation (PFC deadlock, livelock), with pause-propagation
    /// depth as the tiebreak among non-violating runs.
    Safety,
}

impl Objective {
    /// All objectives, for CLI help and exhaustive tests.
    pub fn all() -> [Objective; 5] {
        [
            Objective::TailP99,
            Objective::TailP999,
            Objective::GoodputDip,
            Objective::RecoveryTime,
            Objective::Safety,
        ]
    }

    /// The stable key used on command lines and in reproducer files.
    pub fn cli_key(&self) -> &'static str {
        match self {
            Objective::TailP99 => "p99",
            Objective::TailP999 => "p999",
            Objective::GoodputDip => "dip",
            Objective::RecoveryTime => "recovery",
            Objective::Safety => "safety",
        }
    }

    /// Parses a [`Objective::cli_key`] back into an objective.
    pub fn from_cli_key(key: &str) -> Option<Objective> {
        Objective::all().into_iter().find(|o| o.cli_key() == key)
    }

    /// Scores one run; higher is worse-for-the-network (better for the
    /// fuzzer). `window` is the full measurement window (horizon + drain),
    /// used to score runs that never recover.
    pub fn score(&self, result: &ExperimentResult, window: SimDuration) -> f64 {
        match self {
            Objective::TailP99 => result
                .fct
                .overall
                .as_ref()
                .map(|o| o.p99)
                .unwrap_or(NO_COMPLETIONS_SCORE),
            Objective::TailP999 => {
                let slowdowns: Vec<f64> = result
                    .records
                    .iter()
                    .filter(|r| !r.is_incast)
                    .map(|r| r.slowdown())
                    .collect();
                percentile(&slowdowns, 99.9).unwrap_or(NO_COMPLETIONS_SCORE)
            }
            Objective::GoodputDip => result.recovery.goodput_dip_depth,
            Objective::RecoveryTime => match result.recovery.time_to_recover {
                Some(ttr) => ttr.as_secs_f64(),
                // Faults were injected but goodput never came back: as slow
                // as a recovery can be within the window.
                None if result.recovery.faults > 0 => window.as_secs_f64(),
                None => 0.0,
            },
            Objective::Safety => {
                result.safety.violations() as f64 * VIOLATION_SCORE
                    + f64::from(result.safety.max_pause_depth)
            }
        }
    }
}

/// One structured link fault. Fields are kept in repair-friendly integer
/// units (`cable` is an index into the topology's fabric-cable list modulo
/// its length; times are microseconds) so shrinking can lower them freely
/// without ever producing an unresolvable scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Cable dies at `at_us`, repaired `dur_us` later.
    DownUp {
        /// Fabric-cable index (taken modulo the cable count).
        cable: u64,
        /// Fault instant, microseconds into the run.
        at_us: u64,
        /// Outage duration in microseconds.
        dur_us: u64,
    },
    /// Cable flaps: down at `from_us`, toggling every `period_us`, for
    /// `toggles` periods.
    Flap {
        /// Fabric-cable index (taken modulo the cable count).
        cable: u64,
        /// First down instant, microseconds into the run.
        from_us: u64,
        /// Toggle period in microseconds.
        period_us: u64,
        /// Number of toggle periods in the flap window.
        toggles: u64,
    },
    /// Cable degrades to `gbps10 / 10` Gbps at `at_us`, restored to its
    /// native rate `hold_us` later.
    Rate {
        /// Fabric-cable index (taken modulo the cable count).
        cable: u64,
        /// Degradation instant, microseconds into the run.
        at_us: u64,
        /// Degraded rate in tenths of Gbps (clamped below the native rate).
        gbps10: u64,
        /// How long the degradation holds, in microseconds.
        hold_us: u64,
    },
}

/// One point of the search space: a topology, a synthetic workload and a
/// small set of link faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Index into [`FuzzConfig::topos`] (modulo its length; shrinks toward
    /// the first, smallest entry).
    pub topo_idx: usize,
    /// Flow-size CDF of the background traffic.
    pub workload: Workload,
    /// Background offered load.
    pub load: f64,
    /// Extra incast load; `0.0` disables incast entirely.
    pub incast_load: f64,
    /// Senders per incast event.
    pub fan_in: usize,
    /// Aggregate bytes per incast event.
    pub incast_bytes: u64,
    /// Trace duration (the experiment horizon) in microseconds.
    pub duration_us: u64,
    /// Seed for both the trace synthesizer and the experiment.
    pub trace_seed: u64,
    /// The injected faults (always at least one).
    pub faults: Vec<Fault>,
}

/// One fabric cable: endpoint labels plus the native link rate (used to
/// restore after a rate-degradation fault).
#[derive(Debug, Clone, PartialEq)]
struct Cable {
    a: String,
    b: String,
    gbps: f64,
}

/// Builds the topology a fuzz case or reproducer names. The names match
/// `trace-tool`'s `--topo` values.
pub fn topology_by_name(name: &str) -> Option<Topology> {
    let params = match name {
        "tiny" => FatTreeParams::tiny(),
        "t1" => FatTreeParams::t1(),
        "t2" => FatTreeParams::t2(),
        _ => return None,
    };
    Some(fat_tree(params))
}

/// Enumerates the switch-to-switch cables of a topology, each once, in
/// deterministic (node id, peer id) order.
fn fabric_cables(topo: &Topology) -> Vec<Cable> {
    let mut cables = Vec::new();
    for node in topo.switches() {
        for port in topo.ports(node) {
            if !topo.is_host(port.peer) && node < port.peer {
                cables.push(Cable {
                    a: topo.label(node).to_string(),
                    b: topo.label(port.peer).to_string(),
                    gbps: port.link.rate_gbps,
                });
            }
        }
    }
    cables
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

impl FuzzCase {
    /// The synthetic-trace parameters this case describes. `host_gbps` comes
    /// from the topology's access links.
    fn trace_params(&self, host_gbps: f64) -> TraceParams {
        TraceParams {
            workload: self.workload,
            load: self.load,
            incast_load: self.incast_load,
            incast_fan_in: self.fan_in,
            incast_total_bytes: self.incast_bytes,
            duration: us(self.duration_us),
            host_gbps,
            seed: self.trace_seed,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        }
    }

    /// Expands the structured faults into a [`ScenarioSpec`] against the
    /// given topology's fabric cables. Every field combination yields a
    /// resolvable scenario: indices wrap, times clamp inside the run and
    /// degraded rates clamp below the native rate.
    fn scenario(&self, cables: &[Cable]) -> ScenarioSpec {
        let dur = self.duration_us.max(2);
        let clamp_at = |at: u64| at.clamp(1, dur - 1);
        let mut spec = ScenarioSpec::new();
        for fault in &self.faults {
            match *fault {
                Fault::DownUp { cable, at_us, dur_us } => {
                    let c = &cables[(cable as usize) % cables.len()];
                    let at = clamp_at(at_us);
                    spec = spec
                        .down(us(at), c.a.clone(), c.b.clone())
                        .up(us(at + dur_us.max(1)), c.a.clone(), c.b.clone());
                }
                Fault::Flap { cable, from_us, period_us, toggles } => {
                    let c = &cables[(cable as usize) % cables.len()];
                    let from = clamp_at(from_us);
                    let period = period_us.max(1);
                    let until = from + period * toggles.clamp(2, 16);
                    spec = spec.flap(c.a.clone(), c.b.clone(), us(from), us(period), us(until));
                }
                Fault::Rate { cable, at_us, gbps10, hold_us } => {
                    let c = &cables[(cable as usize) % cables.len()];
                    let at = clamp_at(at_us);
                    let degraded = (gbps10.max(1) as f64 / 10.0).min(c.gbps / 2.0);
                    spec = spec
                        .rate(us(at), c.a.clone(), c.b.clone(), degraded)
                        .rate(us(at + hold_us.max(1)), c.a.clone(), c.b.clone(), c.gbps);
                }
            }
        }
        spec
    }
}

/// The deterministic [`FuzzCase`] generator (a `bfc-testkit` [`Gen`]):
/// `generate` draws a case from one RNG stream, `shrink` proposes strictly
/// simpler variants — fewer faults, no incast, pulses instead of flaps,
/// shorter runs, lighter load, the smallest topology — best first.
pub struct CaseGen {
    num_topos: usize,
}

impl CaseGen {
    /// A generator over `num_topos` topology choices (index 0 should be the
    /// smallest — shrinking moves toward it).
    pub fn new(num_topos: usize) -> CaseGen {
        assert!(num_topos > 0, "CaseGen requires at least one topology");
        CaseGen { num_topos }
    }

    fn gen_fault(&self, rng: &mut SimRng, dur: u64) -> Fault {
        let cable = rng.next_below(1 << 16);
        match rng.next_index(3) {
            0 => Fault::DownUp {
                cable,
                at_us: 5 + rng.next_below(dur * 3 / 4),
                dur_us: 5 + rng.next_below(75),
            },
            1 => Fault::Flap {
                cable,
                from_us: 5 + rng.next_below(dur / 2),
                period_us: 5 + rng.next_below(25),
                toggles: 2 + rng.next_below(4),
            },
            _ => Fault::Rate {
                cable,
                at_us: 5 + rng.next_below(dur * 3 / 4),
                gbps10: 5 + rng.next_below(245),
                hold_us: 10 + rng.next_below(90),
            },
        }
    }
}

impl Gen for CaseGen {
    type Value = FuzzCase;

    fn generate(&self, rng: &mut SimRng) -> FuzzCase {
        let duration_us = 60 + rng.next_below(181);
        let incast = rng.next_f64() < 0.5;
        let faults = (0..1 + rng.next_index(3))
            .map(|_| self.gen_fault(rng, duration_us))
            .collect();
        FuzzCase {
            topo_idx: rng.next_index(self.num_topos),
            workload: *rng.choose(&[Workload::Google, Workload::FbHadoop, Workload::WebSearch]),
            load: 0.2 + rng.next_f64() * 0.7,
            incast_load: if incast { 0.05 + rng.next_f64() * 0.45 } else { 0.0 },
            fan_in: 2 + rng.next_below(15) as usize,
            incast_bytes: 20_000 + rng.next_below(480_000),
            duration_us,
            trace_seed: 1 + rng.next_below(1_000_000),
            faults,
        }
    }

    fn shrink(&self, case: &FuzzCase) -> Vec<FuzzCase> {
        let mut out = Vec::new();
        // Fewer faults first: the dominant simplification.
        if case.faults.len() > 1 {
            for drop in 0..case.faults.len() {
                let mut c = case.clone();
                c.faults.remove(drop);
                out.push(c);
            }
        }
        // A flap is a pulse train; try the single pulse.
        for (i, fault) in case.faults.iter().enumerate() {
            if let Fault::Flap { cable, from_us, period_us, .. } = *fault {
                let mut c = case.clone();
                c.faults[i] = Fault::DownUp {
                    cable,
                    at_us: from_us,
                    dur_us: period_us,
                };
                out.push(c);
            }
        }
        if case.incast_load > 0.0 {
            let mut c = case.clone();
            c.incast_load = 0.0;
            out.push(c);
        }
        if case.duration_us > 60 {
            for target in [60, (60 + case.duration_us) / 2] {
                if target < case.duration_us {
                    let mut c = case.clone();
                    c.duration_us = target;
                    out.push(c);
                }
            }
        }
        if case.load - 0.2 > 0.05 {
            for target in [0.2, (0.2 + case.load) / 2.0] {
                let mut c = case.clone();
                c.load = target;
                out.push(c);
            }
        }
        if case.topo_idx > 0 {
            let mut c = case.clone();
            c.topo_idx = 0;
            out.push(c);
        }
        if case.incast_load > 0.0 && case.fan_in > 2 {
            let mut c = case.clone();
            c.fan_in = 2;
            out.push(c);
        }
        out.dedup();
        out
    }
}

/// Fuzzer settings: the seed and evaluation budgets, what to maximize, the
/// scheme under test, and which topologies the search may draw.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; (seed, budget, objective, scheme, topos) fully determines
    /// the outcome.
    pub seed: u64,
    /// Number of random cases to evaluate in the search phase.
    pub budget: usize,
    /// Maximum extra evaluations the shrink phase may spend.
    pub shrink_evals: usize,
    /// What to maximize.
    pub objective: Objective,
    /// Scheme under test. The reproducer writes its [`Scheme::cli_key`], so
    /// [`fuzz`] refuses a BFC ablation that key does not name (all but `bfc-vfid`).
    pub scheme: Scheme,
    /// Topology names the search draws from, smallest first (shrinking moves
    /// toward index 0).
    pub topos: Vec<String>,
    /// Engine shards every evaluation runs on (same results at any count).
    pub shards: usize,
}

impl FuzzConfig {
    /// Defaults: seed 1, budget 24, shrink budget 24, p99 objective, BFC on
    /// the tiny fat-tree, one shard.
    pub fn new() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            budget: 24,
            shrink_evals: 24,
            objective: Objective::TailP99,
            scheme: Scheme::bfc(),
            topos: vec!["tiny".to_string()],
            shards: 1,
        }
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig::new()
    }
}

/// What `fuzz` found: the shrunk worst case, its reproducer form, and the
/// search accounting.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The shrunk offender.
    pub case: FuzzCase,
    /// Its reproducer form (what gets written to disk).
    pub reproducer: Reproducer,
    /// The shrunk offender's score under the configured objective.
    pub score: f64,
    /// The pre-shrink argmax score.
    pub original_score: f64,
    /// Total experiment evaluations spent (search + shrink).
    pub evals: usize,
    /// How many shrink candidates were adopted.
    pub shrink_steps: usize,
}

/// Evaluates one case under the config's scheme and objective, on the
/// config's shard count.
pub fn evaluate(cfg: &FuzzConfig, case: &FuzzCase) -> Result<(f64, ExperimentResult), String> {
    let repro = Reproducer::from_case(cfg, case)?;
    let result = repro.replay(cfg.shards)?;
    let window = us(repro.duration_us) * 5;
    Ok((cfg.objective.score(&result, window), result))
}

/// Runs the seeded random search and greedy shrink. Deterministic: the same
/// config always returns the same outcome, byte-for-byte.
pub fn fuzz(cfg: &FuzzConfig) -> Result<FuzzOutcome, String> {
    if cfg.budget == 0 {
        return Err("fuzz: budget must be at least 1".to_string());
    }
    if cfg.topos.is_empty() {
        return Err("fuzz: at least one topology is required".to_string());
    }
    for name in &cfg.topos {
        if topology_by_name(name).is_none() {
            return Err(format!("fuzz: unknown topology `{name}`"));
        }
    }

    let gen = CaseGen::new(cfg.topos.len());
    let mut evals = 0usize;
    let mut best: Option<(f64, FuzzCase)> = None;
    for i in 0..cfg.budget {
        let mut rng = SimRng::new(case_seed(cfg.seed, i as u32));
        let case = gen.generate(&mut rng);
        let (score, _) = evaluate(cfg, &case)?;
        evals += 1;
        // Strict `>`: ties keep the earliest case, so the outcome does not
        // depend on enumeration quirks.
        if best.as_ref().map_or(true, |(b, _)| score > *b) {
            best = Some((score, case));
        }
    }
    let (original_score, mut cur) = best.expect("budget >= 1 evaluated at least one case");

    // Greedy shrink: adopt any simpler candidate retaining SHRINK_KEEP of
    // the offending score; for the safety objective the candidate must also
    // still violate, otherwise "smaller but harmless" would be accepted.
    let mut bar = original_score * SHRINK_KEEP;
    if cfg.objective == Objective::Safety && original_score >= VIOLATION_SCORE {
        bar = bar.max(VIOLATION_SCORE);
    }
    let mut score = original_score;
    let mut remaining = cfg.shrink_evals;
    let mut shrink_steps = 0usize;
    'restart: loop {
        for cand in gen.shrink(&cur) {
            if remaining == 0 {
                break 'restart;
            }
            remaining -= 1;
            let (s, _) = evaluate(cfg, &cand)?;
            evals += 1;
            if s >= bar {
                cur = cand;
                score = s;
                shrink_steps += 1;
                continue 'restart;
            }
        }
        break;
    }

    let reproducer = Reproducer::from_case(cfg, &cur)?;
    Ok(FuzzOutcome {
        case: cur,
        reproducer,
        score,
        original_score,
        evals,
        shrink_steps,
    })
}

/// The CLI key of a workload, as written in reproducer files.
pub fn workload_cli_key(w: Workload) -> &'static str {
    match w {
        Workload::Google => "google",
        Workload::FbHadoop => "fb-hadoop",
        Workload::WebSearch => "websearch",
    }
}

/// Parses a [`workload_cli_key`] (or one of its older spellings) back into a
/// workload.
pub fn workload_from_cli_key(key: &str) -> Option<Workload> {
    match key {
        "google" => Some(Workload::Google),
        "fb-hadoop" | "fb_hadoop" | "hadoop" => Some(Workload::FbHadoop),
        "websearch" | "web-search" => Some(Workload::WebSearch),
        _ => None,
    }
}

/// A fully resolved, self-contained worst-case reproducer: everything needed
/// to replay the run, in a small text format (`key value` header lines plus
/// the scenario's own `at …` directives) that round-trips through
/// [`Reproducer::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Topology name (`tiny` / `t1` / `t2`).
    pub topo: String,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Objective the case was found under (informational for replays).
    pub objective: Objective,
    /// Background flow-size CDF.
    pub workload: Workload,
    /// Background offered load.
    pub load: f64,
    /// Extra incast load (`0` = no incast).
    pub incast_load: f64,
    /// Senders per incast event.
    pub fan_in: usize,
    /// Aggregate bytes per incast event.
    pub incast_bytes: u64,
    /// Trace duration / experiment horizon in microseconds.
    pub duration_us: u64,
    /// Seed for the trace synthesizer and the experiment.
    pub trace_seed: u64,
    /// The resolved fault scenario.
    pub scenario: ScenarioSpec,
}

impl Reproducer {
    /// Resolves a fuzz case against its topology into reproducer form;
    /// refuses a scheme its [`Scheme::cli_key`] does not name.
    pub fn from_case(cfg: &FuzzConfig, case: &FuzzCase) -> Result<Reproducer, String> {
        if Scheme::from_cli_key(cfg.scheme.cli_key()).as_ref() != Some(&cfg.scheme) {
            return Err(format!("fuzz: no reproducer key names scheme {:?}", cfg.scheme));
        }
        let topo_name = &cfg.topos[case.topo_idx % cfg.topos.len()];
        let topo = topology_by_name(topo_name)
            .ok_or_else(|| format!("fuzz: unknown topology `{topo_name}`"))?;
        let cables = fabric_cables(&topo);
        if cables.is_empty() {
            return Err(format!("fuzz: topology `{topo_name}` has no fabric cables"));
        }
        Ok(Reproducer {
            topo: topo_name.clone(),
            scheme: cfg.scheme.clone(),
            objective: cfg.objective,
            workload: case.workload,
            load: case.load,
            incast_load: case.incast_load,
            fan_in: case.fan_in,
            incast_bytes: case.incast_bytes,
            duration_us: case.duration_us,
            trace_seed: case.trace_seed,
            scenario: case.scenario(&cables),
        })
    }

    /// Parses the text form written by [`Display`](fmt::Display). Header
    /// keys may appear in any order; every line whose first word is not a
    /// known key is handed to the scenario parser.
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let mut repro = Reproducer {
            topo: "tiny".to_string(),
            scheme: Scheme::bfc(),
            objective: Objective::TailP99,
            workload: Workload::Google,
            load: 0.6,
            incast_load: 0.0,
            fan_in: 2,
            incast_bytes: 20_000,
            duration_us: 300,
            trace_seed: 1,
            scenario: ScenarioSpec::new(),
        };
        let mut scenario_text = String::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if content.is_empty() {
                continue;
            }
            let (key, value) = content.split_once(char::is_whitespace).unwrap_or((content, ""));
            let value = value.trim();
            let bad = |what: &str| format!("line {line}: bad {what} `{value}`");
            match key {
                "topo" => {
                    topology_by_name(value).ok_or_else(|| bad("topology"))?;
                    repro.topo = value.to_string();
                }
                "scheme" => {
                    repro.scheme = Scheme::from_cli_key(value).ok_or_else(|| bad("scheme"))?;
                }
                "objective" => {
                    repro.objective =
                        Objective::from_cli_key(value).ok_or_else(|| bad("objective"))?;
                }
                "workload" => {
                    repro.workload =
                        workload_from_cli_key(value).ok_or_else(|| bad("workload"))?;
                }
                "load" => repro.load = value.parse().map_err(|_| bad("load"))?,
                "incast-load" => {
                    repro.incast_load = value.parse().map_err(|_| bad("incast-load"))?;
                }
                "fan-in" => repro.fan_in = value.parse().map_err(|_| bad("fan-in"))?,
                "incast-bytes" => {
                    repro.incast_bytes = value.parse().map_err(|_| bad("incast-bytes"))?;
                }
                "duration-us" => {
                    repro.duration_us = value.parse().map_err(|_| bad("duration-us"))?;
                    horizon_from_micros(repro.duration_us)
                        .map_err(|e| format!("line {line}: duration-us {e}"))?;
                }
                "trace-seed" => {
                    repro.trace_seed = value.parse().map_err(|_| bad("trace-seed"))?;
                }
                // Not a header key: a scenario directive (`at …` / `flap …`).
                _ => {
                    scenario_text.push_str(content);
                    scenario_text.push('\n');
                }
            }
        }
        // The trace's inputs are checked once every header is in, as a
        // whole, against the topology's hosts and access-link rate:
        // `synthesize` asserts on some and could not finish with others.
        let topo = topology_by_name(&repro.topo).expect("the topo header was checked");
        let hosts = topo.hosts();
        repro
            .trace_params(topo.host_uplink(hosts[0]).link.rate_gbps)
            .check(hosts.len())?;
        repro.scenario = ScenarioSpec::parse(&scenario_text).map_err(|e| e.to_string())?;
        Ok(repro)
    }

    /// The trace this reproducer synthesizes and the topology it runs over.
    /// Public so CLI front ends (e.g. `trace-tool scenario` on a committed
    /// reproducer) can run the exact case through their own drivers.
    pub fn materialize(&self) -> Result<(Topology, Vec<bfc_workloads::TraceFlow>, ExperimentConfig), String> {
        let topo = topology_by_name(&self.topo)
            .ok_or_else(|| format!("reproducer: unknown topology `{}`", self.topo))?;
        let hosts = topo.hosts();
        let params = self.trace_params(topo.host_uplink(hosts[0]).link.rate_gbps);
        let trace = synthesize(&hosts, &params);
        let schedule = self.scenario.resolve(&topo).map_err(|e| e.to_string())?;
        let config = ExperimentConfig::new(self.scheme.clone(), us(self.duration_us))
            .with_seed(self.trace_seed)
            .with_dynamics(schedule);
        Ok((topo, trace, config))
    }

    /// The synthetic-trace parameters this reproducer describes, on access
    /// links of `host_gbps`.
    fn trace_params(&self, host_gbps: f64) -> TraceParams {
        FuzzCase {
            topo_idx: 0,
            workload: self.workload,
            load: self.load,
            incast_load: self.incast_load,
            fan_in: self.fan_in,
            incast_bytes: self.incast_bytes,
            duration_us: self.duration_us,
            trace_seed: self.trace_seed,
            faults: Vec::new(),
        }
        .trace_params(host_gbps)
    }

    /// Replays the reproducer on `num_shards` engine shards. Results are
    /// bit-identical across shard counts.
    pub fn replay(&self, num_shards: usize) -> Result<ExperimentResult, String> {
        let (topo, trace, config) = self.materialize()?;
        Ok(run_experiment_sharded(&topo, &trace, &config, num_shards))
    }
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "objective {}", self.objective.cli_key())?;
        writeln!(f, "topo {}", self.topo)?;
        writeln!(f, "scheme {}", self.scheme.cli_key())?;
        writeln!(f, "workload {}", workload_cli_key(self.workload))?;
        writeln!(f, "load {}", self.load)?;
        writeln!(f, "incast-load {}", self.incast_load)?;
        writeln!(f, "fan-in {}", self.fan_in)?;
        writeln!(f, "incast-bytes {}", self.incast_bytes)?;
        writeln!(f, "duration-us {}", self.duration_us)?;
        writeln!(f, "trace-seed {}", self.trace_seed)?;
        write!(f, "{}", self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_core::BfcConfig;
    use bfc_testkit::{int_range, property};

    #[test]
    fn objective_cli_keys_round_trip() {
        for o in Objective::all() {
            assert_eq!(Objective::from_cli_key(o.cli_key()), Some(o));
        }
        assert_eq!(Objective::from_cli_key("p42"), None);
    }

    #[test]
    fn tiny_fat_tree_has_fabric_cables() {
        let topo = topology_by_name("tiny").expect("tiny always builds");
        let cables = fabric_cables(&topo);
        assert!(!cables.is_empty());
        for c in &cables {
            assert!(!c.a.starts_with("host") && !c.b.starts_with("host"));
            assert!(c.gbps > 0.0);
        }
    }

    property! {
        /// Every generated case expands into a scenario that resolves
        /// against its topology — the fuzzer can never draw an unrunnable
        /// point.
        fn generated_cases_always_resolve(seed in int_range(0u64..1_000)) {
            let topo = topology_by_name("tiny").expect("tiny always builds");
            let cables = fabric_cables(&topo);
            let gen = CaseGen::new(1);
            let mut rng = SimRng::new(seed);
            let case = gen.generate(&mut rng);
            assert!(!case.faults.is_empty());
            let spec = case.scenario(&cables);
            assert!(!spec.is_empty());
            spec.resolve(&topo).expect("repaired scenario must resolve");
        }

        /// Shrink candidates stay resolvable and are never identical to the
        /// input case.
        fn shrink_candidates_stay_valid(seed in int_range(0u64..500)) {
            let topo = topology_by_name("tiny").expect("tiny always builds");
            let cables = fabric_cables(&topo);
            let gen = CaseGen::new(1);
            let mut rng = SimRng::new(seed);
            let case = gen.generate(&mut rng);
            for cand in gen.shrink(&case) {
                assert_ne!(cand, case);
                cand.scenario(&cables).resolve(&topo).expect("shrunk scenario must resolve");
            }
        }
    }

    #[test]
    fn reproducer_text_round_trips() {
        let cfg = FuzzConfig::new();
        let gen = CaseGen::new(cfg.topos.len());
        let mut rng = SimRng::new(7);
        let case = gen.generate(&mut rng);
        let repro = Reproducer::from_case(&cfg, &case).expect("tiny case resolves");
        let text = repro.to_string();
        let parsed = Reproducer::parse(&text).expect("display output must parse");
        assert_eq!(parsed, repro);
        // Comments and blank lines are tolerated, like scenario files.
        let commented = format!("# found by fuzz\n\n{text}# trailing note\n");
        assert_eq!(Reproducer::parse(&commented).expect("comments ignored"), repro);
    }

    #[test]
    fn fuzz_refuses_a_scheme_its_reproducer_cannot_name() {
        let ablations = [
            BfcConfig::without_resume_limit(),
            BfcConfig::without_high_priority_queue(),
            BfcConfig::default().with_num_vfids(64),
        ];
        for scheme in ablations.map(Scheme::Bfc) {
            let cfg = FuzzConfig {
                scheme: scheme.clone(),
                ..FuzzConfig::new()
            };
            let err = fuzz(&cfg).expect_err("refused before the first run");
            assert!(err.contains(&format!("{scheme:?}")), "{err}");
        }
    }

    #[test]
    fn every_keyed_scheme_survives_the_reproducer_text() {
        let case = CaseGen::new(1).generate(&mut SimRng::new(7));
        let keyed = Scheme::paper_lineup()
            .into_iter()
            .chain([Scheme::bfc_vfid(), Scheme::SfqInfBuffer]);
        for scheme in keyed {
            assert_eq!(Scheme::from_cli_key(scheme.cli_key()).as_ref(), Some(&scheme));
            let cfg = FuzzConfig {
                scheme: scheme.clone(),
                ..FuzzConfig::new()
            };
            let repro = Reproducer::from_case(&cfg, &case).expect("a keyed scheme");
            let parsed = Reproducer::parse(&repro.to_string()).expect("display output parses");
            assert_eq!(parsed.scheme, scheme);
            assert_eq!(parsed, repro);
        }
    }

    #[test]
    fn reproducer_rejects_bad_headers() {
        assert!(Reproducer::parse("scheme warp-speed\n").is_err());
        assert!(Reproducer::parse("objective p42\n").is_err());
        assert!(Reproducer::parse("load not-a-number\n").is_err());
        assert!(Reproducer::parse("at nonsense down tor0 spine0\n").is_err());
        // Trace inputs `synthesize` would panic on, not finish with, abort
        // the process allocating for, or silently run as something else.
        for header in [
            "load 2\n",
            "incast-load 1\nincast-bytes 1\n",
            "incast-load 0.5\nfan-in 100000000000\n",
            "load nan\n",
            "incast-load 0.5\nfan-in 0\n",
        ] {
            assert!(
                Reproducer::parse(header).is_err(),
                "{header:?} must be refused"
            );
        }
    }
}

//! The fabric model one run executes, and what a run is configured by and
//! measured into.
//!
//! [`ExperimentConfig`] and [`ExperimentResult`] are a run's input and output.
//! [`FabricSim`] holds the switches and hosts a worker owns and handles one
//! event at a time; [`assemble_result`] merges the finished sims of a run
//! into its result. Advancing a run — popping events, cutting at a time or
//! an event, exchanging boundary traffic — is [`crate::engine`]'s job:
//! [`run_experiment`] is that engine built with one worker, advanced to the
//! deadline and finished ([`crate::sharded::run_experiment_sharded`] at one
//! shard).

use bfc_metrics::fct::{FctRecord, FctSummary};
use bfc_metrics::recovery::{recovery_metrics, RecoveryMetrics};
use bfc_metrics::registry::{labeled, MetricsRegistry};
use bfc_metrics::safety::{SafetyReport, SafetyTracker};
use bfc_metrics::series::{pfc_pause_fraction, utilization, GoodputSeries, OccupancySeries};
use bfc_metrics::Hist;
use bfc_net::config::SwitchConfig;
use bfc_net::dynamics::{FaultEvent, FaultSchedule, LinkAction, LinkStateMap};
use bfc_net::event::{NetEvent, NetSink};
use bfc_net::packet::{vfid_for_flow, PacketKind, MAX_INT_HOPS, MTU};
use bfc_net::policy::{PolicyStats, ProbeStats};
use bfc_net::routing::RoutingTables;
use bfc_net::switch::{Switch, SwitchCounters};
use bfc_net::topology::Topology;
use bfc_net::trace::{FlightTrace, TraceEvent, TraceFilter};
use bfc_net::types::{FlowId, NodeId};
use bfc_sim::shard::{EpochStats, ShardWall};
use bfc_sim::{EventQueue, SimDuration, SimTime};
use bfc_transport::{FlowSpec, Host, HostConfig};
use bfc_workloads::TraceFlow;

use std::sync::Arc;

use crate::scheme::Scheme;

/// The longest horizon accepted from outside the program (a `--duration-us`
/// / `--horizon-us` flag, a trace file's last arrival, a reproducer's
/// `duration-us`): 10 s of simulated time, 2 500 × the full-scale figures'
/// 4 ms. A run schedules one sample event per `sample_interval` of horizon up
/// front and a synthesizer generates arrivals for the whole duration, so an
/// unbounded horizon is an unbounded allocation.
pub const MAX_HORIZON: SimDuration = SimDuration::from_micros(10_000_000);

/// `us` microseconds as a horizon, or the error line (for the caller to
/// prefix with where the value came from) if that is longer than
/// [`MAX_HORIZON`].
pub fn horizon_from_micros(us: u64) -> Result<SimDuration, String> {
    if us <= MAX_HORIZON.as_picos() / 1_000_000 {
        Ok(SimDuration::from_micros(us))
    } else {
        Err(format!("{us} us exceeds the limit of {MAX_HORIZON} of simulated time"))
    }
}

/// Experiment parameters independent of the workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Seed controlling every random choice (ECN marking, queue picks).
    pub seed: u64,
    /// Physical queues per egress port (ignored by Ideal-FQ, which uses
    /// 1000).
    pub queues_per_port: usize,
    /// Shared buffer per switch in bytes.
    pub buffer_bytes: u64,
    /// Measurement window: the span covered by the trace.
    pub horizon: SimDuration,
    /// Extra time after the last arrival to let flows finish.
    pub drain: SimDuration,
    /// Buffer-occupancy sampling interval.
    pub sample_interval: SimDuration,
    /// Scheduled link faults / repairs / rate changes. Empty (the default)
    /// is bit-identical to a run of this build with no dynamics at all — the
    /// link-state checks short-circuit and nothing else changes.
    pub dynamics: FaultSchedule,
    /// Whether the sharded engine's conservative driver runs window after
    /// window on one barrier crossing each, electing only at the start of a
    /// run (see [`bfc_sim::shard`]); off, it re-elects before every window,
    /// the reference schedule at two crossings per window. On or off,
    /// results are bit-identical.
    pub epoch_batching: bool,
    /// Flight-recorder capacity: `Some(n)` records the last `n` trace
    /// events (per shard, under sharding); `None` (the default) disables
    /// tracing entirely. Observability-only — on or off, results are
    /// bit-identical, and the setting is deliberately excluded from the
    /// snapshot fingerprint so resume works across a tracing toggle.
    pub trace_capacity: Option<usize>,
    /// Record-time trace filter: only events the filter admits enter the
    /// flight-recorder ring (filtered events are not ring drops — they were
    /// never candidates). [`TraceFilter::all`] (the default) records
    /// everything. Meaningless without [`ExperimentConfig::trace_capacity`].
    /// Observability-only and excluded from the snapshot fingerprint, like
    /// the capacity itself.
    pub trace_filter: TraceFilter,
}

impl ExperimentConfig {
    /// Paper defaults for a given scheme and trace length.
    pub fn new(scheme: Scheme, horizon: SimDuration) -> Self {
        ExperimentConfig {
            scheme,
            seed: 1,
            queues_per_port: 32,
            buffer_bytes: 12_000_000,
            horizon,
            drain: horizon * 4,
            sample_interval: SimDuration::from_micros(10),
            dynamics: FaultSchedule::default(),
            epoch_batching: true,
            trace_capacity: None,
            trace_filter: TraceFilter::all(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the switch buffer size.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Overrides the number of physical queues per port.
    pub fn with_queues_per_port(mut self, queues: usize) -> Self {
        self.queues_per_port = queues;
        self
    }

    /// Installs a fault schedule (link down/up, degradation, flapping).
    pub fn with_dynamics(mut self, dynamics: FaultSchedule) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Enables or disables epoch batching in the sharded engine.
    pub fn with_epoch_batching(mut self, on: bool) -> Self {
        self.epoch_batching = on;
        self
    }

    /// Enables the flight recorder with the given ring capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Installs a record-time trace filter (see [`TraceFilter`]).
    pub fn with_trace_filter(mut self, filter: TraceFilter) -> Self {
        self.trace_filter = filter;
        self
    }
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Scheme name (paper legend).
    pub scheme: String,
    /// Per-size-bucket FCT slowdown summary (non-incast flows).
    pub fct: FctSummary,
    /// Raw per-flow records (including incast flows).
    pub records: Vec<FctRecord>,
    /// Switch buffer occupancy samples (one per switch per sample tick).
    pub occupancy: OccupancySeries,
    /// Largest single physical-queue occupancy seen at each sample tick
    /// (bytes) — the quantity of Fig. 10.
    pub peak_queue_samples: Vec<f64>,
    /// Highest number of occupied physical queues on any port, per sample
    /// tick — the quantity of Fig. 11a.
    pub occupied_queue_samples: Vec<f64>,
    /// Network utilization (goodput / aggregate host capacity).
    pub utilization: f64,
    /// Average fraction of time switch egresses spent PFC-paused.
    pub pfc_pause_fraction: f64,
    /// Aggregated queue-policy statistics across all switches.
    pub policy_stats: PolicyStats,
    /// Packets dropped at switch buffers.
    pub drops: u64,
    /// Flows that completed before the drain deadline.
    pub completed_flows: usize,
    /// Flows in the trace.
    pub total_flows: usize,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
    /// Fault-recovery metrics (all zero / `None` for a run without dynamics).
    pub recovery: RecoveryMetrics,
    /// Safety analysis: PFC deadlocks, pause-storm metrics, livelock.
    pub safety: SafetyReport,
    /// Epoch-driver counters: batches, windows, barriers and boundary
    /// events. A one-worker run reports its single batch of one
    /// whole-run window and no boundary events. Observability only — never
    /// part of any bit-identity comparison, since a resumed run only counts
    /// its post-snapshot epochs.
    pub epochs: EpochStats,
    /// Where each worker thread of a multi-worker run spent its wall-clock:
    /// busy between barrier crossings, waiting inside them, and how many
    /// waits ended asleep (out of `epochs.barriers` crossings per worker).
    /// Empty for a one-worker run. Timings, so observability only — never
    /// compared, never in the registry — and, like `epochs`, a resumed run
    /// only holds its post-snapshot share.
    pub shard_walls: Vec<ShardWall>,
    /// Events popped over the run's lifetime, summed over the engine's
    /// workers (a resumed run includes its pre-snapshot events). The cost
    /// model of the engine in one number: divide by the registry's
    /// `bfc_switch_rx_packets` total for events per switch hop. Observability
    /// only, and not in the registry: a sharded run pops each flow arrival,
    /// sample tick and fault once per shard that takes part in it, so the
    /// count depends on the shard count where the registry must not.
    pub events_popped: u64,
    /// The unified counter/gauge registry: per-switch, per-port, per-scheme
    /// and engine-internal series, merged deterministically across shards.
    /// Observability only — never part of any bit-identity comparison.
    pub registry: MetricsRegistry,
    /// Flight-recorder trace in canonical `(time, rank)` order, or `None`
    /// when tracing was off. Observability only — never part of any
    /// bit-identity comparison.
    pub flight: Option<FlightTrace>,
}

impl ExperimentResult {
    /// Folds engine-level counters into the registry once they are known:
    /// the event queues' calendar-overflow count and the epoch-driver stats.
    pub(crate) fn record_engine_counters(&mut self, queue_overflow_pushes: u64) {
        self.registry
            .add_counter("bfc_engine_queue_overflow_pushes", queue_overflow_pushes);
        self.registry
            .add_counter("bfc_engine_epoch_batches", self.epochs.batches);
        self.registry
            .add_counter("bfc_engine_epoch_windows", self.epochs.windows);
        self.registry
            .add_counter("bfc_engine_epoch_barriers", self.epochs.barriers);
        self.registry
            .add_counter("bfc_engine_epoch_boundary_events", self.epochs.boundary_events);
    }
}

pub(crate) struct FlowMeta {
    pub(crate) spec: FlowSpec,
    pub(crate) start: SimTime,
    pub(crate) ideal_fct: SimDuration,
    pub(crate) is_incast: bool,
}

/// Node dispatch table: every `NodeId` is dense, so switches and hosts live
/// in vectors indexed by node id — per-event dispatch is a bounds-checked
/// array access instead of a hash lookup, and iteration order for metrics is
/// the (deterministic) node order.
///
/// The engine builds one `FabricSim` per worker, with `None` in every slot
/// the worker does not own (a one-worker engine's sim holds every node). All
/// handler code is locality-agnostic — it simply skips `None` slots — so
/// per-event logic is identical at any worker count.
pub(crate) struct FabricSim<'a> {
    pub(crate) topo: &'a Topology,
    /// Shared with the [`Frame`] (and every other shard) until a link fault:
    /// each sim then *replaces* its handle with tables recomputed from its
    /// own link-state replica, so no sim ever observes another's reroute.
    pub(crate) routes: Arc<RoutingTables>,
    pub(crate) link_state: LinkStateMap,
    pub(crate) dynamics: &'a [FaultEvent],
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    /// Immutable per-flow metadata, computed once per run and shared by
    /// every shard (`Arc`: N shards must not multiply the O(trace)
    /// ideal-FCT route walks or the table's memory).
    pub(crate) flows: Arc<Vec<FlowMeta>>,
    /// Per-flow completion instants observed by *this* sim — a flow
    /// completes in the one sim owning its destination host.
    pub(crate) flow_completed: Vec<Option<SimTime>>,
    pub(crate) occupancy: OccupancySeries,
    pub(crate) peak_queue_samples: Vec<f64>,
    pub(crate) occupied_queue_samples: Vec<f64>,
    pub(crate) sample_until: SimTime,
    /// Flows completed in this sim: the number of `Some`s in
    /// `flow_completed`, kept because the serve loop reads it per event.
    pub(crate) completed: usize,
    /// Bytes delivered to this sim's hosts by each sample tick, for the
    /// recovery metrics and the livelock detector.
    pub(crate) goodput: GoodputSeries,
    /// Data packets this sim lost in flight on a severed cable (a switch
    /// counts its own dead-egress flushes and unroutable arrivals).
    pub(crate) blackholed: u64,
    /// Safety observations (PFC wait-for edges). Each sim records pause
    /// edges only for nodes it owns, so the per-edge log order is the
    /// engine's deterministic processing order and shard merges reproduce
    /// the serial log exactly.
    pub(crate) safety: SafetyTracker,
    /// Whether this sim traces the link events (`LinkDown` / `LinkUp` /
    /// `LinkRate`, `Reroute`). Every shard applies dynamics to its own
    /// link-state/routing replica, but only one may record them, or the
    /// merged trace would hold one copy per shard. True for shard 0.
    pub(crate) record_dynamics_metrics: bool,
}

impl FabricSim<'_> {
    /// The latest instant at or before `upto` at which an egress of this sim
    /// finished serializing, `SimTime::ZERO` if none has. An egress only
    /// schedules that instant as a `TxComplete` when there is something to
    /// dequeue at it, so the time of the last event popped can fall short
    /// of it; wherever "the last thing that happened up to `upto`" is read
    /// out, this is the other half. Only each egress's latest serialization
    /// counts, which is enough: an earlier one ended no later than the event
    /// that started the latest.
    pub(crate) fn last_serialization_end(&self, upto: SimTime) -> SimTime {
        let switch_ports = self
            .switches
            .iter()
            .flatten()
            .flat_map(|sw| (0..sw.num_ports()).map(move |p| sw.port(p as u32).tx()));
        let uplinks = self.hosts.iter().flatten().map(|h| h.tx());
        switch_ports
            .chain(uplinks)
            .map(|tx| tx.busy_until())
            .filter(|&end| end <= upto)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn take_samples(&mut self, now: SimTime) {
        if now <= self.sample_until {
            let mut max_queue = 0u64;
            let mut max_occupied = 0usize;
            for sw in self.switches.iter().flatten() {
                self.occupancy.record(sw.buffer().occupancy());
                for p in 0..sw.num_ports() {
                    let port = sw.port(p as u32);
                    max_occupied = max_occupied.max(port.occupied_queue_count());
                    for q in 0..port.num_queues() {
                        max_queue = max_queue.max(port.queue_bytes(q));
                    }
                }
            }
            self.peak_queue_samples.push(max_queue as f64);
            self.occupied_queue_samples.push(max_occupied as f64);
        }
        let delivered: u64 = self
            .hosts
            .iter()
            .flatten()
            .map(|h| h.counters().rx_data_bytes)
            .sum();
        self.goodput.record(now, delivered);
    }

    /// Applies one fault-schedule event: mutates the live link state, updates
    /// the affected switch/host ports (flushing dead egresses), and recomputes
    /// routing over the surviving links.
    fn apply_dynamics(&mut self, now: SimTime, action: LinkAction, queue: &mut impl NetSink) {
        let endpoints = self
            .link_state
            .apply(self.topo, &action)
            .expect("fault schedule was validated against the topology");
        for ep in endpoints {
            let idx = ep.node.index();
            match action {
                LinkAction::Down { .. } => {
                    if let Some(sw) = self.switches[idx].as_mut() {
                        // Flushed data packets are counted in the switch's
                        // own `blackholed` counter, folded into the recovery
                        // metrics at the end of the run.
                        let _ = sw.handle_link_down(now, ep.port, queue);
                    } else if let Some(host) = self.hosts[idx].as_mut() {
                        host.set_uplink_up(now, false, queue);
                    }
                }
                LinkAction::Up { .. } => {
                    if let Some(sw) = self.switches[idx].as_mut() {
                        sw.handle_link_up(now, ep.port, queue);
                    } else if let Some(host) = self.hosts[idx].as_mut() {
                        host.set_uplink_up(now, true, queue);
                    }
                }
                LinkAction::SetRate { gbps, .. } => {
                    if let Some(sw) = self.switches[idx].as_mut() {
                        sw.set_port_rate(ep.port, gbps);
                    } else if let Some(host) = self.hosts[idx].as_mut() {
                        host.set_uplink_rate(gbps);
                    }
                }
            }
        }
        // Deterministic re-convergence: recompute shortest paths over the
        // surviving links. Rendezvous-hash ECMP keeps surviving flows on
        // their old paths (stable rehash). Rate changes leave the up/down
        // graph — and therefore the tables — untouched, so only down/up
        // events pay the recompute (and count as reroutes).
        if !matches!(action, LinkAction::SetRate { .. }) {
            let link_state = &self.link_state;
            self.routes = Arc::new(RoutingTables::compute_filtered(self.topo, |n, p| {
                link_state.is_up(n, p)
            }));
        }
    }

    /// Handles one event. Generic over the sink so a one-worker engine passes
    /// its queue and a multi-worker engine its boundary router — either one
    /// wrapped in a [`bfc_net::trace::Recording`] when the worker has a
    /// flight recorder, which is how every emission seam below reports into
    /// it.
    pub(crate) fn dispatch(&mut self, now: SimTime, event: NetEvent, queue: &mut impl NetSink) {
        match event {
            NetEvent::FlowArrival { index } => {
                let meta = &self.flows[index];
                let spec = meta.spec;
                // Receiver registration and sender start touch disjoint
                // state; under sharding each half runs in the shard owning
                // that host (both shards see the same `FlowArrival`).
                if let Some(dst) = self.hosts[spec.dst.index()].as_mut() {
                    dst.expect_flow(spec);
                }
                if let Some(src) = self.hosts[spec.src.index()].as_mut() {
                    src.start_flow(now, spec, queue);
                }
            }
            NetEvent::PacketArrive { node, port, packet } => {
                // In-flight packets are blackholed if the cable they crossed
                // is down at their delivery instant.
                if !self.link_state.all_up() && !self.link_state.is_up(node, port) {
                    if packet.is_data() {
                        self.blackholed += 1;
                    }
                    return;
                }
                // A delivered PFC frame from `packet.src` pauses/resumes
                // this node's egress toward it: a wait-for edge
                // `node → packet.src` for the deadlock detector.
                if let PacketKind::PfcPause { pause } = &packet.kind {
                    self.safety.record_pause(now, node, packet.src, *pause);
                    queue.trace(
                        now,
                        TraceEvent::PfcDelivered {
                            node,
                            src: packet.src,
                            pause: *pause,
                        },
                    );
                }
                let routes = &self.routes;
                if let Some(sw) = self.switches[node.index()].as_mut() {
                    sw.handle_packet(now, port, packet, routes, queue);
                } else if let Some(host) = self.hosts[node.index()].as_mut() {
                    host.handle_packet(now, packet, queue);
                }
            }
            NetEvent::TxComplete { node, port } => {
                if let Some(sw) = self.switches[node.index()].as_mut() {
                    sw.handle_tx_complete(now, port, queue);
                } else if let Some(host) = self.hosts[node.index()].as_mut() {
                    host.handle_tx_complete(now, queue);
                }
            }
            NetEvent::PauseFrameTimer { node, port } => {
                if let Some(sw) = self.switches[node.index()].as_mut() {
                    sw.handle_pause_timer(now, port, queue);
                }
            }
            NetEvent::HostTimer { node, timer } => {
                if let Some(host) = self.hosts[node.index()].as_mut() {
                    host.handle_timer(now, timer, queue);
                }
            }
            NetEvent::FlowCompleted { flow } => {
                let done = &mut self.flow_completed[flow.index()];
                if done.is_none() {
                    *done = Some(now);
                    self.completed += 1;
                }
            }
            NetEvent::Sample => {
                // The whole tick schedule is seeded up front (see
                // `seed_samples`), so the handler only records; rescheduling
                // here would give later ticks run-time sequence numbers.
                self.take_samples(now);
            }
            NetEvent::NetworkDynamics { index } => {
                let action = self.dynamics[index].action;
                // Every shard applies dynamics to its own replica; only the
                // counting sim traces them, or merged traces would hold one
                // copy per shard.
                if self.record_dynamics_metrics {
                    match action {
                        LinkAction::Down { a, b } => {
                            queue.trace(now, TraceEvent::LinkDown { a, b });
                        }
                        LinkAction::Up { a, b } => {
                            queue.trace(now, TraceEvent::LinkUp { a, b });
                        }
                        LinkAction::SetRate { a, b, .. } => {
                            queue.trace(now, TraceEvent::LinkRate { a, b });
                        }
                    }
                    if !matches!(action, LinkAction::SetRate { .. }) {
                        queue.trace(now, TraceEvent::Reroute { index: index as u32 });
                    }
                }
                self.apply_dynamics(now, action, queue);
            }
        }
    }
}

/// The last instant the goodput/occupancy sampler runs to: the horizon for
/// plain runs, through the drain for fault runs so recovery stays visible in
/// the sampled series.
pub(crate) fn goodput_until(config: &ExperimentConfig) -> SimTime {
    let sample_until = SimTime::ZERO + config.horizon;
    if config.dynamics.is_empty() {
        sample_until
    } else {
        sample_until + config.drain
    }
}

/// Seeds the complete sample-tick schedule up front.
pub(crate) fn seed_samples(queue: &mut EventQueue<NetEvent>, config: &ExperimentConfig) {
    let until = goodput_until(config);
    let mut t = SimTime::ZERO + config.sample_interval;
    queue.send(t, NetEvent::Sample);
    while t + config.sample_interval <= until {
        t = t + config.sample_interval;
        queue.send(t, NetEvent::Sample);
    }
}

/// Per-run values shared by every node, whichever worker builds it.
pub(crate) struct Frame {
    pub(crate) routes: Arc<RoutingTables>,
    pub(crate) hosts_list: Vec<NodeId>,
    pub(crate) host_gbps: f64,
    pub(crate) switch_config: SwitchConfig,
    pub(crate) host_config: HostConfig,
}

impl Frame {
    /// Derives the shared per-run values from the experiment inputs.
    pub(crate) fn new(topo: &Topology, config: &ExperimentConfig) -> Frame {
        let routes = Arc::new(RoutingTables::compute(topo));
        let hosts_list = topo.hosts();
        assert!(hosts_list.len() >= 2, "need at least two hosts");
        let switch_config =
            config.scheme.switch_config(config.queues_per_port, config.buffer_bytes, MTU);
        if switch_config.int_enabled {
            // Every switch on a data packet's path appends one INT record;
            // reject a too-deep topology here, not inside the event loop.
            let diameter = routes.switch_hop_diameter();
            assert!(
                diameter <= MAX_INT_HOPS,
                "scheme {} records INT at every switch, but the topology's switch-hop \
                 diameter is {diameter} and bfc_net::packet::MAX_INT_HOPS is {MAX_INT_HOPS}",
                config.scheme.cli_key()
            );
        }

        // Base RTT: take the farthest-apart host pair we can cheaply identify
        // (first and last host, which sit in different racks / data centers
        // in every built-in topology).
        let far_a = hosts_list[0];
        let far_b = *hosts_list.last().expect("non-empty");
        let base_rtt = routes.base_rtt(topo, far_a, far_b);
        let host_gbps = topo.host_uplink(far_a).link.rate_gbps;
        let bdp_bytes = (host_gbps * 1e9 / 8.0 * base_rtt.as_secs_f64()) as u64;

        Frame {
            switch_config,
            host_config: config.scheme.host_config(base_rtt, bdp_bytes),
            routes,
            hosts_list,
            host_gbps,
        }
    }
}

/// Builds the switches whose node id satisfies `keep` (dense node-indexed
/// table, `None` elsewhere). Seeds derive from the node id alone, so a worker
/// building a subset gets byte-identical switches to one building them all.
pub(crate) fn build_switches(
    topo: &Topology,
    config: &ExperimentConfig,
    frame: &Frame,
    keep: impl Fn(NodeId) -> bool,
) -> Vec<Option<Switch>> {
    let mut switches: Vec<Option<Switch>> = (0..topo.num_nodes()).map(|_| None).collect();
    for sw_id in topo.switches() {
        if !keep(sw_id) {
            continue;
        }
        let policy = config.scheme.make_policy(config.seed ^ sw_id.0 as u64);
        switches[sw_id.index()] = Some(Switch::new(
            sw_id,
            frame.switch_config.clone(),
            topo.ports(sw_id),
            policy,
            config.seed,
        ));
    }
    switches
}

/// Builds the hosts whose node id satisfies `keep`.
pub(crate) fn build_hosts(
    topo: &Topology,
    frame: &Frame,
    keep: impl Fn(NodeId) -> bool,
) -> Vec<Option<Host>> {
    let mut hosts: Vec<Option<Host>> = (0..topo.num_nodes()).map(|_| None).collect();
    for h in &frame.hosts_list {
        if !keep(*h) {
            continue;
        }
        let uplink = topo.host_uplink(*h);
        hosts[h.index()] = Some(Host::new(
            *h,
            uplink.link,
            (uplink.peer, uplink.peer_port),
            frame.host_config,
        ));
    }
    hosts
}

/// Builds the metadata (spec, ideal FCT) for one trace flow at position
/// `index` — pure per-flow computation, identical for every worker.
pub(crate) fn build_flow_meta(
    topo: &Topology,
    index: usize,
    t: &TraceFlow,
    config: &ExperimentConfig,
    frame: &Frame,
) -> FlowMeta {
    let flow_id = FlowId(index as u32);
    // Fail loudly on malformed hand-built traces (the CSV replay path
    // validates earlier); a switch endpoint would otherwise be silently
    // skipped by the locality-tolerant FlowArrival handler.
    assert!(
        topo.is_host(t.src) && topo.is_host(t.dst),
        "trace flow {index} endpoints must be hosts ({:?} -> {:?})",
        t.src,
        t.dst
    );
    FlowMeta {
        spec: FlowSpec {
            flow: flow_id,
            src: t.src,
            dst: t.dst,
            size_bytes: t.size_bytes,
            vfid: vfid_for_flow(flow_id, config.seed, config.scheme.num_vfids()),
        },
        start: t.start,
        ideal_fct: frame.routes.ideal_fct(topo, t.src, t.dst, t.size_bytes, flow_id.0 as u64),
        is_incast: t.is_incast,
    }
}

/// Builds one `FabricSim` covering the nodes that satisfy `keep`.
pub(crate) fn build_sim<'a>(
    topo: &'a Topology,
    flows: Arc<Vec<FlowMeta>>,
    config: &'a ExperimentConfig,
    frame: &Frame,
    keep: impl Fn(NodeId) -> bool,
    record_dynamics_metrics: bool,
) -> FabricSim<'a> {
    let sample_until = SimTime::ZERO + config.horizon;
    FabricSim {
        topo,
        routes: Arc::clone(&frame.routes),
        link_state: LinkStateMap::new(topo),
        dynamics: config.dynamics.events(),
        switches: build_switches(topo, config, frame, &keep),
        hosts: build_hosts(topo, frame, &keep),
        flow_completed: vec![None; flows.len()],
        flows,
        occupancy: OccupancySeries::new(),
        peak_queue_samples: Vec::new(),
        occupied_queue_samples: Vec::new(),
        sample_until,
        completed: 0,
        goodput: GoodputSeries::new(),
        blackholed: 0,
        safety: SafetyTracker::new(),
        record_dynamics_metrics,
    }
}

/// Folds one switch's forwarding counters and queue-depth histogram into
/// `registry` under `bfc_switch_*{node="..."}` series. Takes the values, not
/// the switch: the end-of-run assembly reads them off the switch, the
/// service-mode hub off the copy it published.
pub(crate) fn record_switch_counters(
    registry: &mut MetricsRegistry,
    node: NodeId,
    c: &SwitchCounters,
    depth_hist: &Hist,
) {
    let node = node.0.to_string();
    let by_node: &[(&str, &str)] = &[("node", node.as_str())];
    registry.add_counter(labeled("bfc_switch_rx_packets", by_node), c.rx_packets);
    registry.add_counter(labeled("bfc_switch_drops", by_node), c.drops);
    registry.add_counter(labeled("bfc_switch_ecn_marked", by_node), c.ecn_marked);
    registry.add_counter(labeled("bfc_switch_pfc_pauses_sent", by_node), c.pfc_pauses_sent);
    registry.add_counter(
        labeled("bfc_switch_flow_pause_frames_sent", by_node),
        c.flow_pause_frames_sent,
    );
    registry.add_counter(labeled("bfc_switch_blackholed", by_node), c.blackholed);
    // Queue-depth-at-enqueue distribution. Switches that never forwarded a
    // data packet stay out, matching the paused-port gauge policy of not
    // drowning big fabrics in all-zero series.
    if !depth_hist.is_empty() {
        registry.merge_hist(labeled("bfc_switch_queue_depth_bytes", by_node), depth_hist);
    }
}

/// Merges the finished `FabricSim`s of a run (one per worker) and their
/// workers' flight traces into an [`ExperimentResult`]. Every merge is either
/// a disjoint union over nodes/flows in deterministic node order or an exact
/// integer sum/max, so N sims produce bit-identical output to one sim
/// covering the same run.
pub(crate) fn assemble_result(
    topo: &Topology,
    config: &ExperimentConfig,
    frame: &Frame,
    sims: Vec<FabricSim<'_>>,
    flight_parts: Vec<FlightTrace>,
    end_time: SimTime,
) -> ExperimentResult {
    assert!(!sims.is_empty(), "at least one sim");
    let total_flows = sims[0].flows.len();

    // Per-flow completion: each flow completes in exactly one sim (the one
    // owning its destination host).
    let records: Vec<FctRecord> = (0..total_flows)
        .filter_map(|i| {
            let done = sims.iter().find_map(|s| s.flow_completed[i])?;
            let meta = &sims[0].flows[i];
            Some(FctRecord {
                flow: meta.spec.flow,
                size_bytes: meta.spec.size_bytes,
                fct: done.saturating_since(meta.start),
                ideal_fct: meta.ideal_fct,
                is_incast: meta.is_incast,
            })
        })
        .collect();
    let fct = FctSummary::from_records(&records);
    // FCT slowdown histogram over the non-incast completions, in units of
    // slowdown × 1000: integer milli-slowdown, whose 1000 floor mirrors
    // `FctRecord`'s slowdown-is-at-least-1 convention.
    let mut fct_hist = Hist::new();
    for r in records.iter().filter(|r| !r.is_incast) {
        let fct = r.fct.as_picos() as u128;
        let ideal = r.ideal_fct.as_picos().max(1) as u128;
        let milli = (fct * 1000 / ideal).max(1000);
        fct_hist.observe(milli.min(u64::MAX as u128) as u64);
    }
    let completed: usize = sims.iter().map(|s| s.completed).sum();

    let elapsed = if end_time > SimTime::ZERO {
        end_time.saturating_since(SimTime::ZERO)
    } else {
        config.horizon
    };
    let measured = if elapsed < config.horizon {
        config.horizon
    } else {
        elapsed
    };

    // Scalar per-node metrics, iterated in node order (each node lives in
    // exactly one sim). The registry is built in the same pass and in the
    // same order, so serial and sharded runs produce equal registries.
    let mut delivered_bytes = 0;
    let mut pfc_paused = SimDuration::ZERO;
    let mut pfc_links = 0;
    let mut policy_stats = PolicyStats::default();
    let mut drops = 0;
    let mut switch_blackholed = 0;
    let mut registry = MetricsRegistry::new();
    let mut probe = ProbeStats::default();
    for idx in 0..topo.num_nodes() {
        for sim in &sims {
            if let Some(host) = &sim.hosts[idx] {
                delivered_bytes += host.counters().rx_data_bytes;
            }
            if let Some(sw) = &sim.switches[idx] {
                policy_stats.merge(&sw.policy_stats());
                drops += sw.counters().drops;
                // Switch-local blackholes (dead-egress flushes, unroutable
                // arrivals) join the driver's in-flight drops in the
                // recovery metrics.
                switch_blackholed += sw.counters().blackholed;
                record_switch_counters(&mut registry, sw.id, &sw.counters(), sw.depth_hist());
                let node = sw.id.0.to_string();
                let ps = sw.probe_stats();
                probe.lookups += ps.lookups;
                probe.probe_steps += ps.probe_steps;
                probe.max_probe = probe.max_probe.max(ps.max_probe);
                for p in 0..sw.num_ports() {
                    let paused = sw.port(p as u32).pfc_paused_time(end_time);
                    pfc_paused += paused;
                    pfc_links += 1;
                    // Ports that never paused stay out of the registry, or
                    // big fabrics would drown in all-zero series.
                    if paused.as_secs_f64() > 0.0 {
                        let port = p.to_string();
                        registry.set_gauge(
                            labeled(
                                "bfc_port_pfc_paused_seconds",
                                &[("node", node.as_str()), ("port", port.as_str())],
                            ),
                            paused.as_secs_f64(),
                        );
                    }
                }
            }
        }
    }

    // Per-scheme policy counters (the quantities behind Figs. 7, 12 and 13).
    let scheme_name = config.scheme.name();
    let by_scheme: &[(&str, &str)] = &[("scheme", scheme_name.as_str())];
    registry.add_counter(
        labeled("bfc_policy_flow_assignments", by_scheme),
        policy_stats.flow_assignments,
    );
    registry.add_counter(
        labeled("bfc_policy_collisions", by_scheme),
        policy_stats.collisions,
    );
    registry.add_counter(
        labeled("bfc_policy_table_overflows", by_scheme),
        policy_stats.table_overflows,
    );
    registry.add_counter(labeled("bfc_policy_pauses", by_scheme), policy_stats.pauses);
    registry.add_counter(labeled("bfc_policy_resumes", by_scheme), policy_stats.resumes);

    // Flow-table probe behavior, aggregated across every switch.
    registry.add_counter("bfc_flow_table_lookups", probe.lookups);
    registry.add_counter("bfc_flow_table_probe_steps", probe.probe_steps);
    registry.set_gauge("bfc_flow_table_max_probe", probe.max_probe as f64);

    let utilization = utilization(
        delivered_bytes,
        frame.hosts_list.len(),
        frame.host_gbps,
        measured,
    );
    let pfc_pause_fraction = pfc_pause_fraction(pfc_paused, pfc_links, measured);

    // Per-tick running totals of delivered bytes sum across shards.
    let goodput = GoodputSeries::merge(sims.iter().map(|s| &s.goodput));

    // Blackhole counts sum: the sims' in-flight drops and the switches' own.
    // The faults the run applied are the schedule's events up to its end:
    // every one at or before the cut was popped, and `end_time` is at least
    // its instant.
    let blackholed = sims.iter().map(|s| s.blackholed).sum::<u64>() + switch_blackholed;
    let faults = config.dynamics.events();
    let applied = &faults[..faults.partition_point(|e| e.at <= end_time)];
    let recovery = recovery_metrics(blackholed, applied, &goodput);

    // Safety observations merge the same way: pause edges are recorded by
    // the owning sim only, and the replay in `finish` sorts canonically —
    // bit-identical at any shard count. Pauses still open at the run's end
    // close there, so a deadlocked edge contributes its full hold time.
    let (safety, pause_hist) = SafetyTracker::merge(sims.iter().map(|s| &s.safety)).finish(
        &goodput,
        end_time,
        total_flows - completed,
    );

    // Flight traces: merging the per-shard rings into canonical
    // `(time, rank)` order reproduces exactly the stream one serial recorder
    // would have captured (same merge argument as above — equal
    // `(time, rank)` implies one owning shard). A one-worker run's single
    // trace goes through the same canonicalization.
    let flight = (!flight_parts.is_empty()).then(|| FlightTrace::merge(flight_parts));

    // Sampled series. Each sim records one occupancy value per owned switch
    // per tick (in node order) and one peak/occupied maximum per tick;
    // interleaving by switch owner / taking elementwise maxima reconstructs
    // exactly what one sim covering all switches would have recorded (one
    // sim interleaves to itself: the samples are non-negative, so the
    // maximum with 0.0 is the sample, bit for bit).
    let ticks = sims[0].peak_queue_samples.len();
    for s in &sims {
        assert_eq!(s.peak_queue_samples.len(), ticks, "shards sample in lockstep");
        assert_eq!(s.occupied_queue_samples.len(), ticks);
    }
    let owner_of: Vec<usize> = topo
        .switches()
        .iter()
        .map(|sw| {
            sims.iter()
                .position(|s| s.switches[sw.index()].is_some())
                .expect("every switch is owned by exactly one shard")
        })
        .collect();
    let occupancy = OccupancySeries::merge_interleaved(
        &sims.iter().map(|s| &s.occupancy).collect::<Vec<_>>(),
        &owner_of,
        ticks,
    );
    let mut peak_queue_samples = vec![0.0f64; ticks];
    let mut occupied_queue_samples = vec![0.0f64; ticks];
    for s in &sims {
        for (acc, v) in peak_queue_samples.iter_mut().zip(&s.peak_queue_samples) {
            *acc = acc.max(*v);
        }
        for (acc, v) in occupied_queue_samples.iter_mut().zip(&s.occupied_queue_samples) {
            *acc = acc.max(*v);
        }
    }

    // Run-level rollups and the safety verdict.
    registry.add_counter("bfc_flows_completed", completed as u64);
    registry.add_counter("bfc_flows_total", total_flows as u64);
    registry.add_counter("bfc_safety_pause_frames", safety.pause_frames);
    registry.add_counter("bfc_safety_cycles_formed", safety.cycles_formed);
    registry.add_counter("bfc_safety_deadlocks", safety.deadlocks);
    registry.add_counter("bfc_safety_violations", safety.violations());
    registry.add_counter("bfc_recovery_blackholed_packets", recovery.blackholed_packets);
    registry.add_counter("bfc_recovery_reroutes", recovery.reroutes);
    registry.set_gauge("bfc_utilization", utilization);
    registry.set_gauge("bfc_pfc_pause_fraction", pfc_pause_fraction);
    registry.set_gauge("bfc_safety_max_pause_depth", f64::from(safety.max_pause_depth));

    // Native distribution metrics: recorded even when empty so the family
    // set is uniform across runs.
    registry.merge_hist("bfc_fct_slowdown_milli", &fct_hist);
    registry.merge_hist("bfc_pause_duration_ns", &pause_hist);

    ExperimentResult {
        scheme: config.scheme.name(),
        fct,
        records,
        occupancy,
        peak_queue_samples,
        occupied_queue_samples,
        utilization,
        pfc_pause_fraction,
        policy_stats,
        drops,
        completed_flows: completed,
        total_flows,
        end_time,
        recovery,
        safety,
        epochs: EpochStats::default(),
        shard_walls: Vec::new(),
        events_popped: 0,
        registry,
        flight,
    }
}

/// Runs one experiment: the given trace over `topo` under `config.scheme`.
///
/// This is a **pure, `Send` unit of work**: every switch, host, event queue
/// and RNG is built from the inputs (all randomness derives from
/// `config.seed`), nothing global is touched, and the result is a plain
/// owned value — which is what lets [`crate::ParallelRunner`] fan
/// independent runs across threads with bit-identical output. It is the
/// one-worker case of [`crate::sharded::run_experiment_sharded`], which
/// produces bit-identical results at any shard count.
pub fn run_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
) -> ExperimentResult {
    crate::sharded::run_experiment_sharded(topo, trace, config, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_workloads::{synthesize, TraceParams, Workload};

    fn tiny_trace(topo: &Topology, seed: u64) -> Vec<TraceFlow> {
        let params = TraceParams::background_only(
            Workload::Google,
            0.3,
            SimDuration::from_micros(200),
            seed,
        );
        synthesize(&topo.hosts(), &params)
    }

    fn quick_config(scheme: Scheme) -> ExperimentConfig {
        ExperimentConfig::new(scheme, SimDuration::from_micros(200))
    }

    /// Two hosts joined by a chain of `switches` switches.
    fn chain(switches: usize) -> Topology {
        let mut b = bfc_net::TopologyBuilder::new();
        let link = bfc_net::Link::datacenter_default();
        let (src, dst) = (b.add_host("src"), b.add_host("dst"));
        let mut prev = src;
        for i in 0..switches {
            let sw = b.add_switch(format!("sw{i}"));
            b.connect(prev, sw, link);
            prev = sw;
        }
        b.connect(prev, dst, link);
        b.build()
    }

    #[test]
    #[should_panic(expected = "diameter is 7 and bfc_net::packet::MAX_INT_HOPS is 6")]
    fn int_scheme_on_a_too_deep_topology_fails_at_set_up() {
        let topo = chain(MAX_INT_HOPS + 1);
        run_experiment(&topo, &[], &quick_config(Scheme::Hpcc));
    }

    #[test]
    fn topology_depth_only_binds_schemes_that_record_int() {
        let topo = chain(MAX_INT_HOPS + 1);
        let trace = tiny_trace(&topo, 3);
        let result = run_experiment(&topo, &trace, &quick_config(Scheme::bfc()));
        assert_eq!(result.completed_flows, trace.len());
        // At the bound itself HPCC runs.
        let topo = chain(MAX_INT_HOPS);
        let trace = tiny_trace(&topo, 3);
        let result = run_experiment(&topo, &trace, &quick_config(Scheme::Hpcc));
        assert_eq!(result.completed_flows, trace.len());
    }

    #[test]
    fn every_scheme_completes_a_small_trace() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = tiny_trace(&topo, 3);
        assert!(!trace.is_empty());
        let mut schemes = Scheme::paper_lineup();
        schemes.push(Scheme::bfc_vfid());
        schemes.push(Scheme::SfqInfBuffer);
        for scheme in schemes {
            let name = scheme.name();
            let result = run_experiment(&topo, &trace, &quick_config(scheme));
            assert_eq!(
                result.completed_flows, result.total_flows,
                "{name}: all flows must finish ({} of {})",
                result.completed_flows, result.total_flows
            );
            assert!(result.utilization > 0.0, "{name}: some goodput");
            assert!(
                result.fct.overall.is_some(),
                "{name}: summary must be non-empty"
            );
            let overall = result.fct.overall.as_ref().unwrap();
            assert!(overall.p99 >= 1.0, "{name}: slowdown is at least 1");
            assert!(
                overall.p99 < 1_000.0,
                "{name}: slowdown should be sane, got {}",
                overall.p99
            );
        }
    }

    #[test]
    fn bfc_generates_pauses_under_incast_pressure() {
        let topo = fat_tree(FatTreeParams::tiny());
        // A 16-to-1 incast of 1 MB into host 0 forces per-flow pauses.
        let hosts = topo.hosts();
        let trace = bfc_workloads::concurrent_long_flows(&hosts, hosts[0], 7, 200_000);
        let config = quick_config(Scheme::bfc());
        let result = run_experiment(&topo, &trace, &config);
        assert_eq!(result.completed_flows, result.total_flows);
        assert!(
            result.policy_stats.pauses > 0,
            "an incast must trigger per-flow pauses"
        );
        assert!(result.policy_stats.resumes > 0);
        assert_eq!(result.drops, 0, "BFC with PFC backstop must not drop");
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = tiny_trace(&topo, 9);
        let a = run_experiment(&topo, &trace, &quick_config(Scheme::bfc()));
        let b = run_experiment(&topo, &trace, &quick_config(Scheme::bfc()));
        assert_eq!(a.completed_flows, b.completed_flows);
        assert_eq!(a.end_time, b.end_time);
        let pa: Vec<f64> = a.fct.p99_series().iter().map(|(_, y)| *y).collect();
        let pb: Vec<f64> = b.fct.p99_series().iter().map(|(_, y)| *y).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn occupancy_is_sampled() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = tiny_trace(&topo, 5);
        let result = run_experiment(&topo, &trace, &quick_config(Scheme::Dcqcn { window: true, sfq: false }));
        assert!(!result.occupancy.is_empty());
        assert_eq!(
            result.peak_queue_samples.len(),
            result.occupied_queue_samples.len()
        );
        assert!(result.completed_flows * 100 > result.total_flows * 99);
    }

    #[test]
    fn recovery_counts_the_faults_up_to_the_end_of_the_run() {
        // The link goes down inside the run and comes back long after its
        // deadline: one fault and one reroute were applied, not two.
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = tiny_trace(&topo, 5);
        let schedule = crate::scenario::ScenarioSpec::single_link_down_up(
            "tor0",
            "spine0",
            SimDuration::from_micros(50),
            SimDuration::from_millis(10),
        )
        .resolve(&topo)
        .expect("tiny topology has tor0/spine0");
        let config = quick_config(Scheme::bfc()).with_dynamics(schedule);
        let result = run_experiment(&topo, &trace, &config);
        assert!(result.end_time < SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(result.recovery.faults, 1);
        assert_eq!(result.recovery.reroutes, 1);
    }
}

//! The one engine behind every run entry point.
//!
//! An [`Engine`] is a fabric partitioned by a [`ShardPlan`] into one
//! [`ShardWorker`] per shard — each with its slice of the switches and hosts
//! and its own calendar queue — plus the conservative lookahead the plan
//! admits and the run's deadline. `run_experiment`, `run_experiment_sharded`,
//! `snapshot_experiment`, `resume_experiment` and `serve_experiment_with`
//! are compositions of its methods; no other code in this crate drives
//! events.
//!
//! The serial engine is the one-worker case, not a second implementation.
//! How many workers the plan produced is something the code observes
//! (`workers.len()`), never an option: one worker dispatches straight into
//! its own queue inside a single whole-run window, several workers route
//! boundary events through per-epoch mailboxes on one thread each.
//!
//! # Cut points
//!
//! [`Engine::advance`] stops at a **time**, for any worker count: it
//! processes exactly the events with `t <= until` (the conservative driver's
//! deadline cut, which ends with a full mailbox exchange, so every outbox is
//! empty and the per-worker queues and sims are the complete state). A
//! one-worker engine can also stop after a **single event**
//! ([`Engine::step`]), which streaming ingest needs for its per-event
//! inflight-cap check.
//!
//! # The last instant
//!
//! An egress schedules the end of a serialization as a `TxComplete` only
//! when something is queued behind the packet (`bfc_net::port::Transmitter`),
//! so "the time of the last event popped" can fall short of "the last thing
//! that happened": a run's final act is often a lone ACK leaving a NIC. The
//! two places that read the latter out — [`Engine::finish`]'s `end_time`
//! (which feeds utilisation, PFC-paused time and the safety summary) and the
//! "now" [`Engine::admit`] gives a flow whose start has passed, once
//! [`Engine::step`] has nothing left to run — take the maximum with the
//! latest serialization end at or before the cut, read off the transmitters
//! themselves (`FabricSim::last_serialization_end`). Mid-run, `last` needs
//! no such correction: an unscheduled serialization end changes no state, so
//! nothing that is still going to happen depends on whether it was "seen".

use std::sync::Arc;

use bfc_net::event::{NetEvent, NetSink};
use bfc_net::packet::free_int_headers;
use bfc_net::topology::Topology;
use bfc_net::trace::{FlightRecorder, Recording};
use bfc_net::types::NodeId;
use bfc_sim::shard::{run_conservative, Boundary, EpochStats, ShardHandler, ShardWall};
use bfc_sim::{EventQueue, SimDuration, SimTime};
use bfc_workloads::TraceFlow;

use crate::runner::{
    assemble_result, build_flow_meta, build_sim, seed_samples, ExperimentConfig, ExperimentResult,
    FabricSim, FlowMeta, Frame,
};
use crate::sharded::ShardPlan;

/// Routes scheduled events of a multi-worker engine: events targeting a node
/// of this shard go into the local calendar queue, events for another
/// shard's nodes into that shard's epoch outbox. Driver-level events without
/// a target node (samples, flow bookkeeping, dynamics) are always
/// shard-local — each shard schedules its own copies up front.
struct ShardSink<'b> {
    local: &'b mut EventQueue<NetEvent>,
    outbox: &'b mut [Vec<Boundary<NetEvent>>],
    plan: &'b ShardPlan,
    me: u32,
}

impl NetSink for ShardSink<'_> {
    #[inline]
    fn send(&mut self, time: SimTime, event: NetEvent) {
        let rank = event.canon_rank();
        match event.target_node() {
            Some(node) if self.plan.shard_of(node) != self.me => {
                self.outbox[self.plan.shard_of(node) as usize].push((time, rank, event));
            }
            _ => self.local.push_ranked(time, rank, event),
        }
    }
}

/// One shard: its slice of the fabric, its event queue, its outboxes (one per
/// shard of the plan) and, with tracing on, its flight recorder.
///
/// The workers sit side by side in one `Vec` and each thread writes its own
/// on every event, so each starts on a fresh pair of cache lines: packed,
/// whichever fields a layout puts at the seam are shared between two cores
/// (on a 2-vCPU VM, 10–15 % of a 2-shard T1 incast run's speed when one
/// field less in `FabricSim` moved the seam onto hot fields).
#[repr(align(128))]
pub(crate) struct ShardWorker<'a> {
    pub(crate) sim: FabricSim<'a>,
    pub(crate) queue: EventQueue<NetEvent>,
    /// Captures the trace events of this worker's nodes; `None` with tracing
    /// off. It sits beside the sim, not in it, so a step lends it to the sink
    /// while the sim is mutably borrowed, instead of moving it out and back.
    recorder: Option<FlightRecorder>,
    outbox: Vec<Vec<Boundary<NetEvent>>>,
    plan: Arc<ShardPlan>,
    me: u32,
    /// Timestamp of the last event this worker processed. Serialization
    /// ends that no event marked are not in it: see
    /// [`ShardWorker::last_instant`].
    pub(crate) last: SimTime,
}

/// Dispatches one event into `sink`, wrapped in a [`Recording`] when there is
/// a recorder: only that wrapper overrides `NetSink::trace`, so the untraced
/// path stays the plain sink's.
#[inline]
fn traced(
    sim: &mut FabricSim<'_>,
    recorder: &mut Option<FlightRecorder>,
    now: SimTime,
    event: NetEvent,
    sink: &mut impl NetSink,
) {
    match recorder {
        Some(recorder) => {
            let mut sink = Recording {
                inner: sink,
                recorder,
            };
            sim.dispatch(now, event, &mut sink);
        }
        None => sim.dispatch(now, event, sink),
    }
}

impl ShardWorker<'_> {
    /// The last thing that happened on this worker once every event with
    /// `t <= upto` has been processed: the last event, or a later
    /// serialization end that nothing was waiting for and so was never
    /// scheduled (what an engine that scheduled every `TxComplete` would
    /// report as its last processed instant).
    fn last_instant(&self, upto: SimTime) -> SimTime {
        self.last.max(self.sim.last_serialization_end(upto))
    }

    /// Pops and handles this worker's earliest event. `SOLE` says this is
    /// the only worker of its plan: it owns every node, so it dispatches
    /// straight into its queue and skips boundary routing. A constant, not a
    /// per-event branch — with both sinks in one function body the
    /// one-worker loop measured 3 % slower (`paper_lineup_serial`, 0 of 8
    /// pairs better).
    #[inline]
    fn step<const SOLE: bool>(&mut self) {
        let (now, event) = self.queue.pop().expect("peeked event exists");
        debug_assert!(now >= self.last, "shard queue delivered out of order");
        self.last = now;
        if SOLE {
            traced(
                &mut self.sim,
                &mut self.recorder,
                now,
                event,
                &mut self.queue,
            );
        } else {
            let mut sink = ShardSink {
                local: &mut self.queue,
                outbox: &mut self.outbox,
                plan: &self.plan,
                me: self.me,
            };
            traced(&mut self.sim, &mut self.recorder, now, event, &mut sink);
        }
    }

    /// Handles every event with `time < window_end && time <= deadline`.
    fn drain<const SOLE: bool>(&mut self, window_end: SimTime, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t >= window_end || t > deadline {
                break;
            }
            self.step::<SOLE>();
        }
    }
}

impl ShardHandler for ShardWorker<'_> {
    type Event = NetEvent;

    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
        if self.outbox.len() == 1 {
            self.drain::<true>(window_end, deadline);
        } else {
            self.drain::<false>(window_end, deadline);
        }
    }

    fn outboxes(&mut self) -> &mut [Vec<Boundary<NetEvent>>] {
        &mut self.outbox
    }

    fn deliver(&mut self, batch: &mut Vec<Boundary<NetEvent>>) {
        for (time, rank, event) in batch.drain(..) {
            debug_assert!(time >= self.last, "boundary event violates lookahead");
            self.queue.push_ranked(time, rank, event);
        }
    }

    fn last_processed(&self) -> SimTime {
        self.last
    }
}

/// The worker of a one-worker engine: single-event cuts and mid-run
/// admission have no meaning across epoch mailboxes.
fn sole<'s, 'a>(workers: &'s mut [ShardWorker<'a>]) -> &'s mut ShardWorker<'a> {
    match workers {
        [worker] => worker,
        _ => panic!("single-event stepping and admission need a one-worker engine"),
    }
}

/// A run in progress. See the module docs.
pub(crate) struct Engine<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) config: &'a ExperimentConfig,
    pub(crate) frame: Frame,
    pub(crate) workers: Vec<ShardWorker<'a>>,
    /// Epoch window: the plan's minimum cross-shard propagation delay. With
    /// no cross-shard cable any window is safe, so it spans the whole run.
    lookahead: SimDuration,
    /// `horizon + drain`: no event after this instant is ever processed.
    pub(crate) deadline: SimTime,
    /// The instant the engine was last advanced to.
    pub(crate) cut: SimTime,
    epochs: EpochStats,
    /// Per-worker busy / barrier-wait wall-clock, summed over `advance`
    /// calls; empty for a one-worker engine, which runs no threads.
    shard_walls: Vec<ShardWall>,
    /// Last, so it drops after the workers: see [`FreeIntHeaders`].
    _int_headers: FreeIntHeaders,
}

/// Empties the calling thread's INT header free list when the engine goes
/// away ([`free_int_headers`]), so what a run's HPCC hosts had in flight
/// does not outlive the run. It is the engine's last field, so it runs after
/// the workers' sims and queues are dropped (queued `PacketArrive`s hold
/// headers, which go back to the list as they drop), on every way a run
/// ends: `finish`, a snapshot's save-then-drop, `serve`, a panic unwinding.
/// A multi-worker engine's threads are scoped to [`Engine::advance`], so
/// their lists end with them.
struct FreeIntHeaders;

impl Drop for FreeIntHeaders {
    fn drop(&mut self) {
        free_int_headers();
    }
}

impl<'a> Engine<'a> {
    /// Partitions `topo` into (up to) `shards` workers and seeds every
    /// worker's queue with the flow arrivals it takes part in, the sample
    /// ticks and the fault schedule. Panics on an invalid fault schedule, an
    /// unpartitionable topology or — for a multi-worker plan, whose mailbox
    /// order depends on it — inputs exceeding the packed event-rank layout.
    pub(crate) fn build(
        topo: &'a Topology,
        trace: &[TraceFlow],
        config: &'a ExperimentConfig,
        shards: usize,
    ) -> Engine<'a> {
        if let Err(e) = config.dynamics.validate(topo) {
            panic!("invalid fault schedule for this topology: {e}");
        }
        let plan = match ShardPlan::partition(topo, shards) {
            Ok(plan) => Arc::new(plan),
            Err(e) => panic!("cannot shard this topology: {e}"),
        };
        let n = plan.num_shards();
        if n > 1 {
            let max_ports = (0..topo.num_nodes())
                .map(|idx| topo.ports(NodeId(idx as u32)).len())
                .max()
                .unwrap_or(0);
            assert!(
                NetEvent::rank_layout_fits(topo.num_nodes(), max_ports, trace.len()),
                "topology/trace exceed the packed event-rank layout; \
                 run on one shard or widen NetEvent::canon_rank"
            );
        }
        let frame = Frame::new(topo, config);
        // Immutable flow metadata is computed once and shared: workers only
        // need private completion state.
        let flows: Arc<Vec<FlowMeta>> = Arc::new(
            trace
                .iter()
                .enumerate()
                .map(|(i, t)| build_flow_meta(topo, i, t, config, &frame))
                .collect(),
        );
        let workers = (0..n as u32)
            .map(|me| {
                let sim = build_sim(
                    topo,
                    Arc::clone(&flows),
                    config,
                    &frame,
                    |node| plan.shard_of(node) == me,
                    // Exactly one worker traces the link events; see
                    // `record_dynamics_metrics`.
                    me == 0,
                );
                let mut queue = EventQueue::with_capacity(trace.len() / n * 4 + 16);
                for (index, t) in trace.iter().enumerate() {
                    // The arrival fans out to the sender's worker (which
                    // starts the flow) and the receiver's (which registers
                    // it); `FabricSim::dispatch` does whichever half is local.
                    if plan.shard_of(t.src) == me || plan.shard_of(t.dst) == me {
                        queue.send(t.start, NetEvent::FlowArrival { index });
                    }
                }
                seed_samples(&mut queue, config);
                for (index, event) in config.dynamics.events().iter().enumerate() {
                    // Every worker replays the whole fault schedule against
                    // its own link-state / routing replica.
                    queue.send(event.at, NetEvent::NetworkDynamics { index });
                }
                ShardWorker {
                    sim,
                    queue,
                    recorder: config
                        .trace_capacity
                        .map(|cap| FlightRecorder::with_filter(cap, config.trace_filter.clone())),
                    outbox: vec![Vec::new(); n],
                    plan: Arc::clone(&plan),
                    me,
                    last: SimTime::ZERO,
                }
            })
            .collect();
        let run = config.horizon + config.drain;
        Engine {
            topo,
            config,
            frame,
            workers,
            lookahead: plan
                .lookahead()
                .unwrap_or(run + SimDuration::from_micros(1)),
            deadline: SimTime::ZERO + run,
            cut: SimTime::ZERO,
            epochs: EpochStats::default(),
            shard_walls: Vec::new(),
            _int_headers: FreeIntHeaders,
        }
    }

    /// Processes every pending event with `t <= until` (clamped to the
    /// deadline), on one thread per worker when there are several. The
    /// **only** caller of the conservative driver in this crate.
    pub(crate) fn advance(&mut self, until: SimTime) {
        self.cut = until.min(self.deadline);
        let (_, stats, walls) = run_conservative(
            &mut self.workers,
            self.lookahead,
            self.cut,
            true,
            self.config.epoch_batching,
        );
        let e = &mut self.epochs;
        e.batches += stats.batches;
        e.windows += stats.windows;
        e.barriers += stats.barriers;
        e.boundary_events += stats.boundary_events;
        self.shard_walls.resize(walls.len(), ShardWall::default());
        for (acc, wall) in self.shard_walls.iter_mut().zip(walls) {
            acc.busy += wall.busy;
            acc.wait += wall.wait;
            acc.parked += wall.parked;
        }
    }

    /// Processes the earliest pending event, if there is one at or before
    /// the deadline; returns whether it did. One-worker engines only.
    pub(crate) fn step(&mut self) -> bool {
        let worker = sole(&mut self.workers);
        let ready = worker.queue.peek_time().is_some_and(|t| t <= self.deadline);
        if ready {
            worker.step::<true>();
        } else {
            // The run is over: "now", for a flow admitted from here on, is
            // the last instant anything happened, event or not.
            worker.last = worker.last_instant(self.deadline);
        }
        ready
    }

    /// Admits one more flow into a running one-worker engine. The start time
    /// is an admission *request*: one already in the simulated past becomes
    /// "now" (the last processed instant), since the calendar queue cannot
    /// schedule into the past.
    pub(crate) fn admit(&mut self, mut flow: TraceFlow) {
        let worker = sole(&mut self.workers);
        flow.start = flow.start.max(worker.last);
        let index = worker.sim.flows.len();
        let meta = build_flow_meta(self.topo, index, &flow, self.config, &self.frame);
        Arc::get_mut(&mut worker.sim.flows)
            .expect("a one-worker engine uniquely owns its flow table")
            .push(meta);
        worker.sim.flow_completed.push(None);
        worker
            .queue
            .send(flow.start, NetEvent::FlowArrival { index });
    }

    /// Merges the workers into the run's result. The run ended at the last
    /// instant anything happened up to the cut, whether or not an event
    /// marked it.
    pub(crate) fn finish(self) -> ExperimentResult {
        let end_time = self
            .workers
            .iter()
            .map(|w| w.last_instant(self.cut))
            .max()
            .unwrap_or(SimTime::ZERO);
        // Restored queues carry their pre-snapshot count, so a resumed run
        // reports the same lifetime total as the uninterrupted one.
        let overflow_pushes: u64 = self.workers.iter().map(|w| w.queue.overflow_pushes()).sum();
        let events_popped: u64 = self.workers.iter().map(|w| w.queue.total_delivered()).sum();
        // The queues are freed after the merge, not before it, as every run
        // did before there was an engine. With them freed first, the first
        // run after a set-up in the same process (`setup_s` of the repo
        // benchmark, `incast_t1`) measured +8 % and +12 % against that order
        // (better in 0 and 3 of 10 pairs); with this order -3 % and -1 %.
        let mut sims = Vec::with_capacity(self.workers.len());
        let mut queues = Vec::with_capacity(self.workers.len());
        let mut flight_parts = Vec::new();
        for w in self.workers {
            sims.push(w.sim);
            queues.push(w.queue);
            flight_parts.extend(w.recorder.map(FlightRecorder::finish));
        }
        let mut result = assemble_result(
            self.topo,
            self.config,
            &self.frame,
            sims,
            flight_parts,
            end_time,
        );
        drop(queues);
        let (registry, e) = (&mut result.registry, self.epochs);
        registry.add_counter("bfc_engine_queue_overflow_pushes", overflow_pushes);
        registry.add_counter("bfc_engine_epoch_batches", e.batches);
        registry.add_counter("bfc_engine_epoch_windows", e.windows);
        registry.add_counter("bfc_engine_epoch_barriers", e.barriers);
        registry.add_counter("bfc_engine_epoch_boundary_events", e.boundary_events);
        result.shard_walls = self.shard_walls;
        result.events_popped = events_popped;
        result
    }
}

//! Service mode: deterministic checkpoint/restore and streaming ingest.
//!
//! # Snapshots
//!
//! [`snapshot_experiment`] runs an experiment up to an instant `at` and
//! serializes the complete simulation state — calendar queues, switches
//! (PhysQueues, shared buffers, pause state, policy state and RNG streams),
//! hosts (sender/receiver flow tables and congestion-control state), link
//! state, metrics collectors and the recovery and safety trackers — into a
//! versioned,
//! length-prefixed, checksummed, std-only binary blob
//! ([`bfc_sim::snapshot`]). [`resume_experiment`] rebuilds the run from the
//! same inputs, overlays the saved state and runs to completion.
//!
//! The contract is **bit-identity**: resuming a snapshot taken at any point
//! produces an [`ExperimentResult`] identical field-for-field (floats
//! compared by bits) to the uninterrupted run, for the serial engine and for
//! the sharded engine at the snapshot's shard count.
//!
//! *Serial runs* can stop anywhere: [`bfc_sim::run_until`] processes events
//! in a deterministic total order, so "events with `t <= at`" is a prefix of
//! the uninterrupted run's pop sequence and the remaining events are exactly
//! the pending set. *Sharded runs* stop at the first **epoch barrier** whose
//! next window would begin after `at`: at a barrier every outbox is empty
//! and each shard's state is a pure function of the epochs completed so far,
//! so resuming re-derives the identical subsequent windows from queue state
//! alone. The snapshot therefore cuts along the same seams the conservative
//! driver already synchronizes on — no new synchronization invariants.
//!
//! A snapshot stores a fingerprint of everything it does *not* serialize
//! (topology shape, trace, configuration, shard count); resuming against
//! different inputs is rejected as corruption rather than silently
//! diverging.
//!
//! # Streaming ingest
//!
//! [`serve_experiment`] drives a live simulation from an
//! [`IngestSource`] (a tailed CSV file or a TCP socket — see
//! [`bfc_workloads::ingest`]) instead of a pre-materialized trace. Flows are
//! admitted under an inflight cap: while `admitted - completed` is at the
//! cap, the driver advances the simulation instead of pulling from the
//! source, which is exactly the backpressure signal (an unread file costs
//! nothing; an unread socket closes the feeder's TCP window).

use std::sync::Arc;

use bfc_net::event::{FifoSink, NetEvent};
use bfc_net::routing::RoutingTables;
use bfc_net::topology::Topology;
use bfc_sim::shard::{run_conservative, Boundary, ShardHandler};
use bfc_sim::snapshot::{self, fnv1a64, SnapError, SnapReader, SnapWriter};
use bfc_sim::{run_until, EventQueue, SimDuration, SimTime};
use bfc_workloads::ingest::{IngestError, IngestSource};
use bfc_workloads::TraceFlow;

use crate::runner::{
    assemble_result, build_flow_meta, build_flow_metas, build_sim, seed_samples, seed_send,
    ExperimentConfig,
    ExperimentResult, FabricSim, Frame,
};
use crate::sharded::{build_workers, epoch_lookahead, plan_for, ShardWorker};

/// Magic bytes identifying a BFC snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BFCSNAP\0";

/// Current snapshot payload format version. Bump on any layout change; old
/// versions are rejected with [`SnapError::BadVersion`] rather than
/// misinterpreted. Version 4 appended the observability counters to the
/// flow-table and calendar-queue states. Version 5 appended the native
/// histograms: queue-depth-at-enqueue inside each switch's state and the
/// per-sim FCT slowdown histogram after the safety tracker.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Hashes every run input the snapshot does *not* serialize — topology
/// shape, trace, configuration and shard count — so a resume against
/// different inputs fails loudly instead of silently diverging.
fn fingerprint(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    num_shards: usize,
) -> u64 {
    let mut w = SnapWriter::new();
    // Scheme and fault schedule are hashed via their Debug forms: both are
    // plain data enums whose Debug output covers every field.
    w.put_str(&format!("{:?}", config.scheme));
    w.put_u64(config.seed);
    w.put_u32(config.mtu);
    w.put_usize(config.queues_per_port);
    w.put_u64(config.buffer_bytes);
    w.put_u64(config.horizon.as_picos());
    w.put_u64(config.drain.as_picos());
    w.put_u64(config.sample_interval.as_picos());
    w.put_str(&format!("{:?}", config.dynamics));
    w.put_usize(topo.num_nodes());
    w.put_usize(topo.hosts().len());
    w.put_usize(num_shards);
    w.put_usize(trace.len());
    for t in trace {
        w.put_u32(t.src.0);
        w.put_u32(t.dst.0);
        w.put_u64(t.size_bytes);
        w.put_u64(t.start.as_picos());
        w.put_bool(t.is_incast);
    }
    fnv1a64(&w.into_bytes())
}

/// Serializes one sim's mutable state (everything not rebuilt from the run
/// inputs). The immutable frame — topology, flow metadata, configs — is
/// reconstructed on resume and checked via the fingerprint.
fn save_sim(sim: &FabricSim<'_>, w: &mut SnapWriter) {
    sim.link_state.save_state(w);
    w.put_usize(sim.switches.len());
    for slot in &sim.switches {
        w.put_bool(slot.is_some());
        if let Some(sw) = slot {
            sw.save_state(w);
        }
    }
    w.put_usize(sim.hosts.len());
    for slot in &sim.hosts {
        w.put_bool(slot.is_some());
        if let Some(h) = slot {
            h.save_state(w);
        }
    }
    w.put_usize(sim.flow_completed.len());
    for done in &sim.flow_completed {
        w.put_bool(done.is_some());
        if let Some(t) = done {
            w.put_u64(t.as_picos());
        }
    }
    sim.occupancy.save_state(w);
    w.put_usize(sim.peak_queue_samples.len());
    for &v in &sim.peak_queue_samples {
        w.put_f64(v);
    }
    w.put_usize(sim.occupied_queue_samples.len());
    for &v in &sim.occupied_queue_samples {
        w.put_f64(v);
    }
    w.put_usize(sim.completed);
    sim.recovery.save_state(w);
    sim.safety.save_state(w);
    sim.fct_hist.save_state(w);
}

/// Overlays saved mutable state onto a freshly built sim. The sim must have
/// been built from the same inputs with the same ownership predicate — the
/// fingerprint guarantees the former, slot-presence checks the latter.
fn restore_sim(
    sim: &mut FabricSim<'_>,
    frame: &Frame,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    sim.link_state.restore_state(r)?;
    if r.get_usize()? != sim.switches.len() {
        return Err(SnapError::Corrupt("switch count mismatch"));
    }
    for slot in sim.switches.iter_mut() {
        match (r.get_bool()?, slot.as_mut()) {
            (true, Some(sw)) => sw.restore_state(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Corrupt("switch ownership mismatch")),
        }
    }
    if r.get_usize()? != sim.hosts.len() {
        return Err(SnapError::Corrupt("host count mismatch"));
    }
    for slot in sim.hosts.iter_mut() {
        match (r.get_bool()?, slot.as_mut()) {
            (true, Some(h)) => h.restore_state(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Corrupt("host ownership mismatch")),
        }
    }
    if r.get_usize()? != sim.flow_completed.len() {
        return Err(SnapError::Corrupt("flow count mismatch"));
    }
    for done in sim.flow_completed.iter_mut() {
        *done = if r.get_bool()? {
            Some(SimTime::from_picos(r.get_u64()?))
        } else {
            None
        };
    }
    sim.occupancy = bfc_metrics::OccupancySeries::restore_state(r)?;
    let n = r.get_count(8)?;
    sim.peak_queue_samples = Vec::with_capacity(n);
    for _ in 0..n {
        sim.peak_queue_samples.push(r.get_f64()?);
    }
    let n = r.get_count(8)?;
    sim.occupied_queue_samples = Vec::with_capacity(n);
    for _ in 0..n {
        sim.occupied_queue_samples.push(r.get_f64()?);
    }
    sim.completed = r.get_usize()?;
    if sim.completed > sim.flow_completed.len() {
        return Err(SnapError::Corrupt("completed count exceeds flow count"));
    }
    sim.recovery = bfc_metrics::RecoveryTracker::restore_state(r)?;
    sim.safety = bfc_metrics::SafetyTracker::restore_state(r)?;
    sim.fct_hist = bfc_metrics::Hist::restore_state(r)?;
    // Routing tables are derived state: recompute them from the restored
    // link-state instead of serializing O(nodes^2) next-hop tables.
    sim.routes = if sim.link_state.all_up() {
        Arc::clone(&frame.routes)
    } else {
        let ls = &sim.link_state;
        Arc::new(RoutingTables::compute_filtered(sim.topo, |n, p| ls.is_up(n, p)))
    };
    Ok(())
}

/// The sequential epoch loop of [`bfc_sim::shard::run_conservative`], with
/// one extra exit: it stops at the first barrier whose next window would
/// begin after `stop_after`. At a barrier all outboxes are empty, so the
/// per-shard queues and sims are the complete simulation state — the safe
/// cut for a snapshot.
fn run_epochs_until<S: ShardHandler>(
    shards: &mut [S],
    lookahead: SimDuration,
    stop_after: SimTime,
    deadline: SimTime,
) {
    assert!(
        !lookahead.is_zero(),
        "conservative synchronization needs a positive lookahead"
    );
    let n = shards.len();
    loop {
        let Some(t0) = shards.iter().filter_map(|s| s.next_time()).min() else {
            return;
        };
        if t0 > deadline || t0 > stop_after {
            return;
        }
        let window_end = t0 + lookahead;
        for shard in shards.iter_mut() {
            shard.run_window(window_end, deadline);
        }
        let outboxes: Vec<Vec<Vec<Boundary<S::Event>>>> =
            shards.iter_mut().map(|s| s.take_outboxes()).collect();
        for (src, rows) in outboxes.into_iter().enumerate() {
            debug_assert_eq!(rows.len(), n, "outbox row per destination shard");
            for (dest, batch) in rows.into_iter().enumerate() {
                debug_assert!(dest != src || batch.is_empty(), "no self-addressed batches");
                if !batch.is_empty() {
                    shards[dest].deliver(batch);
                }
            }
        }
    }
}

fn save_worker(wk: &ShardWorker<'_>, w: &mut SnapWriter) {
    w.put_u64(wk.last.as_picos());
    wk.queue.save_state(w, |w, e: &NetEvent| e.save_state(w));
    save_sim(&wk.sim, w);
}

/// Runs the experiment up to `at` (clamped to the run deadline) and returns
/// the serialized snapshot. `num_shards <= 1` snapshots the serial engine;
/// larger counts snapshot the sharded engine at the first epoch barrier
/// past `at`.
///
/// Panics on invalid inputs (bad fault schedule, unpartitionable topology),
/// exactly like the run entry points.
pub fn snapshot_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    at: SimTime,
    num_shards: usize,
) -> Vec<u8> {
    let requested = num_shards.max(1);
    let deadline = SimTime::ZERO + config.horizon + config.drain;
    let stop_after = at.min(deadline);
    let mut payload = SnapWriter::new();

    if requested == 1 {
        // Serial engine: replicate `run_experiment` up to `stop_after`.
        if let Err(e) = config.dynamics.validate(topo) {
            panic!("invalid fault schedule for this topology: {e}");
        }
        payload.put_u64(fingerprint(topo, trace, config, 1));
        payload.put_u64(stop_after.as_picos());
        payload.put_usize(1);
        let frame = Frame::new(topo, config);
        let flows = Arc::new(build_flow_metas(topo, trace, config, &frame));
        let mut sim = build_sim(topo, flows, config, &frame, |_| true, true);
        let fifo = config.rank_mode.is_fifo();
        let mut queue = EventQueue::with_capacity(trace.len() * 4 + 16);
        for (i, t) in trace.iter().enumerate() {
            seed_send(&mut queue, fifo, t.start, NetEvent::FlowArrival { index: i });
        }
        seed_samples(&mut queue, fifo, config);
        for (index, event) in config.dynamics.events().iter().enumerate() {
            seed_send(&mut queue, fifo, event.at, NetEvent::NetworkDynamics { index });
        }
        let last = run_until(&mut sim, &mut queue, stop_after);
        payload.put_u64(last.as_picos());
        queue.save_state(&mut payload, |w, e: &NetEvent| e.save_state(w));
        save_sim(&sim, &mut payload);
    } else {
        let plan = plan_for(topo, trace, config, requested);
        payload.put_u64(fingerprint(topo, trace, config, plan.num_shards()));
        payload.put_u64(stop_after.as_picos());
        payload.put_usize(plan.num_shards());
        let frame = Frame::new(topo, config);
        let flows = Arc::new(build_flow_metas(topo, trace, config, &frame));
        let lookahead = epoch_lookahead(&plan, config);
        let mut workers = build_workers(topo, trace, config, &frame, &flows, &plan);
        run_epochs_until(&mut workers, lookahead, stop_after, deadline);
        for wk in &workers {
            save_worker(wk, &mut payload);
        }
    }
    snapshot::finalize(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload.into_bytes())
}

/// Restores a snapshot taken by [`snapshot_experiment`] against the same
/// inputs and runs the experiment to completion. The result is bit-identical
/// to the uninterrupted run at the snapshot's shard count (which is itself
/// bit-identical to the serial run).
pub fn resume_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    bytes: &[u8],
) -> Result<ExperimentResult, SnapError> {
    let payload = snapshot::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
    let mut r = SnapReader::new(payload);
    let stored_fp = r.get_u64()?;
    let _at = SimTime::from_picos(r.get_u64()?);
    let num_shards = r.get_usize()?;
    if !(1..=4096).contains(&num_shards) {
        return Err(SnapError::Corrupt("implausible shard count"));
    }
    if stored_fp != fingerprint(topo, trace, config, num_shards) {
        return Err(SnapError::Corrupt(
            "snapshot was taken for different inputs (topology, trace, config or shard count)",
        ));
    }
    let deadline = SimTime::ZERO + config.horizon + config.drain;
    let frame = Frame::new(topo, config);
    let flows = Arc::new(build_flow_metas(topo, trace, config, &frame));

    if num_shards == 1 {
        let mut sim = build_sim(topo, Arc::clone(&flows), config, &frame, |_| true, true);
        let last = SimTime::from_picos(r.get_u64()?);
        let mut queue = EventQueue::restore_state(&mut r, |r| NetEvent::restore_state(r))?;
        restore_sim(&mut sim, &frame, &mut r)?;
        r.expect_end()?;
        let resumed = run_until(&mut sim, &mut queue, deadline);
        // `run_until` returns ZERO when every event was already processed
        // before the snapshot; the run's end is whichever came later.
        let end_time = last.max(resumed);
        let mut result = assemble_result(topo, trace, config, &frame, vec![sim], end_time);
        // The queue counter was restored from the snapshot, so the resumed
        // run reports the same lifetime total as the uninterrupted one.
        result.record_engine_counters(queue.overflow_pushes());
        Ok(result)
    } else {
        let plan = plan_for(topo, trace, config, num_shards);
        if plan.num_shards() != num_shards {
            return Err(SnapError::Corrupt("shard plan does not match snapshot"));
        }
        let lookahead = epoch_lookahead(&plan, config);
        let mut workers = build_workers(topo, trace, config, &frame, &flows, &plan);
        for wk in workers.iter_mut() {
            wk.last = SimTime::from_picos(r.get_u64()?);
            wk.queue = EventQueue::restore_state(&mut r, |r| NetEvent::restore_state(r))?;
            restore_sim(&mut wk.sim, &frame, &mut r)?;
        }
        r.expect_end()?;
        let parallel = workers.len() > 1;
        // `run_conservative` folds in each shard's restored `last`, so a
        // snapshot taken after the final event still reports the right end.
        let (end_time, epochs) = run_conservative(
            &mut workers,
            lookahead,
            deadline,
            parallel,
            config.batch_policy(),
        );
        let overflow_pushes: u64 = workers.iter().map(|w| w.queue.overflow_pushes()).sum();
        let sims: Vec<FabricSim<'_>> = workers.into_iter().map(|w| w.sim).collect();
        let mut result = assemble_result(topo, trace, config, &frame, sims, end_time);
        result.epochs = epochs;
        result.record_engine_counters(overflow_pushes);
        Ok(result)
    }
}

/// A shared slot holding the latest rendered metrics exposition, so a
/// scrape thread can serve the text while [`serve_experiment_with`] keeps
/// driving the simulation. Cloning shares the slot.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    text: Arc<std::sync::Mutex<String>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the published exposition with a fresh render of `registry`.
    pub fn publish(&self, registry: &bfc_metrics::MetricsRegistry) {
        *self.text.lock().expect("metrics hub poisoned") = registry.expose();
    }

    /// The most recently published exposition text (empty before the first
    /// publish).
    pub fn render(&self) -> String {
        self.text.lock().expect("metrics hub poisoned").clone()
    }
}

/// Builds the live (mid-run) registry for service mode: the per-switch
/// forwarding counters plus the ingest admission state. Cheap enough to
/// rebuild on every admission.
fn live_registry(sim: &FabricSim<'_>, admitted: usize) -> bfc_metrics::MetricsRegistry {
    let mut registry = bfc_metrics::MetricsRegistry::new();
    for sw in sim.switches.iter().flatten() {
        crate::runner::record_switch_counters(&mut registry, sw);
    }
    registry.add_counter("bfc_flows_admitted", admitted as u64);
    registry.add_counter("bfc_flows_completed", sim.completed as u64);
    registry
}

/// What [`serve_experiment`] produced.
#[derive(Debug)]
pub struct ServeReport {
    /// The experiment result over every admitted flow.
    pub result: ExperimentResult,
    /// Number of flows admitted from the source (equals
    /// `result.total_flows`).
    pub admitted: usize,
}

/// Drives a live simulation from a streaming [`IngestSource`] under an
/// inflight cap (serial engine).
///
/// Flows are admitted in arrival order; a flow whose start time has already
/// passed (the simulation outran the feeder) is admitted "now" — at the last
/// processed instant — since the calendar queue cannot schedule into the
/// past. While `admitted - completed >= inflight_cap` the driver advances
/// the simulation instead of pulling, so a slow consumer never reads ahead:
/// that is the backpressure the source contract relies on.
///
/// The run ends when the source is exhausted and the queue has drained (or
/// the configured horizon + drain deadline passes).
pub fn serve_experiment(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
) -> Result<ServeReport, IngestError> {
    serve_experiment_with(topo, config, source, inflight_cap, None)
}

/// [`serve_experiment`] with live metrics: when `metrics` is given, the
/// driver publishes a fresh exposition to the hub on every admission and
/// once more at the end of the run, so a concurrent scrape thread always
/// reads a consistent (if slightly stale) snapshot. Publishing never feeds
/// back into the simulation, so results are unchanged by observation.
pub fn serve_experiment_with(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
    metrics: Option<&MetricsHub>,
) -> Result<ServeReport, IngestError> {
    assert!(inflight_cap >= 1, "inflight cap must be at least 1");
    if let Err(e) = config.dynamics.validate(topo) {
        panic!("invalid fault schedule for this topology: {e}");
    }
    let frame = Frame::new(topo, config);
    let mut sim = build_sim(topo, Arc::new(Vec::new()), config, &frame, |_| true, true);
    let fifo = config.rank_mode.is_fifo();
    let mut queue = EventQueue::with_capacity(1024);
    seed_samples(&mut queue, fifo, config);
    for (index, event) in config.dynamics.events().iter().enumerate() {
        seed_send(&mut queue, fifo, event.at, NetEvent::NetworkDynamics { index });
    }
    let deadline = SimTime::ZERO + config.horizon + config.drain;
    let mut admitted: Vec<TraceFlow> = Vec::new();
    let mut last = SimTime::ZERO;
    if let Some(hub) = metrics {
        // Publish the zeroed registry up front so a scrape racing the first
        // admission still reads well-formed exposition text.
        hub.publish(&live_registry(&sim, 0));
    }

    loop {
        // Backpressure: while the inflight window is full, make progress
        // instead of pulling. If the sim cannot progress (nothing left to
        // run before the deadline), admission resumes — the stuck flows can
        // never complete, and starving the feeder would not change that.
        while admitted.len() - sim.completed >= inflight_cap {
            match queue.peek_time() {
                Some(t) if t <= deadline => {
                    let (now, event) = queue.pop().expect("peeked event exists");
                    last = now;
                    if fifo {
                        sim.dispatch(now, event, &mut FifoSink(&mut queue));
                    } else {
                        sim.dispatch(now, event, &mut queue);
                    }
                }
                _ => break,
            }
        }
        let Some(mut flow) = source.next_flow()? else {
            break;
        };
        // The feeder's timestamps are admission *requests*; a start already
        // in the simulated past becomes "now".
        flow.start = flow.start.max(last);
        let index = admitted.len();
        let meta = build_flow_meta(topo, index, &flow, config, &frame);
        Arc::get_mut(&mut sim.flows)
            .expect("serve sim uniquely owns its flow table")
            .push(meta);
        sim.flow_completed.push(None);
        seed_send(&mut queue, fifo, flow.start, NetEvent::FlowArrival { index });
        admitted.push(flow);
        if let Some(hub) = metrics {
            hub.publish(&live_registry(&sim, admitted.len()));
        }
    }

    let drained = run_until(&mut sim, &mut queue, deadline);
    let end_time = last.max(drained);
    let mut result = assemble_result(topo, &admitted, config, &frame, vec![sim], end_time);
    result.record_engine_counters(queue.overflow_pushes());
    if let Some(hub) = metrics {
        hub.publish(&result.registry);
    }
    let count = admitted.len();
    Ok(ServeReport {
        result,
        admitted: count,
    })
}

//! Service mode: deterministic checkpoint/restore and streaming ingest.
//!
//! # Snapshots
//!
//! [`snapshot_experiment`] builds the engine ([`crate::engine`]), advances it
//! to an instant `at` and saves it: the complete simulation state — calendar
//! queues, switches (PhysQueues, shared buffers, pause state, policy state
//! and RNG streams), hosts (sender/receiver flow tables and
//! congestion-control state), metrics collectors, the blackhole count and
//! the safety tracker — in a versioned, length-prefixed,
//! checksummed, std-only binary blob ([`bfc_sim::snapshot`]).
//! [`resume_experiment`] restores the engine from the same inputs plus the
//! blob, advances it to the deadline and finishes it.
//!
//! The contract is **bit-identity**: resuming a snapshot taken at any
//! instant, at any shard count, produces an [`ExperimentResult`] identical
//! field-for-field (floats compared by bits) to the uninterrupted run. The
//! cut is exactly "every event with `t <= at` has been processed": the
//! engine's events have a deterministic total order, so that is a prefix of
//! the uninterrupted run, and the conservative driver ends the cut window
//! with a full mailbox exchange, so the per-worker queues and sims are the
//! whole pending state. Resuming starts a new epoch grid at the earliest
//! pending event; any grid narrower than the lookahead is conservative-safe,
//! so the grid a run is cut and resumed on never shows in its results.
//!
//! A snapshot stores a fingerprint of everything it does *not* serialize
//! (topology and its links, trace, configuration, shard count); resuming
//! against different inputs — slower links included — is rejected as
//! corruption rather than silently diverging.
//!
//! A snapshot holds only state that a resumed run reads and cannot rebuild
//! from its inputs. The link state is the fold of the fault schedule's
//! events up to the cut, and the routing tables are recomputed from it
//! (`restore_sim`); the faults the recovery metrics count are the
//! fault schedule's events up to the run's end; a sim's completed-flow count
//! is recounted from its per-flow completion instants, and goodput's running
//! total is the last entry of its series; a count nothing reads is not kept
//! at all, and one that is read is kept in one place.
//!
//! # Streaming ingest
//!
//! [`serve_experiment`] drives a live simulation from an
//! [`IngestSource`] (a tailed CSV file or a TCP socket — see
//! [`bfc_workloads::ingest`]) instead of a pre-materialized trace. Flows are
//! admitted under an inflight cap: while `admitted - completed` is at the
//! cap, the driver steps the engine one event at a time instead of pulling
//! from the source, which is exactly the backpressure signal (an unread file
//! costs nothing; an unread socket closes the feeder's TCP window).
//!
//! # Live metrics
//!
//! With a [`MetricsHub`], the serve loop publishes after every admission —
//! and what it publishes is *values*, not text: each switch's counters and
//! queue-depth histogram and the admitted/completed counts, copied into
//! storage the hub reuses (no allocation once every histogram has reached
//! its width). The exposition text is rendered when a scrape asks for it
//! ([`MetricsHub::render`]) and cached until the next publish, so a run
//! nobody scrapes pays a few hundred bytes of copying per admission instead
//! of building and formatting a 112-series registry each time. The text a
//! scrape reads for a given state is the text [`MetricsRegistry::expose`]
//! gives for a registry built from that state — it is produced by exactly
//! that, at scrape time. [`spawn_scrape_server`] puts the hub on a TCP
//! socket.

use std::fmt;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bfc_metrics::{Hist, MetricsRegistry};
use bfc_net::event::{NetEvent, TransportTimer};
use bfc_net::routing::RoutingTables;
use bfc_net::switch::{Switch, SwitchCounters};
use bfc_net::topology::Topology;
use bfc_net::types::NodeId;
use bfc_sim::snapshot::{self, checksum64, Snap, SnapError, SnapReader, SnapWriter};
use bfc_sim::rng::mix64;
use bfc_sim::{EventQueue, SimTime};
use bfc_transport::Host;
use bfc_workloads::ingest::{IngestError, IngestSource, MAX_LINE_BYTES};
use bfc_workloads::TraceFlow;

use crate::engine::Engine;
use crate::replay::{check_endpoints, ReplayError};
use crate::runner::{record_switch_counters, ExperimentConfig, ExperimentResult, FabricSim, Frame};

/// Magic bytes identifying a BFC snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BFCSNAP\0";

/// Current snapshot payload format version. Bump on any layout change; old
/// versions are rejected with [`SnapError::BadVersion`] rather than
/// misinterpreted. Version 4 appended the observability counters to the
/// flow-table and calendar-queue states. Version 5 appended the native
/// histograms: queue-depth-at-enqueue inside each switch's state and the
/// per-sim FCT slowdown histogram after the safety tracker. Version 6 keeps
/// the payload and changes the container's checksum (and the fingerprint
/// stored in the payload) to [`checksum64`]'s 8-byte words. Version 7
/// replaces the `busy` flag of every switch egress and host uplink with the
/// transmitter's serialization end and pending-wake flag. Version 8 stores
/// a sim's goodput ticks once (the recovery and safety trackers each did).
/// Version 9 drops three counters nothing read: every queue's lifetime
/// enqueued bytes and the shared buffer's peak occupancy and dropped bytes.
/// Version 10 drops the per-sim FCT slowdown histogram, which the result
/// now builds from the per-flow completion instants. Version 11 adds each
/// switch egress's owed-sweep flag after its transmitter. Version 12 drops
/// state nothing read or that was held twice: the BFC policy's counters and
/// flow-table peak, each switch egress's PFC flag and all-kinds transmit
/// totals, the shared buffer's drop count (the switch keeps it), receiver
/// bytes and last arrival, the sender start, the ACK's ECN echo and the
/// recovery tracker's fault log. Version 13 drops two totals a resumed run
/// recounts: each sim's completed-flow count (from its per-flow completion
/// instants) and goodput's running total (the last tick's entry, now that
/// the series stores running totals rather than per-tick deltas). Version
/// 14 drops each sim's link state, which a resume rebuilds from the fault
/// schedule up to the cut, each packet's control-priority flag (its kind
/// says it), the ACK's second copy of its sequence number and each receiver
/// flow's completion flag. Version 15 drops each pause frame's hash count
/// (a constant) and each sender and receiver flow's packet count (its size
/// over the constant MTU), and fingerprints the topology by its links.
pub const SNAPSHOT_VERSION: u32 = 15;

/// Hashes every run input the snapshot does *not* serialize — topology (its
/// links included), trace, configuration and shard count — so a resume
/// against different inputs fails loudly instead of silently diverging.
fn fingerprint(
    topo: &Topology,
    trace: impl ExactSizeIterator<Item = TraceFlow>,
    config: &ExperimentConfig,
    num_shards: usize,
) -> u64 {
    let mut w = SnapWriter::new();
    // Scheme and fault schedule are hashed via their Debug forms: both are
    // plain data enums whose Debug output covers every field.
    w.put_str(&format!("{:?}", config.scheme));
    w.put_u64(config.seed);
    w.put_usize(config.queues_per_port);
    w.put_u64(config.buffer_bytes);
    w.put_u64(config.horizon.as_picos());
    w.put_u64(config.drain.as_picos());
    w.put_u64(config.sample_interval.as_picos());
    w.put_str(&format!("{:?}", config.dynamics));
    w.put_usize(topo.num_nodes());
    w.put_usize(topo.hosts().len());
    // Every port's link, folded into one word: the buffer grows by 8 bytes,
    // not by the topology's size, so fingerprinting allocates no more.
    let mut links = 0u64;
    for node in 0..topo.num_nodes() {
        let ports = topo.ports(NodeId(node as u32));
        links = mix64(links ^ ports.len() as u64);
        for p in ports {
            let (rate, propagation) = (p.link.rate_gbps.to_bits(), p.link.propagation.as_picos());
            for x in [p.peer.0 as u64, p.peer_port as u64, rate, propagation] {
                links = mix64(links ^ x);
            }
        }
    }
    w.put_u64(links);
    w.put_usize(num_shards);
    w.put_usize(trace.len());
    for t in trace {
        w.put_u32(t.src.0);
        w.put_u32(t.dst.0);
        w.put_u64(t.size_bytes);
        w.put_u64(t.start.as_picos());
        w.put_bool(t.is_incast);
    }
    checksum64(&w.into_bytes())
}

/// Serializes one sim's mutable state (everything not rebuilt from the run
/// inputs). The immutable frame — topology, flow metadata, configs — is
/// reconstructed on resume and checked via the fingerprint.
fn save_sim(sim: &FabricSim<'_>, w: &mut SnapWriter) {
    let FabricSim {
        // Rebuilt from the run inputs.
        topo: _,
        dynamics: _,
        flows: _,
        sample_until: _,
        record_dynamics_metrics: _,
        link_state: _, // the fault schedule's prefix up to the cut
        routes: _,     // derived from the link state
        completed: _,  // recounted from `flow_completed`
        switches,
        hosts,
        flow_completed,
        occupancy,
        peak_queue_samples,
        occupied_queue_samples,
        goodput,
        blackholed,
        safety,
    } = sim;
    w.put_usize(switches.len());
    for slot in switches {
        w.put_option(slot.as_ref(), Switch::save_state);
    }
    w.put_usize(hosts.len());
    for slot in hosts {
        w.put_option(slot.as_ref(), Host::save_state);
    }
    flow_completed.save(w);
    occupancy.save(w);
    peak_queue_samples.save(w);
    occupied_queue_samples.save(w);
    goodput.save(w);
    blackholed.save(w);
    safety.save(w);
}

/// Overlays saved mutable state onto a freshly built sim, which was built
/// from the same inputs with the same ownership predicate — the fingerprint
/// guarantees the former; this checks the latter (node and flow counts, a
/// saved node exactly where this worker owns one), recounts the completed
/// flows, rebuilds the link state as of `cut` and recomputes the routing
/// tables.
fn restore_sim(
    sim: &mut FabricSim<'_>,
    frame: &Frame,
    cut: SimTime,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    r.expect_count(sim.switches.len(), "switch count mismatch")?;
    for slot in &mut sim.switches {
        r.get_option_into(
            slot.as_mut(),
            "switch ownership mismatch",
            Switch::restore_state,
        )?;
    }
    r.expect_count(sim.hosts.len(), "host count mismatch")?;
    for slot in &mut sim.hosts {
        r.get_option_into(
            slot.as_mut(),
            "host ownership mismatch",
            Host::restore_state,
        )?;
    }
    r.get_exact(&mut sim.flow_completed, "flow count mismatch")?;
    sim.occupancy = r.get()?;
    sim.peak_queue_samples = r.get()?;
    sim.occupied_queue_samples = r.get()?;
    sim.completed = sim.flow_completed.iter().flatten().count();
    sim.goodput = r.get()?;
    sim.blackholed = r.get()?;
    sim.safety = r.get()?;
    // Every worker applied every fault with `at <= cut` (the cut processes
    // every event up to it) to a link state built all-up, as `sim`'s was.
    let applied = sim.dynamics.partition_point(|e| e.at <= cut);
    for event in &sim.dynamics[..applied] {
        sim.link_state
            .apply(sim.topo, &event.action)
            .expect("fault schedule was validated against the topology");
    }
    // Routing tables are derived state: recompute them from the rebuilt
    // link state instead of serializing O(nodes^2) next-hop tables.
    sim.routes = if sim.link_state.all_up() {
        Arc::clone(&frame.routes)
    } else {
        let ls = &sim.link_state;
        Arc::new(RoutingTables::compute_filtered(sim.topo, |n, p| ls.is_up(n, p)))
    };
    Ok(())
}

/// Checks a restored pending event against the shape of the run it is about
/// to be scheduled into — `FabricSim::dispatch` indexes the node tables, a
/// node's ports, the trace and the fault schedule with what it carries.
fn check_event(
    topo: &Topology,
    flows: usize,
    faults: usize,
    event: &NetEvent,
) -> Result<(), SnapError> {
    let exists = |node: NodeId| node.index() < topo.num_nodes();
    let has_port = |node, port: u32| exists(node) && (port as usize) < topo.ports(node).len();
    let fits = match *event {
        NetEvent::PacketArrive { node, port, .. } | NetEvent::TxComplete { node, port } => {
            has_port(node, port)
        }
        NetEvent::PauseFrameTimer { node, port } => has_port(node, port) && !topo.is_host(node),
        NetEvent::HostTimer { node, timer } => {
            let flow_fits = match timer {
                TransportTimer::Retransmit(flow)
                | TransportTimer::RateIncrease(flow)
                | TransportTimer::AlphaUpdate(flow) => flow.index() < flows,
                TransportTimer::NicWakeup => true,
            };
            exists(node) && topo.is_host(node) && flow_fits
        }
        NetEvent::FlowArrival { index } => index < flows,
        NetEvent::FlowCompleted { flow } => flow.index() < flows,
        NetEvent::Sample => true,
        NetEvent::NetworkDynamics { index } => index < faults,
    };
    fits.then_some(())
        .ok_or(SnapError::Corrupt("pending event does not fit the run"))
}

impl<'a> Engine<'a> {
    /// Serializes the engine as cut by its last [`Engine::advance`]: the
    /// header (input fingerprint, cut instant, worker count), then each
    /// worker's last processed instant, queue and sim.
    pub(crate) fn save(&self) -> Vec<u8> {
        let flows = self.workers[0].sim.flows.iter().map(|m| TraceFlow {
            src: m.spec.src,
            dst: m.spec.dst,
            size_bytes: m.spec.size_bytes,
            start: m.start,
            is_incast: m.is_incast,
        });
        snapshot::finalize(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |w| {
            w.put_u64(fingerprint(
                self.topo,
                flows,
                self.config,
                self.workers.len(),
            ));
            self.cut.save(w);
            w.put_usize(self.workers.len());
            for wk in &self.workers {
                wk.last.save(w);
                wk.queue.save_state(w);
                save_sim(&wk.sim, w);
            }
        })
    }

    /// Rebuilds the engine a snapshot was taken from: checks the fingerprint
    /// against the given inputs, builds the engine at the snapshot's worker
    /// count and overlays every worker's saved state.
    pub(crate) fn restore(
        topo: &'a Topology,
        trace: &[TraceFlow],
        config: &'a ExperimentConfig,
        bytes: &[u8],
    ) -> Result<Engine<'a>, SnapError> {
        let payload = snapshot::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
        let mut r = SnapReader::new(payload);
        let stored_fp = r.get_u64()?;
        let cut: SimTime = r.get()?;
        let num_shards = r.get_usize()?;
        if !(1..=4096).contains(&num_shards) {
            return Err(SnapError::Corrupt("implausible shard count"));
        }
        if stored_fp != fingerprint(topo, trace.iter().copied(), config, num_shards) {
            return Err(SnapError::Corrupt(
                "snapshot was taken for different inputs (topology, trace, config or shard count)",
            ));
        }
        let mut engine = Engine::build(topo, trace, config, num_shards);
        if engine.workers.len() != num_shards {
            return Err(SnapError::Corrupt("shard plan does not match snapshot"));
        }
        let faults = config.dynamics.events().len();
        for wk in engine.workers.iter_mut() {
            wk.last = r.get()?;
            wk.queue = EventQueue::restore_state(&mut r, |event| {
                check_event(topo, trace.len(), faults, event)
            })?;
            restore_sim(&mut wk.sim, &engine.frame, cut, &mut r)?;
        }
        r.expect_end()?;
        Ok(engine)
    }
}

/// Runs the experiment on `num_shards` shards up to `at` (clamped to the run
/// deadline) — every event with `t <= at`, at any shard count — and returns
/// the serialized snapshot.
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
    let mut engine = Engine::build(topo, trace, config, num_shards);
    engine.advance(at);
    engine.save()
}

/// Restores a snapshot taken by [`snapshot_experiment`] against the same
/// inputs and runs the experiment to completion. The result is bit-identical
/// to the uninterrupted run at any shard count.
pub fn resume_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    bytes: &[u8],
) -> Result<ExperimentResult, SnapError> {
    let mut engine = Engine::restore(topo, trace, config, bytes)?;
    engine.advance(engine.deadline);
    Ok(engine.finish())
}

/// One switch's values as last published.
#[derive(Debug, Clone)]
struct SwitchValues {
    node: NodeId,
    counters: SwitchCounters,
    depth_hist: Hist,
}

/// The live (mid-run) state a serving engine publishes: the per-switch
/// forwarding counters plus the ingest admission state.
#[derive(Debug, Clone, Default)]
struct LiveValues {
    switches: Vec<SwitchValues>,
    admitted: u64,
    completed: u64,
}

impl LiveValues {
    /// The registry these values stand for, rendered.
    fn expose(&self) -> String {
        let mut registry = MetricsRegistry::new();
        for sw in &self.switches {
            record_switch_counters(&mut registry, sw.node, &sw.counters, &sw.depth_hist);
        }
        registry.add_counter("bfc_flows_admitted", self.admitted);
        registry.add_counter("bfc_flows_completed", self.completed);
        registry.expose()
    }
}

#[derive(Debug)]
struct HubState {
    live: LiveValues,
    /// The exposition of the last publish, once something has rendered it.
    text: Option<String>,
    /// Counts publishes, so a render that formatted outside the lock caches
    /// its text only if it is still the text of the latest publish.
    generation: u64,
}

impl Default for HubState {
    /// Nothing published reads as the empty exposition.
    fn default() -> Self {
        HubState {
            live: LiveValues::default(),
            text: Some(String::new()),
            generation: 0,
        }
    }
}

/// A shared slot holding the latest published metrics, so a scrape thread can
/// serve them while [`serve_experiment_with`] keeps driving the simulation.
/// Cloning shares the slot.
///
/// Publishing stores values; [`MetricsHub::render`] formats them, once per
/// publish at most. The lock is held only to copy — values in, values or
/// cached text out — never while formatting, so a scrape cannot make an
/// admission wait for 48 KB of text. A thread that panics holding the lock
/// does not take the hub down with it: every update leaves the state
/// renderable (at worst some switches a publish newer than others), so the
/// guard is recovered from a poisoned lock and observation still never feeds
/// back into the run.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    state: Arc<Mutex<HubState>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a finished registry. Rendered here, outside the lock: it is
    /// published once per run, and the hub's stored values cannot hold it.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let text = registry.expose();
        let mut state = self.lock();
        state.text = Some(text);
        state.generation += 1;
    }

    /// Publishes a live fabric: every switch's counters and queue-depth
    /// histogram plus the admission counts, copied into the storage of the
    /// previous publish. Nothing is formatted until a scrape asks.
    pub fn publish_live<'s>(
        &self,
        switches: impl IntoIterator<Item = &'s Switch>,
        admitted: usize,
        completed: usize,
    ) {
        let mut state = self.lock();
        let slots = &mut state.live.switches;
        let mut published = 0;
        for sw in switches {
            match slots.get_mut(published) {
                Some(slot) => {
                    slot.node = sw.id;
                    slot.counters = sw.counters();
                    slot.depth_hist.clone_from(sw.depth_hist());
                }
                None => slots.push(SwitchValues {
                    node: sw.id,
                    counters: sw.counters(),
                    depth_hist: sw.depth_hist().clone(),
                }),
            }
            published += 1;
        }
        slots.truncate(published);
        state.live.admitted = admitted as u64;
        state.live.completed = completed as u64;
        state.text = None;
        state.generation += 1;
    }

    /// The exposition text of the most recent publish (empty before the
    /// first): the cached text if this publish has been rendered before,
    /// otherwise a fresh render of a copy of the values, cached for the
    /// next scrape.
    pub fn render(&self) -> String {
        let (live, generation) = {
            let state = self.lock();
            if let Some(text) = &state.text {
                return text.clone();
            }
            (state.live.clone(), state.generation)
        };
        let text = live.expose();
        let mut state = self.lock();
        if state.generation == generation {
            state.text = Some(text.clone());
        }
        text
    }
}

/// Scrape connections served at once; one more is closed as it is accepted.
const MAX_SCRAPE_CONNECTIONS: usize = 8;

/// How long a scrape write may block before the connection is given up: a
/// scraper that stops reading frees its thread (and its slot under
/// [`MAX_SCRAPE_CONNECTIONS`]) instead of holding it for the run.
const SCRAPE_WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Binds `addr` (port 0 picks a free port) and serves `hub`'s exposition on
/// it for the rest of the process; returns the bound address. An accept loop
/// hands each connection to a thread that serves one scrape immediately and
/// a fresh one per request line, so a monitoring client can watch a run over
/// one persistent connection. A scrape renders, so connections are bounded:
/// past [`MAX_SCRAPE_CONNECTIONS`] live ones a new connection is closed at
/// accept.
pub fn spawn_scrape_server(addr: &str, hub: &MetricsHub) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let hub = hub.clone();
    std::thread::spawn(move || {
        // One clone of `slot` per live scrape thread, dropped when the
        // thread ends however it ends: the strong count is the number of
        // live connections plus this one.
        let slot = Arc::new(());
        for conn in listener.incoming() {
            let Ok(conn) = conn else { continue };
            if Arc::strong_count(&slot) > MAX_SCRAPE_CONNECTIONS {
                continue;
            }
            let (hub, slot) = (hub.clone(), slot.clone());
            std::thread::spawn(move || {
                serve_scrapes(conn, &hub);
                drop(slot);
            });
        }
    });
    Ok(local)
}

/// Serves metrics scrapes over one persistent connection: the current
/// exposition (terminated by a `# EOF` line) is written immediately, then
/// once more — the hub's text for its latest publish — for every
/// newline-terminated request line the client sends. Returns when the peer
/// closes, a write fails, a write blocks past [`SCRAPE_WRITE_TIMEOUT`] or a
/// request line runs past [`MAX_LINE_BYTES`].
fn serve_scrapes(mut conn: TcpStream, hub: &MetricsHub) {
    if conn.set_write_timeout(Some(SCRAPE_WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(read_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    loop {
        let mut text = hub.render();
        text.push_str("# EOF\n");
        if conn.write_all(text.as_bytes()).is_err() || conn.flush().is_err() {
            return;
        }
        // A request line is read one byte past the cap at most; a line that
        // long is refused by closing the connection.
        line.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") => return,
            Ok(_) => {}
        }
    }
}

/// Publishes a serving engine's fabric to `hub`.
fn publish_live(hub: &MetricsHub, engine: &Engine<'_>) {
    let sim: &FabricSim<'_> = &engine.workers[0].sim;
    hub.publish_live(
        sim.switches.iter().flatten(),
        sim.flows.len(),
        sim.completed,
    );
}

/// Flows admitted into a serving engine that have not completed yet.
fn inflight(engine: &Engine<'_>) -> usize {
    let sim = &engine.workers[0].sim;
    sim.flows.len() - sim.completed
}

/// Why a serve run stopped before its source ended.
#[derive(Debug)]
pub enum ServeError {
    /// The source failed to read or parse.
    Ingest(IngestError),
    /// A streamed flow cannot run on the topology (an endpoint that is not
    /// one of its hosts), checked as a replayed trace's flows are.
    Flow(ReplayError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Ingest(e) => e.fmt(f),
            ServeError::Flow(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        ServeError::Ingest(e)
    }
}

/// Admits `source`'s flows into a one-worker engine until the source ends,
/// calling `admitted` after each admission.
fn admit_under_cap(
    engine: &mut Engine<'_>,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
    mut admitted: impl FnMut(&Engine<'_>),
) -> Result<(), ServeError> {
    loop {
        // Backpressure: while the inflight window is full, make progress
        // instead of pulling. If the sim cannot progress (nothing left to
        // run before the deadline), admission resumes — the stuck flows can
        // never complete, and starving the feeder would not change that.
        // The cap is checked after every event: the admission order it
        // produces is part of the result.
        while inflight(engine) >= inflight_cap && engine.step() {}
        let Some(flow) = source.next_flow()? else {
            return Ok(());
        };
        check_endpoints(engine.topo, engine.workers[0].sim.flows.len(), &flow)
            .map_err(ServeError::Flow)?;
        engine.admit(flow);
        admitted(engine);
    }
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
/// inflight cap (a one-worker engine, stepped one event at a time).
///
/// Flows are admitted in arrival order; a flow whose start time has already
/// passed (the simulation outran the feeder) is admitted "now" — at the last
/// processed instant. While `admitted - completed >= inflight_cap` the driver advances
/// the simulation instead of pulling, so a slow consumer never reads ahead:
/// that is the backpressure the source contract relies on.
///
/// The run ends when the source is exhausted and the queue has drained (or
/// the configured horizon + drain deadline passes). A source that fails, or
/// streams a flow with an endpoint that is not a host of `topo`, ends it
/// with a [`ServeError`] instead.
pub fn serve_experiment(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
) -> Result<ServeReport, ServeError> {
    serve_experiment_with(topo, config, source, inflight_cap, None)
}

/// [`serve_experiment`] with live metrics: when `metrics` is given, the
/// driver publishes the fabric's values to the hub on every admission and
/// the finished registry at the end of the run, so a concurrent scrape
/// thread always reads a consistent (if slightly stale) snapshot. Publishing
/// never feeds back into the simulation, so results are unchanged by
/// observation.
pub fn serve_experiment_with(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
    metrics: Option<&MetricsHub>,
) -> Result<ServeReport, ServeError> {
    assert!(inflight_cap >= 1, "inflight cap must be at least 1");
    let mut engine = Engine::build(topo, &[], config, 1);
    let publish = |engine: &Engine<'_>| {
        if let Some(hub) = metrics {
            publish_live(hub, engine);
        }
    };
    // Publish the zeroed fabric up front so a scrape racing the first
    // admission still reads well-formed exposition text.
    publish(&engine);
    admit_under_cap(&mut engine, source, inflight_cap, publish)?;
    engine.advance(engine.deadline);
    let result = engine.finish();
    if let Some(hub) = metrics {
        hub.publish(&result.registry);
    }
    Ok(ServeReport {
        admitted: result.total_flows,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_sim::SimDuration;
    use bfc_workloads::{synthesize, TraceParams, Workload};

    /// A finished trace as an ingest source.
    struct Flows(std::vec::IntoIter<TraceFlow>);

    impl IngestSource for Flows {
        fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError> {
            Ok(self.0.next())
        }
    }

    fn inputs() -> (Topology, Vec<TraceFlow>, ExperimentConfig) {
        let topo = fat_tree(FatTreeParams::tiny());
        let horizon = SimDuration::from_micros(200);
        let params = TraceParams::background_only(Workload::Google, 0.5, horizon, 11);
        let trace = synthesize(&topo.hosts(), &params);
        let config = ExperimentConfig::new(
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
            horizon,
        );
        (topo, trace, config)
    }

    /// The live registry a serving engine's scrape must read as: built
    /// straight from the switches, at the instant of the call.
    fn live_registry(engine: &Engine<'_>) -> MetricsRegistry {
        let sim = &engine.workers[0].sim;
        let mut registry = MetricsRegistry::new();
        for sw in sim.switches.iter().flatten() {
            record_switch_counters(&mut registry, sw.id, &sw.counters(), sw.depth_hist());
        }
        registry.add_counter("bfc_flows_admitted", sim.flows.len() as u64);
        registry.add_counter("bfc_flows_completed", sim.completed as u64);
        registry
    }

    #[test]
    fn a_scrape_after_any_admission_reads_the_registry_of_that_instant() {
        let (topo, trace, config) = inputs();
        assert!(trace.len() > 50, "enough admissions to matter");
        let hub = MetricsHub::new();
        assert_eq!(hub.render(), "", "nothing published yet");
        let mut engine = Engine::build(&topo, &[], &config, 1);
        let (mut scrapes, mut with_depths) = (0, 0);
        let mut last = String::new();
        admit_under_cap(
            &mut engine,
            &mut Flows(trace.clone().into_iter()),
            4,
            |engine| {
                publish_live(&hub, engine);
                // Every third admission goes unscraped: a publish over an
                // unrendered publish must not leave either one's text behind.
                scrapes += 1;
                if scrapes % 3 == 0 {
                    return;
                }
                let text = hub.render();
                assert_eq!(
                    text,
                    live_registry(engine).expose(),
                    "after admission {scrapes}"
                );
                assert_eq!(hub.render(), text, "the cached text is the rendered text");
                assert_ne!(text, last, "the admitted count alone changes every publish");
                with_depths += usize::from(text.contains("bfc_switch_queue_depth_bytes_bucket{"));
                last = text;
            },
        )
        .expect("a vector never fails to stream");
        assert_eq!(scrapes, trace.len());
        assert!(
            with_depths > 0,
            "the tight cap let the fabric run between admissions"
        );
    }

    #[test]
    fn a_finished_serve_publishes_the_result_registry() {
        let (topo, trace, config) = inputs();
        let hub = MetricsHub::new();
        let mut source = Flows(trace.clone().into_iter());
        let report = serve_experiment_with(&topo, &config, &mut source, 4, Some(&hub))
            .expect("a vector never fails to stream");
        assert_eq!(report.admitted, trace.len());
        assert_eq!(hub.render(), report.result.registry.expose());
        // Observation does not feed back: the unobserved run is the same run.
        let mut source = Flows(trace.into_iter());
        let quiet = serve_experiment(&topo, &config, &mut source, 4).expect("streams");
        assert_eq!(quiet.result.registry, report.result.registry);
    }

    #[test]
    fn a_streamed_flow_whose_endpoint_is_not_a_host_is_refused() {
        let (topo, trace, config) = inputs();
        let switch = topo.switches()[0];
        let past_the_last = NodeId(topo.num_nodes() as u32);
        for (bad, node) in [
            (TraceFlow { dst: switch, ..trace[1] }, switch),
            (TraceFlow { src: past_the_last, ..trace[1] }, past_the_last),
        ] {
            let mut source = Flows(vec![trace[0], bad, trace[2]].into_iter());
            let err = serve_experiment(&topo, &config, &mut source, 4)
                .expect_err("a flow the topology cannot run is refused");
            let ServeError::Flow(ReplayError::UnknownHost { flow_index, node: named }) = err else {
                panic!("refused for another reason: {err}");
            };
            assert_eq!((flow_index, named), (1, node));
        }
    }

    #[test]
    fn a_flow_admitted_after_the_run_is_over_starts_at_its_last_instant() {
        // One packet between two hosts of one ToR: delivered at 2160 ns, and
        // the receiver's ACK is on its NIC until 2165.12 ns — the last thing
        // that happens before the 2170 ns deadline (434 ns of horizon, four
        // times that of drain), though no event marks it: the ACK leaves
        // nothing queued behind it.
        let topo = fat_tree(FatTreeParams::tiny());
        let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_nanos(434));
        let flow = TraceFlow {
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 1_000,
            start: SimTime::ZERO,
            is_incast: false,
        };
        let mut engine = Engine::build(&topo, &[], &config, 1);
        engine.admit(flow);
        while engine.step() {}
        assert_eq!(engine.workers[0].sim.completed, 1);
        let over = SimTime::from_picos(2_165_120);
        assert_eq!(engine.workers[0].last, over);
        // "Now", for a flow whose start has passed, is that instant.
        engine.admit(flow);
        assert_eq!(engine.workers[0].sim.flows[1].start, over);
    }

    #[test]
    fn a_scrape_thread_that_panics_holding_the_lock_does_not_stop_the_driver() {
        let hub = MetricsHub::new();
        let mut registry = MetricsRegistry::new();
        registry.add_counter("bfc_flows_admitted", 1);
        hub.publish(&registry);
        let scraper = hub.clone();
        let died = std::thread::spawn(move || {
            let _guard = scraper.state.lock().expect("not poisoned yet");
            panic!("scrape thread dies mid-render");
        })
        .join();
        assert!(died.is_err() && hub.state.is_poisoned());
        assert_eq!(
            hub.render(),
            registry.expose(),
            "the last publish is still readable"
        );
        registry.add_counter("bfc_flows_admitted", 1);
        hub.publish(&registry);
        hub.publish_live(std::iter::empty(), 3, 2);
        assert_eq!(
            hub.render(),
            "# TYPE bfc_flows_admitted counter\nbfc_flows_admitted 3\n\
             # TYPE bfc_flows_completed counter\nbfc_flows_completed 2\n"
        );
    }

    #[test]
    fn a_scrape_request_line_past_the_cap_closes_only_that_connection() {
        let hub = MetricsHub::new();
        let mut registry = MetricsRegistry::new();
        registry.add_counter("bfc_flows_admitted", 1);
        hub.publish(&registry);
        let addr = spawn_scrape_server("127.0.0.1:0", &hub).expect("bind a free port");
        let connect = || {
            let conn = TcpStream::connect(addr).expect("the listener accepts");
            conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .expect("set timeout");
            BufReader::new(conn)
        };
        let first_render = |reader: &mut BufReader<TcpStream>| {
            let mut text = String::new();
            while !text.ends_with("# EOF\n") {
                let read = reader.read_line(&mut text).expect("a render within the timeout");
                assert!(read > 0, "closed before the first render: {text}");
            }
            text
        };
        let mut flooder = connect();
        assert_eq!(first_render(&mut flooder), registry.expose() + "# EOF\n");
        // One byte past the cap and no newline: the server must neither
        // buffer on nor answer, but hang up.
        let flood = vec![b'x'; MAX_LINE_BYTES + 1];
        flooder.get_mut().write_all(&flood).expect("send the flood");
        let mut rest = Vec::new();
        flooder
            .read_to_end(&mut rest)
            .expect("the server closes the connection instead of waiting for a newline");
        assert!(rest.is_empty(), "no scrape for an over-long request line");
        // The server itself serves on.
        let mut second = connect();
        assert_eq!(first_render(&mut second), registry.expose() + "# EOF\n");
    }
}

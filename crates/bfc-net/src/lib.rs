//! # bfc-net — packet-level data-center network substrate
//!
//! This crate is the "ns-3 substitute" for the Backpressure Flow Control
//! reproduction: everything between the host NIC and the wire is modelled
//! here at per-packet granularity.
//!
//! * [`packet`] — data / ACK / CNP / PFC / flow-pause frames, the ECN
//!   codepoint and the INT header a packet carries.
//! * [`link`] — full-duplex links with rate and propagation delay.
//! * [`queue`] + [`port`] — physical FIFO queues, deficit round robin, the
//!   strict-priority control and high-priority queues, and per-queue pause.
//! * [`buffer`] — the shared-memory buffer model with dynamic PFC thresholds.
//! * [`config`] — a switch's queue count and buffer, and the paper's ECN
//!   and pause-frame constants.
//! * [`policy`] — the [`policy::SwitchPolicy`] trait that queue-assignment /
//!   flow-control schemes implement (FIFO and stochastic fair queueing live
//!   here; the BFC policy itself lives in the `bfc-core` crate).
//! * [`switch`] — the shared-buffer switch: admission, ECN marking of
//!   ECN-capable packets, INT on packets with a header, PFC generation from
//!   a finite buffer, scheduling and forwarding.
//! * [`topology`] + [`routing`] — fat-tree builders (the paper's T1 and T2),
//!   the cross-data-center topology, and ECMP up/down routing.
//! * [`dynamics`] — scheduled link faults, degradation and repair: the live
//!   link-state overlay, fault schedules, and the stable-rehash routing
//!   re-convergence they drive.
//! * [`event`] — the global event vocabulary used by the simulation driver.
//! * [`trace`] — flight-recorder tracing: structured observability events
//!   behind the [`event::NetSink`] seam, a bounded last-N ring, and the
//!   binary trace container.
//!
//! The crate deliberately knows nothing about congestion-control algorithms
//! (DCQCN, HPCC, …); those live in `bfc-transport` and only interact with
//! the fabric through packets.

pub mod buffer;
pub mod config;
pub mod dynamics;
pub mod event;
pub mod link;
pub mod packet;
pub mod policy;
pub mod port;
pub mod queue;
pub mod routing;
pub mod switch;
pub mod topology;
pub mod trace;
pub mod types;

pub use buffer::SharedBuffer;
pub use config::SwitchConfig;
pub use dynamics::{DynamicsError, FaultEvent, FaultSchedule, LinkAction, LinkStateMap};
pub use event::{NetEvent, TransportTimer};
pub use link::Link;
pub use packet::{Ecn, IntHop, IntPath, Packet, PacketKind, PauseFrame, WireFrame, MAX_INT_HOPS};
pub use policy::{
    EnqueueCtx, EnqueueDecision, FifoPolicy, PolicyStats, ProbeStats, QueueTarget, SfqPolicy,
    SwitchPolicy,
};
pub use port::{Port, Transmitter};
pub use routing::RoutingTables;
pub use switch::Switch;
pub use topology::{NodeKind, Topology, TopologyBuilder};
pub use trace::{FlightRecorder, FlightTrace, TraceEvent, TraceRecord};
pub use types::{FlowId, NodeId, PortId};

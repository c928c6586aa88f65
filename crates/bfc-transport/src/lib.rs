//! # bfc-transport — host / RDMA NIC models
//!
//! Everything that runs on an end host in the BFC evaluation lives here:
//!
//! * [`host::Host`] — the NIC model: round-robin scheduling of its flows
//!   onto the uplink, strict-priority ACK/CNP transmission, PFC obedience
//!   and per-flow BFC pause obedience.
//! * [`flow::SenderFlow`] — one flow's send state: its Go-Back-N
//!   reliability, the marking, pacing and window its congestion control
//!   sets. [`flow::ReceiverFlow`] is the receiving end.
//! * [`dcqcn`] — the DCQCN rate-control algorithm (ECN marks → CNPs → rate
//!   decrease; timer-driven fast recovery / additive / hyper increase), with
//!   the optional one-BDP window cap of the paper's DCQCN+Win variant.
//! * [`hpcc`] — HPCC's INT-driven window control (η = 0.95, maxStage = 5).
//! * [`config`] — the per-host configuration selecting one of the paper's
//!   schemes (BFC hosts send at line rate until paused; Ideal-FQ and
//!   SFQ+InfBuffer hosts only apply a one-BDP window cap).
//!
//! The host interacts with the fabric exclusively through
//! [`bfc_net::NetEvent`]s, so any switch policy can be combined with any
//! host-side congestion control — exactly the combinations the paper's
//! evaluation sweeps over.

pub mod config;
pub mod dcqcn;
pub mod flow;
pub mod host;
pub mod hpcc;

pub use config::{CcKind, HostConfig};
pub use flow::{FlowSpec, ReceiverFlow, SenderFlow};
pub use host::Host;

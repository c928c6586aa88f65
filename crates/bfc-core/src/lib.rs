//! # bfc-core — Backpressure Flow Control
//!
//! The paper's contribution: per-hop, per-flow flow control implemented as a
//! [`bfc_net::SwitchPolicy`]. A switch running [`BfcPolicy`]
//!
//! * tracks every flow that has packets queued in a compact **flow table**
//!   keyed by virtual flow ID (VFID = `hash(5-tuple) mod N`), with 4-entry
//!   buckets, a small associative **overflow cache** and a per-egress
//!   overflow queue for the rare flows that fit in neither (§3.8);
//! * **dynamically assigns** each flow to a free physical queue at its egress
//!   port, reclaiming the queue when the flow's last packet departs (§3.3);
//! * **pauses** a flow toward its upstream as soon as its physical queue
//!   exceeds `(HRTT + τ) · µ / Nactive` bytes — just enough buffering to keep
//!   the link busy across the pause/resume feedback delay (§3.4);
//! * communicates pauses with a periodic, idempotent **multistage bloom
//!   filter** per ingress link, backed by a counting bloom filter so resumes
//!   do not clear bits still needed by other paused flows (§3.6);
//! * **limits resumes** to a small number per physical queue per hop RTT so a
//!   resumed crowd cannot blow up downstream buffers (§3.5); and
//! * sends the **first packet of every flow through a high-priority queue**
//!   so single-packet flows never suffer head-of-line blocking (§3.7).
//!
//! Ablation switches reproduce the paper's variants: `BFC-VFID` (static
//! hashed queue assignment, §4.2 Fig. 7), `BFC-BufferOpt` (no resume
//! limiting, Fig. 10) and `BFC-HighPriorityQ` (no high-priority queue,
//! Fig. 11).
//!
//! ```
//! use bfc_core::{BfcConfig, BfcPolicy};
//!
//! let config = BfcConfig::default();          // 16K VFIDs, 128 B bloom, all of §3 on
//! let policy = BfcPolicy::new(config, 42);
//! assert!(policy.config().dynamic_assignment && policy.tracked_flows() == 0);
//! ```

pub mod config;
pub mod counting_bloom;
pub mod flow_table;
pub mod policy;

pub use config::BfcConfig;
pub use counting_bloom::CountingBloom;
pub use flow_table::{FlowEntry, FlowKey, FlowTable, LookupOutcome};
pub use policy::BfcPolicy;

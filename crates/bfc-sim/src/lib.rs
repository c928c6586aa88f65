//! # bfc-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the Backpressure Flow Control (BFC)
//! reproduction: a small, dependency-free discrete-event engine with
//!
//! * a picosecond-resolution simulated clock ([`SimTime`] / [`SimDuration`]),
//! * a time-ordered [`EventQueue`] with deterministic `(time, rank, seq)`
//!   tie-breaking (plain pushes are FIFO; ranked pushes give simultaneous
//!   events a content-derived total order),
//! * the [`shard`] module: epoch-based conservative synchronization for
//!   splitting one simulation across threads with bit-identical results, and
//! * a seedable, splittable pseudo-random number generator ([`rng::SimRng`])
//!   with the samplers the workload generator needs (uniform, exponential,
//!   log-normal, empirical CDF).
//!
//! The core engine is synchronous: network simulation is CPU-bound and the
//! BFC evaluation depends on bit-for-bit reproducibility, so all randomness
//! is seeded and event ordering is total. Within-run parallelism is layered
//! on top via [`shard::run_conservative`], which preserves exactly that
//! total order across shard boundaries.
//!
//! ```
//! use bfc_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_nanos(20), "second");
//! q.push(SimTime::ZERO + SimDuration::from_nanos(10), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_nanos(), 10);
//! ```

pub mod event;
pub mod hash;
pub mod hist;
pub mod rng;
pub mod shard;
pub mod snapshot;
pub mod time;

pub use event::{EventQueue, ReferenceEventQueue};
pub use hash::{FastHashMap, FastHashSet};
pub use hist::Hist;
pub use rng::SimRng;
pub use snapshot::{Snap, SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};

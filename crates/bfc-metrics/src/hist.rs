//! Deterministic log-bucketed histograms (re-exported).
//!
//! The implementation lives in [`bfc_sim::hist`] so that a layer below the
//! metrics crate (the switch's queue-depth-at-enqueue distribution in
//! `bfc-net`) can observe into a [`Hist`] directly; this module re-exports
//! it under the metrics crate, where the registry and every consumer of
//! distributions look for it.

pub use bfc_sim::hist::{bucket_of, bucket_upper, Hist, BUCKETS};

//! # baselines — the in-network monitoring techniques §2 argues against
//!
//! The SwitchPointer paper motivates its design by the failure modes of
//! existing in-network approaches (§2.1 "Limitations of existing
//! techniques"). This crate implements the two it names so those failure
//! modes can be *demonstrated* rather than asserted:
//!
//! * [`netflow`] — sampled NetFlow: a 1-in-N packet sampler feeding a flow
//!   cache. At typical sampling rates it misses most 1 ms microburst flows
//!   entirely.
//! * [`counters`] — SNMP-style per-port byte counters on a polling
//!   interval. They show *that* an egress was busy but cannot
//!   differentiate priority-based from microburst-based contention, nor
//!   name the contending flows.
//!
//! `spexp motivation` runs both against the Fig. 2 scenarios next to
//! SwitchPointer; see EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod counters;
pub mod netflow;

pub use counters::{series_distance, PortCounters, PortCountersApp};
pub use netflow::{NetFlowRecord, SampledNetFlow, SampledNetFlowApp};

//! # obsplane — the observability plane
//!
//! One std-only metrics layer shared by every plane in the workspace,
//! replacing the ad-hoc counter structs (`QueryPlaneStats`,
//! `StreamStats`) that each crate grew independently. Three primitives:
//!
//! * **[`Counter`] / [`Gauge`]** — relaxed atomics behind `Arc`
//!   handles; the planes resolve handles once at construction and bump
//!   them lock-free on the hot path; readers take
//!   `snapshot().counter("…")`. (`ShardFanout` / `RouterCounters`, the
//!   deterministic routing accounting, stay by-value structs.)
//! * **[`Histogram`]** — HDR-style log-bucketed latency histograms
//!   (`grid_bits` sub-bucket precision, relative quantile error
//!   ≤ `2^-grid_bits`) with mergeable [`HistogramSnapshot`]s and
//!   p50/p95/p99/max extraction. Query execution, window close,
//!   delta apply, incident lag and wire encode/decode/RTT all record
//!   here.
//! * **[`Tracer`]** — a sharded lock-free ring of completed spans with
//!   causal identity ([`TraceContext`]: 64-bit trace ids + parent span
//!   ids), head sampling, and a tail-latency flight recorder that pins
//!   slow-query span trees as exemplars. See `DESIGN.md` §18.
//!
//! A [`MetricsRegistry`] binds names to metrics and snapshots the lot
//! into a [`RegistrySnapshot`] — the mergeable, wire-encodable unit
//! `wireplane` ships in `Frame::StatsScrapeRep` so
//! `WireClient::scrape_stats()` can pull a live cluster's histograms.
//! [`export::write_atomic`] rounds the crate out: temp-file + rename
//! writes for bench/experiment JSON artifacts.
//!
//! See `DESIGN.md` §14 for the bucketing scheme, span model and scrape
//! frame layout.

pub mod export;
pub mod hist;
pub mod registry;
pub mod trace;

pub use export::write_atomic;
pub use hist::{Histogram, HistogramSnapshot, Percentiles, DEFAULT_GRID_BITS};
pub use registry::{Counter, Gauge, MetricsRegistry, RegistrySnapshot};
pub use trace::{
    chunk_stolen, current, set_chunk_stolen, with_context, SpanEvent, SpanGuard, TraceContext,
    Tracer, DEFAULT_TRACE_CAPACITY,
};

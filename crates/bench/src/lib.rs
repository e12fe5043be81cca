//! Benchmark-only crate; see `benches/` for the Criterion targets — the
//! paper's data-plane and single-analyzer rows:
//!
//! * `fig9_pipeline` — the paper's Fig. 9 forwarding-cost comparison
//! * `mphf_ops` — hash construction and lookup
//! * `pointer_ops` — line-rate update / rotation / analyzer pulls
//! * `analyzer_ops` — analyzer compute cost (pointer decode, search
//!   radius, diagnoses) with the RPC fabric free
//! * `query_ops` — host-store ingest and query shapes
//! * `simulator` — event-loop throughput with and without instrumentation
//!
//! The query, stream and wire planes are measured end to end and layer
//! by layer by `spbench/` (`BENCHMARK.json`), the repo's one benchmark.

#![forbid(unsafe_code)]

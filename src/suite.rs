//! Workspace umbrella crate: re-exports the public crates so the top-level
//! `examples/` and `tests/` can use a single dependency surface.

pub use baselines;
pub use mphf;
pub use netsim;
pub use obsplane;
pub use pathdump;
pub use queryplane;
pub use streamplane;
pub use switchpointer;
pub use telemetry;
pub use wireplane;

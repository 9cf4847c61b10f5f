//! OpenArena-like FPS game server and clients (§VI-B).
//!
//! The paper evaluates live migration on an OpenArena (Quake III engine)
//! server with 24 connected clients: UDP transport, 20 server snapshots per
//! second (one every 50 ms), and measures the packet-level delay imposed by
//! the migration with tcpdump (Fig. 4), observing ≈20 ms of server freeze
//! and ≈25 ms of extra delay on the wire, invisible to the clients.
//!
//! This crate provides the server/client [`App`](dvelm_cluster::App)s, a
//! ready-made scenario builder, and the tcpdump-style trace analysis that
//! regenerates Fig. 4.

#![forbid(unsafe_code)]

pub mod apps;
pub mod scenario;
pub mod trace;

pub use apps::{OaClient, OaServer};
pub use scenario::{run_scenario, OaResult, OaScenario};
pub use trace::{fig4_series, migration_delay_us, snapshot_gaps_ms, Fig4Point};

//! The DVE simulation workload (§VI-C/D).
//!
//! Reproduces the paper's evaluation environment:
//!
//! * a virtual space of **10×10 zones**, five server nodes initially hosting
//!   **20 zone-server processes each** (Fig. 5a);
//! * **10 000 clients**, initially uniform, whose middle-region members
//!   drift toward the up-left and down-right corners over the ~15-minute
//!   experiment — the clustering behaviour reported for real MMOGs;
//! * zone servers running the **real-time loop**: ~20 updates/s of 256-byte
//!   messages, a MySQL session to the database server, CPU consumption
//!   proportional to the clients present in the zone;
//! * a packet-level scenario ([`freezebench`]) that migrates a zone server
//!   with 16…1024 live TCP client connections — the Fig. 5b/5c experiment;
//! * a flow-level 900 s simulation ([`flowsim`]) driving the *same*
//!   `dvelm-lb` conductor code — the Fig. 5d/5e/5f experiment.

#![forbid(unsafe_code)]

pub mod applayer;
pub mod apps;
pub mod clients;
pub mod flowsim;
pub mod freezebench;
pub mod space;

pub use applayer::{run_app_layer_sim, AppLayerConfig, AppLayerResult};
pub use apps::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
pub use clients::{ClientPopulation, MovementConfig};
pub use flowsim::{run_flow_sim, FlowSimConfig, FlowSimResult};
pub use freezebench::{run_freeze_bench, FreezeBenchConfig, FreezeBenchResult};
pub use space::{VirtualSpace, ZoneId, GRID, ZONES};

//! Simulated cluster network fabric.
//!
//! Reproduces the paper's single-IP-address cluster (§II-A, Fig. 1): every
//! DVE server node has a *public* interface carrying the one shared public IP
//! and a *local* interface with a unique in-cluster address. The router
//! **broadcasts** each inbound (WAN→cluster) packet to all public interfaces —
//! the property the packet-loss-prevention mechanism exploits — and unicasts
//! outbound packets to the client hosts. In-cluster traffic goes through a
//! switch between local interfaces.
//!
//! This crate is pure topology + timing: links compute arrival instants
//! (serialization delay with a busy-until cursor, plus propagation latency),
//! the router/switch compute *who* receives a frame and *when*. The runtime
//! in `dvelm-cluster` pairs those times with the actual packet objects and
//! schedules delivery events.

#![forbid(unsafe_code)]

pub mod addr;
pub mod interest;
pub mod link;
pub mod router;
pub mod switch;

pub use addr::{Ip, NodeId, Port, SockAddr};
pub use interest::{InterestTable, ZoneId};
pub use link::{Link, LinkStats, LossModel};
pub use router::{BroadcastRouter, RouteError};
pub use switch::ClusterSwitch;

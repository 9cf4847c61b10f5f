//! Prints the Fig. 3 protocol timeline of one concrete migration: every
//! phase entry with its timestamp and the derived intervals.

#![forbid(unsafe_code)]

use dvelm_dve::{run_freeze_bench, FreezeBenchConfig};
use dvelm_migrate::Strategy;

fn main() {
    let connections: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(128);
    let r = run_freeze_bench(&FreezeBenchConfig {
        connections,
        strategy: Strategy::IncrementalCollective,
        repetitions: 1,
        seed: 7,
        monitored: false,
    });
    let rep = &r.reports[0];
    let mut out = String::new();
    out.push_str(&format!(
        "Migration timeline (zone server, {connections} connections, {})\n\n",
        rep.strategy
    ));
    let t0 = rep.started_at;
    for (i, (phase, at)) in rep.phase_log.iter().enumerate() {
        let next = rep
            .phase_log
            .get(i + 1)
            .map(|(_, t)| *t)
            .unwrap_or(rep.resumed_at);
        out.push_str(&format!(
            "  +{:>9.3} ms  {:<38} ({:.3} ms)\n",
            at.saturating_since(t0) as f64 / 1000.0,
            phase,
            next.saturating_since(*at) as f64 / 1000.0,
        ));
    }
    out.push_str(&format!(
        "  +{:>9.3} ms  application running on the destination\n\n",
        rep.resumed_at.saturating_since(t0) as f64 / 1000.0
    ));
    out.push_str(&format!(
        "precopy: {} iterations, {} KB while running\nfreeze:  {:.3} ms, {} KB ({} KB sockets)\n",
        rep.precopy_iterations,
        rep.precopy_bytes / 1024,
        rep.freeze_us() as f64 / 1000.0,
        rep.freeze_bytes / 1024,
        rep.freeze_socket_bytes / 1024,
    ));
    dvelm_bench::emit("migration_timeline", &out);
}

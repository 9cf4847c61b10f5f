//! Ablation harness: the §III-B packet-loss-prevention mechanism on vs off,
//! on the OpenArena workload. Quantifies what the capture hook saves.

#![forbid(unsafe_code)]

use dvelm_metrics::Table;
use dvelm_openarena::{run_scenario, OaScenario};
use dvelm_sim::SimTime;

fn main() {
    let base = OaScenario {
        n_clients: 24,
        run_for: SimTime::from_secs(10),
        ..OaScenario::default()
    };
    let on = run_scenario(&base);
    let off = run_scenario(&OaScenario {
        disable_capture: true,
        ..base
    });
    let r_on = on.report.expect("ran");
    let r_off = off.report.expect("ran");

    let mut out = String::new();
    out.push_str("Ablation — incoming packet-loss prevention (capture hook)\n\n");
    let mut t = Table::new(&["metric", "capture ON", "capture OFF"]);
    t.row(&[
        "packets captured+reinjected".into(),
        r_on.packets_reinjected.to_string(),
        r_off.packets_reinjected.to_string(),
    ]);
    t.row(&[
        "usercmds processed".into(),
        on.server_usercmds.to_string(),
        off.server_usercmds.to_string(),
    ]);
    t.row(&[
        "usercmds lost to the blackout".into(),
        "0".into(),
        (on.server_usercmds.saturating_sub(off.server_usercmds)).to_string(),
    ]);
    t.row(&[
        "freeze time (ms)".into(),
        format!("{:.1}", r_on.freeze_us() as f64 / 1000.0),
        format!("{:.1}", r_off.freeze_us() as f64 / 1000.0),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nwith the hook, every datagram broadcast to the destination during the socket\n\
         blackout is queued and re-injected after restore; without it, those datagrams\n\
         are silently lost (UDP has no retransmission) — the loss prior work reports.\n",
    );
    dvelm_bench::emit("ablation_capture", &out);
}

//! The motivating comparison of §I: OS-level live migration vs the
//! application-layer zone-handoff baseline, on the identical 900 s DVE
//! workload.

#![forbid(unsafe_code)]

use dvelm_dve::{run_app_layer_sim, run_flow_sim, AppLayerConfig, FlowSimConfig};
use dvelm_metrics::Table;

fn main() {
    let shared = FlowSimConfig {
        lb_enabled: true,
        ..FlowSimConfig::default()
    };
    let no_lb = run_flow_sim(&FlowSimConfig {
        lb_enabled: false,
        ..shared.clone()
    });
    let os = run_flow_sim(&shared);
    let app = run_app_layer_sim(&shared, &AppLayerConfig::default());

    // OS-level client interruption: clients of each migrated zone are frozen
    // for the process freeze time. Upper-bound with 50 ms and 300 clients.
    let os_interruption = os.migrations.len() as f64 * 300.0 * 0.050;

    let mut out = String::new();
    out.push_str(
        "Baseline comparison — OS-level live migration vs application-layer zone handoff\n\
         (identical workload: 10,000 clients drifting to the corners over 900 s)\n\n",
    );
    let mut t = Table::new(&[
        "metric",
        "no balancing",
        "app-layer handoff",
        "OS-level migration",
    ]);
    t.row(&[
        "mean CPU spread, last 300 s (%)".into(),
        format!("{:.1}", no_lb.mean_spread(600.0, 900.0)),
        format!("{:.1}", app.mean_spread(600.0, 900.0)),
        format!("{:.1}", os.mean_spread(600.0, 900.0)),
    ]);
    t.row(&[
        "balancing operations".into(),
        "0".into(),
        app.handoffs.len().to_string(),
        os.migrations.len().to_string(),
    ]);
    t.row(&[
        "client interruption (client-seconds)".into(),
        "0".into(),
        format!("{:.0}", app.interruption_client_s),
        format!("≤{:.0}", os_interruption),
    ]);
    t.row(&[
        "clients forced to reconnect".into(),
        "0".into(),
        app.handoffs
            .iter()
            .map(|h| h.clients as u64)
            .sum::<u64>()
            .to_string(),
        "0".into(),
    ]);
    t.row(&[
        "destination constraint".into(),
        "-".into(),
        format!("neighboring zones only ({}x blocked)", app.blocked_steps),
        "any node".into(),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nthe paper's §I argument, quantified: the app-layer baseline balances load too,\n\
         but every handoff disconnects an entire zone's clients (seconds each), and the\n\
         neighboring-zone constraint limits which machines can participate; OS-level\n\
         live migration moves whole zone servers in tens of milliseconds, transparently,\n\
         to any node in the cluster.\n",
    );
    dvelm_bench::emit("baseline_applayer", &out);
}

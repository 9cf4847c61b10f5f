//! CI smoke test for the scale harness: the small cell runs, its JSON
//! round-trips with the required keys, and two same-seed runs agree on
//! every deterministic metric.

use dvelm_bench::json::Json;
use dvelm_bench::scale::{run_scale, scale_json, stack_json, ScaleConfig};

#[test]
fn smoke_cell_is_deterministic_and_its_json_roundtrips() {
    let cfg = ScaleConfig::smoke();
    let a = run_scale(&cfg);
    let b = run_scale(&cfg);
    assert_eq!(
        a.det_fingerprint(),
        b.det_fingerprint(),
        "same seed, same world, same metrics"
    );
    // The fault-free smoke cell never clamps a past-instant schedule (also
    // asserted inside `run_scale`; checked here so the field itself is
    // exercised).
    assert_eq!(a.sched_clamped, 0, "fault-free cell must not clamp");

    // The run did what the config asked for, and every started migration
    // is accounted for.
    assert_eq!(a.migrations_started, cfg.migrations);
    assert_eq!(
        a.migrations_started,
        a.migrations_completed + a.migrations_aborted + a.migrations_in_flight
    );
    assert_eq!(
        a.migrations_completed + a.migrations_aborted,
        cfg.migrations
    );
    assert!(a.events > 0 && a.deliveries > 0 && a.usercmds > 0);

    // BENCH_scale.json: parses back, required keys present.
    let cells = [a, b];
    let scale_text = scale_json(&cells, None).render();
    let doc = Json::parse(&scale_text).expect("BENCH_scale.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("scale"));
    let parsed_cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array");
    assert_eq!(parsed_cells.len(), 2);
    assert!(
        doc.get("host_cores").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
        "BENCH_scale.json must record the measuring host's core count"
    );
    for key in [
        "cell",
        "nodes",
        "clients",
        "sched_clamped",
        "sim_us",
        "events",
        "events_per_sec",
        "deliveries",
        "deliveries_per_sec",
        "wall_ms",
        "wall_ms_per_sim_s",
        "migrations_completed",
        "migrations_in_flight",
    ] {
        assert!(
            parsed_cells[0].get(key).is_some(),
            "BENCH_scale cell missing key {key}"
        );
    }

    // BENCH_stack.json: parses back, required keys present.
    let stack_text = stack_json(&cells).render();
    let doc = Json::parse(&stack_text).expect("BENCH_stack.json parses");
    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("stack"));
    let parsed_cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells array");
    for key in [
        "cell",
        "peak_queued_packets",
        "peak_queued_bytes",
        "freeze_us_max",
        "total_us_max",
        "phase_us",
    ] {
        assert!(
            parsed_cells[0].get(key).is_some(),
            "BENCH_stack cell missing key {key}"
        );
    }
}

//! The repository benchmark: three DVE workloads measured end to end
//! (tracing off) or layer by layer (one traced run).
//!
//! ```text
//! perfbench --workload <arena_broadcast|arena_zoned|tcp_handoff>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run makes `--seconds / round cost` rounds (at least
//! three). Each round builds an independent world from the seed and the
//! round number, warms it up and measures one window. Wall-clock metrics
//! are medians over the rounds, scaled for host speed (see [`calib`]);
//! simulated metrics pool the rounds' migrations and messages, and are
//! deterministic per seed.
//!
//! With `--trace 1` round 0 runs four times: plain, traced, with the
//! invariant monitor armed, and plain again. All four must produce the
//! same deterministic outcome and the monitor must report no violation;
//! the traced run gives the per-layer metrics.
//!
//! Both modes first run the loss-accounting self-test (a 4×100 arena world
//! whose client NodeIds all sit below 255, which must lose nothing).
//!
//! Lines starting with `#` carry run metadata and notes; the last line of
//! standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod run;
mod stats;
mod workload;

use calib::Calib;
use run::{accounting_problems, run_rep, Det, Mode, Msgs, Rep, KINDS, PHASES};
use stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::Workload;

/// Fewest rounds an untraced run makes, however short `--seconds`.
const MIN_ROUNDS: u32 = 3;
/// Most rounds an untraced run makes, however long `--seconds`.
const MAX_ROUNDS: u32 = 200;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Everything a run found wrong; the run is correct when this stays empty.
#[derive(Default)]
struct Problems(Vec<String>);

impl Problems {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn ms(us: &[u64]) -> Vec<f64> {
    us.iter().map(|&u| u as f64 / 1000.0).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process (VmHWM), MB, less the memory
/// the host-speed kernel keeps resident throughout.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| {
            (kb * 1024.0 - calib::RESIDENT_BYTES as f64) / (1024.0 * 1024.0)
        })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The loss-accounting self-test: in a world where every client NodeId
/// sits below 255 and nothing migrates, every message must arrive exactly
/// once.
fn self_test(seed: u64, cal: &mut Calib) -> Vec<String> {
    let d = run_rep(Workload::SelfTest, seed, 0, Mode::Plain, cal).det;
    let mut p = accounting_problems(&d);
    if d.msgs.lost() != 0 || d.msgs.duplicated() != 0 || d.frames_vanished != 0 {
        p.push(format!(
            "messages lost or duplicated: {:?}, {} frames vanished",
            d.msgs, d.frames_vanished
        ));
    }
    p.into_iter().map(|s| format!("self-test: {s}")).collect()
}

/// Simulated end-to-end metrics, pooled over the rounds' outcomes.
fn sim_metrics(dets: &[&Det], m: &mut Metrics, notes: &mut Vec<String>, problems: &mut Problems) {
    let pool = |f: fn(&Det) -> &Vec<u64>| {
        ms(&dets
            .iter()
            .flat_map(|d| f(d).iter().copied())
            .collect::<Vec<_>>())
    };
    let count = |f: fn(&Det) -> usize| dets.iter().map(|d| f(d)).sum::<usize>();
    let freeze = spread(&pool(|d| &d.freeze_us));
    let total = spread(&pool(|d| &d.total_us));
    let gaps = spread(&pool(|d| &d.gaps_us));
    problems.check(freeze.is_some(), || "no migration completed".into());
    problems.check(gaps.is_some(), || "no client saw two state updates".into());
    let none = stats::Spread {
        n: 0,
        p50: f64::NAN,
        tail_pct: 50.0,
        tail: f64::NAN,
    };
    let (freeze, total, gaps) = (
        freeze.unwrap_or(none),
        total.unwrap_or(none),
        gaps.unwrap_or(none),
    );
    let (attempted, completed) = (count(|d| d.attempted), count(|d| d.completed));
    let mut msgs = Msgs::default();
    for d in dets {
        msgs.add(&d.msgs);
    }
    m.put("freeze_ms_p50", freeze.p50, "ms");
    m.put("freeze_ms_tail", freeze.tail, "ms");
    m.put("migration_ms_p50", total.p50, "ms");
    m.put(
        "migration_ok_ratio",
        ratio(completed as u64, attempted as u64),
        "ratio",
    );
    m.put(
        "msg_delivered_ratio",
        1.0 - ratio(msgs.lost(), msgs.sent()),
        "ratio",
    );
    m.put("snapshot_gap_ms_tail", gaps.tail, "ms");
    notes.push(format!(
        "freeze_ms_tail is p{:.2} of n={} completed migrations",
        freeze.tail_pct, freeze.n
    ));
    notes.push(format!(
        "snapshot_gap_ms_tail is p{:.3} of n={} client update gaps ({} migrations followed on the wire)",
        gaps.tail_pct,
        gaps.n,
        count(|d| d.followed)
    ));
    notes.push(format!(
        "migrations: attempted={attempted} started={} rejected={} completed={completed} aborted={} \
         in_flight_at_close={}",
        count(|d| d.started),
        count(|d| d.rejected),
        count(|d| d.aborted),
        count(|d| d.in_flight),
    ));
    notes.push(format!(
        "messages: sent={} lost={} duplicated={} ({msgs:?}); route_errors={}",
        msgs.sent(),
        msgs.lost(),
        msgs.duplicated(),
        dets.iter().map(|d| d.route_errors).sum::<u64>()
    ));
}

/// Why a per-layer metric reads zero on a workload by construction.
fn not_applicable(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::ArenaBroadcast => &[
            (
                "net.zone_subscriptions",
                "broadcast routing keeps no interest table",
            ),
            (
                "stack.xlate_rewritten",
                "no in-cluster connection to translate",
            ),
            ("app.tcp_updates_sent", "UDP workload"),
            ("app.tcp_updates_received", "UDP workload"),
        ],
        Workload::ArenaZoned => &[
            (
                "stack.xlate_rewritten",
                "no in-cluster connection to translate",
            ),
            ("app.tcp_updates_sent", "UDP workload"),
            ("app.tcp_updates_received", "UDP workload"),
        ],
        Workload::TcpHandoff => &[
            (
                "net.zone_subscriptions",
                "broadcast routing keeps no interest table",
            ),
            ("app.usercmds_sent", "TCP workload"),
            ("app.usercmds_received", "TCP workload"),
            ("app.snapshots_sent", "TCP workload"),
            ("app.snapshots_received", "TCP workload"),
        ],
        Workload::SelfTest => &[],
    }
}

/// The per-layer metrics of a traced run: `plain` are the untraced
/// repetitions, `traced` the stepped one, `monitored` the one with the
/// invariant monitor armed.
fn per_layer(plain: &[&Rep], traced: &Rep, monitored: &Rep, m: &mut Metrics) {
    let d = &traced.det;
    let t = traced
        .trace
        .as_ref()
        .expect("traced repetition carries a trace");
    let plain_window_s = median(&plain.iter().map(|r| r.window_s).collect::<Vec<_>>());
    let done = d.completed.max(1) as f64;

    m.put("sim.events", d.events as f64, "count");
    m.put(
        "sim.ns_per_event",
        plain_window_s * 1e9 / d.events.max(1) as f64,
        "ns",
    );
    m.put("sim.pending_peak", t.pending_peak as f64, "count");
    for (k, name) in KINDS.iter().enumerate() {
        let s = t.kinds[k];
        m.put(format!("cluster.{name}.steps"), s.steps as f64, "count");
        m.put(format!("cluster.{name}.events"), s.events as f64, "count");
        m.put(
            format!("cluster.{name}.wall_ms"),
            s.wall_ns as f64 / 1e6,
            "ms",
        );
    }
    m.put("cluster.build_ms", traced.build_s * 1e3, "ms");
    m.put("cluster.warmup_ms", traced.warmup_s * 1e3, "ms");
    let begin: Vec<f64> = t
        .begin_migration_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    m.put("cluster.begin_migration_us", median(&begin), "us");

    let win = &d.window;
    m.put("net.inbound_frames", win.client_tx as f64, "count");
    m.put("net.fanout", ratio(win.server_rx, win.client_tx), "ratio");
    m.put(
        "net.zone_subscriptions",
        d.zone_subscriptions as f64,
        "count",
    );
    m.put("net.frames_vanished", d.frames_vanished as f64, "count");

    m.put("stack.rx_total", win.rx_total as f64, "count");
    m.put("stack.tx_total", win.tx_total as f64, "count");
    m.put(
        "stack.rx_useful_ratio",
        1.0 - ratio(win.rx_dropped_no_socket, win.rx_total),
        "ratio",
    );
    m.put("stack.rx_captured", win.rx_captured as f64, "count");
    m.put("stack.reinjected", win.reinjected as f64, "count");
    m.put(
        "stack.capture_peak_pkts",
        d.capture_peak_pkts as f64,
        "count",
    );
    m.put("stack.capture_shed", win.rx_capture_shed as f64, "count");
    m.put("stack.xlate_rewritten", win.xlate_rewritten as f64, "count");

    m.put(
        "ckpt.precopy_iterations",
        d.precopy_iterations as f64 / done,
        "count",
    );
    m.put("ckpt.precopy_bytes", d.precopy_bytes as f64 / done, "B");
    m.put("ckpt.freeze_bytes", d.freeze_bytes as f64 / done, "B");
    m.put(
        "ckpt.freeze_socket_bytes",
        d.freeze_socket_bytes as f64 / done,
        "B",
    );
    let image: Vec<f64> = t.image_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.put("ckpt.image_us", median(&image), "us");

    for (name, n) in [
        ("migrate.started", d.started),
        ("migrate.completed", d.completed),
        ("migrate.aborted", d.aborted),
        ("migrate.rejected", d.rejected),
        ("migrate.in_flight", d.in_flight),
    ] {
        m.put(name, n as f64, "count");
    }
    for (_, slug) in PHASES.iter().filter(|(_, s)| CHARGED_PHASES.contains(s)) {
        let us = d.phase_us.get(slug).copied().unwrap_or(0);
        m.put(
            format!("migrate.phase_ms.{slug}"),
            us as f64 / 1e3 / done,
            "ms",
        );
    }
    m.put("migrate.wasted_bytes", d.wasted_bytes as f64, "B");

    let msgs = &d.msgs;
    for (name, n) in [
        ("lb.admitted", d.lb_admitted),
        ("lb.denied", d.lb_denied),
        ("lb.peak_active", d.lb_peak_active as u64),
        ("app.usercmds_sent", msgs.usercmds_sent),
        ("app.usercmds_received", msgs.usercmds_received),
        ("app.snapshots_sent", msgs.snapshots_sent),
        ("app.snapshots_received", msgs.snapshots_received),
        ("app.tcp_updates_sent", msgs.tcp_updates_sent),
        ("app.tcp_updates_received", msgs.tcp_updates_received),
        ("app.usercmds_lost", msgs.usercmds_lost),
        ("app.usercmds_duplicated", msgs.usercmds_duplicated),
    ] {
        m.put(name, n as f64, "count");
    }

    m.put("monitor.violations", monitored.violations as f64, "count");
    m.put(
        "monitor.sweep_us",
        monitored.sweep_us.unwrap_or(f64::NAN),
        "us",
    );

    // Both windows hold the `begin_migration` calls; the stepped loop
    // does not, so they leave the share's denominator.
    let attributed: u64 = t.kinds.iter().map(|k| k.wall_ns).sum();
    let begin_s = t.begin_migration_ns.iter().sum::<u64>() as f64 / 1e9;
    m.put(
        "trace.overhead_ratio",
        traced.window_s / plain_window_s,
        "ratio",
    );
    m.put(
        "trace.attributed_share",
        attributed as f64 / 1e9 / (traced.window_s - begin_s),
        "ratio",
    );
}

/// Phases the cost model charges simulated time to under the
/// incremental-collective strategy, reported as `migrate.phase_ms.*`.
/// `restore` (rehash + reinject + resume) is charged nothing — its cost is
/// folded into the detach step — so it is listed as uncharged instead of
/// reported as a 0 ms phase.
const CHARGED_PHASES: [&str; 4] = [
    "precopy_full",
    "precopy_iter",
    "freeze_capture",
    "freeze_detach",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <arena_broadcast|arena_zoned|tcp_handoff> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut problems = Problems::default();
    let mut notes: Vec<String> = Vec::new();
    let mut metrics = Metrics::default();
    let mut cal = Calib::new();
    problems.0.extend(self_test(args.seed, &mut cal));

    let reps: Vec<Rep> = if args.trace {
        [Mode::Plain, Mode::Traced, Mode::Monitored, Mode::Plain]
            .into_iter()
            .map(|mode| run_rep(args.workload, args.seed, 0, mode, &mut cal))
            .collect()
    } else {
        let rounds = (args.seconds / args.workload.round_cost_s()).ceil() as u32;
        (0..rounds.clamp(MIN_ROUNDS, MAX_ROUNDS))
            .map(|round| run_rep(args.workload, args.seed, round, Mode::Plain, &mut cal))
            .collect()
    };

    let first = &reps[0].det;
    for (i, r) in reps.iter().enumerate() {
        for p in accounting_problems(&r.det) {
            problems.0.push(format!("round {i}: {p}"));
        }
        // Traced runs repeat one round in every mode: all must agree.
        problems.check(!args.trace || r.det == *first, || {
            format!(
                "traced-run repetition {i} is not deterministic: {:?} vs {:?}",
                r.det, first
            )
        });
    }
    for (i, r) in reps.iter().enumerate() {
        if let Some(t) = &r.trace {
            problems.check(t.image_mismatches == 0, || {
                format!(
                    "repetition {i}: {} checkpoint images failed to round-trip",
                    t.image_mismatches
                )
            });
        }
        problems.check(r.violations == 0, || {
            format!(
                "repetition {i}: invariant monitor reported {} violations",
                r.violations
            )
        });
    }

    if args.trace {
        let plain = [&reps[0], &reps[3]];
        per_layer(&plain, &reps[1], &reps[2], &mut metrics);
        for (name, why) in not_applicable(args.workload) {
            notes.push(format!("{name} does not apply to {}: {why}", args.name));
        }
    } else {
        let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        metrics.put(
            "wall_ms_per_sim_s",
            med(&|r| r.scaled_window_s * 1e3 / r.window_sim_s),
            "ms",
        );
        metrics.put("setup_s", med(&|r| r.scaled_setup_s), "s");
        notes.push(format!(
            "raw host wall (medians, not scaled): wall_ms_per_sim_s={:.3} setup_s={:.4}; \
             {} host-speed samples",
            med(&|r| r.window_s * 1e3 / r.window_sim_s),
            med(&|r| r.build_s + r.warmup_s),
            reps.iter().map(|r| r.cal_samples).sum::<usize>(),
        ));
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        let dets: Vec<&Det> = reps.iter().map(|r| &r.det).collect();
        sim_metrics(&dets, &mut metrics, &mut notes, &mut problems);
    }
    let mut phase_us: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, us) in reps.iter().flat_map(|r| &r.det.phase_us) {
        *phase_us.entry(name).or_insert(0) += us;
    }
    let uncharged: Vec<&str> = PHASES
        .iter()
        .map(|(_, slug)| *slug)
        .filter(|slug| phase_us.get(slug).copied().unwrap_or(0) == 0)
        .collect();
    notes.push(format!(
        "uncharged phases (no simulated time in any migration): {}",
        uncharged.join(", ")
    ));
    for (name, us) in &phase_us {
        if *us > 0 && !CHARGED_PHASES.contains(name) {
            notes.push(format!(
                "phase {name} is charged ({us} us) but has no per-layer metric"
            ));
        }
    }
    for (name, value, _) in &metrics.0 {
        problems.check(value.is_finite(), || format!("metric {name} is not finite"));
    }

    let mut meta = String::from("{");
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let _ = write!(
        meta,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {}, \
         \"threads\": 1, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_digest\": {}",
        json_str(&args.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reps.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
    );
    meta.push('}');
    println!("# meta {meta}");
    for n in &notes {
        println!("# note {n}");
    }
    for p in &problems.0 {
        println!("# problem {p}");
        eprintln!("perfbench: {p}");
    }

    let attempted: usize = reps.iter().map(|r| r.det.attempted).sum();
    let failed: usize = reps
        .iter()
        .map(|r| r.det.rejected + r.det.aborted + r.det.in_flight)
        .sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        problems.0.is_empty(),
        attempted.max(1),
        failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_modes_do_not_change_the_outcome() {
        let mut cal = Calib::new();
        let outcomes: Vec<Det> = [Mode::Plain, Mode::Traced, Mode::Monitored]
            .into_iter()
            .map(|mode| run_rep(Workload::SelfTest, 3, 0, mode, &mut cal).det)
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
        assert!(outcomes[0].events > 0);
    }
}

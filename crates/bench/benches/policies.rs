//! Criterion microbenchmarks of the load-balancing middleware: policy
//! evaluation, conductor ticks and the flow-level DVE step.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvelm_dve::{run_flow_sim, FlowSimConfig};
use dvelm_lb::{Conductor, LoadInfo, PolicyConfig};
use dvelm_net::NodeId;
use dvelm_proc::Pid;
use dvelm_sim::SimTime;
use std::hint::black_box;
use std::time::Duration;

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy");
    g.measurement_time(Duration::from_secs(2));
    for peers in [4usize, 64] {
        g.bench_with_input(BenchmarkId::new("location", peers), &peers, |b, &n| {
            let cfg = PolicyConfig::default();
            let mut db = dvelm_lb::PeerDb::new();
            for i in 0..n {
                db.update(LoadInfo::new(
                    NodeId(i as u32),
                    40.0 + (i % 50) as f64,
                    20,
                    SimTime::ZERO,
                ));
            }
            b.iter(|| black_box(cfg.choose_destination(95.0, 70.0, &db, &[])))
        });
    }
    g.bench_function("selection_100_procs", |b| {
        let cfg = PolicyConfig::default();
        let procs: Vec<(Pid, f64)> = (0..100).map(|i| (Pid(i), 0.5 + (i % 20) as f64)).collect();
        b.iter(|| black_box(cfg.choose_process(95.0, 75.0, &procs)))
    });
    g.finish();
}

fn bench_conductor_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("conductor");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("tick_idle", |b| {
        let mut cond = Conductor::new(NodeId(0), PolicyConfig::default());
        for i in 1..5u32 {
            cond.peers
                .update(LoadInfo::new(NodeId(i), 75.0, 20, SimTime::from_secs(1)));
        }
        let procs: Vec<(Pid, f64)> = (0..20).map(|i| (Pid(i), 3.6)).collect();
        let mut t = 1u64;
        b.iter(|| {
            t += 1;
            let now = SimTime::from_micros(t);
            let li = LoadInfo::new(NodeId(0), 75.0, 20, now);
            black_box(cond.on_tick(now, li, &procs).len())
        })
    });
    g.finish();
}

fn bench_flow_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowsim");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    g.bench_function("dve_900s_lb", |b| {
        b.iter(|| {
            let r = run_flow_sim(&FlowSimConfig::default());
            black_box(r.migrations.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_conductor_tick,
    bench_flow_sim
);
criterion_main!(benches);

//! Criterion microbenchmarks of the migration path: checkpointing,
//! incremental tracking, socket record/delta computation and a small
//! end-to-end migration per strategy.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvelm_ckpt::{full_checkpoint, incremental_update, IncrementalTracker};
use dvelm_dve::{run_freeze_bench, FreezeBenchConfig};
use dvelm_migrate::Strategy;
use dvelm_proc::{Pid, Process};
use dvelm_sim::DetRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint");
    g.measurement_time(Duration::from_secs(2));
    for pages in [256usize, 4096] {
        let p = Process::new(Pid(1), "srv", 64, pages);
        g.bench_with_input(BenchmarkId::new("full", pages), &p, |b, p| {
            b.iter(|| black_box(full_checkpoint(p)).transfer_bytes())
        });
        g.bench_with_input(BenchmarkId::new("encode", pages), &p, |b, p| {
            let img = full_checkpoint(p);
            b.iter(|| black_box(img.encode()).len())
        });
    }
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental");
    g.measurement_time(Duration::from_secs(2));
    for dirty in [50usize, 500] {
        g.bench_with_input(BenchmarkId::new("step", dirty), &dirty, |b, &dirty| {
            let mut p = Process::new(Pid(1), "srv", 64, 4096);
            let mut tr = IncrementalTracker::new();
            incremental_update(&mut tr, &mut p);
            let mut rng = DetRng::new(1);
            b.iter(|| {
                p.do_work(&mut rng, dirty);
                black_box(incremental_update(&mut tr, &mut p)).transfer_bytes()
            })
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_migration_32_conns");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for strategy in Strategy::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(strategy),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let r = run_freeze_bench(&FreezeBenchConfig {
                        connections: 32,
                        strategy,
                        repetitions: 1,
                        seed: 5,
                        monitored: false,
                    });
                    black_box(r.worst_freeze_us)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_checkpoint,
    bench_incremental,
    bench_end_to_end
);
criterion_main!(benches);

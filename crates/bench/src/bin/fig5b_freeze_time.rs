//! Regenerates Fig. 5b: worst-case process freeze time with iterative,
//! collective and incremental collective socket migration, 16…1024
//! connections.

#![forbid(unsafe_code)]

fn main() {
    let conns = dvelm_bench_args();
    let cells = dvelm_bench::freeze_sweep(&conns, 3, workers());
    let out = dvelm_bench::fig5b(&cells, &conns);
    dvelm_bench::emit("fig5b_freeze_time", &out);
}

fn dvelm_bench_args() -> Vec<usize> {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    if args.is_empty() {
        vec![16, 32, 64, 128, 256, 512, 1024]
    } else {
        args
    }
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

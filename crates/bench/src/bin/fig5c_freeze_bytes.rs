//! Regenerates Fig. 5c: socket data transferred during the freeze phase,
//! 16…1024 connections.

#![forbid(unsafe_code)]

fn main() {
    let conns: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![16, 32, 64, 128, 256, 512, 1024]
        } else {
            args
        }
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cells = dvelm_bench::freeze_sweep(&conns, 3, workers);
    let out = dvelm_bench::fig5c(&cells, &conns);
    dvelm_bench::emit("fig5c_freeze_bytes", &out);
}

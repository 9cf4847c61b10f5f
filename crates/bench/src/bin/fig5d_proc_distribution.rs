//! Regenerates Fig. 5d: zone-server process distribution among nodes with
//! load balancing enabled (includes the Fig. 5a initial partitioning).

#![forbid(unsafe_code)]

fn main() {
    let r = dvelm_bench::run_dve(true);
    let out = dvelm_bench::fig5d(&r);
    dvelm_bench::emit("fig5d_proc_distribution", &out);
}

//! Regenerates Fig. 5f: CPU consumption per node over the 900 s DVE
//! simulation, load balancing enabled.

#![forbid(unsafe_code)]

fn main() {
    let r = dvelm_bench::run_dve(true);
    let out = dvelm_bench::fig5ef(&r, true);
    dvelm_bench::emit("fig5f_cpu_lb", &out);
}

//! Regenerates Fig. 5e: CPU consumption per node over the 900 s DVE
//! simulation, load balancing disabled.

#![forbid(unsafe_code)]

fn main() {
    let r = dvelm_bench::run_dve(false);
    let out = dvelm_bench::fig5ef(&r, false);
    dvelm_bench::emit("fig5e_cpu_no_lb", &out);
}

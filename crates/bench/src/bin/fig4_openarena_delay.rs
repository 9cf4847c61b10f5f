//! Regenerates Fig. 4: packet delay due to migration (OpenArena server,
//! 24 clients) plus the §VI-B headline freeze time.

#![forbid(unsafe_code)]

fn main() {
    let out = dvelm_bench::fig4(24);
    dvelm_bench::emit("fig4_openarena_delay", &out);
}

//! Renders Fig. 5a: the initial 10×10 zone partitioning with the node
//! assignment and the high-level direction of client movement during the
//! simulation, plus the measured client distribution at three instants.

#![forbid(unsafe_code)]

use dvelm_dve::{ClientPopulation, MovementConfig, VirtualSpace, ZoneId, GRID};

fn grid_at(pop: &ClientPopulation, space: &VirtualSpace) -> String {
    let counts = pop.zone_counts(space);
    let mut out = String::new();
    for row in 0..GRID {
        out.push_str("  ");
        for col in 0..GRID {
            let z = ZoneId::at(row, col);
            let c = counts[z.0 as usize];
            let glyph = match c {
                0..=49 => '.',
                50..=149 => 'o',
                150..=299 => 'O',
                _ => '#',
            };
            out.push(glyph);
            out.push(' ');
        }
        out.push_str(&format!(
            "  node{}\n",
            space.node_of(ZoneId::at(row, 0)) + 1
        ));
    }
    out
}

fn main() {
    let space = VirtualSpace::new();
    let mut out = String::new();
    out.push_str("Fig. 5a — initial virtual space partitioning and client movement\n\n");
    out.push_str("zone → node assignment (row-major 10×10, two rows per node):\n\n");
    for row in 0..GRID {
        out.push_str("  ");
        for _ in 0..GRID {
            out.push_str(&format!("{} ", space.node_of(ZoneId::at(row, 0)) + 1));
        }
        match row {
            0 => out.push_str("   ↖ upper-middle clients drift here"),
            9 => out.push_str("   ↘ lower-middle clients drift here"),
            4 | 5 => out.push_str("   ── middle region drains"),
            _ => {}
        }
        out.push('\n');
    }
    out.push_str("\nclient density (10 000 clients; . <50, o <150, O <300, # ≥300 per zone):\n");
    let mut pop = ClientPopulation::new(10_000, MovementConfig::default(), 20100920);
    for t in [0.0, 450.0, 900.0] {
        pop.advance_to(t);
        out.push_str(&format!("\n  t = {t:>3.0} s\n"));
        out.push_str(&grid_at(&pop, &space));
    }
    dvelm_bench::emit("fig5a_partitioning", &out);
}

//! Host-speed calibration.
//!
//! The shared hosts this benchmark runs on change speed under it: the same
//! round of the same workload takes anywhere from 0.8 to 1.8 s within an
//! hour, with no steal time and all of it user time, so other
//! tenants are contending for the core and its caches. To keep wall-clock
//! metrics comparable across runs, the warm-up and window are run in short
//! slices, and every [`SAMPLE_EVERY`] of wall time a fixed reference
//! kernel is timed between two slices. The wall time between two samples
//! is scaled by [`REFERENCE_S`] over the duration of the sample that
//! closes it, so scaled times read as seconds of a host on which the
//! kernel takes `REFERENCE_S`. The kernel's own time is excluded from
//! every wall time, scaled or raw, and raw wall times are printed next to
//! the scaled ones.
//!
//! The kernel is a dependent pointer chase through a 256 KiB table, timed
//! from a fixed cache state so that its duration tracks the host and not
//! the simulator slice that ran before it: an untimed pass first pulls the
//! whole table into the core's caches, an untimed sweep of an 8 MiB buffer
//! (more than a core's 2 MiB L2 on the reference host) then pushes it out
//! to the shared last-level cache, and only the chase after that is timed.
//! It therefore measures last-level-cache latency under whatever the other
//! tenants are doing, which is what slows the simulator. Timed straight
//! after other work instead, the chase took 29 to 36% longer after a 16 or
//! 64 MiB sweep than after none, so a program that touched less memory
//! would have read as a faster host; from the fixed state its duration
//! moved by at most 2.5%, either way, with the preceding sweep.
//!
//! Each round's raw window time was regressed on its mean kernel duration
//! (40, 18 and 11 rounds of `arena_broadcast`, `tcp_handoff` and
//! `arena_zoned`): correlation 0.87, 0.87 and 0.86, elasticity 0.9 to 1.5.
//! A plain ratio is used: scaling by the ratio to the power 1.5 instead
//! widened the spread of run medians over six seeds on two of the three
//! workloads. Scaling cut the rounds' spread (sd of log
//! time) from 0.123, 0.127 and 0.076 to 0.070, 0.065 and 0.040: it removes
//! much of the host noise, not all of it. A chase kept in L2 (an untimed
//! pass, then the timed one) varied too little to track the host: it left
//! 0.096, 0.081 and 0.033.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Typical duration of one timed kernel pass on the reference host
/// (2-core Xeon, release build), so scaled times stay close to raw ones
/// there.
pub const REFERENCE_S: f64 = 0.0007;

/// Wall time between two kernel samples.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Entries of the chased table (256 KiB).
const TABLE_LEN: usize = 1 << 15;

/// Dependent loads per timed kernel pass.
const CHASE_STEPS: usize = 60_000;

/// Entries of the buffer swept to push the table out of L2 (8 MiB).
const FLUSH_LEN: usize = 1 << 20;

/// Memory the kernel keeps resident for the whole run, bytes.
pub const RESIDENT_BYTES: usize =
    TABLE_LEN * std::mem::size_of::<usize>() + FLUSH_LEN * std::mem::size_of::<u64>();

/// The reference kernel plus a host-speed-scaled clock.
///
/// Wall time is cut into intervals by kernel samples; each interval is
/// scaled by `REFERENCE_S / d`, where `d` is the duration of the sample
/// that closes it, and added to the scaled clock. Kernel time itself is
/// kept out of both the scaled clock and [`spent`](Calib::spent).
pub struct Calib {
    /// A single random cycle through all entries (Sattolo's algorithm),
    /// so each load depends on the previous one.
    next: Vec<usize>,
    /// Swept between the untimed and the timed pass.
    flush: Vec<u64>,
    /// Start of the open interval.
    since: Instant,
    /// Scaled seconds of all closed intervals.
    scaled: f64,
    samples: usize,
    spent: Duration,
}

impl Calib {
    pub fn new() -> Calib {
        let mut next: Vec<usize> = (0..TABLE_LEN).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..TABLE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calib {
            next,
            flush: (0..FLUSH_LEN as u64).collect(),
            since: Instant::now(),
            scaled: 0.0,
            samples: 0,
            spent: Duration::ZERO,
        }
    }

    /// Close the open interval with a sample if [`SAMPLE_EVERY`] has
    /// passed since it opened.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
    }

    /// Close the open interval with a sample now and return the scaled
    /// clock: the difference of two readings is the scaled duration of
    /// the span between them.
    pub fn read(&mut self) -> f64 {
        self.sample();
        self.scaled
    }

    fn sample(&mut self) {
        let interval = self.since.elapsed().as_secs_f64();
        let paused = Instant::now();
        black_box(self.chase(TABLE_LEN));
        // One load per 64-byte line.
        black_box(
            self.flush
                .iter()
                .step_by(8)
                .fold(0u64, |a, &v| a.wrapping_add(v)),
        );
        let started = Instant::now();
        black_box(self.chase(CHASE_STEPS));
        let took = started.elapsed();
        self.scaled += interval * REFERENCE_S / took.as_secs_f64().max(1e-9);
        self.samples += 1;
        self.since = Instant::now();
        self.spent += self.since - paused;
    }

    /// Follow the table's cycle for `steps` dependent loads.
    fn chase(&self, steps: usize) -> usize {
        let mut i = 0;
        for _ in 0..steps {
            i = self.next[i];
        }
        i
    }

    /// Wall time spent in the kernel, untimed passes included, so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Kernel samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

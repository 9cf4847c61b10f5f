//! One repetition of a workload: build, warm up, measured window, drain.
//!
//! The benchmark measures every layer from outside. It times the public
//! calls it makes into `World` and the layer crates, and it reads the
//! layers' public statistics. In [`Mode::Traced`] it also steps the event
//! loop itself: it peeks the head event, runs the world up to that event's
//! instant, and charges the call's wall time and dispatched-event count to
//! the head event's kind. Tracing observes only, so the deterministic
//! outcome ([`Det`]) of a repetition is identical in every mode.

use crate::calib::Calib;
use crate::workload::{build, Built, Planned, Role, Workload};
use dvelm_ckpt::CheckpointImage;
use dvelm_cluster::{Event, MigId, World};
use dvelm_migrate::{PhaseId, Strategy};
use dvelm_net::{Port, SockAddr};
use dvelm_sim::{SimTime, MILLISECOND};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a repetition observes the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation beyond whole-window wall time.
    Plain,
    /// Per-event-kind stepping plus timed benchmark calls.
    Traced,
    /// The invariant monitor is armed and swept after the drain.
    Monitored,
}

/// Event kinds the traced run attributes wall time to.
pub const KINDS: [&str; 7] = [
    "app_tick",
    "app_read",
    "broadcast_arrival",
    "packet_arrival",
    "sock_timer",
    "migration_step",
    "other",
];

fn kind_of(ev: &Event) -> usize {
    match ev {
        Event::AppTick { .. } => 0,
        Event::AppRead { .. } => 1,
        Event::BroadcastArrival { .. } => 2,
        Event::PacketArrival { .. } => 3,
        Event::SockTimer { .. } => 4,
        Event::MigrationStep { .. } => 5,
        _ => 6,
    }
}

/// Migration phases by report label, with the slug used in metric names.
pub const PHASES: [(PhaseId, &str); 6] = [
    (PhaseId::PrecopyFull, "precopy_full"),
    (PhaseId::PrecopyIter, "precopy_iter"),
    (PhaseId::FreezeCapture, "freeze_capture"),
    (PhaseId::FreezeDetach, "freeze_detach"),
    (PhaseId::Restore, "restore"),
    (PhaseId::DemandResolve, "demand_resolve"),
];

fn phase_slug(label: &str) -> &'static str {
    PHASES
        .iter()
        .find(|(p, _)| p.label() == label)
        .map_or("unknown", |(_, slug)| slug)
}

/// Wall time and dispatch counts charged to one event kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStat {
    /// `run_until` calls whose head event had this kind.
    pub steps: u64,
    /// Events those calls dispatched.
    pub events: u64,
    /// Wall nanoseconds those calls took.
    pub wall_ns: u64,
}

/// What the traced stepping and timed calls recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub kinds: [KindStat; 7],
    /// Most events pending in the scheduler after any traced step.
    pub pending_peak: usize,
    /// Wall time of each `World::begin_migration` call, ns.
    pub begin_migration_ns: Vec<u64>,
    /// Wall time of checkpoint + encode + decode per migrating process, ns.
    /// This is the benchmark's own probe, kept out of the window's wall.
    pub image_ns: Vec<u64>,
    /// Images whose decode did not reproduce the checkpoint.
    pub image_mismatches: usize,
}

/// Stack counters summed over one class of hosts, or the whole cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub rx_total: u64,
    pub tx_total: u64,
    pub rx_dropped_no_socket: u64,
    pub rx_captured: u64,
    pub reinjected: u64,
    pub rx_capture_shed: u64,
    pub xlate_rewritten: u64,
    pub server_rx: u64,
    pub server_tx: u64,
    pub client_rx: u64,
    pub client_tx: u64,
    pub db_rx: u64,
}

impl Tally {
    fn of(w: &World, roles: &[Role]) -> Tally {
        let mut t = Tally::default();
        for (h, role) in w.hosts.iter().zip(roles) {
            let s = h.stack.stats();
            let x = h.stack.xlate.stats();
            t.rx_total += s.rx_total;
            t.tx_total += s.tx_total;
            t.rx_dropped_no_socket += s.rx_dropped_no_socket;
            t.rx_captured += s.rx_captured;
            t.reinjected += s.reinjected;
            t.rx_capture_shed += s.rx_capture_shed;
            t.xlate_rewritten += x.rewritten_in + x.rewritten_out;
            match role {
                Role::Server => {
                    t.server_rx += s.rx_total;
                    t.server_tx += s.tx_total;
                }
                Role::Client => {
                    t.client_rx += s.rx_total;
                    t.client_tx += s.tx_total;
                }
                Role::Database => t.db_rx += s.rx_total,
            }
        }
        t
    }

    fn minus(self, o: Tally) -> Tally {
        Tally {
            rx_total: self.rx_total - o.rx_total,
            tx_total: self.tx_total - o.tx_total,
            rx_dropped_no_socket: self.rx_dropped_no_socket - o.rx_dropped_no_socket,
            rx_captured: self.rx_captured - o.rx_captured,
            reinjected: self.reinjected - o.reinjected,
            rx_capture_shed: self.rx_capture_shed - o.rx_capture_shed,
            xlate_rewritten: self.xlate_rewritten - o.xlate_rewritten,
            server_rx: self.server_rx - o.server_rx,
            server_tx: self.server_tx - o.server_tx,
            client_rx: self.client_rx - o.client_rx,
            client_tx: self.client_tx - o.client_tx,
            db_rx: self.db_rx - o.db_rx,
        }
    }
}

/// Application messages over the whole run, counted after the drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Msgs {
    pub usercmds_sent: u64,
    pub usercmds_received: u64,
    /// Usercmds missing or surplus at the servers, summed per client.
    pub usercmds_lost: u64,
    pub usercmds_duplicated: u64,
    pub snapshots_sent: u64,
    pub snapshots_received: u64,
    pub tcp_updates_sent: u64,
    pub tcp_updates_received: u64,
}

impl Msgs {
    pub fn add(&mut self, o: &Msgs) {
        self.usercmds_sent += o.usercmds_sent;
        self.usercmds_received += o.usercmds_received;
        self.usercmds_lost += o.usercmds_lost;
        self.usercmds_duplicated += o.usercmds_duplicated;
        self.snapshots_sent += o.snapshots_sent;
        self.snapshots_received += o.snapshots_received;
        self.tcp_updates_sent += o.tcp_updates_sent;
        self.tcp_updates_received += o.tcp_updates_received;
    }

    pub fn sent(&self) -> u64 {
        self.usercmds_sent + self.snapshots_sent + self.tcp_updates_sent
    }

    /// Messages sent but never received: usercmds per client, snapshots
    /// and TCP updates per class (neither can be delivered twice).
    pub fn lost(&self) -> u64 {
        self.usercmds_lost
            + self.snapshots_sent.saturating_sub(self.snapshots_received)
            + self
                .tcp_updates_sent
                .saturating_sub(self.tcp_updates_received)
    }

    /// Deliveries beyond the messages sent.
    pub fn duplicated(&self) -> u64 {
        self.usercmds_duplicated
            + self.snapshots_received.saturating_sub(self.snapshots_sent)
            + self
                .tcp_updates_received
                .saturating_sub(self.tcp_updates_sent)
    }
}

/// The deterministic outcome of a repetition: identical for two runs of
/// one workload and seed, whatever the mode or host.
#[derive(Debug, Clone, PartialEq)]
pub struct Det {
    /// Events dispatched in the measured window.
    pub events: u64,
    pub attempted: usize,
    pub started: usize,
    /// Planned migrations declined for a reason observed from outside
    /// ([`must_decline`], admission denials), counted apart from `started`.
    pub rejected: usize,
    /// Reports present when the window closed.
    pub completed: usize,
    pub aborted: usize,
    /// Migrations still running when the window closed.
    pub in_flight: usize,
    /// Freeze and start-to-resume times of completed migrations, µs.
    pub freeze_us: Vec<u64>,
    pub total_us: Vec<u64>,
    /// Time per phase summed over completed migrations, µs, by slug.
    pub phase_us: BTreeMap<&'static str, u64>,
    pub precopy_iterations: u64,
    pub precopy_bytes: u64,
    pub freeze_bytes: u64,
    pub freeze_socket_bytes: u64,
    pub wasted_bytes: u64,
    pub msgs: Msgs,
    /// Gaps between consecutive state updates to one client, for gaps that
    /// start inside the window, µs: snapshots as the first migrated server
    /// transmits them (arena), TCP updates as the swarms receive them.
    pub gaps_us: Vec<u64>,
    /// Arena: migrations whose server the packet log followed.
    pub followed: usize,
    /// Stack counters over the measured window.
    pub window: Tally,
    /// Server-host transmits that reached no client or database host over
    /// the whole run.
    pub frames_vanished: i64,
    /// Largest capture queue on any host, packets.
    pub capture_peak_pkts: u64,
    pub lb_admitted: u64,
    pub lb_denied: u64,
    pub lb_peak_active: usize,
    /// Zone subscriptions in the interest table when the window closed.
    pub zone_subscriptions: usize,
    /// Past-instant schedules the scheduler clamped (must stay zero).
    pub clamped: u64,
    pub route_errors: u64,
}

/// One repetition's results.
#[derive(Debug, Clone)]
pub struct Rep {
    pub det: Det,
    /// Raw wall seconds, calibration samples excluded: world
    /// construction, warm-up, measured window (traced runs also exclude
    /// the checkpoint probes, [`Trace::image_ns`]).
    pub build_s: f64,
    pub warmup_s: f64,
    pub window_s: f64,
    /// Simulated seconds in the measured window.
    pub window_sim_s: f64,
    /// Build plus warm-up, and the window, in host-speed-scaled seconds
    /// ([`Calib`]); meaningful for untraced modes only.
    pub scaled_setup_s: f64,
    pub scaled_window_s: f64,
    /// Calibration samples taken during the round.
    pub cal_samples: usize,
    pub trace: Option<Trace>,
    /// Wall time of `World::monitor_sweep` (monitored runs), µs.
    pub sweep_us: Option<f64>,
    /// Invariant violations the monitor recorded (monitored runs).
    pub violations: usize,
}

/// Simulated time per slice. Worlds advance slice by slice in every mode,
/// so the benchmark acts (calibration samples, packet-log switches) at the
/// same simulated instants whether or not it traces.
const SLICE_US: u64 = 10 * MILLISECOND;

/// Run the world from `cursor` to `until` slice by slice, calling `each`
/// at every slice end. Traced runs step head event by head event within a
/// slice; untraced runs take a calibration sample between slices.
fn advance(
    w: &mut World,
    cursor: &mut SimTime,
    until: SimTime,
    mut trace: Option<&mut Trace>,
    cal: &mut Calib,
    mut each: impl FnMut(&mut World, SimTime),
) {
    while *cursor < until {
        *cursor = (*cursor + SLICE_US).min(until);
        match trace.as_deref_mut() {
            Some(t) => step_until(w, *cursor, t),
            None => {
                w.run_until(*cursor);
                cal.tick();
            }
        }
        each(w, *cursor);
    }
}

/// Run the world to `until` one head event at a time, charging each
/// `run_until` call's wall time and dispatch count to the head's kind.
fn step_until(w: &mut World, until: SimTime, t: &mut Trace) {
    while let Some((key, ev)) = w.sched.peek() {
        if key.at > until {
            break;
        }
        let kind = kind_of(ev);
        let before = w.sched.dispatched();
        let started = Instant::now();
        w.run_until(key.at);
        let ns = started.elapsed().as_nanos() as u64;
        let k = &mut t.kinds[kind];
        k.steps += 1;
        k.events += w.sched.dispatched() - before;
        k.wall_ns += ns;
        t.pending_peak = t.pending_peak.max(w.sched.pending());
    }
}

/// Margin around a followed server's freeze: longer than the 50 ms
/// snapshot interval, so the last snapshot before the freeze and the first
/// after the resume are both on the log.
const WIRE_MARGIN_US: u64 = 60 * MILLISECOND;

/// The world's packet log records one port at a time. On the arena
/// workloads it follows one migrating server at a time, so its snapshots
/// on the wire show the migration's stall (Fig. 4): once the followed
/// migration has resumed and a margin passed, it moves to the earliest
/// running migration whose freeze is still at least the margin away. The
/// start-to-freeze time is learned from the first completed migration;
/// until then only a migration starting at that instant qualifies.
#[derive(Default)]
struct WireLog {
    /// Plan index of the followed migration, and once it has finished,
    /// when to let it go.
    current: Option<(usize, Option<SimTime>)>,
    freeze_after_us: Option<u64>,
    /// Ports followed so far.
    ports: Vec<Port>,
}

impl WireLog {
    fn update(&mut self, w: &mut World, now: SimTime, plan: &[Planned], migs: &[Option<MigId>]) {
        let finished =
            |w: &World, i: usize| migs[i].is_some_and(|m| w.migration_outcome(m).is_some());
        match self.current {
            Some((i, None)) if finished(w, i) => {
                self.current = Some((i, Some(now + WIRE_MARGIN_US)));
                if self.freeze_after_us.is_none() {
                    self.freeze_after_us = w
                        .reports
                        .iter()
                        .rev()
                        .find(|r| r.pid == plan[i].pid && !r.is_aborted())
                        .map(|r| r.frozen_at.saturating_since(r.started_at));
                }
            }
            Some((_, Some(release))) if now >= release => self.current = None,
            _ => {}
        }
        if self.current.is_some() {
            return;
        }
        let next = (0..migs.len())
            .filter(|&i| migs[i].is_some() && !finished(w, i) && plan[i].port.is_some())
            .filter(|&i| match self.freeze_after_us {
                Some(d) => plan[i].at + d >= now + WIRE_MARGIN_US,
                None => plan[i].at == now,
            })
            .min_by_key(|&i| plan[i].at);
        if let Some(i) = next {
            let port = plan[i].port.expect("filtered on a port");
            w.enable_packet_log(port);
            self.ports.push(port);
            self.current = Some((i, None));
        }
    }
}

/// Checkpoint `pid`, encode the image and decode it again, timing all
/// three (the ckpt layer's cost per migrating process).
fn time_image(w: &World, pid: dvelm_proc::Pid, t: &mut Trace) {
    let started = Instant::now();
    let ok = w.checkpoint_process(pid).is_some_and(|img| {
        let bytes = img.encode();
        matches!(CheckpointImage::decode(&bytes), Ok(back) if back == img)
    });
    t.image_ns.push(started.elapsed().as_nanos() as u64);
    if !ok {
        t.image_mismatches += 1;
    }
}

/// Admission denials the ledger has counted so far.
fn denials(w: &World) -> u64 {
    let a = w.admission().stats();
    a.denied_cluster + a.denied_node + a.denied_image
}

/// Whether `World::begin_migration` must decline plan entry `i`, judged
/// from outside before the call by the preconditions it checks: the
/// process exists, source and destination differ and are alive, and the
/// process is not migrating already. Admission denials are observed from
/// the ledger across the call instead.
fn must_decline(w: &World, plan: &[Planned], migs: &[Option<MigId>], i: usize) -> bool {
    let Planned { pid, dst, .. } = plan[i];
    let Some(src) = w.host_of(pid) else {
        return true;
    };
    src == dst
        || !w.hosts[src].alive
        || !w.hosts[dst].alive
        || (0..i).any(|j| {
            plan[j].pid == pid && migs[j].is_some_and(|m| w.migration_outcome(m).is_none())
        })
}

/// Run round `round` of `workload` for `seed`, sampling host speed with
/// `cal`.
pub fn run_rep(workload: Workload, seed: u64, round: u32, mode: Mode, cal: &mut Calib) -> Rep {
    let spec = workload.spec();
    let samples_before = cal.samples();
    let scaled_start = cal.read();
    let t_build = Instant::now();
    let Built {
        world: mut w,
        roles,
        plan,
        probes,
    } = build(workload, seed, round, mode == Mode::Monitored);
    let build_s = t_build.elapsed().as_secs_f64();

    let spent_before_warmup = cal.spent();
    let mut cursor = SimTime::ZERO;
    let t_warm = Instant::now();
    advance(
        &mut w,
        &mut cursor,
        spec.window_start(),
        None,
        cal,
        |_, _| {},
    );
    let warmup_s = (t_warm.elapsed() - (cal.spent() - spent_before_warmup)).as_secs_f64();
    let scaled_setup_end = cal.read();

    let mut trace = (mode == Mode::Traced).then(Trace::default);
    let spent_before_window = cal.spent();
    let events_before = w.sched.dispatched();
    let tally_before = Tally::of(&w, &roles);
    let mut migs: Vec<Option<MigId>> = Vec::with_capacity(plan.len());
    let mut rejected = 0;
    let mut wire = WireLog::default();
    let t_window = Instant::now();
    for (i, &Planned { at, pid, dst, .. }) in plan.iter().enumerate() {
        advance(&mut w, &mut cursor, at, trace.as_mut(), cal, |w, now| {
            wire.update(w, now, &plan, &migs)
        });
        if let Some(t) = trace.as_mut() {
            time_image(&w, pid, t);
        }
        let declined = must_decline(&w, &plan, &migs, i);
        let denied_before = denials(&w);
        let t_call = Instant::now();
        let begun = w.begin_migration(pid, dst, Strategy::IncrementalCollective);
        if let Some(t) = trace.as_mut() {
            t.begin_migration_ns
                .push(t_call.elapsed().as_nanos() as u64);
        }
        rejected += usize::from(declined) + (denials(&w) - denied_before) as usize;
        migs.push(begun);
        wire.update(&mut w, at, &plan, &migs);
    }
    advance(
        &mut w,
        &mut cursor,
        spec.window_end(),
        trace.as_mut(),
        cal,
        |w, now| wire.update(w, now, &plan, &migs),
    );
    let probes_ns: u64 = trace.as_ref().map_or(0, |t| t.image_ns.iter().sum());
    let window_s = (t_window.elapsed() - (cal.spent() - spent_before_window)).as_secs_f64()
        - probes_ns as f64 / 1e9;
    let scaled_window_end = cal.read();
    let started = migs.iter().filter(|m| m.is_some()).count();

    // Window close: everything below is read from the world's state at
    // this instant, before the drain.
    let events = w.sched.dispatched() - events_before;
    let window = Tally::of(&w, &roles).minus(tally_before);
    let in_flight = w.active_migrations();
    let zone_subscriptions = w.router.interest().iter().map(|(_, s)| s.len()).sum();
    let mut det = Det {
        events,
        attempted: plan.len(),
        started,
        rejected,
        completed: 0,
        aborted: 0,
        in_flight,
        freeze_us: Vec::new(),
        total_us: Vec::new(),
        phase_us: BTreeMap::new(),
        precopy_iterations: 0,
        precopy_bytes: 0,
        freeze_bytes: 0,
        freeze_socket_bytes: 0,
        wasted_bytes: 0,
        msgs: Msgs::default(),
        gaps_us: Vec::new(),
        followed: wire.ports.len(),
        window,
        frames_vanished: 0,
        capture_peak_pkts: 0,
        lb_admitted: 0,
        lb_denied: 0,
        lb_peak_active: 0,
        zone_subscriptions,
        clamped: 0,
        route_errors: 0,
    };
    for r in &w.reports {
        det.wasted_bytes += r.wasted_bytes();
        if r.is_aborted() {
            det.aborted += 1;
            continue;
        }
        det.completed += 1;
        det.freeze_us.push(r.freeze_us());
        det.total_us.push(r.total_us());
        det.precopy_iterations += u64::from(r.precopy_iterations);
        det.precopy_bytes += r.precopy_bytes;
        det.freeze_bytes += r.freeze_bytes;
        det.freeze_socket_bytes += r.freeze_socket_bytes;
        // `phase_log` records entry instants: a phase lasts until the next
        // entry, the last one until the process resumed.
        for pair in r.phase_log.windows(2) {
            *det.phase_us.entry(phase_slug(pair[0].0)).or_insert(0) +=
                pair[1].1.saturating_since(pair[0].1);
        }
        if let Some(&(label, at)) = r.phase_log.last() {
            *det.phase_us.entry(phase_slug(label)).or_insert(0) +=
                r.resumed_at.saturating_since(at);
        }
    }

    // Drain: the apps stop sending and every message in flight lands.
    probes.live.set(false);
    w.run_until(spec.window_end() + spec.drain_us);
    let (sweep_us, violations) = if mode == Mode::Monitored {
        let t_sweep = Instant::now();
        w.monitor_sweep();
        let us = t_sweep.elapsed().as_secs_f64() * 1e6;
        (Some(us), w.violations().len())
    } else {
        (None, 0)
    };

    let whole = Tally::of(&w, &roles);
    det.frames_vanished = whole.server_tx as i64 - whole.client_rx as i64 - whole.db_rx as i64;
    if spec.is_arena() {
        det.msgs.usercmds_sent = whole.client_tx;
        det.msgs.usercmds_received = *probes.usercmds.borrow();
        let from = probes.usercmds_from.borrow();
        for (h, _) in w
            .hosts
            .iter()
            .zip(&roles)
            .filter(|(_, r)| **r == Role::Client)
        {
            let sent = h.stack.stats().tx_total;
            let got = from.get(&h.stack.public_ip).copied().unwrap_or(0);
            det.msgs.usercmds_lost += sent.saturating_sub(got);
            det.msgs.usercmds_duplicated += got.saturating_sub(sent);
        }
        det.msgs.snapshots_sent = whole.server_tx;
        for arrivals in &probes.arrivals {
            det.msgs.snapshots_received += arrivals.borrow().len() as u64;
        }
        // Snapshot gaps on the wire, per (logged server, client): the
        // clients' own arrivals cannot serve, since the client_host defect
        // keeps most (on arena_zoned all) snapshots from arriving.
        let mut last: BTreeMap<(Port, SockAddr), SimTime> = BTreeMap::new();
        for e in w
            .packet_log
            .iter()
            .filter(|e| wire.ports.contains(&e.src.port))
        {
            if let Some(prev) = last.insert((e.src.port, e.dst), e.at) {
                if prev >= spec.window_start() {
                    det.gaps_us.push(e.at.saturating_since(prev));
                }
            }
        }
    } else {
        det.msgs.tcp_updates_sent = probes.updates_sent.iter().map(|c| *c.borrow()).sum();
        det.msgs.tcp_updates_received = probes.updates_received.iter().map(|c| *c.borrow()).sum();
        det.gaps_us = std::mem::take(&mut probes.tcp_gaps.borrow_mut().gaps_us);
    }
    det.capture_peak_pkts = w
        .hosts
        .iter()
        .map(|h| h.stack.capture.stats().peak_queued_packets)
        .max()
        .unwrap_or(0);
    let adm = w.admission().stats();
    det.lb_admitted = adm.admitted;
    det.lb_denied = adm.denied_cluster + adm.denied_node + adm.denied_image;
    det.lb_peak_active = adm.peak_active;
    det.clamped = w.sched.stats().clamped;
    det.route_errors = w.route_errors();

    Rep {
        det,
        build_s,
        warmup_s,
        window_s,
        window_sim_s: spec.window_us as f64 / 1e6,
        scaled_setup_s: scaled_setup_end - scaled_start,
        scaled_window_s: scaled_window_end - scaled_setup_end,
        cal_samples: cal.samples() - samples_before,
        trace,
        sweep_us,
        violations,
    }
}

/// Accounting problems in one round's deterministic outcome; empty when
/// every planned migration either started or was declined for an observed
/// reason, every started migration is accounted for, the message counts
/// reconcile, TCP lost nothing and the scheduler clamped nothing.
pub fn accounting_problems(d: &Det) -> Vec<String> {
    let mut out = Vec::new();
    if d.started + d.rejected != d.attempted {
        out.push(format!(
            "started {} + rejected {} != attempted {}",
            d.started, d.rejected, d.attempted
        ));
    }
    if d.started != d.completed + d.aborted + d.in_flight {
        out.push(format!(
            "started {} != completed {} + aborted {} + in flight {}",
            d.started, d.completed, d.aborted, d.in_flight
        ));
    }
    let m = &d.msgs;
    if m.usercmds_sent + m.usercmds_duplicated != m.usercmds_received + m.usercmds_lost {
        out.push(format!("per-client usercmd counts do not reconcile: {m:?}"));
    }
    if m.tcp_updates_received != m.tcp_updates_sent {
        out.push(format!(
            "TCP delivered {} of {} state updates; a stream must lose nothing",
            m.tcp_updates_received, m.tcp_updates_sent
        ));
    }
    if d.clamped != 0 {
        out.push(format!(
            "scheduler clamped {} past-instant events",
            d.clamped
        ));
    }
    out
}

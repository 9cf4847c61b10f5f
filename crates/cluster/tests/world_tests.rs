//! Integration tests of the cluster runtime: applications exchanging real
//! traffic over the simulated fabric, live migrations driven through the
//! event loop, and conductor-initiated automatic balancing.

use bytes::Bytes;
use dvelm_cluster::{App, AppCtx, World, WorldConfig};
use dvelm_migrate::Strategy;
use dvelm_net::{Ip, Port, SockAddr};
use dvelm_proc::Fd;
use dvelm_sim::{SimTime, MILLISECOND, SECOND};
use dvelm_stack::udp::Datagram;
use dvelm_stack::Skb;
use std::cell::RefCell;
use std::rc::Rc;

/// TCP echo server: echoes every byte back, counts what it saw.
struct EchoServer {
    seen: Rc<RefCell<Vec<u8>>>,
}

impl App for EchoServer {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(2);
    }
    fn on_tcp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, data: &[Skb]) {
        for skb in data {
            self.seen.borrow_mut().extend_from_slice(&skb.payload);
            ctx.send(fd, skb.payload.clone());
        }
    }
}

/// TCP client: sends a fixed message every tick once connected, collects
/// echoes.
struct EchoClient {
    fd: Option<Fd>,
    sent: u32,
    max: u32,
    period_us: u64,
    echoed: Rc<RefCell<Vec<u8>>>,
}

impl App for EchoClient {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if let Some(fd) = self.fd {
            if self.sent < self.max {
                self.sent += 1;
                ctx.send(fd, Bytes::from(format!("m{:03}|", self.sent)));
            }
        }
    }
    fn on_connected(&mut self, _ctx: &mut AppCtx<'_>, fd: Fd) {
        self.fd = Some(fd);
    }
    fn on_tcp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, data: &[Skb]) {
        for skb in data {
            self.echoed.borrow_mut().extend_from_slice(&skb.payload);
        }
    }
    fn tick_period_us(&self) -> u64 {
        self.period_us
    }
}

/// UDP "game server": replies a snapshot to every datagram.
struct UdpResponder {
    got: Rc<RefCell<u64>>,
}

impl App for UdpResponder {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.touch_memory(4);
    }
    fn on_udp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, dgrams: &[Datagram]) {
        for d in dgrams {
            *self.got.borrow_mut() += 1;
            ctx.send_udp_to(fd, d.from, Bytes::from(vec![0u8; 256]));
        }
    }
}

/// UDP client: fires a command every tick, counts responses.
struct UdpPinger {
    fd: Option<Fd>,
    server: SockAddr,
    responses: Rc<RefCell<u64>>,
}

impl App for UdpPinger {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.fd.is_none() {
            self.fd = ctx.socket_fds().first().copied();
        }
        if let Some(fd) = self.fd {
            ctx.send_udp_to(fd, self.server, Bytes::from_static(b"+forward"));
        }
    }
    fn on_udp_data(&mut self, _ctx: &mut AppCtx<'_>, _fd: Fd, dgrams: &[Datagram]) {
        *self.responses.borrow_mut() += dgrams.len() as u64;
    }
}

/// UDP client that fires exactly `left` commands, one per tick, and then
/// falls silent, so a run can end with nothing in flight.
struct CountedPinger {
    fd: Option<Fd>,
    server: SockAddr,
    left: u32,
}

impl App for CountedPinger {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.fd.is_none() {
            self.fd = ctx.socket_fds().first().copied();
        }
        if let Some(fd) = self.fd {
            if self.left > 0 {
                self.left -= 1;
                ctx.send_udp_to(fd, self.server, Bytes::from_static(b"+forward"));
            }
        }
    }
}

/// A synthetic CPU hog for load-balancing tests.
struct Hog {
    share: f64,
}

impl App for Hog {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.set_cpu_share(self.share);
        ctx.touch_memory(1);
    }
    fn tick_period_us(&self) -> u64 {
        200 * MILLISECOND
    }
}

#[test]
fn tcp_echo_between_cluster_nodes() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();

    let seen = Rc::new(RefCell::new(Vec::new()));
    let server = w.spawn_process(
        n0,
        "echo_srv",
        16,
        64,
        Box::new(EchoServer { seen: seen.clone() }),
    );
    let saddr = SockAddr::new(w.hosts[n0].stack.local_ip, 7000);
    w.app_tcp_listen(n0, server, saddr);

    let echoed = Rc::new(RefCell::new(Vec::new()));
    let client = w.spawn_process(
        n1,
        "client",
        8,
        16,
        Box::new(EchoClient {
            fd: None,
            sent: 0,
            max: 10,
            period_us: 50 * MILLISECOND,
            echoed: echoed.clone(),
        }),
    );
    w.app_tcp_connect(n1, client, saddr, true);

    w.run_for(2 * SECOND);
    let seen = seen.borrow();
    let echoed = echoed.borrow();
    assert_eq!(String::from_utf8_lossy(&seen).matches('|').count(), 10);
    assert_eq!(&*echoed, &*seen, "everything echoed back");
    assert!(String::from_utf8_lossy(&seen).starts_with("m001|m002|"));
}

#[test]
fn udp_client_server_through_broadcast_router() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let _n1 = w.add_server_node();
    let c = w.add_client_host();

    let got = Rc::new(RefCell::new(0));
    let server = w.spawn_process(
        n0,
        "oa",
        16,
        64,
        Box::new(UdpResponder { got: got.clone() }),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses: responses.clone(),
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));

    w.run_for(3 * SECOND);
    assert!(
        *got.borrow() > 40,
        "server received a steady 20 Hz stream: {}",
        got.borrow()
    );
    assert!(
        *responses.borrow() > 40,
        "client saw snapshots: {}",
        responses.borrow()
    );
}

#[test]
fn live_migration_through_event_loop_keeps_service_up() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let c = w.add_client_host();

    let got = Rc::new(RefCell::new(0u64));
    let server = w.spawn_process(
        n0,
        "oa",
        32,
        256,
        Box::new(UdpResponder { got: got.clone() }),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0u64));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses: responses.clone(),
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));

    w.run_for(2 * SECOND);
    let before = *responses.borrow();
    assert!(before > 30);

    let mig = w
        .begin_migration(server, n1, Strategy::IncrementalCollective)
        .expect("migration starts");
    w.run_for(3 * SECOND);
    assert_eq!(w.active_migrations(), 0, "migration finished");
    assert_eq!(w.host_of(server), Some(n1), "process lives on node1 now");
    assert!(w.hosts[n0].procs.is_empty(), "source is clean");
    assert_eq!(w.hosts[n0].stack.socket_count(), 0, "no residual sockets");

    let report = &w.reports[0];
    assert!(
        report.freeze_us() < 60 * MILLISECOND,
        "freeze {}µs",
        report.freeze_us()
    );
    assert!(report.sockets_migrated >= 1);

    // Service still running after migration.
    let after_migration = *responses.borrow();
    w.run_for(2 * SECOND);
    assert!(
        *responses.borrow() > after_migration + 30,
        "snapshots keep flowing after migration"
    );
    let _ = mig;
}

#[test]
fn conductor_balances_synthetic_hogs() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let n2 = w.add_server_node();

    // node0 heavily loaded: 6 hogs at 15% each (+5 base = 95%).
    for i in 0..6 {
        let pid = w.spawn_process(n0, &format!("hog{i}"), 8, 32, Box::new(Hog { share: 15.0 }));
        let _ = pid;
    }
    // node1 / node2 light: one small hog each.
    w.spawn_process(n1, "small1", 8, 32, Box::new(Hog { share: 10.0 }));
    w.spawn_process(n2, "small2", 8, 32, Box::new(Hog { share: 10.0 }));

    // Let the apps declare their shares once before the conductors look.
    w.run_for(300 * MILLISECOND);
    w.enable_load_balancing();
    w.run_for(60 * SECOND);

    assert!(
        !w.reports.is_empty(),
        "at least one automatic migration happened"
    );
    let loads: Vec<f64> = [n0, n1, n2].iter().map(|h| w.hosts[*h].cpu_pct()).collect();
    let spread = loads.iter().fold(f64::NEG_INFINITY, |a, b| a.max(*b))
        - loads.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    assert!(
        spread < 40.0,
        "cluster should be much closer to balanced, loads: {loads:?}"
    );
    assert!(
        w.hosts[n0].procs.len() < 6,
        "the overloaded node shed at least one process"
    );
}

#[test]
fn packet_log_records_traffic() {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let c = w.add_client_host();
    w.enable_packet_log(Port(27960));

    let got = Rc::new(RefCell::new(0));
    let server = w.spawn_process(n0, "oa", 16, 64, Box::new(UdpResponder { got }));
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(n0, server, addr);

    let responses = Rc::new(RefCell::new(0));
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(UdpPinger {
            fd: None,
            server: addr,
            responses,
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));
    w.run_for(SECOND);
    assert!(w.packet_log.len() > 20);
    assert!(w
        .packet_log
        .iter()
        .all(|e| e.src.port == Port(27960) || e.dst.port == Port(27960)));
    // Log is time-ordered.
    assert!(w.packet_log.windows(2).all(|p| p[0].at <= p[1].at));
}

#[test]
fn broadcast_copies_are_counted_on_every_node() {
    // One UDP server on n0 behind the shared public address; n1 and n2 own
    // nothing. Each client frame is broadcast to all three nodes: the owner
    // delivers every copy, and the others drop every copy for want of a
    // socket, exactly as the full receive path counts it.
    let mut w = World::new(WorldConfig::default());
    let owner = w.add_server_node();
    let others = [w.add_server_node(), w.add_server_node()];
    let c = w.add_client_host();

    let got = Rc::new(RefCell::new(0u64));
    let server = w.spawn_process(
        owner,
        "oa",
        16,
        64,
        Box::new(UdpResponder { got: got.clone() }),
    );
    let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, 27960);
    w.app_udp_bind(owner, server, addr);

    let commands = 40;
    let client = w.spawn_process(
        c,
        "player",
        4,
        8,
        Box::new(CountedPinger {
            fd: None,
            server: addr,
            left: commands,
        }),
    );
    let _fd = w.app_udp_socket(c, client, Some(addr));
    w.run_for(4 * SECOND);

    let frames = w.hosts[c].stack.stats().tx_total;
    assert_eq!(frames, u64::from(commands), "every command left the client");
    assert_eq!(*got.borrow(), frames, "the owner's app read every command");
    for &h in &others {
        let s = w.hosts[h].stack.stats();
        assert_eq!(s.rx_total, frames, "node {h} saw every copy: {s:?}");
        assert_eq!(s.rx_dropped_no_socket, frames, "node {h}: {s:?}");
    }
    let s = w.hosts[owner].stack.stats();
    assert_eq!(s.rx_total, frames, "{s:?}");
    assert_eq!(
        s.rx_dropped_no_socket, 0,
        "the owner delivered every copy: {s:?}"
    );
    assert_eq!(
        s.rx_captured + s.rx_dropped_bad_checksum + s.rx_dropped_misrouted,
        0
    );
}

#[test]
fn migration_destination_captures_broadcast_tcp_and_loses_nothing() {
    // A TCP server on the shared public address migrates from n0 to n1
    // while its client streams. Before the move n1 owns no socket for the
    // connection, only the capture entry the migration installs: the
    // broadcast copies must still reach that entry (§V-B loss prevention),
    // so every byte the client sent arrives in order.
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let c = w.add_client_host();

    let seen = Rc::new(RefCell::new(Vec::new()));
    let server = w.spawn_process(
        n0,
        "zone",
        32,
        256,
        Box::new(EchoServer { seen: seen.clone() }),
    );
    let saddr = SockAddr::new(Ip::CLUSTER_PUBLIC, 7000);
    w.app_tcp_listen(n0, server, saddr);

    let echoed = Rc::new(RefCell::new(Vec::new()));
    let max = 600;
    let client = w.spawn_process(
        c,
        "client",
        8,
        16,
        Box::new(EchoClient {
            fd: None,
            sent: 0,
            max,
            period_us: 2 * MILLISECOND,
            echoed: echoed.clone(),
        }),
    );
    w.app_tcp_connect(c, client, saddr, false);
    w.run_for(200 * MILLISECOND);

    let mig = w
        .begin_migration(server, n1, Strategy::IncrementalCollective)
        .expect("migration starts");
    w.run_for(3 * SECOND);
    assert!(
        w.migration_outcome(mig).is_some_and(|o| o.is_completed()),
        "{:?}",
        w.migration_outcome(mig)
    );
    assert_eq!(w.host_of(server), Some(n1));
    let s = w.hosts[n1].stack.stats();
    assert!(s.rx_captured > 0, "the destination captured nothing: {s:?}");

    let expected: String = (1..=max).map(|i| format!("m{i:03}|")).collect();
    assert_eq!(
        String::from_utf8_lossy(&seen.borrow()),
        expected,
        "no byte lost"
    );
    assert_eq!(&*echoed.borrow(), &*seen.borrow(), "everything echoed back");
}

/// A TCP echo stream between two server nodes: `client` on `n1` sends
/// `max` five-byte messages, one per 20 ms tick, to `server` on `n0`,
/// whose port 7000 is on the packet log.
struct EchoPair {
    w: World,
    n0: usize,
    n1: usize,
    server: dvelm_proc::Pid,
    seen: Rc<RefCell<Vec<u8>>>,
    echoed: Rc<RefCell<Vec<u8>>>,
}

fn echo_pair(max: u32) -> EchoPair {
    let mut w = World::new(WorldConfig::default());
    let n0 = w.add_server_node();
    let n1 = w.add_server_node();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let server = w.spawn_process(
        n0,
        "echo_srv",
        16,
        64,
        Box::new(EchoServer { seen: seen.clone() }),
    );
    let saddr = SockAddr::new(w.hosts[n0].stack.local_ip, 7000);
    w.app_tcp_listen(n0, server, saddr);
    w.enable_packet_log(Port(7000));
    let echoed = Rc::new(RefCell::new(Vec::new()));
    let client = w.spawn_process(
        n1,
        "client",
        8,
        16,
        Box::new(EchoClient {
            fd: None,
            sent: 0,
            max,
            period_us: 20 * MILLISECOND,
            echoed: echoed.clone(),
        }),
    );
    w.app_tcp_connect(n1, client, saddr, true);
    EchoPair {
        w,
        n0,
        n1,
        server,
        seen,
        echoed,
    }
}

/// On-wire size of a frame carrying one of `EchoClient`'s messages.
const MSG_FRAME: u64 = dvelm_stack::IP_HEADER_LEN + dvelm_stack::TCP_HEADER_LEN + 5;

fn cut_between(a: usize, b: usize, for_us: u64) -> dvelm_cluster::Fault {
    dvelm_cluster::Fault::Partition {
        groups: [
            dvelm_faults::HostSet::of(&[a]),
            dvelm_faults::HostSet::of(&[b]),
        ],
        for_us,
    }
}

#[test]
fn retransmissions_leave_at_the_last_arms_deadline_across_a_healed_partition() {
    use dvelm_cluster::Event;
    use dvelm_stack::Socket;
    use std::collections::BTreeMap;

    let max = 40;
    let mut p = echo_pair(max);
    let (n0, n1) = (p.n0, p.n1);
    let w = &mut p.w;
    // Per socket: its last arm, and the sequence numbers handed out in the
    // step that made it.
    struct LastArm {
        gen: u64,
        deadline: Option<SimTime>,
        seqs: std::ops::Range<u64>,
    }
    let mut arms: BTreeMap<(usize, dvelm_stack::SockId), LastArm> = BTreeMap::new();
    let mut logged = 0;
    let mut originals = 0;
    let mut partitioned = false;
    let mut echoed_last = false;
    let mut retransmits = [0u32; 2];
    let end = SimTime::from_secs(20);
    // Step one instant at a time, peeking the event that leads it.
    while let Some((key, ev)) = w.sched.peek() {
        if key.at > end {
            break;
        }
        let head = match ev {
            Event::SockTimer { host, sock, gen } => Some((*host, *sock, *gen)),
            _ => None,
        };
        let seq_lo = w.sched.stats().scheduled;
        w.run_until(key.at);
        let seq_hi = w.sched.stats().scheduled;
        for e in &w.packet_log[logged..] {
            if e.bytes != MSG_FRAME {
                continue;
            }
            // Once the cut is in, every message frame is a retransmission,
            // except the server's echo of the last message.
            let host = e.from_host;
            if !partitioned || (host == n0 && !echoed_last) {
                originals += u32::from(host == n1);
                echoed_last |= partitioned;
                continue;
            }
            // It leaves at the deadline of its socket's last arm, from the
            // timer event scheduled under the key that arm reserved.
            let (sock, gen) = match head {
                Some((h, sock, gen)) if h == host => (sock, gen),
                _ => panic!("retransmission at {:?} not sent by a timer", e.at),
            };
            let arm = arms.get(&(host, sock)).expect("timer was armed");
            assert_eq!(Some(e.at), arm.deadline, "retransmission off its deadline");
            assert_eq!(gen, arm.gen, "fired by an older arm");
            assert!(
                arm.seqs.contains(&key.seq),
                "timer dispatched under seq {} instead of the key its arm reserved in {:?}",
                key.seq,
                arm.seqs
            );
            retransmits[usize::from(host == n1)] += 1;
        }
        logged = w.packet_log.len();
        // The last message is on the wire: cut the path before it is
        // acknowledged, and heal 2.5 s later (off the backoff schedule, so
        // the heal and a retransmission never share an instant).
        if originals == max && !partitioned {
            partitioned = true;
            w.inject_fault(cut_between(n0, n1, 2_500 * MILLISECOND));
        }
        for h in [n0, n1] {
            for sid in w.hosts[h].stack.socket_ids() {
                if let Some(Socket::Tcp(t)) = w.hosts[h].stack.sock(sid) {
                    let (gen, deadline) = (t.timer_gen, t.timer_deadline());
                    let last = arms.get(&(h, sid)).map(|a| (a.gen, a.deadline));
                    if deadline.is_some() && last != Some((gen, deadline)) {
                        let seqs = seq_lo..seq_hi;
                        arms.insert(
                            (h, sid),
                            LastArm {
                                gen,
                                deadline,
                                seqs,
                            },
                        );
                    }
                }
            }
        }
    }
    assert!(partitioned);
    // Each side backs off from the 200 ms minimum RTO: 0.2, 0.6 and 1.4 s
    // into the cut, then 3.0 s, after the heal, which gets through.
    assert_eq!(retransmits, [4, 4], "[server, client] retransmissions");
    let expect: String = (1..=max).map(|i| format!("m{i:03}|")).collect();
    assert_eq!(String::from_utf8_lossy(&p.seen.borrow()), expect);
    assert_eq!(String::from_utf8_lossy(&p.echoed.borrow()), expect);
    // Every timer has fired and nothing is in flight: no slot is left.
    assert_eq!(p.w.pending_sock_timers(n0), 0);
    assert_eq!(p.w.pending_sock_timers(n1), 0);
}

#[test]
fn closed_sockets_and_crashed_hosts_keep_no_timer_slots() {
    let mut p = echo_pair(100);
    let (n0, n1) = (p.n0, p.n1);
    // Cut the stream for good: unacknowledged messages and echoes keep
    // both sides' retransmission timers armed.
    p.w.run_for(500 * MILLISECOND);
    p.w.inject_fault(cut_between(n0, n1, 0));
    p.w.run_for(SECOND);
    assert!(p.w.pending_sock_timers(n0) > 0);
    assert!(p.w.pending_sock_timers(n1) > 0);
    // Killing the server releases its sockets; their timers fire as
    // no-ops within one maximal RTO and free the slots.
    assert!(p.w.kill_process(p.server));
    p.w.run_for(dvelm_stack::tcp::RTO_MAX_US + SECOND);
    assert_eq!(p.w.pending_sock_timers(n0), 0);
    assert!(
        p.w.pending_sock_timers(n1) > 0,
        "the client still retransmits"
    );
    // A crash drops the host's slots at once; its events die unseen.
    p.w.crash_node(n1);
    assert_eq!(p.w.pending_sock_timers(n1), 0);
    p.w.run_for(5 * SECOND);
    assert_eq!(p.w.pending_sock_timers(n1), 0);
}

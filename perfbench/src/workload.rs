//! The benchmark's workloads: seeded world builders and migration plans.
//!
//! Everything a workload varies comes from the `--seed` argument: the
//! world's RNG seed, which clients attach to which server, and which
//! processes migrate where and when. The simulator itself only ever sees
//! the built [`World`]. Every world runs `threads: 1` explicitly, so the
//! `DVELM_SHARDS` environment variable cannot change a result.
//!
//! The applications are the repository's own (`OaServer`/`OaClient`,
//! `ZoneServer`/`SwarmClient`/`DbServer`), each wrapped in a [`Probe`]
//! that forwards every callback unchanged. The probe adds what the apps
//! lack: a shared switch that stops their send loops when the measured
//! window closes (so the drain can deliver every message in flight and
//! sent/received counts become comparable), usercmd counts per sending
//! client, and arrival timestamps per TCP connection (the state-update gap
//! at clients).
//!
//! Known defect carried by the baseline: `Ip::client_host` maps only
//! client NodeIds below 255 back to their hosts, so the world silently
//! drops every server→client frame to a later client. The arena worlds add
//! their servers first, so on `arena_broadcast` only clients 64..254
//! receive snapshots and on `arena_zoned` none does. The benchmark
//! measures this as message loss rather than sizing the worlds around it.

use dvelm_cluster::{App, AppCtx, World, WorldConfig};
use dvelm_dve::{DbServer, SwarmClient, ZoneServer, DB_PORT, ZONE_BASE_PORT};
use dvelm_net::{Ip, Port, SockAddr, ZoneId};
use dvelm_openarena::apps::{OaClient, OaServer, OA_PORT};
use dvelm_proc::{Fd, Pid};
use dvelm_sim::{DetRng, SimTime, MILLISECOND, SECOND};
use dvelm_stack::udp::Datagram;
use dvelm_stack::Skb;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The workloads `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 OpenArena servers, 1000 UDP clients, legacy broadcast routing.
    ArenaBroadcast,
    /// 256 OpenArena servers, 10 000 UDP clients, AOI zone routing.
    ArenaZoned,
    /// 8 TCP zone servers × 256 connections, each with a MySQL session,
    /// migrated back and forth about once per simulated second.
    TcpHandoff,
    /// The 4×100 arena world whose client NodeIds all sit below 255, with
    /// no migration — the loss-accounting self-test, which must read zero
    /// loss (not offered on the command line).
    SelfTest,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "arena_broadcast" => Some(Workload::ArenaBroadcast),
            "arena_zoned" => Some(Workload::ArenaZoned),
            "tcp_handoff" => Some(Workload::TcpHandoff),
            _ => None,
        }
    }

    /// Nominal wall seconds one round takes on the reference host (2-core
    /// Xeon, release build). An untraced run makes `--seconds` / this many
    /// rounds, so the inputs of a run depend only on its arguments, never
    /// on how fast the host happens to be.
    pub fn round_cost_s(self) -> f64 {
        match self {
            Workload::ArenaBroadcast => 1.5,
            Workload::ArenaZoned => 5.5,
            Workload::TcpHandoff => 3.5,
            Workload::SelfTest => 0.1,
        }
    }

    /// The workload's fixed shape and timeline.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ArenaBroadcast => Spec::arena(64, 1000, false, 8, 5, 400),
            Workload::ArenaZoned => Spec::arena(256, 10_000, true, 16, 3, 100),
            Workload::SelfTest => Spec::arena(4, 100, false, 0, 2, 400),
            Workload::TcpHandoff => Spec {
                shape: Shape::Tcp {
                    servers: 8,
                    conns: 256,
                },
                warmup_us: 1_200 * MILLISECOND,
                window_us: 6 * SECOND,
                drain_us: 2 * SECOND,
            },
        }
    }
}

/// What runs in the world.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One `OaServer` per server node, `clients` client hosts with one
    /// `OaClient` each; `migrations` staggered `stagger_ms` apart.
    Arena {
        nodes: usize,
        clients: usize,
        aoi: bool,
        migrations: usize,
        stagger_ms: u64,
    },
    /// `servers` zone servers on nodes `0..servers`, with an empty partner
    /// node each (`servers..2·servers`), one database host and one client
    /// host per server running a swarm of `conns` TCP connections.
    Tcp { servers: usize, conns: usize },
}

/// A workload's shape and timeline (simulated µs).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub shape: Shape,
    /// Handshakes and servers learning their clients; not measured.
    pub warmup_us: u64,
    /// The measured window; every planned migration starts and must
    /// finish inside it.
    pub window_us: u64,
    /// After the window the apps stop sending and in-flight messages land.
    pub drain_us: u64,
}

impl Spec {
    fn arena(
        nodes: usize,
        clients: usize,
        aoi: bool,
        migrations: usize,
        window_s: u64,
        stagger_ms: u64,
    ) -> Spec {
        Spec {
            shape: Shape::Arena {
                nodes,
                clients,
                aoi,
                migrations,
                stagger_ms,
            },
            warmup_us: SECOND,
            window_us: window_s * SECOND,
            drain_us: 200 * MILLISECOND,
        }
    }

    /// First instant of the measured window.
    pub fn window_start(&self) -> SimTime {
        SimTime::from_micros(self.warmup_us)
    }

    /// Last instant of the measured window.
    pub fn window_end(&self) -> SimTime {
        self.window_start() + self.window_us
    }

    /// Whether the clients are UDP game clients (snapshots) rather than
    /// TCP swarms (state updates).
    pub fn is_arena(&self) -> bool {
        matches!(self.shape, Shape::Arena { .. })
    }
}

/// Which host class a host index belongs to, for layer accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Server,
    Client,
    Database,
}

/// One planned migration.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub at: SimTime,
    pub pid: Pid,
    pub dst: usize,
    /// Arena: the migrating server's port, which the packet log can follow
    /// to record its snapshots on the wire (the paper's tcpdump view of
    /// Fig. 4).
    pub port: Option<Port>,
}

/// Shared per-connection arrival log of TCP state updates.
#[derive(Debug, Default)]
pub struct GapLog {
    /// Gaps that start at or after this instant are recorded.
    from: SimTime,
    last: BTreeMap<(Pid, Fd), SimTime>,
    /// Inter-arrival gaps, µs.
    pub gaps_us: Vec<u64>,
}

/// Counters shared between the apps and the benchmark.
#[derive(Default)]
pub struct Probes {
    /// While false, every probed app skips its real-time loop (no sends).
    pub live: Rc<Cell<bool>>,
    /// Usercmds processed by all `OaServer`s.
    pub usercmds: Rc<RefCell<u64>>,
    /// Usercmds the servers processed, by sending client IP: compared per
    /// client with what each client host sent, so a usercmd lost and
    /// another delivered twice do not cancel out.
    pub usercmds_from: Rc<RefCell<HashMap<Ip, u64>>>,
    /// Snapshot arrival instants, one list per `OaClient`.
    pub arrivals: Vec<Rc<RefCell<Vec<SimTime>>>>,
    /// Updates sent, one counter per `ZoneServer`.
    pub updates_sent: Vec<Rc<RefCell<u64>>>,
    /// Updates received, one counter per `SwarmClient`.
    pub updates_received: Vec<Rc<RefCell<u64>>>,
    /// TCP state-update arrivals at the swarms.
    pub tcp_gaps: Rc<RefCell<GapLog>>,
}

/// A built world, ready to warm up.
pub struct Built {
    pub world: World,
    pub roles: Vec<Role>,
    pub plan: Vec<Planned>,
    pub probes: Probes,
}

/// Forwards every callback to the wrapped app; skips ticks once
/// `live` is cleared, and optionally counts UDP senders or logs TCP
/// arrival gaps.
struct Probe<A> {
    app: A,
    live: Rc<Cell<bool>>,
    udp_from: Option<Rc<RefCell<HashMap<Ip, u64>>>>,
    gaps: Option<Rc<RefCell<GapLog>>>,
}

impl<A: App> App for Probe<A> {
    fn on_tick(&mut self, ctx: &mut AppCtx<'_>) {
        if self.live.get() {
            self.app.on_tick(ctx);
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, data: &[Skb]) {
        if let Some(log) = &self.gaps {
            let mut log = log.borrow_mut();
            if let Some(prev) = log.last.insert((ctx.pid, fd), ctx.now) {
                if prev >= log.from {
                    log.gaps_us.push(ctx.now.saturating_since(prev));
                }
            }
        }
        self.app.on_tcp_data(ctx, fd, data);
    }

    fn on_udp_data(&mut self, ctx: &mut AppCtx<'_>, fd: Fd, dgrams: &[Datagram]) {
        if let Some(from) = &self.udp_from {
            let mut from = from.borrow_mut();
            for d in dgrams {
                *from.entry(d.from.ip).or_insert(0) += 1;
            }
        }
        self.app.on_udp_data(ctx, fd, dgrams);
    }

    fn on_new_connection(&mut self, ctx: &mut AppCtx<'_>, listener: Fd, child: Fd) {
        self.app.on_new_connection(ctx, listener, child);
    }

    fn on_connected(&mut self, ctx: &mut AppCtx<'_>, fd: Fd) {
        self.app.on_connected(ctx, fd);
    }

    fn on_conn_closed(&mut self, ctx: &mut AppCtx<'_>, fd: Fd) {
        self.app.on_conn_closed(ctx, fd);
    }

    fn tick_period_us(&self) -> u64 {
        self.app.tick_period_us()
    }
}

/// Stream of the workload RNG that draws the plan (distinct from every
/// stream the world itself forks).
const PLAN_STREAM: u64 = 0x9e1a_b0a7;

/// World seed for a benchmark seed (splitmix64 finaliser, so neighbouring
/// seeds give unrelated worlds).
fn world_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build round `round` of `workload` for `seed`: each round is an
/// independent world and plan drawn from the pair. `monitored` arms the
/// invariant monitor before anything is spawned.
pub fn build(workload: Workload, seed: u64, round: u32, monitored: bool) -> Built {
    let spec = workload.spec();
    let aoi = matches!(spec.shape, Shape::Arena { aoi: true, .. });
    let seed = world_seed(seed ^ u64::from(round).rotate_left(32));
    let mut world = World::new(WorldConfig {
        seed: world_seed(seed),
        threads: 1,
        aoi,
        ..WorldConfig::default()
    });
    if monitored {
        world.enable_monitor();
    }
    let mut rng = DetRng::new(seed).fork(PLAN_STREAM);
    let probes = Probes {
        live: Rc::new(Cell::new(true)),
        tcp_gaps: Rc::new(RefCell::new(GapLog {
            from: spec.window_start(),
            ..GapLog::default()
        })),
        ..Probes::default()
    };
    let mut b = Built {
        world,
        roles: Vec::new(),
        plan: Vec::new(),
        probes,
    };
    match spec.shape {
        Shape::Arena {
            nodes,
            clients,
            aoi,
            migrations,
            stagger_ms,
        } => build_arena(
            &mut b, &mut rng, &spec, nodes, clients, aoi, migrations, stagger_ms,
        ),
        Shape::Tcp { servers, conns } => build_tcp(&mut b, &mut rng, &spec, servers, conns),
    }
    b.plan.sort_by_key(|p| p.at);
    b
}

#[allow(clippy::too_many_arguments)]
fn build_arena(
    b: &mut Built,
    rng: &mut DetRng,
    spec: &Spec,
    nodes: usize,
    clients: usize,
    aoi: bool,
    migrations: usize,
    stagger_ms: u64,
) {
    let w = &mut b.world;
    let mut servers = Vec::with_capacity(nodes);
    let mut addrs = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let host = w.add_server_node();
        b.roles.push(Role::Server);
        let app = OaServer::new(b.probes.usercmds.clone());
        let pid = w.spawn_process(
            host,
            "oa_server",
            512,
            4096,
            probe(app, &b.probes, Record::UdpSenders),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, OA_PORT + i as u16);
        w.app_udp_bind(host, pid, addr);
        if aoi {
            w.register_zone_interest(host, pid, addr.port, ZoneId(i as u32));
        }
        servers.push((host, pid));
        addrs.push(addr);
    }
    // Clients go round-robin over a seeded server order: every server
    // serves the same number of clients, but which client hosts (and so
    // which NodeIds) it serves depends on the seed.
    let mut order: Vec<usize> = (0..nodes).collect();
    rng.shuffle(&mut order);
    for c in 0..clients {
        let addr = addrs[order[c % nodes]];
        let host = w.add_client_host();
        b.roles.push(Role::Client);
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        b.probes.arrivals.push(arrivals.clone());
        let pid = w.spawn_process(
            host,
            "oa_client",
            64,
            256,
            probe(OaClient::new(addr, arrivals), &b.probes, Record::Nothing),
        );
        w.app_udp_socket(host, pid, Some(addr));
    }
    // Distinct seeded sources, each to a seeded other node, staggered with
    // up to half a stagger of seeded jitter.
    let mut sources: Vec<usize> = (0..nodes).collect();
    rng.shuffle(&mut sources);
    let stagger = stagger_ms * MILLISECOND;
    for (k, &src) in sources.iter().take(migrations).enumerate() {
        let dst = (src + 1 + rng.index(nodes - 1)) % nodes;
        let jitter = rng.range_u64(0, stagger / 2);
        b.plan.push(Planned {
            at: spec.window_start() + k as u64 * stagger + jitter,
            pid: servers[src].1,
            dst: servers[dst].0,
            port: Some(addrs[src].port),
        });
    }
}

/// Period of each zone server's back-and-forth migrations.
const HANDOFF_PERIOD_US: u64 = SECOND;
/// Simulated time a tcp_handoff migration is given to finish before the
/// window closes (measured runs take ≈0.7 s).
const HANDOFF_BUDGET_US: u64 = 900 * MILLISECOND;

fn build_tcp(b: &mut Built, rng: &mut DetRng, spec: &Spec, servers: usize, conns: usize) {
    let w = &mut b.world;
    let homes: Vec<usize> = (0..servers)
        .map(|_| {
            b.roles.push(Role::Server);
            w.add_server_node()
        })
        .collect();
    let partners: Vec<usize> = (0..servers)
        .map(|_| {
            b.roles.push(Role::Server);
            w.add_server_node()
        })
        .collect();
    let db_host = w.add_database_host();
    b.roles.push(Role::Database);
    let db_pid = w.spawn_process(
        db_host,
        "mysqld",
        256,
        1024,
        probe(DbServer::new(), &b.probes, Record::Nothing),
    );
    let db_addr = SockAddr::new(w.hosts[db_host].stack.local_ip, DB_PORT);
    w.app_tcp_listen(db_host, db_pid, db_addr);

    let mut pids = Vec::with_capacity(servers);
    for (i, &home) in homes.iter().enumerate() {
        let zone = ZoneServer::new();
        b.probes.updates_sent.push(zone.updates_sent.clone());
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT + i as u16);
        let pid = w.spawn_process(
            home,
            "zone_serv",
            256,
            4096,
            probe(zone, &b.probes, Record::Nothing),
        );
        w.app_tcp_listen(home, pid, addr);
        // The MySQL session goes over the in-cluster interface, so every
        // migration installs translation rules at the database host.
        w.app_tcp_connect(home, pid, db_addr, true);
        pids.push(pid);
    }
    for i in 0..servers {
        let host = w.add_client_host();
        b.roles.push(Role::Client);
        let swarm = SwarmClient::new();
        b.probes
            .updates_received
            .push(swarm.updates_received.clone());
        let pid = w.spawn_process(
            host,
            "swarm",
            64,
            512,
            probe(swarm, &b.probes, Record::TcpGaps),
        );
        let addr = SockAddr::new(Ip::CLUSTER_PUBLIC, ZONE_BASE_PORT + i as u16);
        for _ in 0..conns {
            w.app_tcp_connect(host, pid, addr, false);
        }
    }
    // Server i starts its handoffs at a seeded offset in its own slot of
    // the period, then alternates partner ↔ home once per period for as
    // long as a migration still fits in the window.
    let slot = HANDOFF_PERIOD_US / servers as u64;
    for i in 0..servers {
        let first = spec.window_start() + i as u64 * slot + rng.range_u64(0, slot / 2);
        let mut at = first;
        let mut round = 0;
        while at + HANDOFF_BUDGET_US <= spec.window_end() {
            let dst = if round % 2 == 0 {
                partners[i]
            } else {
                homes[i]
            };
            b.plan.push(Planned {
                at,
                pid: pids[i],
                dst,
                port: None,
            });
            at += HANDOFF_PERIOD_US;
            round += 1;
        }
    }
}

/// What a [`Probe`] records beyond gating ticks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    Nothing,
    UdpSenders,
    TcpGaps,
}

fn probe<A: App + 'static>(app: A, probes: &Probes, record: Record) -> Box<dyn App> {
    Box::new(Probe {
        app,
        live: probes.live.clone(),
        udp_from: (record == Record::UdpSenders).then(|| probes.usercmds_from.clone()),
        gaps: (record == Record::TcpGaps).then(|| probes.tcp_gaps.clone()),
    })
}

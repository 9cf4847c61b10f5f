//! The broadcast-miss check must agree with the full receive path.
//!
//! `HostStack::rx_unowned` claims that `on_rx` would drop a frame for want
//! of a socket and do nothing else, and counts it the same way. Two stacks
//! are built from the same random recipe — listeners, UDP binds, connected
//! sockets, capture entries and translation rules — and fed the same random
//! segments. Whenever one stack takes the check, the other runs `on_rx`,
//! and every counter the two expose must still agree. Whenever the check
//! declines, it must have changed nothing, and both stacks run `on_rx` so
//! that they stay in step while their state evolves.

use bytes::Bytes;
use dvelm_net::{Ip, NodeId, Port, SockAddr};
use dvelm_sim::{Jiffies, SimTime};
use dvelm_stack::{
    CaptureBudget, CaptureKey, HostStack, Segment, SelfXlateRule, TcpFlags, XlateRule,
};
use proptest::prelude::*;

/// Ports on this host's side of a flow; small, so rules, sockets and
/// segments collide often.
const LOCAL_PORTS: [u16; 4] = [1000, 1001, 1002, 1003];
/// Ports on the remote side of a flow.
const REMOTE_PORTS: [u16; 2] = [5000, 5001];
/// The address a self rule restores the destination to.
const VIRTUAL_IP: Ip = Ip::new(10, 0, 0, 3);

fn remote_ips() -> [Ip; 3] {
    [
        Ip::client_of(NodeId(40)),
        Ip::client_of(NodeId(41)),
        Ip::local_of(NodeId(5)),
    ]
}

/// Take a choice in `0..n` off the low end of `x`.
fn pick(x: &mut u64, n: usize) -> usize {
    let v = (*x % n as u64) as usize;
    *x /= n as u64;
    v
}

fn local_port(x: &mut u64) -> u16 {
    LOCAL_PORTS[pick(x, LOCAL_PORTS.len())]
}

fn remote(x: &mut u64) -> SockAddr {
    let ip = remote_ips()[pick(x, 3)];
    SockAddr::new(ip, REMOTE_PORTS[pick(x, REMOTE_PORTS.len())])
}

/// Build a stack from a recipe: each word is one state change.
fn build(ops: &[u64], bounded_capture: bool) -> HostStack {
    let mut h = HostStack::server_node(NodeId(0), 1_000, 7);
    if bounded_capture {
        h.capture.set_budget(CaptureBudget::bounded(2, usize::MAX));
    }
    let ips = [h.public_ip, h.local_ip];
    for &op in ops {
        let mut x = op;
        match pick(&mut x, 7) {
            0 => {
                let ip = ips[pick(&mut x, 2)];
                let _ = h.tcp_listen(SockAddr::new(ip, local_port(&mut x)));
            }
            1 => {
                let ip = ips[pick(&mut x, 2)];
                let _ = h.udp_bind(SockAddr::new(ip, local_port(&mut x)));
            }
            2 => {
                let ip = ips[pick(&mut x, 2)];
                let local = SockAddr::new(ip, local_port(&mut x));
                let peer = remote(&mut x);
                let _ = h.tcp_connect(local, peer, SimTime::ZERO);
            }
            3 => {
                let peer = remote(&mut x);
                let key = CaptureKey::connected(peer, Port(local_port(&mut x)));
                h.capture.enable(key, SimTime::ZERO);
            }
            4 => {
                let key = CaptureKey::any_remote(Port(local_port(&mut x)));
                h.capture.enable(key, SimTime::ZERO);
            }
            5 => {
                let host_ip = ips[pick(&mut x, 2)];
                let sock_local = SockAddr::new(VIRTUAL_IP, local_port(&mut x));
                let peer = remote(&mut x);
                h.xlate.install_self(SelfXlateRule {
                    sock_local,
                    peer,
                    host_ip,
                });
            }
            _ => {
                let ip = ips[pick(&mut x, 2)];
                let peer_local = SockAddr::new(ip, local_port(&mut x));
                let moved = remote(&mut x);
                let rule = XlateRule::new(peer_local, VIRTUAL_IP, moved.ip, moved.port);
                h.xlate.install_at(rule, SimTime::ZERO);
            }
        }
    }
    h
}

/// Decode one segment: TCP SYN, SYN-ACK, ACK or data, or UDP; to the
/// public, local, a foreign or the virtual address; checksum good or bad.
fn segment(word: u64, h: &HostStack) -> Segment {
    let mut x = word;
    let dst_ip = match pick(&mut x, 8) {
        0 => h.local_ip,
        1 => Ip::local_of(NodeId(7)),
        2 => VIRTUAL_IP,
        _ => h.public_ip,
    };
    let dst = SockAddr::new(dst_ip, local_port(&mut x));
    let src = remote(&mut x);
    let tcp = |flags, payload: &'static [u8]| {
        Segment::tcp(
            src,
            dst,
            flags,
            1_000 + (word % 3) as u32,
            0,
            65_535,
            Jiffies(0),
            Jiffies(0),
            Bytes::from_static(payload),
        )
    };
    let mut seg = match pick(&mut x, 5) {
        0 => tcp(TcpFlags::SYN, b""),
        1 => tcp(TcpFlags::SYN_ACK, b""),
        2 => tcp(TcpFlags::ACK, b""),
        3 => tcp(TcpFlags::ACK, b"data"),
        _ => Segment::udp(src, dst, Bytes::from_static(b"cmd")),
    };
    seg.checksum_ok = pick(&mut x, 6) != 0;
    seg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rx_unowned_agrees_with_full_path(
        ops in proptest::collection::vec(0u64..u64::MAX, 0..12),
        segs in proptest::collection::vec(0u64..u64::MAX, 1..24),
        budget in 0u8..2,
    ) {
        let mut a = build(&ops, budget == 1);
        let mut b = build(&ops, budget == 1);
        for (i, &word) in segs.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            let seg = segment(word, &a);
            let before = (a.stats(), a.capture.stats(), a.xlate.stats());
            if a.rx_unowned(&seg) {
                let fx = b.on_rx(seg.clone(), now);
                prop_assert!(fx.is_empty(), "full path acted on {:?}: {:?}", seg, fx);
                prop_assert!(b.capture.take_pressure_events().is_empty());
                prop_assert_eq!(a.stats(), b.stats(), "stack stats after {:?}", seg);
                prop_assert_eq!(a.capture.stats(), b.capture.stats());
                prop_assert_eq!(a.xlate.stats(), b.xlate.stats());
                prop_assert_eq!(a.capture.total_queued_packets(), b.capture.total_queued_packets());
            } else {
                prop_assert_eq!(
                    before,
                    (a.stats(), a.capture.stats(), a.xlate.stats()),
                    "declined check changed state for {:?}", seg
                );
                let fa = a.on_rx(seg.clone(), now);
                let fb = b.on_rx(seg, now);
                prop_assert_eq!(fa.len(), fb.len());
                prop_assert_eq!(a.stats(), b.stats());
                a.capture.take_pressure_events();
                b.capture.take_pressure_events();
            }
        }
    }
}

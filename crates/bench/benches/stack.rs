//! Criterion microbenchmarks of the network-stack substrate: segment
//! processing, capture-table matching, translation, socket records and the
//! wire encoder.

#![forbid(unsafe_code)]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dvelm_ckpt::{WireReader, WireWriter};
use dvelm_net::{Ip, NodeId, Port, SockAddr};
use dvelm_sim::{DetRng, Jiffies, SimTime};
use dvelm_stack::capture::{CaptureKey, CaptureTable};
use dvelm_stack::tcp::{TcpCtx, TcpSocket};
use dvelm_stack::xlate::{XlateRule, XlateTable};
use dvelm_stack::{Segment, TcpFlags};
use std::hint::black_box;
use std::time::Duration;

fn sa(last: u8, port: u16) -> SockAddr {
    SockAddr::new(Ip::new(10, 0, 0, last), port)
}

fn established_pair() -> (TcpSocket, TcpSocket, u64) {
    let mut stamp = 0u64;
    let mut ctx = TcpCtx {
        now: SimTime::ZERO,
        jiffies: Jiffies(100),
        stamp: &mut stamp,
    };
    let (mut c, out) = TcpSocket::connect(sa(1, 4000), sa(2, 5000), 100, &mut ctx);
    let syn = match &out[0] {
        dvelm_stack::tcp::TcpOut::Tx(s) => s.clone(),
        _ => unreachable!(),
    };
    let (mut s, out) = TcpSocket::passive_open(
        sa(2, 5000),
        sa(1, 4000),
        syn.tcp_seq().unwrap(),
        Jiffies(0),
        900,
        &mut ctx,
    );
    let syn_ack = match &out[0] {
        dvelm_stack::tcp::TcpOut::Tx(s) => s.clone(),
        _ => unreachable!(),
    };
    let out = c.on_segment(syn_ack, &mut ctx);
    for o in out {
        if let dvelm_stack::tcp::TcpOut::Tx(seg) = o {
            s.on_segment(seg, &mut ctx);
        }
    }
    (c, s, stamp)
}

fn bench_tcp_data_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("send_recv_ack_256B", |b| {
        let (mut snd, mut rcv, mut stamp) = established_pair();
        let payload = Bytes::from(vec![7u8; 256]);
        b.iter(|| {
            let mut ctx = TcpCtx {
                now: SimTime::ZERO,
                jiffies: Jiffies(100),
                stamp: &mut stamp,
            };
            let out = snd.send(payload.clone(), &mut ctx);
            for o in out {
                if let dvelm_stack::tcp::TcpOut::Tx(seg) = o {
                    let replies = rcv.on_segment(seg, &mut ctx);
                    for r in replies {
                        if let dvelm_stack::tcp::TcpOut::Tx(seg) = r {
                            snd.on_segment(seg, &mut ctx);
                        }
                    }
                }
            }
            black_box(rcv.read(&mut ctx).len())
        })
    });
    g.bench_function("record_len_with_queues", |b| {
        let (mut snd, _rcv, mut stamp) = established_pair();
        let mut ctx = TcpCtx {
            now: SimTime::ZERO,
            jiffies: Jiffies(100),
            stamp: &mut stamp,
        };
        snd.send(Bytes::from(vec![0u8; 4096]), &mut ctx);
        b.iter(|| black_box(snd.record_len()))
    });
    g.bench_function("delta_len", |b| {
        let (mut snd, _rcv, mut stamp) = established_pair();
        let mut ctx = TcpCtx {
            now: SimTime::ZERO,
            jiffies: Jiffies(100),
            stamp: &mut stamp,
        };
        snd.send(Bytes::from(vec![0u8; 4096]), &mut ctx);
        let since = snd.mutation_stamp() / 2;
        b.iter(|| black_box(snd.delta_len(since)))
    });
    g.finish();
}

fn bench_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture");
    g.measurement_time(Duration::from_secs(2));
    for entries in [16usize, 1024] {
        g.bench_with_input(
            BenchmarkId::new("match_miss", entries),
            &entries,
            |b, &n| {
                let mut t = CaptureTable::new();
                for i in 0..n {
                    t.enable(
                        CaptureKey::connected(sa(3, 10_000 + i as u16), Port(5000)),
                        SimTime::ZERO,
                    );
                }
                let seg = Segment::tcp(
                    sa(9, 9999),
                    sa(1, 5000),
                    TcpFlags::ACK,
                    1,
                    1,
                    65535,
                    Jiffies(0),
                    Jiffies(0),
                    Bytes::new(),
                );
                b.iter(|| black_box(t.try_capture(&seg)))
            },
        );
    }
    g.bench_function("capture_and_drain_100", |b| {
        b.iter(|| {
            let mut t = CaptureTable::new();
            let key = CaptureKey::connected(sa(3, 3306), Port(5000));
            t.enable(key, SimTime::ZERO);
            for i in 0..100u32 {
                let seg = Segment::tcp(
                    sa(3, 3306),
                    sa(1, 5000),
                    TcpFlags::ACK,
                    i * 100,
                    0,
                    65535,
                    Jiffies(0),
                    Jiffies(0),
                    Bytes::from(vec![0u8; 64]),
                );
                t.try_capture(&seg);
            }
            black_box(t.disable_and_drain(&key).len())
        })
    });
    g.finish();
}

fn bench_xlate(c: &mut Criterion) {
    let mut g = c.benchmark_group("xlate");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("outgoing_hit", |b| {
        let mut t = XlateTable::new();
        t.install_at(
            XlateRule::new(
                sa(3, 3306),
                Ip::local_of(NodeId(0)),
                Ip::local_of(NodeId(1)),
                Port(5000),
            ),
            SimTime::ZERO,
        );
        b.iter(|| {
            let mut seg = Segment::udp(
                sa(3, 3306),
                SockAddr::new(Ip::local_of(NodeId(0)), 5000),
                Bytes::new(),
            );
            black_box(t.outgoing_at(&mut seg, SimTime::ZERO))
        })
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("encode_decode_1k_records", |b| {
        b.iter(|| {
            let mut w = WireWriter::new();
            for i in 0..1000u64 {
                w.put_u64(i);
                w.put_u32(i as u32);
            }
            let buf = w.into_bytes();
            let mut r = WireReader::new(&buf);
            let mut sum = 0u64;
            for _ in 0..1000 {
                sum += r.get_u64().unwrap();
                sum += r.get_u32().unwrap() as u64;
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("detrng");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("next_u64", |b| {
        let mut rng = DetRng::new(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tcp_data_path,
    bench_capture,
    bench_xlate,
    bench_wire,
    bench_rng
);
criterion_main!(benches);

//! The layer ladder: one rung per layer, each calling that crate's public
//! functions on their own, bottom-up (executor → fabric → verbs → UCR →
//! merge kernel → HDFS), so a regression in a workload can be pinned to the
//! rung that moved.
//!
//! Every rung reports host nanoseconds per operation. The network rungs also
//! report what the model achieved in sim time — bandwidth of a large
//! transfer and latency of a small one — to hold against the QDR preset
//! (`FabricParams::ib_verbs_qdr`: 3.2 GB/s of payload, 2 µs one way).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Instant;

use rmr_core::merge::{Emit, StreamingMerge};
use rmr_core::record::{Record, Segment};
use rmr_core::{Cluster, NodeSpec};
use rmr_des::resource::Fluid;
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::{Blob, HdfsConfig};
use rmr_net::{connect_qp, ucr_listen, Cq, FabricParams, Network, NodeId};

use crate::measure::{SpanId, Tracer};

/// Bytes of the large message the bandwidth rungs move.
const BIG: u64 = 64 << 20;
/// Bytes of the small message the latency rungs move.
const SMALL: u64 = 64;

/// One rung: its span name and what it measures, by metric name.
type Rung = (&'static str, fn(u64) -> Vec<(&'static str, f64)>);

const RUNGS: [Rung; 7] = [
    ("rmr_des timers", |seed| {
        vec![("des.timer_ns", timers(seed))]
    }),
    ("rmr_des fluid", |seed| vec![("des.fluid_ns", fluid(seed))]),
    ("rmr_net transfer", |seed| {
        let (gbps, lat_us, ns) = transfer(seed, FabricParams::ib_verbs_qdr());
        let (ipoib_gbps, ipoib_lat_us, _) = transfer(seed, FabricParams::ipoib_qdr());
        vec![
            ("net.transfer_gbps", gbps),
            ("net.transfer_lat_us", lat_us),
            ("net.transfer_ns", ns),
            ("net.ipoib_gbps", ipoib_gbps),
            ("net.ipoib_lat_us", ipoib_lat_us),
        ]
    }),
    ("rmr_net rdma_read", |seed| {
        let (gbps, lat_us, ns) = rdma_read(seed);
        vec![
            ("net.rdma_read_gbps", gbps),
            ("net.rdma_read_lat_us", lat_us),
            ("net.rdma_ns", ns),
        ]
    }),
    ("rmr_net ucr_send", |seed| {
        let (lat_us, ns) = ucr_send(seed);
        vec![("net.ucr_send_us", lat_us), ("net.ucr_ns", ns)]
    }),
    ("rmr_core merge", |_| {
        vec![("core.merge.ns_per_record", merge_real())]
    }),
    ("rmr_hdfs write", |seed| {
        vec![("hdfs.write_ns", hdfs_write(seed))]
    }),
];

/// Runs every rung, recording one host span per rung under `parent`, and
/// returns the rung figures by metric name.
pub fn run(seed: u64, tracer: &mut Tracer, parent: Option<SpanId>) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (name, rung) in RUNGS {
        let span = tracer.open(format!("ladder {name}"), parent);
        m.extend(rung(seed).into_iter().map(|(k, v)| (k.to_string(), v)));
        tracer.close(span);
    }
    m
}

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `Sim::sleep` churn: many tasks, each sleeping many short timers. Host ns
/// per fired timer event.
fn timers(seed: u64) -> f64 {
    const TASKS: usize = 1_000;
    const ROUNDS: usize = 200;
    let sim = Sim::new(seed);
    for i in 0..TASKS {
        let s = sim.clone();
        sim.spawn_named(format!("timer-{i}"), async move {
            for r in 0..ROUNDS {
                let us = ((i * 37 + r * 11) % 1_000 + 1) as u64;
                s.sleep(SimDuration::from_micros(us)).await;
            }
        })
        .detach();
    }
    let t0 = Instant::now();
    sim.run();
    ns_per(t0, sim.events_fired())
}

/// `Fluid::consume` churn: staggered consumers sharing one resource, so
/// every arrival and completion re-solves the fair share. Host ns per
/// consume.
fn fluid(seed: u64) -> f64 {
    const CONSUMERS: usize = 500;
    const ROUNDS: usize = 4;
    let sim = Sim::new(seed);
    let f = Fluid::new(&sim, 1e6);
    for i in 0..CONSUMERS {
        let (f, s) = (f.clone(), sim.clone());
        sim.spawn_named(format!("churn-{i}"), async move {
            s.sleep(SimDuration::from_millis((i % 97) as u64)).await;
            for r in 0..ROUNDS {
                f.consume(1_000.0 + ((i * 31 + r * 7) % 500) as f64).await;
            }
        })
        .detach();
    }
    let t0 = Instant::now();
    sim.run();
    ns_per(t0, (CONSUMERS * ROUNDS) as u64)
}

/// Two hosts on `fabric`, each with an 8-core CPU for socket protocol work.
fn two_hosts(sim: &Sim, fabric: FabricParams) -> (Network, NodeId, NodeId) {
    let net = Network::new(sim, fabric);
    let a = net.add_node(Some(Fluid::new(sim, 8.0)));
    let b = net.add_node(Some(Fluid::new(sim, 8.0)));
    (net, a, b)
}

/// One operation of a network rung, moving the given number of bytes.
type NetOp = Rc<dyn Fn(u64) -> Pin<Box<dyn Future<Output = ()>>>>;

/// Runs `op` back to back, `reps` times with a large message and `reps`
/// times with a small one, from inside the simulation. Returns sim Gbps of
/// the large ones, sim µs per small one, and host ns per operation.
async fn rate(sim: &Sim, reps: u64, op: NetOp) -> (f64, f64, f64) {
    let t0 = Instant::now();
    let t = sim.now();
    for _ in 0..reps {
        op(BIG).await;
    }
    let big_s = (sim.now() - t).as_secs_f64();
    let t = sim.now();
    for _ in 0..reps {
        op(SMALL).await;
    }
    let small_s = (sim.now() - t).as_secs_f64();
    (
        (BIG * reps) as f64 * 8.0 / big_s / 1e9,
        small_s / reps as f64 * 1e6,
        ns_per(t0, 2 * reps),
    )
}

/// `Network::transfer` between two hosts.
fn transfer(seed: u64, fabric: FabricParams) -> (f64, f64, f64) {
    let sim = Sim::new(seed);
    let (net, a, b) = two_hosts(&sim, fabric);
    let out = Rc::new(Cell::new((0.0, 0.0, 0.0)));
    let (s2, o2) = (sim.clone(), Rc::clone(&out));
    sim.spawn_named("ladder-transfer", async move {
        let op: NetOp = Rc::new(move |bytes| {
            let net = net.clone();
            Box::pin(async move { net.transfer(a, b, bytes).await })
        });
        o2.set(rate(&s2, 2_000, op).await);
    })
    .detach();
    sim.run();
    out.get()
}

/// `connect_qp` once, then `post_rdma_read` waited on through the CQ.
fn rdma_read(seed: u64) -> (f64, f64, f64) {
    let sim = Sim::new(seed);
    let (net, a, b) = two_hosts(&sim, FabricParams::ib_verbs_qdr());
    let out = Rc::new(Cell::new((0.0, 0.0, 0.0)));
    let (s2, o2) = (sim.clone(), Rc::clone(&out));
    sim.spawn_named("ladder-rdma", async move {
        let (cq_a, cq_b) = (Cq::<u64>::new(), Cq::<u64>::new());
        let (qp, _peer) = connect_qp(&net, a, b, &cq_a, &cq_b).await;
        let (qp, cq, wr) = (Rc::new(qp), Rc::new(cq_a), Rc::new(Cell::new(0u64)));
        let op: NetOp = Rc::new(move |bytes| {
            let (qp, cq, wr) = (Rc::clone(&qp), Rc::clone(&cq), Rc::clone(&wr));
            Box::pin(async move {
                let id = wr.get();
                wr.set(id + 1);
                qp.post_rdma_read(id, bytes);
                let c = cq.next().await.expect("CQ closed");
                assert_eq!(c.wr_id, id, "completion out of order");
            })
        });
        o2.set(rate(&s2, 2_000, op).await);
    })
    .detach();
    sim.run();
    out.get()
}

/// UCR endpoint: connect, then blocking `EndPoint::send` of small messages
/// to a server that receives them. Sim µs and host ns per send.
fn ucr_send(seed: u64) -> (f64, f64) {
    const SENDS: u64 = 5_000;
    let sim = Sim::new(seed);
    let (net, a, b) = two_hosts(&sim, FabricParams::ib_verbs_qdr());
    let listener = ucr_listen::<u64>(&net, b);
    let connector = listener.connector();
    sim.spawn_daemon("ladder-ucr-server", async move {
        while let Some(ep) = listener.accept().await {
            while ep.recv().await.is_some() {}
        }
    })
    .detach();
    let out = Rc::new(Cell::new((0.0, 0.0)));
    let (s2, o2) = (sim.clone(), Rc::clone(&out));
    sim.spawn_named("ladder-ucr-client", async move {
        let ep = connector.connect(a).await;
        let t0 = Instant::now();
        let t = s2.now();
        for _ in 0..SENDS {
            ep.send(SMALL).await;
        }
        let sim_us = (s2.now() - t).as_secs_f64() / SENDS as f64 * 1e6;
        o2.set((sim_us, ns_per(t0, SENDS)));
    })
    .detach();
    sim.run();
    out.get()
}

/// k-way `StreamingMerge` over real keys that interleave globally, so the
/// merge switches source on every record. Host ns per merged record.
fn merge_real() -> f64 {
    const K: usize = 64;
    const PER_SOURCE: u64 = 8_000;
    const PKT: u64 = 1_024;
    let packets: Vec<Vec<Segment>> = (0..K)
        .map(|i| {
            (0..PER_SOURCE.div_ceil(PKT))
                .map(|p| {
                    let recs = (p * PKT..((p + 1) * PKT).min(PER_SOURCE))
                        .map(|j| {
                            let key = (i as u64 + j * K as u64).to_be_bytes().to_vec();
                            Record::new(key, b"valuevalue".to_vec())
                        })
                        .collect();
                    Segment::from_sorted(recs)
                })
                .collect()
        })
        .collect();
    let mut queues: Vec<std::vec::IntoIter<Segment>> =
        packets.into_iter().map(|v| v.into_iter()).collect();
    let t0 = Instant::now();
    let mut m = StreamingMerge::new(vec![PER_SOURCE; K]);
    for (i, q) in queues.iter_mut().enumerate() {
        if let Some(seg) = q.next() {
            m.append(i, seg);
        }
    }
    let mut emitted = 0u64;
    loop {
        match m.emit(4_096) {
            Emit::Data(seg) => emitted += seg.records,
            Emit::Stalled(dry) => {
                for i in dry {
                    m.append(i, queues[i].next().expect("stalled source has data"));
                }
            }
            Emit::Done => break,
        }
    }
    assert_eq!(emitted, PER_SOURCE * K as u64, "merge lost records");
    ns_per(t0, emitted)
}

/// HDFS `create` / `write` of one block / `close`, repeated. Host ns per
/// block written.
fn hdfs_write(seed: u64) -> f64 {
    const BLOCKS: u64 = 2_000;
    const BLOCK: u64 = 64 << 20;
    let sim = Sim::new(seed);
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![NodeSpec::westmere_compute(); 2],
        HdfsConfig {
            block_size: BLOCK,
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let c2 = cluster.clone();
    sim.spawn_named("ladder-hdfs", async move {
        let node = c2.workers[0].id;
        for i in 0..BLOCKS {
            let mut w = c2
                .hdfs
                .create(&format!("/ladder/b{i}"), node)
                .await
                .expect("create");
            w.write(Blob::synthetic(BLOCK)).await.expect("write");
            w.close().await.expect("close");
        }
    })
    .detach();
    let t0 = Instant::now();
    sim.run();
    ns_per(t0, BLOCKS)
}

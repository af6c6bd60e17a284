//! End-to-end job runs: every shuffle engine, real and synthetic data
//! planes, with output validation.

use rmr_core::cluster::{Cluster, NodeSpec};
use rmr_core::{run_job, run_job_with_faults, FaultPlan, JobConf, JobResult, Runtime, ShuffleKind};
use rmr_des::Sim;
use rmr_hdfs::HdfsConfig;
use rmr_net::FabricParams;
use rmr_workloads::{teragen, terasort_spec, teravalidate};

fn small_cluster(sim: &Sim, workers: usize, fabric: FabricParams) -> Cluster {
    let mut spec = NodeSpec::westmere_compute();
    spec.page_cache = 256 << 20;
    Cluster::build(
        sim,
        fabric,
        &vec![spec; workers],
        HdfsConfig {
            block_size: 4 << 20,
            replication: 1,
            packet_size: 1 << 20,
        },
    )
}

fn small_conf(kind: ShuffleKind, reduces: usize) -> JobConf {
    let mut conf = JobConf::for_kind(kind);
    conf.num_reduces = reduces;
    conf.map_slots = 2;
    conf.reduce_slots = 2;
    conf.shuffle_buffer = 32 << 20;
    conf.io_sort_buffer = 16 << 20;
    conf.prefetch_cache_bytes = 64 << 20;
    conf.osu_packet_bytes = 256 << 10;
    conf.hadoop_a_kv_per_packet = 2_000;
    conf
}

fn fabric_for(kind: ShuffleKind) -> FabricParams {
    if kind.uses_rdma() {
        FabricParams::ib_verbs_qdr()
    } else {
        FabricParams::ipoib_qdr()
    }
}

fn run_real_terasort(kind: ShuffleKind, seed: u64) -> (JobResult, u64) {
    let sim = Sim::new(seed);
    let cluster = small_cluster(&sim, 3, fabric_for(kind));
    let reduces = 3;
    let conf = small_conf(kind, reduces);
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let total: u64 = 12 << 20; // 12 MB real data
        let expected_records = teragen(&c2, "/tin", total, true).await;
        let res = run_job(&c2, conf, terasort_spec("/tin", "/tout")).await;
        let report = teravalidate(&c2, "/tout", reduces, expected_records)
            .await
            .expect("teravalidate");
        *r2.borrow_mut() = Some((res, report.records));
    })
    .detach();
    sim.run();
    let out = result.borrow_mut().take().expect("job did not finish");
    out
}

#[test]
fn vanilla_real_terasort_validates() {
    let (res, records) = run_real_terasort(ShuffleKind::Vanilla, 101);
    assert!(records > 100_000, "12 MB → >100k records, got {records}");
    assert!(res.duration_s > 0.0);
    assert_eq!(res.shuffle, ShuffleKind::Vanilla);
    assert!(res.shuffled_bytes > 10 << 20);
}

#[test]
fn hadoop_a_real_terasort_validates() {
    let (res, records) = run_real_terasort(ShuffleKind::HadoopA, 102);
    assert!(records > 100_000);
    assert_eq!(res.shuffle, ShuffleKind::HadoopA);
}

#[test]
fn osu_ib_real_terasort_validates() {
    let (res, records) = run_real_terasort(ShuffleKind::OsuIb, 103);
    assert!(records > 100_000);
    assert_eq!(res.shuffle, ShuffleKind::OsuIb);
    assert!(
        res.cache_hits > 0,
        "prefetch cache must see hits in an OSU run"
    );
}

#[test]
fn synthetic_terasort_runs_all_engines() {
    for kind in [
        ShuffleKind::Vanilla,
        ShuffleKind::HadoopA,
        ShuffleKind::OsuIb,
    ] {
        let sim = Sim::new(200);
        let cluster = small_cluster(&sim, 4, fabric_for(kind));
        let conf = small_conf(kind, 4);
        let done = std::rc::Rc::new(std::cell::RefCell::new(None));
        let d2 = std::rc::Rc::clone(&done);
        let c2 = cluster.clone();
        sim.spawn(async move {
            teragen(&c2, "/in", 64 << 20, false).await;
            let res = run_job(&c2, conf, terasort_spec("/in", "/out")).await;
            *d2.borrow_mut() = Some(res);
        })
        .detach();
        sim.run();
        let res = done.borrow_mut().take().unwrap_or_else(|| {
            panic!("{kind:?}: job hung (simulation quiesced before completion)")
        });
        // Conservation: all intermediate bytes reach the reducers.
        assert_eq!(
            res.shuffled_bytes, res.input_bytes,
            "{kind:?}: ratio-1.0 job must shuffle exactly the input volume"
        );
        assert_eq!(res.output_bytes, res.input_bytes, "{kind:?}");
        assert_eq!(res.maps, (res.input_bytes as usize).div_ceil(4 << 20));
    }
}

/// Two TeraSort jobs through one persistent OSU-IB runtime, either both
/// submitted up front (`concurrent`, the slots are shared) or each joined
/// before the next is submitted.
fn run_two_jobs(concurrent: bool) -> Vec<JobResult> {
    let sim = Sim::new(7);
    let cluster = small_cluster(&sim, 2, fabric_for(ShuffleKind::OsuIb));
    let conf = small_conf(ShuffleKind::OsuIb, 2);
    let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let r2 = std::rc::Rc::clone(&results);
    sim.spawn(async move {
        for i in 0..2 {
            teragen(&cluster, &format!("/in{i}"), 32 << 20, false).await;
        }
        let rt = Runtime::start(&cluster, conf.clone());
        let submit = |i: usize| {
            rt.submit(
                conf.clone(),
                terasort_spec(&format!("/in{i}"), &format!("/out{i}")),
            )
        };
        if concurrent {
            let ids = [submit(0), submit(1)];
            for id in ids {
                let res = rt.join(id).await;
                r2.borrow_mut().push(res);
            }
        } else {
            for i in 0..2 {
                let res = rt.join(submit(i)).await;
                r2.borrow_mut().push(res);
            }
        }
    })
    .detach();
    sim.run();
    let out = results.borrow().clone();
    assert_eq!(out.len(), 2, "concurrent={concurrent}: a job hung");
    out
}

#[test]
fn concurrent_jobs_share_the_cluster() {
    let conc = run_two_jobs(true);
    for r in &conc {
        assert!(r.duration_s > 0.0);
        assert!(r.queue_wait_s >= 0.0, "queue wait {}", r.queue_wait_s);
        assert!(
            r.slot_occupancy > 0.0 && r.slot_occupancy <= 1.0,
            "slot occupancy {}",
            r.slot_occupancy
        );
    }
    // The sequential variant of the same point must take at least as long
    // end to end as the concurrent one (no slot sharing).
    let seq_sum: f64 = run_two_jobs(false).iter().map(|r| r.duration_s).sum();
    let start = conc.iter().map(|r| r.start_s).fold(f64::INFINITY, f64::min);
    let end = conc.iter().map(|r| r.end_s).fold(0.0, f64::max);
    let makespan = end - start;
    assert!(
        makespan <= seq_sum + 1e-6,
        "concurrent makespan {makespan} vs sequential {seq_sum}"
    );
}

#[test]
fn identical_seeds_are_deterministic() {
    let (a, _) = run_real_terasort(ShuffleKind::OsuIb, 777);
    let (b, _) = run_real_terasort(ShuffleKind::OsuIb, 777);
    assert_eq!(a.duration_s, b.duration_s);
    assert_eq!(a.shuffled_bytes, b.shuffled_bytes);
    assert_eq!(a.cache_hits, b.cache_hits);
}

#[test]
fn failed_map_is_reexecuted_and_job_still_validates() {
    let sim = Sim::new(42);
    let cluster = small_cluster(&sim, 3, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let conf = small_conf(ShuffleKind::OsuIb, reduces);
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let plan = FaultPlan::fail_map_once(0, 1);
        let res = run_job_with_faults(&c2, conf, terasort_spec("/in", "/out"), &plan).await;
        let report = teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        *r2.borrow_mut() = Some((res, report));
    })
    .detach();
    sim.run();
    let (res, _report) = result.borrow_mut().take().expect("job hung");
    assert_eq!(res.failed_map_attempts, 1);
    assert_eq!(res.failed_reduce_attempts, 0);
}

#[test]
fn timeline_records_every_attempt() {
    let (res, _) = run_real_terasort(ShuffleKind::OsuIb, 404);
    use rmr_core::timeline::{Outcome, TaskKind};
    let maps = res
        .timeline
        .iter()
        .filter(|e| e.kind == TaskKind::Map && e.outcome == Outcome::Completed)
        .count();
    let reduces = res
        .timeline
        .iter()
        .filter(|e| e.kind == TaskKind::Reduce && e.outcome == Outcome::Completed)
        .count();
    assert_eq!(maps, res.maps, "one completed attempt per map");
    assert_eq!(reduces, res.reduces, "one completed attempt per reduce");
    for e in &res.timeline {
        assert!(e.end_s >= e.start_s);
        assert!(e.end_s <= res.end_s + 1e-6);
    }
}

#[test]
fn failed_reduce_is_reexecuted_and_job_still_validates() {
    let sim = Sim::new(55);
    let cluster = small_cluster(&sim, 3, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let conf = small_conf(ShuffleKind::OsuIb, reduces);
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let plan = FaultPlan::fail_reduce_once(0, 2);
        let res = run_job_with_faults(&c2, conf, terasort_spec("/in", "/out"), &plan).await;
        let report = teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        *r2.borrow_mut() = Some((res, report));
    })
    .detach();
    sim.run();
    let (res, _report) = result.borrow_mut().take().expect("job hung");
    assert_eq!(
        res.failed_reduce_attempts, 1,
        "the reduce failure counts once, as a reduce failure"
    );
    assert_eq!(
        res.failed_map_attempts, 0,
        "a reduce re-execution is not a map failure"
    );
}

#[test]
fn speculative_execution_completes_and_validates() {
    let sim = Sim::new(66);
    let cluster = small_cluster(&sim, 3, FabricParams::ib_verbs_qdr());
    let reduces = 3;
    let mut conf = small_conf(ShuffleKind::OsuIb, reduces);
    conf.speculative_maps = true;
    let result = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r2 = std::rc::Rc::clone(&result);
    let c2 = cluster.clone();
    sim.spawn(async move {
        let expected = teragen(&c2, "/in", 12 << 20, true).await;
        let res = run_job(&c2, conf, terasort_spec("/in", "/out")).await;
        let report = teravalidate(&c2, "/out", reduces, expected).await.unwrap();
        *r2.borrow_mut() = Some((res, report.records));
    })
    .detach();
    sim.run();
    let (_res, records) = result.borrow_mut().take().expect("job hung");
    assert!(records > 100_000, "speculation must not corrupt output");
}

//! `service-64`: the canonical two-tenant service workload
//! (`rmr_bench::service::service_spec`: interactive Poisson tenant on a 600‰
//! guarantee, diurnal heavy-tailed batch tenant on 400‰, capacity
//! scheduling with preemption, locality delay 1) at 64 nodes and 1000 jobs.
//!
//! The interactive tenant's WordCount share is replaced by Sort, so every
//! job is synthetic: WordCount's real-record kernels would take most of the
//! host time here, and `wordcount-real` measures them already.
//!
//! This pass mirrors `rmr_load::run_service` through public APIs — arrivals
//! and job sizes pre-sampled from tenant-private RNGs, the shared input
//! catalog generated before the first submission, submissions at absolute
//! sim instants (an open loop) — but stamps the host clock at the set-up and
//! run boundaries, which `run_service` does not expose.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

use rmr_bench::service::service_spec;
use rmr_core::{CapacityPlan, Cluster, JobConf, JobResult, JobSpec, NodeSpec, Runtime};
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::{Blob, HdfsConfig};
use rmr_load::{
    tenant_rng, JobKind, JobSample, Schedule, ServicePolicy, ServiceSpec, SERVICE_BLOCK,
};
use rmr_net::FabricParams;
use rmr_obs::Recorder;
use rmr_workloads::{sort_spec, terasort_spec};

use crate::measure::{nearest_rank, Calibrator, SpanId, Tracer};
use crate::pass::{run_sliced, Bounds, HostTimes, Pass, SimRun};

pub const NODES: usize = 64;
pub const JOBS: usize = 1000;

/// Sim time between calibration chunks: set-up and run take ~160 sim s,
/// so about 1 600 chunks.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// The canonical spec with every WordCount share turned into Sort.
pub fn spec(seed: u64) -> ServiceSpec {
    let mut spec = service_spec(
        NODES,
        JOBS,
        seed,
        ServicePolicy::Capacity { preempt: true },
        false,
    );
    for t in &mut spec.tenants {
        for (kind, _) in &mut t.mix.kinds {
            if *kind == JobKind::WordCount {
                *kind = JobKind::Sort;
            }
        }
    }
    spec
}

fn rung_path(kind: JobKind, bytes: u64) -> String {
    format!("/svc/in/{}/{bytes}", kind.label())
}

/// One synthetic input as block-sized part files rotated across workers.
async fn gen_synthetic(cluster: &Cluster, path: &str, bytes: u64, salt: usize) {
    let workers = cluster.worker_count();
    let parts = bytes.div_ceil(SERVICE_BLOCK).max(1);
    for p in 0..parts {
        let node = cluster.workers[(salt + p as usize) % workers].id;
        let size = SERVICE_BLOCK.min(bytes - p * SERVICE_BLOCK);
        let mut w = cluster
            .hdfs
            .create(&format!("{path}/part-{p:05}"), node)
            .await
            .expect("service datagen create");
        w.write(Blob::synthetic(size)).await.expect("datagen write");
        w.close().await.expect("datagen close");
    }
}

fn conf_for(base: &JobConf, queue: u32, locality_delay: u32, bytes: u64) -> JobConf {
    let maps = bytes.div_ceil(SERVICE_BLOCK).max(1) as usize;
    let mut conf = base.clone();
    conf.queue = queue;
    conf.locality_delay = locality_delay;
    conf.num_reduces = (maps / 2).clamp(1, 8);
    conf
}

fn spec_for(job: &JobSample, queue: u32, idx: usize) -> JobSpec {
    let input = rung_path(job.kind, job.input_bytes);
    let output = format!("/svc/out/t{queue}/j{idx}");
    match job.kind {
        JobKind::TeraSort => terasort_spec(&input, &output),
        JobKind::Sort | JobKind::WordCount => sort_spec(&input, &output),
    }
}

struct TenantPlan {
    queue: u32,
    times: Vec<f64>,
    jobs: Vec<JobSample>,
}

/// One pass: pre-sample both tenants, generate the catalog, run every job.
pub fn pass(seed: u64, traced: bool, tracer: &mut Tracer, parent: Option<SpanId>) -> Pass {
    let spec = spec(seed);
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    // Host-side pre-sampling: the program receives only the generated plan.
    let plans: Vec<TenantPlan> = spec
        .tenants
        .iter()
        .map(|t| {
            let mut rng = tenant_rng(spec.seed, t.queue);
            let times = match t.arrival.sample(t.jobs, &mut rng) {
                Schedule::Open(v) => v,
                Schedule::Closed(_) => panic!("service-64 tenants are open-loop"),
            };
            TenantPlan {
                queue: t.queue,
                times,
                jobs: (0..t.jobs).map(|_| t.mix.sample(&mut rng)).collect(),
            }
        })
        .collect();
    let total_jobs: usize = plans.iter().map(|p| p.jobs.len()).sum();
    let catalog: BTreeSet<(JobKind, u64)> = plans
        .iter()
        .flat_map(|p| p.jobs.iter().map(|j| (j.kind, j.input_bytes)))
        .collect();

    let sim = Sim::new(spec.seed);
    let cluster = Cluster::build(
        &sim,
        FabricParams::ib_verbs_qdr(),
        &vec![NodeSpec::westmere_compute(); spec.nodes],
        HdfsConfig {
            block_size: SERVICE_BLOCK,
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let obs = if traced {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let base = JobConf::osu_ib();
    let shares: Vec<(u32, u32)> = spec
        .tenants
        .iter()
        .map(|t| (t.queue, t.share_mille))
        .collect();
    let policy = rmr_core::SchedulePolicy::Capacity(CapacityPlan::new(&shares).with_preemption());
    let locality_delay = spec.locality_delay;

    let results: Rc<RefCell<Vec<JobResult>>> = Rc::new(RefCell::new(Vec::new()));
    let footprint = Rc::new(Cell::new(usize::MAX));
    let bounds = Rc::new(RefCell::new(Bounds::default()));
    let (c2, sim2, obs2, base2) = (cluster.clone(), sim.clone(), obs.clone(), base.clone());
    let (results2, footprint2, b2) = (
        Rc::clone(&results),
        Rc::clone(&footprint),
        Rc::clone(&bounds),
    );
    sim.spawn_named("perfbench-service", async move {
        for (salt, (kind, bytes)) in catalog.iter().enumerate() {
            gen_synthetic(&c2, &rung_path(*kind, *bytes), *bytes, salt).await;
        }
        b2.borrow_mut().mark_setup(&c2.sim);
        let rt = Runtime::with_obs(&c2, base2.clone(), policy, obs2);
        let mut tenants = Vec::new();
        for plan in plans {
            let (rt, sim, base, results) = (
                rt.clone(),
                sim2.clone(),
                base2.clone(),
                Rc::clone(&results2),
            );
            tenants.push(
                sim2.spawn_named(format!("tenant-{}", plan.queue), async move {
                    let mut ids = Vec::with_capacity(plan.jobs.len());
                    for (i, (t, job)) in plan.times.iter().zip(&plan.jobs).enumerate() {
                        let now = sim.now().as_secs_f64();
                        if *t > now {
                            sim.sleep(SimDuration::from_secs_f64(t - now)).await;
                        }
                        let conf = conf_for(&base, plan.queue, locality_delay, job.input_bytes);
                        ids.push(rt.submit(conf, spec_for(job, plan.queue, i)));
                    }
                    for id in ids {
                        let res = rt.join(id).await;
                        results.borrow_mut().push(res);
                    }
                }),
            );
        }
        for t in tenants {
            t.await;
        }
        b2.borrow_mut().mark_joined();
        footprint2.set(rt.state_footprint().total());
    })
    .detach();
    run_sliced(&sim, SLICE, &mut cal);
    let end = Instant::now();
    let fluid_work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;

    let bounds = bounds.borrow();
    let label = format!("{total_jobs} jobs");
    let HostTimes {
        setup_s,
        wall_s,
        cal,
    } = bounds.host_times(t0, end, &cal, tracer, parent, &label);
    let results = results.take();
    let latencies: Vec<f64> = results.iter().map(|r| r.duration_s).collect();
    let mut out = Pass {
        setup_s,
        wall_s,
        cal,
        sims: Vec::new(),
        job_s: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        latencies,
        jobs: total_jobs as u64,
        unfinished: total_jobs.saturating_sub(results.len()) as u64,
        check_failures: Vec::new(),
        extra: Default::default(),
    };
    if out.unfinished > 0 {
        out.check_failures.push(format!(
            "{} of {total_jobs} jobs never joined",
            out.unfinished
        ));
    }
    match footprint.get() {
        0 => {}
        usize::MAX => out
            .check_failures
            .push("service task never completed".into()),
        n => out
            .check_failures
            .push(format!("{n} job-keyed runtime entries leaked")),
    }
    load_rollups(&mut out, &results, &base, spec.nodes);
    out.sims.push(SimRun::capture(
        "service",
        &sim,
        fluid_work,
        bounds.setup_sim_s(),
        results,
        obs.events(),
    ));
    out
}

/// The `rmr_load` figures: guaranteed-tenant tail, queueing tail, slot
/// utilization and makespan.
fn load_rollups(out: &mut Pass, results: &[JobResult], base: &JobConf, nodes: usize) {
    let t0: Vec<f64> = results
        .iter()
        .filter(|r| r.queue == 0)
        .map(|r| r.duration_s)
        .collect();
    let waits: Vec<f64> = results.iter().map(|r| r.queue_wait_s).collect();
    let makespan = results.iter().map(|r| r.end_s).fold(0.0, f64::max);
    let slot_secs: f64 = results.iter().map(|r| r.slot_secs).sum();
    let slots = (nodes * (base.map_slots + base.reduce_slots)) as f64;
    out.extra.insert("load.t0_p99_s", nearest_rank(&t0, 0.99));
    out.extra
        .insert("load.wait_p99_s", nearest_rank(&waits, 0.99));
    out.extra.insert(
        "load.utilization",
        if makespan > 0.0 {
            slot_secs / (makespan * slots)
        } else {
            0.0
        },
    );
    out.extra.insert("load.makespan_s", makespan);
}

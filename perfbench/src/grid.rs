//! `terasort-grid`: the Fig 4(a) point — TeraSort 30 GB on 4 nodes × 1 HDD —
//! once each on IPoIB, Hadoop-A and OSU-IB, with the paper's tuned
//! configuration and synthetic records.
//!
//! Each system gets its own simulation, built exactly as the figure harness
//! builds it (`rmr_cluster::run_experiment`), so at seed 42 the three job
//! times equal the committed `results/fig4a.jsonl` rows.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rmr_cluster::{tuned_block_size, tuned_conf, Bench, RunRecord, System, Testbed};
use rmr_core::{Cluster, JobResult, Runtime, SchedulePolicy};
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::HdfsConfig;
use rmr_obs::Recorder;
use rmr_workloads::{teragen, terasort_spec};

use crate::measure::{Calibrator, SpanId, Tracer};
use crate::pass::{run_sliced, Bounds, Pass, SimRun};

pub const DATA_GB: f64 = 30.0;
pub const NODES: usize = 4;

/// Sim time between calibration chunks: ~1 300 sim s per system, so about
/// 650 chunks per sim.
const SLICE: SimDuration = SimDuration::from_secs(2);

/// The three systems of the paper's headline comparison, slowest first.
pub const SYSTEMS: [System; 3] = [System::IpoIb, System::HadoopA, System::OsuIb];

/// The paper's OSU-IB gains at this point (§IV-B): vs Hadoop-A, vs IPoIB.
pub const PAPER_GAIN_PCT: [(System, f64); 2] = [(System::HadoopA, 9.0), (System::IpoIb, 35.0)];

/// The seed the figure harness runs every point at.
pub const CANONICAL_SEED: u64 = 42;

/// Where the figure harness writes this point's rows.
pub const FIG4A_ROWS: &str = "results/fig4a.jsonl";

/// One pass: the three systems one after another, one simulation each.
pub fn pass(seed: u64, traced: bool, tracer: &mut Tracer, parent: Option<SpanId>) -> Pass {
    let testbed = Testbed::compute(NODES, 1);
    let bytes = (DATA_GB * (1u64 << 30) as f64) as u64;
    let mut out = Pass {
        setup_s: 0.0,
        wall_s: 0.0,
        cal: Default::default(),
        sims: Vec::new(),
        job_s: 0.0,
        latencies: Vec::new(),
        jobs: 0,
        unfinished: 0,
        check_failures: Vec::new(),
        extra: Default::default(),
    };
    let mut cal = Calibrator::new();
    for system in SYSTEMS {
        let t0 = Instant::now();
        let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
        let sim = Sim::new(seed);
        let cluster = Cluster::build_with_topology(
            &sim,
            system.fabric(),
            testbed.topology,
            &testbed.node_specs(),
            HdfsConfig {
                block_size: tuned_block_size(system, Bench::TeraSort),
                replication: 1,
                packet_size: 4 << 20,
            },
        );
        let obs = if traced {
            Recorder::on(&sim)
        } else {
            Recorder::off()
        };
        let conf = tuned_conf(system, Bench::TeraSort, &testbed);
        let bounds = Rc::new(RefCell::new(Bounds::default()));
        let result: Rc<RefCell<Option<JobResult>>> = Rc::default();
        let (c2, b2, r2, obs2) = (
            cluster.clone(),
            Rc::clone(&bounds),
            Rc::clone(&result),
            obs.clone(),
        );
        // One top-level sim task, shaped like the figure harness's: input
        // generation, then the runtime, submit and join in the same task.
        sim.spawn_named("perfbench-grid", async move {
            teragen(&c2, "/bench/in", bytes, false).await;
            b2.borrow_mut().mark_setup(&c2.sim);
            let rt = Runtime::with_obs(&c2, conf.clone(), SchedulePolicy::Fifo, obs2);
            let id = rt.submit(conf, terasort_spec("/bench/in", "/bench/out"));
            let res = rt.join(id).await;
            b2.borrow_mut().mark_joined();
            *r2.borrow_mut() = Some(res);
        })
        .detach();
        run_sliced(&sim, SLICE, &mut cal);
        let end = Instant::now();
        let fluid_work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;
        let label = system.label();
        let bounds = bounds.borrow();
        let times = bounds.host_times(t0, end, &cal, tracer, parent, label);
        out.setup_s += times.setup_s;
        out.wall_s += times.wall_s;
        out.cal.add(times.cal);
        out.jobs += 1;
        let results = match result.take() {
            Some(res) => {
                check_bytes(label, &res, &mut out.check_failures);
                out.latencies.push(res.duration_s);
                if system == System::OsuIb {
                    out.job_s = res.duration_s;
                }
                vec![res]
            }
            None => {
                out.unfinished += 1;
                out.check_failures
                    .push(format!("{label}: job never joined"));
                Vec::new()
            }
        };
        out.sims.push(SimRun::capture(
            label,
            &sim,
            fluid_work,
            bounds.setup_sim_s(),
            results,
            obs.events(),
        ));
    }
    if let Some(err) = paper_err_pp(&out) {
        out.extra.insert("paper_err_pp", err);
    }
    if seed == CANONICAL_SEED {
        if let Err(e) = check_against_figure(&out) {
            out.check_failures.push(e);
        }
    }
    out
}

/// TeraSort is an identity sort: every input byte is shuffled once and
/// written once.
fn check_bytes(label: &str, res: &JobResult, failures: &mut Vec<String>) {
    if !(res.output_bytes == res.input_bytes && res.input_bytes == res.shuffled_bytes) {
        failures.push(format!(
            "{label}: bytes not conserved (input {}, shuffled {}, output {})",
            res.input_bytes, res.shuffled_bytes, res.output_bytes
        ));
    }
}

fn duration_of(pass: &Pass, system: System) -> Option<f64> {
    pass.sims
        .iter()
        .find(|s| s.label == system.label())
        .and_then(|s| s.results.first())
        .map(|r| r.duration_s)
}

/// Mean of |measured − paper| over the paper's two OSU-IB gains at this
/// point, in percentage points.
pub fn paper_err_pp(pass: &Pass) -> Option<f64> {
    let osu = duration_of(pass, System::OsuIb)?;
    let mut errs = Vec::new();
    for (base, paper) in PAPER_GAIN_PCT {
        let b = duration_of(pass, base)?;
        errs.push(((b - osu) / b * 100.0 - paper).abs());
    }
    Some(errs.iter().sum::<f64>() / errs.len() as f64)
}

/// At the canonical seed the three job times must equal the committed
/// Fig 4(a) rows for 30 GB, 1 HDD: proof that this is the figure's cluster.
fn check_against_figure(pass: &Pass) -> Result<(), String> {
    let text = std::fs::read_to_string(FIG4A_ROWS)
        .map_err(|e| format!("cannot read {FIG4A_ROWS}: {e}"))?;
    let rows: Vec<RunRecord> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(RunRecord::from_json)
        .collect::<Result<_, _>>()?;
    for system in SYSTEMS {
        let row = rows
            .iter()
            .find(|r| {
                r.system == system.label()
                    && r.data_gb == DATA_GB
                    && r.disks == 1
                    && r.nodes == NODES
                    && !r.ssd
            })
            .ok_or_else(|| format!("{FIG4A_ROWS} has no 30 GB d1 row for {}", system.label()))?;
        let got = duration_of(pass, system).unwrap_or(f64::NAN);
        if got.to_bits() != row.duration_s.to_bits() {
            return Err(format!(
                "{}: sim_job_s {got} != figure row {}",
                system.label(),
                row.duration_s
            ));
        }
    }
    Ok(())
}

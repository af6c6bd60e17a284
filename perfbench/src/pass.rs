//! What one pass of a workload produces, and the per-layer figures derived
//! from it.
//!
//! A pass builds its cluster(s), generates inputs (set-up), then submits and
//! joins its jobs (the timed run). Host times come from the wall clock; every
//! other number is simulation output and is bit-identical for a given seed.

use std::collections::BTreeMap;
use std::time::Instant;

use rmr_core::JobResult;
use rmr_des::{Sim, SimDuration};
use rmr_obs::{Ev, ObsEvent};

use crate::measure::{nearest_rank, CalWindow, Calibrator, SpanId, Tracer};

/// Runs `sim` until it drains, in slices of `slice` sim time, with one
/// calibration chunk between slices. Slicing leaves the schedule alone:
/// `run_until` fires exactly the events `run` would, in the same order,
/// so the trace hash is that of an unsliced run (every pass at one seed
/// is checked against the others, and the grid against the committed
/// figure rows).
pub fn run_sliced(sim: &Sim, slice: SimDuration, cal: &mut Calibrator) {
    let mut limit = sim.now() + slice;
    // `run_until` returns the limit when it stopped there with events
    // left, and an earlier time once the sim has drained.
    while sim.run_until(limit) >= limit {
        cal.chunk();
        limit += slice;
    }
}

/// Host times of one sim's pass, calibration chunks taken out, and the
/// chunks that ran in each phase.
pub struct HostTimes {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cal: PassCal,
}

/// Calibration chunks that ran during a pass's set-up and during its run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCal {
    pub setup: CalWindow,
    pub run: CalWindow,
}

impl PassCal {
    pub fn add(&mut self, other: PassCal) {
        self.setup.add(other.setup);
        self.run.add(other.run);
    }
}

/// The host-clock boundaries of one simulation's pass, stamped by its
/// top-level sim task: when input generation finished and when the last job
/// joined. Host clocks never feed sim state.
#[derive(Default)]
pub struct Bounds {
    setup_end: Option<Instant>,
    setup_sim_s: f64,
    joined: Option<Instant>,
}

impl Bounds {
    /// Set-up is over: inputs exist, the first submit comes next.
    pub fn mark_setup(&mut self, sim: &Sim) {
        self.setup_end = Some(Instant::now());
        self.setup_sim_s = sim.now().as_secs_f64();
    }

    /// Every job has joined.
    pub fn mark_joined(&mut self) {
        self.joined = Some(Instant::now());
    }

    /// Sim time at which set-up finished.
    pub fn setup_sim_s(&self) -> f64 {
        self.setup_sim_s
    }

    /// Host times for a pass that started at `t0` and whose sim drained
    /// at `end`, less the calibration chunks `cal` ran in each phase,
    /// recording the two spans under `parent`. A boundary never reached
    /// counts as `end`.
    pub fn host_times(
        &self,
        t0: Instant,
        end: Instant,
        cal: &Calibrator,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        label: &str,
    ) -> HostTimes {
        let setup = self.setup_end.unwrap_or(end);
        let joined = self.joined.unwrap_or(end);
        tracer.add(format!("setup {label}"), t0, setup, parent);
        tracer.add(format!("submit→join {label}"), setup, joined, parent);
        let cal = PassCal {
            setup: cal.window(t0, setup),
            run: cal.window(setup, joined),
        };
        HostTimes {
            setup_s: (setup - t0).as_secs_f64() - cal.setup.secs,
            wall_s: (joined - setup).as_secs_f64() - cal.run.secs,
            cal,
        }
    }
}

/// One simulation a pass drove, with everything read off it afterwards.
pub struct SimRun {
    /// Which system or scenario ran in this sim.
    pub label: String,
    /// Replay-identity fingerprint of the whole sim (set-up and run).
    pub trace_hash: u64,
    pub events: u64,
    pub polls: u64,
    /// Fluid-solver advance steps (`FLUID_ADVANCE_WORK` delta).
    pub fluid_work: u64,
    /// Sim time when input generation finished.
    pub setup_sim_s: f64,
    /// Every job this sim joined, in join order.
    pub results: Vec<JobResult>,
    /// The string-keyed counter registry at the end of the run.
    pub counters: BTreeMap<String, f64>,
    /// The obs stream (empty unless the pass was traced).
    pub obs: Vec<ObsEvent>,
}

impl SimRun {
    /// Snapshots `sim` after its run.
    pub fn capture(
        label: impl Into<String>,
        sim: &Sim,
        fluid_work: u64,
        setup_sim_s: f64,
        results: Vec<JobResult>,
        obs: Vec<ObsEvent>,
    ) -> SimRun {
        SimRun {
            label: label.into(),
            trace_hash: sim.trace_hash(),
            events: sim.events_fired(),
            polls: sim.polls(),
            fluid_work,
            setup_sim_s,
            results,
            counters: sim
                .metrics()
                .snapshot()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            obs,
        }
    }

    fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }
}

/// One pass of a workload.
pub struct Pass {
    /// Host seconds to build the cluster(s) and generate inputs.
    pub setup_s: f64,
    /// Host seconds from the first submit until every job joined.
    pub wall_s: f64,
    /// Calibration chunks run between sim slices (their time is not in
    /// `setup_s` or `wall_s`).
    pub cal: PassCal,
    pub sims: Vec<SimRun>,
    /// Modelled duration of the workload's headline job.
    pub job_s: f64,
    /// Submission-to-finish latency of every job, sim seconds.
    pub latencies: Vec<f64>,
    /// Jobs submitted, and how many of them never joined.
    pub jobs: u64,
    pub unfinished: u64,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Workload-specific deterministic figures (paper error, load rollups).
    pub extra: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn results(&self) -> impl Iterator<Item = &JobResult> {
        self.sims.iter().flat_map(|s| s.results.iter())
    }

    fn obs(&self) -> impl Iterator<Item = &ObsEvent> {
        self.sims.iter().flat_map(|s| s.obs.iter())
    }

    /// Task attempts launched, failed ones included.
    pub fn attempts(&self) -> u64 {
        self.results()
            .map(|r| (r.maps + r.reduces + r.failed_map_attempts + r.failed_reduce_attempts) as u64)
            .sum()
    }

    pub fn failed_attempts(&self) -> u64 {
        self.results()
            .map(|r| (r.failed_map_attempts + r.failed_reduce_attempts) as u64)
            .sum()
    }

    /// `(attempted, failed)` for the result line: attempts plus jobs, and
    /// failed attempts plus unfinished jobs plus failed output checks.
    pub fn outcome(&self) -> (u64, u64) {
        (
            self.attempts() + self.jobs,
            self.failed_attempts() + self.unfinished + self.check_failures.len() as u64,
        )
    }

    /// The trace hashes of every sim, in order.
    pub fn hashes(&self) -> Vec<u64> {
        self.sims.iter().map(|s| s.trace_hash).collect()
    }

    /// The sim-side end-to-end figures, as raw bits for exact comparison.
    pub fn sim_fingerprint(&self) -> Vec<u64> {
        let mut v = vec![self.job_s.to_bits()];
        v.extend(self.latencies.iter().map(|x| x.to_bits()));
        v.extend(self.extra.values().map(|x| x.to_bits()));
        v
    }

    pub fn events(&self) -> u64 {
        self.sims.iter().map(|s| s.events).sum()
    }

    fn sum_counter(&self, key: &str) -> f64 {
        self.sims.iter().map(|s| s.counter(key)).sum()
    }

    /// Per-layer figures that come from the simulation (deterministic for a
    /// seed). Host-time figures are added by the caller.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            m.insert(k.to_string(), if v.is_finite() { v } else { 0.0 });
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        // rmr_des: executor and fluid solver.
        let events = self.events() as f64;
        let polls: f64 = self.sims.iter().map(|s| s.polls as f64).sum();
        put("des.events", events);
        put("des.polls_per_event", ratio(polls, events));
        put(
            "des.fluid_work",
            self.sims.iter().map(|s| s.fluid_work as f64).sum(),
        );

        // rmr_net and rmr_store: counters registered by the resource layers.
        put("net.bytes", self.sum_counter("net.bytes_transferred"));
        put("store.disk_seeks", self.sum_counter("disk.seeks"));
        let read = self.sum_counter("fs.bytes_read");
        let read_disk = self.sum_counter("fs.bytes_read_disk");
        put("store.disk_read_bytes", read_disk);
        put("store.cache_hit_ratio", ratio(read - read_disk, read));

        // rmr_hdfs.
        put("hdfs.bytes_written", self.sum_counter("hdfs.bytes_written"));
        put(
            "hdfs.setup_sim_s",
            self.sims.iter().map(|s| s.setup_sim_s).sum(),
        );

        // rmr_core: phases of each job, averaged over jobs.
        let results: Vec<&JobResult> = self.results().collect();
        let n = results.len().max(1) as f64;
        let mean = |f: &dyn Fn(&JobResult) -> f64| results.iter().map(|r| f(r)).sum::<f64>() / n;
        put(
            "core.maptask.phase_s",
            mean(&|r| r.map_phase_end_s - r.start_s),
        );
        let last = |r: &JobResult, f: &dyn Fn(&rmr_core::reduce::ReduceStats) -> f64| {
            r.reduce_stats.iter().map(f).fold(0.0, f64::max)
        };
        put(
            "core.reduce.shuffle_tail_s",
            mean(&|r| (last(r, &|s| s.shuffle_end_s) - r.map_phase_end_s).max(0.0)),
        );
        put(
            "core.reduce.merge_tail_s",
            mean(&|r| (last(r, &|s| s.merge_end_s) - last(r, &|s| s.shuffle_end_s)).max(0.0)),
        );
        put(
            "core.reduce.reduce_tail_s",
            mean(&|r| (last(r, &|s| s.reduce_end_s) - last(r, &|s| s.merge_end_s)).max(0.0)),
        );
        put(
            "core.reduce.shuffle_bytes",
            results.iter().map(|r| r.shuffled_bytes as f64).sum(),
        );
        put(
            "core.reduce.rdma_stall_ratio",
            ratio(
                self.sum_counter("rdma.stalls"),
                self.sum_counter("rdma.loop_iters"),
            ),
        );
        put(
            "core.reduce.records_per_emit",
            ratio(
                self.sum_counter("rdma.emit_records"),
                self.sum_counter("rdma.emits"),
            ),
        );
        let hits: f64 = results.iter().map(|r| r.cache_hits as f64).sum();
        let misses: f64 = results.iter().map(|r| r.cache_misses as f64).sum();
        put("core.prefetch.hit_ratio", ratio(hits, hits + misses));
        put("core.runtime.attempts", self.attempts() as f64);
        put("core.runtime.queue_wait_s", mean(&|r| r.queue_wait_s));
        put("core.runtime.slot_occupancy", mean(&|r| r.slot_occupancy));

        // rmr_core, from the obs stream: serving and the in-node fold.
        let mut serve_ns = Vec::new();
        let mut from_cache = 0u64;
        let (mut fold_in, mut fold_out) = (0u64, 0u64);
        for e in self.obs() {
            match &e.ev {
                Ev::ShuffleResponse {
                    serve_ns: ns,
                    from_cache: c,
                    ..
                } => {
                    serve_ns.push(*ns as f64);
                    from_cache += u64::from(*c);
                }
                Ev::CombineFold {
                    bytes_in,
                    bytes_out,
                    ..
                } => {
                    fold_in += bytes_in;
                    fold_out += bytes_out;
                }
                _ => {}
            }
        }
        put(
            "core.tasktracker.serve_p50_ns",
            nearest_rank(&serve_ns, 0.50),
        );
        put(
            "core.tasktracker.serve_p99_ns",
            nearest_rank(&serve_ns, 0.99),
        );
        put(
            "core.tasktracker.from_cache_ratio",
            ratio(from_cache as f64, serve_ns.len() as f64),
        );
        put(
            "core.combine.fold_ratio",
            ratio(fold_out as f64, fold_in as f64),
        );

        // rmr_obs: stream volume (the overhead is a host figure).
        put("obs.events", self.obs().count() as f64);

        for (k, v) in &self.extra {
            put(k, *v);
        }
        m
    }
}

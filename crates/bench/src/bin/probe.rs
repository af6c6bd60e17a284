//! Calibration probe (consolidated): ad-hoc single-simulation runs for
//! calibrating the models against the paper's tables.
//!
//! Subcommands:
//!   probe grid   [gb] [nodes] [disks] [sort] [--engines] — one Fig 4(a)-style
//!                point per system (GigE10/IPoIB/HA/OSU), run in parallel.
//!                With --engines: all five shuffle engines (IPoIB/HA/OSU +
//!                in-node combiner + striped multi-rail), gated on the seed
//!                engines regenerating bit-identically (0.00% delta) and on
//!                the combiner engine's combiner-less rows replaying OSU-IB
//!                exactly; non-zero exit on any divergence
//!   probe one    [gb] [system] [nodes] [disks] [sort] [seed] — a single point,
//!                printing sim duration and wall time
//!   probe phases [gb] [system] [nodes] [disks] [sort|ssdsort]
//!                — a single point with a full phase/metrics breakdown
//!                (honours RMR_LIMIT=<sim-seconds> to bound hung runs)
//!   probe fluidcmp — exact completion times for a canned fluid-contention
//!                scenario; diff the output across two builds to compare
//!                solver implementations (see DESIGN.md §8 on schedule
//!                sensitivity)
//!   probe scale  <nodes> <jobs> <gb> [seed] [--budget-s S]
//!                [--min-attempts N]
//!                — weak-scaling hot-path probe: the same concurrent job mix
//!                at 64, 256, and <nodes> workers (points ≤ <nodes>), run in
//!                parallel through the sweep pool. Prints fluid_work/events
//!                and polls/events per point and their drift vs the smallest
//!                point. With --budget-s, exits non-zero if any point's
//!                wall time exceeds the budget (CI smoke).
//!   probe service [nodes] [jobs] [seed] [--budget-s S] [--hist-dir DIR]
//!                — open-arrival multi-tenant service probe: the canonical
//!                two-tenant mix (interactive Poisson mice + diurnal batch
//!                elephants) under FIFO and capacity+preemption. Gates:
//!                every job finishes, state drains, the guaranteed tenant's
//!                p99 beats FIFO, and a replay run is trace-hash identical.
//!                With --hist-dir also writes tenant latency jsonl and
//!                tenant heatmap artifacts.
//!   probe chaos  [nodes] [jobs] [gb] [seed] [--plans N] [--budget-s S]
//!                — deterministic chaos campaign: N seed-derived fault
//!                plans (plan 0 is always the mid-map-wave kill storm)
//!                against a concurrent TeraSort mix. Every plan must pass
//!                three gates: quiescence (all jobs finish, runtime state
//!                footprint drains to zero), determinism (a second run of
//!                the same faulted sim is trace-hash identical), and
//!                no-lost-work (per-reducer output byte counts match the
//!                fault-free twin exactly). The campaign ends with the
//!                combiner acceptance point: WordCount on the in-node
//!                combiner engine, one worker killed mid-shuffle and
//!                restarted, gated on the same three checks plus `folded`
//!                (combined shuffle volume under an OSU-IB twin) — the
//!                fold demonstrably re-runs after node loss. Non-zero
//!                exit on any failure.
//!   probe obs    [jobs] [nodes] [gb_per_job] [outdir] [seed]
//!                — a concurrent multi-job OSU-IB mix with the observability
//!                recorder on; writes every rmr_obs artifact (events.jsonl,
//!                Chrome trace, heatmap, queue-depth / cache-pressure /
//!                shuffle-throughput series, runtime snapshots) to outdir
//!                and self-validates the Chrome trace (non-zero exit on a
//!                schema violation). See DESIGN.md §12 and README
//!                "Inspecting a run".
//!
//! System names: g1, g10, ipoib, ha, osu, osunc, comb, mr.

use std::cell::RefCell;
use std::rc::Rc;

use rmr_cluster::{
    run_all, run_experiment, tuned_block_size, tuned_conf, Bench, Experiment, System, Testbed,
};
use rmr_core::cluster::Cluster;
use rmr_core::{run_job, Runtime, SchedulePolicy};
use rmr_hdfs::HdfsConfig;
use rmr_workloads::{
    randomwriter, sort_spec, teragen, terasort_spec, textgen_blocks, wordcount_spec,
};

fn parse_system(name: &str) -> System {
    match name {
        "g1" => System::GigE1,
        "g10" => System::GigE10,
        "ipoib" => System::IpoIb,
        "ha" => System::HadoopA,
        "osunc" => System::OsuIbNoCache,
        "comb" => System::NodeCombiner,
        "mr" => System::MultiRail,
        _ => System::OsuIb,
    }
}

fn usage() -> ! {
    eprintln!("usage: probe <grid|one|phases|fluidcmp|scale|service|chaos|obs> [args]");
    eprintln!("  probe grid   [gb] [nodes] [disks] [sort] [--engines]");
    eprintln!("  probe one    [gb] [system] [nodes] [disks] [sort] [seed]");
    eprintln!("  probe phases [gb] [system] [nodes] [disks] [sort|ssdsort]");
    eprintln!("  probe fluidcmp                               — solver differential dump");
    eprintln!(
        "  probe scale  <nodes> <jobs> <gb> [seed] [--budget-s S] [--min-attempts N] [--out PATH]"
    );
    eprintln!("  probe service [nodes] [jobs] [seed] [--budget-s S] [--out PATH] [--hist-dir DIR]");
    eprintln!("  probe chaos  [nodes] [jobs] [gb] [seed] [--plans N] [--budget-s S]");
    eprintln!("  probe obs    [jobs] [nodes] [gb_per_job] [outdir] [seed]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("grid") => grid(&args[2..]),
        Some("one") => one(&args[2..]),
        Some("phases") => phases(&args[2..]),
        Some("fluidcmp") => fluidcmp(),
        Some("obs") => obs(&args[2..]),
        Some("scale") => scale(&args[2..]),
        Some("service") => service(&args[2..]),
        Some("chaos") => chaos(&args[2..]),
        _ => usage(),
    }
}

/// Prints exact completion times for a canned fluid-contention scenario —
/// a differential harness for comparing solver implementations.
fn fluidcmp() {
    let sim = rmr_des::Sim::new(5);
    let f = rmr_des::resource::Fluid::new(&sim, 4.0e9);
    let cpu = rmr_des::resource::Fluid::with_entry_cap(&sim, 8.0, 1.0);
    for i in 0..64usize {
        let f = f.clone();
        let cpu = cpu.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(rmr_des::SimDuration::from_micros((i * 131) as u64))
                .await;
            for r in 0..20usize {
                let amount = 65_536.0 + ((i * 7919 + r * 104729) % 4_000_000) as f64;
                f.consume(amount).await;
                cpu.consume(1e-4).await;
                println!("{i} {r} {}", s.now().as_nanos());
            }
        })
        .detach();
    }
    sim.run();
}

/// One Fig 4(a)-style point per system, in parallel. With `--engines` the
/// grid covers all five shuffle engines (Vanilla via IPoIB, Hadoop-A,
/// OSU-IB, in-node combiner, striped multi-rail) and becomes a gate: the
/// three seed engines must regenerate bit-identically in a second pass run
/// without the new engines present (0.00% delta), and the combiner engine's
/// combiner-less row must replay OSU-IB's exactly.
fn grid(args: &[String]) {
    let gb: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(30.0);
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let disks: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let bench = if args.get(3).map(|s| s == "sort").unwrap_or(false) {
        Bench::Sort
    } else {
        Bench::TeraSort
    };
    let engines = args.iter().any(|a| a == "--engines");
    let seed_systems = [System::IpoIb, System::HadoopA, System::OsuIb];
    let systems: Vec<System> = if engines {
        vec![
            System::IpoIb,
            System::HadoopA,
            System::OsuIb,
            System::NodeCombiner,
            System::MultiRail,
        ]
    } else {
        vec![
            System::GigE10,
            System::IpoIb,
            System::HadoopA,
            System::OsuIb,
        ]
    };
    let exp_for = |system: System| {
        Experiment::new(
            "probe",
            bench,
            system,
            Testbed::compute(nodes, disks),
            gb,
            42,
        )
    };
    let exps: Vec<Experiment> = systems.iter().map(|&s| exp_for(s)).collect();
    let recs = run_all(&exps, exps.len());
    for r in &recs {
        println!(
            "{:28} {:6.0}s  (map_end {:5.0}s, shuffled {:.1} GB, cache {:.0}%)",
            r.system,
            r.duration_s,
            r.map_phase_end_s,
            r.shuffled_bytes as f64 / 1e9,
            r.cache_hit_rate * 100.0
        );
    }
    if !engines {
        return;
    }
    // Seed-regeneration gate: the three paper engines, swept again without
    // the new engines in the mix, must land on the same numbers to the bit.
    let seed_exps: Vec<Experiment> = seed_systems.iter().map(|&s| exp_for(s)).collect();
    let again = run_all(&seed_exps, seed_exps.len());
    let mut failed = false;
    for b in &again {
        let a = recs
            .iter()
            .find(|r| r.system == b.system)
            .expect("seed system missing from the engine grid");
        let delta = (a.duration_s - b.duration_s).abs() / b.duration_s * 100.0;
        let exact = a.duration_s == b.duration_s && a.shuffled_bytes == b.shuffled_bytes;
        println!(
            "regen {:28} {:6.0}s  delta {delta:.2}%  {}",
            b.system,
            b.duration_s,
            gate("bit-identical", exact)
        );
        failed |= !exact;
    }
    // Pass-through gate: the sort benches carry no combiner fn, so the
    // in-node combiner engine must replay the OSU-IB data plane exactly.
    let osu = recs
        .iter()
        .find(|r| r.system == System::OsuIb.label())
        .expect("OSU-IB row");
    let comb = recs
        .iter()
        .find(|r| r.system == System::NodeCombiner.label())
        .expect("combiner row");
    let passthrough =
        osu.duration_s == comb.duration_s && osu.shuffled_bytes == comb.shuffled_bytes;
    println!(
        "combiner-less pass-through: {}",
        gate("matches-osu-ib", passthrough)
    );
    failed |= !passthrough;
    if failed {
        std::process::exit(1);
    }
}

/// Host cost and control-plane size of one weak-scaling point.
struct ScalePoint {
    nodes: usize,
    wall_s: f64,
    events: u64,
    polls: u64,
    fluid_work: u64,
    attempts: usize,
}

/// One weak-scaling point: `jobs` concurrent TeraSort jobs through a
/// persistent OSU-IB runtime on `nodes` workers, total dataset scaled so
/// per-node load matches the target point.
fn scale_point(nodes: usize, jobs: usize, gb_total: f64, seed: u64) -> ScalePoint {
    use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
    let system = System::OsuIb;
    let testbed = Testbed::compute(nodes, 1);
    let sim = rmr_des::Sim::new(seed);
    let cluster = Cluster::build(
        &sim,
        system.fabric(),
        &testbed.node_specs(),
        HdfsConfig {
            // Small blocks so map attempt counts (not bytes) stress the
            // control plane: gb/jobs GB per job in 8 MB splits.
            block_size: 8 << 20,
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let mut conf = tuned_conf(system, Bench::TeraSort, &testbed);
    // tuned_conf sizes reduces for figure fidelity (nodes x slots); at 1k
    // nodes that would make the map-fetch matrix quadratic in the cluster
    // size. Cap it so shuffle volume stays proportional to the data.
    conf.num_reduces = nodes.min(64);
    let bytes_per_job = ((gb_total / jobs as f64) * (1u64 << 30) as f64) as u64;
    let results: Rc<RefCell<Vec<rmr_core::JobResult>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = Rc::clone(&results);
    let c2 = cluster.clone();
    let conf2 = conf.clone();
    sim.spawn_named("scale-driver", async move {
        for i in 0..jobs {
            teragen(&c2, &format!("/scale/in{i}"), bytes_per_job, false).await;
        }
        let rt = Runtime::with_policy(&c2, conf2.clone(), SchedulePolicy::Fifo);
        let ids: Vec<_> = (0..jobs)
            .map(|i| {
                rt.submit(
                    conf2.clone(),
                    terasort_spec(&format!("/scale/in{i}"), &format!("/scale/out{i}")),
                )
            })
            .collect();
        for id in ids {
            let res = rt.join(id).await;
            r2.borrow_mut().push(res);
        }
        let fp = rt.state_footprint();
        assert_eq!(fp.total(), 0, "job-keyed state leaked: {fp:?}");
    })
    .detach();
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    // simcheck: allow(wall-clock) -- host-side timing of the sim itself
    let t0 = std::time::Instant::now();
    sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let fluid_work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;
    let results = results.borrow();
    assert_eq!(results.len(), jobs, "scale point n{nodes} hung");
    let attempts: usize = results
        .iter()
        .map(|r| r.maps + r.reduces + r.failed_map_attempts + r.failed_reduce_attempts)
        .sum();
    let (m, rd, fm, fr) = results.iter().fold((0, 0, 0, 0), |a, r| {
        (
            a.0 + r.maps,
            a.1 + r.reduces,
            a.2 + r.failed_map_attempts,
            a.3 + r.failed_reduce_attempts,
        )
    });
    eprintln!(
        "  [scale n{nodes}] jobs={jobs} maps={m} reduces={rd} \
         failed_maps={fm} failed_reduces={fr}"
    );
    ScalePoint {
        nodes,
        wall_s,
        events: sim.events_fired(),
        polls: sim.polls(),
        fluid_work,
        attempts,
    }
}

/// Weak-scaling sweep: see module docs.
fn scale(args: &[String]) {
    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let jobs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let gb: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100.0);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
    let mut budget_s: Option<f64> = None;
    let mut min_attempts: Option<usize> = None;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--budget-s" => {
                i += 1;
                budget_s = Some(args.get(i).expect("--budget-s value").parse().unwrap());
            }
            "--min-attempts" => {
                i += 1;
                min_attempts = Some(args.get(i).expect("--min-attempts value").parse().unwrap());
            }
            _ => {}
        }
        i += 1;
    }

    // Reference points below the target, so the ratios have a baseline.
    let mut points: Vec<usize> = [64usize, 256, nodes]
        .into_iter()
        .filter(|&n| n <= nodes)
        .collect();
    points.sort_unstable();
    points.dedup();

    // Weak scaling: per-node data is fixed at the target's gb/nodes and the
    // job count stays constant, so every point runs the same blocks-per-node
    // load (the per-node split rounding is identical across points). Per-job
    // reduce fan-in still grows with the cluster — reduces are capped while
    // maps scale — which shifts the event mix toward fluid merge work and
    // can only *lower* the per-event ratios. The gate is therefore
    // one-sided: only ratio growth (super-linear control-plane cost per
    // event) fails the probe.
    // One worker per point, capped at the host's parallelism: on a small
    // host, oversubscribing a single core with multiple whole-sim threads
    // thrashes (scheduler + cache pressure) and corrupts the wall numbers.
    let threads = rmr_bench::default_threads().min(points.len());
    let runs = rmr_bench::sweep::sweep_map(&points, threads, |&n, _| {
        let gb_point = gb * n as f64 / nodes as f64;
        scale_point(n, jobs, gb_point, seed)
    });

    println!(
        "\n{:>6} {:>9} {:>10} {:>12} {:>8} {:>14} {:>12}",
        "nodes", "attempts", "events", "fluid_work", "wall_s", "fluid/events", "polls/events"
    );
    let base = &runs[0];
    let base_fpe = base.fluid_work as f64 / base.events as f64;
    let base_ppe = base.polls as f64 / base.events as f64;
    let mut over_budget = false;
    let mut max_drift = 1.0f64;
    for r in &runs {
        let fpe = r.fluid_work as f64 / r.events as f64;
        let ppe = r.polls as f64 / r.events as f64;
        println!(
            "{:>6} {:>9} {:>10} {:>12} {:>8.2} {:>8.3} ({:>4.2}x) {:>6.3} ({:>4.2}x)",
            r.nodes,
            r.attempts,
            r.events,
            r.fluid_work,
            r.wall_s,
            fpe,
            fpe / base_fpe,
            ppe,
            ppe / base_ppe
        );
        for ratio in [fpe / base_fpe, ppe / base_ppe] {
            max_drift = max_drift.max(ratio);
        }
        if let Some(b) = budget_s {
            if r.wall_s > b {
                eprintln!(
                    "BUDGET EXCEEDED: n{} took {:.1}s > {:.1}s",
                    r.nodes, r.wall_s, b
                );
                over_budget = true;
            }
        }
    }
    println!(
        "max upward hot-path ratio drift vs n{}: {:.3}x (gate: 1.20x)",
        base.nodes, max_drift
    );
    let mut too_small = false;
    if let Some(min) = min_attempts {
        let got = runs.last().map_or(0, |r| r.attempts);
        if got < min {
            eprintln!("SMOKE TOO SMALL: target point ran {got} attempts < {min}");
            too_small = true;
        }
    }
    if over_budget || too_small || max_drift > 1.2 {
        std::process::exit(1);
    }
}

/// Open-arrival service probe: the canonical two-tenant workload (see
/// `rmr_bench::service`) under FIFO and capacity+preemption, with a replay
/// run for the determinism gate. Gates (non-zero exit on failure):
///
///  1. every submitted job finishes and the runtime state footprint drains
///     to zero (asserted inside `run_service`),
///  2. both tenants report non-empty latency tails under both policies,
///  3. the capacity-guaranteed interactive tenant's latency p99 beats FIFO
///     and its queue-wait p99 is no worse,
///  4. a second run of the capacity sim is trace-hash identical,
///  5. optional wall budget per run (`--budget-s`).
fn service(args: &[String]) {
    use rmr_bench::service::service_spec;
    use rmr_load::{run_service, ServicePolicy};

    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(64);
    let jobs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);
    let mut budget_s: Option<f64> = None;
    let mut hist_dir: Option<String> = None;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--budget-s" => {
                i += 1;
                budget_s = Some(args.get(i).expect("--budget-s value").parse().unwrap());
            }
            "--hist-dir" => {
                i += 1;
                hist_dir = Some(args.get(i).expect("--hist-dir value").clone());
            }
            _ => {}
        }
        i += 1;
    }

    // FIFO baseline and the capacity run (events recorded for the heatmap
    // artifacts — the recorder is perturbation-free, see the load gates)
    // fan out through the sweep pool; the replay twin runs after, so it
    // proves same-process determinism rather than racing its twin.
    let cases = [
        (ServicePolicy::Fifo, false),
        (ServicePolicy::Capacity { preempt: true }, true),
    ];
    let threads = rmr_bench::default_threads().min(cases.len());
    // simcheck: allow(wall-clock) -- host-side timing of the sims themselves
    let t0 = std::time::Instant::now();
    let mut reports = rmr_bench::sweep::sweep_map(&cases, threads, |&(policy, record), _| {
        let spec = service_spec(nodes, jobs, seed, policy, record);
        run_service(&spec)
    });
    let wall_s = t0.elapsed().as_secs_f64() / cases.len() as f64;
    let cap = reports.pop().expect("capacity report");
    let fifo = reports.pop().expect("fifo report");

    let replay = run_service(&service_spec(
        nodes,
        jobs,
        seed,
        ServicePolicy::Capacity { preempt: true },
        false,
    ));

    println!("{}", fifo.to_ascii());
    println!("{}", cap.to_ascii());

    let mut failed = false;
    for rep in [&fifo, &cap] {
        for t in &rep.tenants {
            if t.latency.p99() <= 0.0 {
                eprintln!(
                    "EMPTY TAIL: {} tenant {} has no p99",
                    rep.policy_label(),
                    t.queue
                );
                failed = true;
            }
        }
        if rep.footprint_total != 0 {
            eprintln!(
                "STATE LEAK: {} footprint {}",
                rep.policy_label(),
                rep.footprint_total
            );
            failed = true;
        }
    }
    let (f0, c0) = (fifo.tenant(0), cap.tenant(0));
    println!(
        "guaranteed-tenant p99: fifo {:.1}s vs capacity {:.1}s ({:.2}x); \
         wait-p99 {:.1}s vs {:.1}s",
        f0.latency.p99(),
        c0.latency.p99(),
        f0.latency.p99() / c0.latency.p99().max(1e-9),
        f0.wait.p99(),
        c0.wait.p99(),
    );
    if c0.latency.p99() >= f0.latency.p99() {
        eprintln!(
            "ISOLATION FAILED: capacity p99 {:.2}s not below FIFO {:.2}s",
            c0.latency.p99(),
            f0.latency.p99()
        );
        failed = true;
    }
    if c0.wait.p99() > f0.wait.p99() {
        eprintln!(
            "ISOLATION FAILED: capacity wait-p99 {:.2}s above FIFO {:.2}s",
            c0.wait.p99(),
            f0.wait.p99()
        );
        failed = true;
    }
    if replay.trace_hash != cap.trace_hash {
        eprintln!(
            "REPLAY DIVERGED: {:#x} vs {:#x}",
            replay.trace_hash, cap.trace_hash
        );
        failed = true;
    } else {
        println!(
            "replay gate: trace hash {:#x} identical across runs ({} events)",
            cap.trace_hash, cap.events_fired
        );
    }
    if let Some(b) = budget_s {
        if wall_s > b {
            eprintln!("BUDGET EXCEEDED: {wall_s:.1}s/run > {b:.1}s");
            failed = true;
        }
    }

    if let Some(dir) = hist_dir {
        std::fs::create_dir_all(&dir).expect("create hist dir");
        for rep in [&fifo, &cap] {
            let path = format!("{dir}/service_{}_tenants.jsonl", rep.policy_label());
            std::fs::write(&path, rep.tenants_jsonl()).expect("write tenant jsonl");
            println!("wrote {path}");
        }
        for (what, hm) in [
            (
                "recovery",
                rmr_obs::tenant_recovery_heatmap(&cap.events, 24),
            ),
            ("latency", rmr_obs::tenant_latency_heatmap(&cap.events, 24)),
        ] {
            let path = format!("{dir}/service_tenant_{what}.json");
            std::fs::write(&path, hm.to_json()).expect("write heatmap");
            println!("wrote {path}\n{}", hm.to_ascii());
        }
    }

    if failed {
        std::process::exit(1);
    }
}

/// One faulted (or fault-free) run of the chaos workload: `jobs` concurrent
/// jobs on `nodes` workers of `system` with `plan` armed before submission.
/// The workload is TeraSort sized by `gb_total`, or — with `wordcount` —
/// a fixed-size WordCount whose combiner is its reducer, the job shape the
/// in-node combiner engine aggregates.
struct ChaosRun {
    results: Vec<rmr_core::JobResult>,
    trace_hash: u64,
    footprint_total: usize,
    wall_s: f64,
}

impl ChaosRun {
    /// Total shuffle bytes actually served across the run's jobs.
    fn shuffled_bytes(&self) -> u64 {
        self.results.iter().map(|r| r.shuffled_bytes).sum()
    }
}

/// No lost work: every job's per-reducer output byte counts (and so the
/// concatenated output files) match the fault-free twin exactly.
fn lossless(twin: &ChaosRun, faulted: &ChaosRun) -> bool {
    faulted.results.len() == twin.results.len()
        && twin.results.iter().zip(&faulted.results).all(|(a, b)| {
            a.output_bytes == b.output_bytes
                && a.maps == b.maps
                && a.reduce_stats.len() == b.reduce_stats.len()
                && a.reduce_stats
                    .iter()
                    .zip(&b.reduce_stats)
                    .all(|(x, y)| x.output_bytes == y.output_bytes)
        })
}

fn chaos_run(
    system: System,
    wordcount: bool,
    nodes: usize,
    jobs: usize,
    gb_total: f64,
    seed: u64,
    plan: &rmr_core::FaultPlan,
) -> ChaosRun {
    let testbed = Testbed::compute(nodes, 1);
    let sim = rmr_des::Sim::new(seed);
    // WordCount blobs below run ~0.9 MB, so a 512 KB block turns every blob
    // into its own block: each job spans several map splits and the in-node
    // stage has co-located waves to fold.
    let (block_size, packet_size) = if wordcount {
        (512 << 10, 256 << 10)
    } else {
        (8 << 20, 4 << 20)
    };
    let cluster = Cluster::build(
        &sim,
        system.fabric(),
        &testbed.node_specs(),
        HdfsConfig {
            block_size,
            replication: 1,
            packet_size,
        },
    );
    let mut conf = tuned_conf(system, Bench::TeraSort, &testbed);
    conf.num_reduces = nodes.min(32);
    let bytes_per_job = ((gb_total / jobs as f64) * (1u64 << 30) as f64) as u64;
    let results: Rc<RefCell<Vec<rmr_core::JobResult>>> = Rc::new(RefCell::new(Vec::new()));
    let rt_slot: Rc<RefCell<Option<Runtime>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&results);
    let rt2 = Rc::clone(&rt_slot);
    let c2 = cluster.clone();
    let conf2 = conf.clone();
    let plan2 = plan.clone();
    sim.spawn_named("chaos-driver", async move {
        for i in 0..jobs {
            if wordcount {
                textgen_blocks(&c2, &format!("/chaos/in{i}"), 60_000, 10, 10_000).await;
            } else {
                teragen(&c2, &format!("/chaos/in{i}"), bytes_per_job, false).await;
            }
        }
        let rt = Runtime::with_policy(&c2, conf2.clone(), SchedulePolicy::Fifo);
        rt.apply_fault_plan(&plan2);
        *rt2.borrow_mut() = Some(rt.clone());
        let ids: Vec<_> = (0..jobs)
            .map(|i| {
                let spec = if wordcount {
                    wordcount_spec(&format!("/chaos/in{i}"), &format!("/chaos/out{i}"))
                } else {
                    terasort_spec(&format!("/chaos/in{i}"), &format!("/chaos/out{i}"))
                };
                rt.submit(conf2.clone(), spec)
            })
            .collect();
        for id in ids {
            let res = rt.join(id).await;
            r2.borrow_mut().push(res);
        }
    })
    .detach();
    // simcheck: allow(wall-clock) -- host-side timing of the sim itself
    let t0 = std::time::Instant::now();
    // RMR_LIMIT=<sim-seconds> bounds a hung faulted run and dumps the
    // runtime snapshot instead of spinning forever (debug aid, like
    // `probe phases`).
    match std::env::var("RMR_LIMIT")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(secs) => {
            sim.run_until(rmr_des::SimTime::from_nanos(secs * 1_000_000_000));
            if results.borrow().len() < jobs {
                eprintln!(
                    "CHAOS RUN HUNG at limit {secs}s ({}/{} jobs done):",
                    results.borrow().len(),
                    jobs
                );
                if let Some(rt) = rt_slot.borrow().as_ref() {
                    eprintln!("{}", rt.dump().render());
                }
                eprintln!("plan: {}", rmr_bench::chaos::render_plan(plan));
                for (k, v) in sim.metrics().snapshot() {
                    if v.abs() > 0.0 {
                        eprintln!("  {k} = {v:.3e}");
                    }
                }
                std::process::exit(2);
            }
        }
        None => {
            sim.run();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Footprint is read after quiescence, not after the last join: a crash
    // task whose restart lands beyond the jobs' lifetime must still have
    // fired (sim.run drains it), so `down_nodes` is 0 for all-restart plans.
    let footprint_total = rt_slot
        .borrow()
        .as_ref()
        .map_or(usize::MAX, |rt| rt.state_footprint().total());
    ChaosRun {
        results: results.take(),
        trace_hash: sim.trace_hash(),
        footprint_total,
        wall_s,
    }
}

/// Deterministic chaos campaign: see module docs. Gates are per plan;
/// any failure exits non-zero after the whole table prints.
fn chaos(args: &[String]) {
    use rmr_bench::chaos::{derive_plan, render_plan, storm_plan, TwinTiming};

    let nodes: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(16);
    let jobs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let gb: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(42);
    let mut plans: usize = 8;
    let mut budget_s: Option<f64> = None;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--plans" => {
                i += 1;
                plans = args.get(i).expect("--plans value").parse().unwrap();
            }
            "--budget-s" => {
                i += 1;
                budget_s = Some(args.get(i).expect("--budget-s value").parse().unwrap());
            }
            _ => {}
        }
        i += 1;
    }

    // One campaign point per plan index; each point runs its fault-free
    // twin, the faulted sim, and a determinism re-run of the faulted sim,
    // all on the same sim seed. Points are independent whole sims, so they
    // sweep in parallel like every other probe.
    let points: Vec<usize> = (0..plans).collect();
    let threads = rmr_bench::default_threads().min(points.len().max(1));
    let rows = rmr_bench::sweep::sweep_map(&points, threads, |&p, _| {
        let sim_seed = seed + p as u64;
        let twin = chaos_run(
            System::OsuIb,
            false,
            nodes,
            jobs,
            gb,
            sim_seed,
            &rmr_core::FaultPlan::none(),
        );
        assert_eq!(twin.results.len(), jobs, "plan {p}: fault-free twin hung");
        let timing = TwinTiming {
            submit_s: twin
                .results
                .iter()
                .map(|r| r.start_s)
                .fold(f64::INFINITY, f64::min),
            map_end_s: twin
                .results
                .iter()
                .map(|r| r.map_phase_end_s)
                .fold(0.0, f64::max),
            end_s: twin.results.iter().map(|r| r.end_s).fold(0.0, f64::max),
        };
        // Plan 0 is always the acceptance storm: 2 of `nodes` killed
        // mid-map-wave. Later plans are seed-derived mixes.
        let plan = if p == 0 {
            storm_plan(nodes, 2, &timing)
        } else {
            derive_plan(sim_seed, nodes, &timing)
        };
        let faulted = chaos_run(System::OsuIb, false, nodes, jobs, gb, sim_seed, &plan);
        let rerun = chaos_run(System::OsuIb, false, nodes, jobs, gb, sim_seed, &plan);
        (p, twin, timing, plan, faulted, rerun)
    });

    println!(
        "\n{:>4} {:>6} {:>7} {:>10} {:>10} {:>7}  gates",
        "plan", "seed", "events", "twin_s", "fault_s", "wall_s"
    );
    let mut failed = false;
    let mut over_budget = false;
    for (p, twin, _timing, plan, faulted, rerun) in &rows {
        let quiesced = faulted.results.len() == jobs && faulted.footprint_total == 0;
        let deterministic = faulted.trace_hash == rerun.trace_hash;
        let lossless = lossless(twin, faulted);
        let twin_d = twin.results.iter().map(|r| r.end_s).fold(0.0, f64::max);
        let fault_d = faulted.results.iter().map(|r| r.end_s).fold(0.0, f64::max);
        let wall = twin.wall_s + faulted.wall_s + rerun.wall_s;
        println!(
            "{:>4} {:>6} {:>7} {:>9.0}s {:>9.0}s {:>6.1}s  {} {} {}   [{}]",
            p,
            seed + *p as u64,
            plan.events.len(),
            twin_d,
            fault_d,
            wall,
            gate("quiesce", quiesced),
            gate("determinism", deterministic),
            gate("no-lost-work", lossless),
            render_plan(plan),
        );
        if !(quiesced && deterministic && lossless) {
            failed = true;
        }
        if let Some(b) = budget_s {
            if wall > b {
                eprintln!("BUDGET EXCEEDED: plan {p} took {wall:.1}s > {b:.1}s");
                over_budget = true;
            }
        }
    }
    let storms = rows
        .iter()
        .filter(|(p, ..)| *p == 0)
        .map(|(_, _, _, plan, ..)| plan.crashes())
        .next()
        .unwrap_or(0);
    println!(
        "{} plans swept ({} jobs x {:.2} GB on {} nodes; storm kills {} nodes mid-map-wave)",
        rows.len(),
        jobs,
        gb,
        nodes,
        storms
    );

    // Combiner-engine acceptance point: WordCount (combiner = reducer) on
    // the in-node combiner engine, one worker killed mid-shuffle and
    // restarted. The crash drops that node's staged aggregates, so passing
    // no-lost-work means the fold re-ran after node loss; the folded gate
    // (shuffle volume under an OSU-IB twin of the same workload) proves
    // aggregation was actually active, not passed through.
    let cnodes = nodes.clamp(3, 6);
    let cjobs = 2;
    let cseed = seed + 10_000;
    let none = rmr_core::FaultPlan::none();
    let osu_twin = chaos_run(System::OsuIb, true, cnodes, cjobs, gb, cseed, &none);
    let comb_twin = chaos_run(System::NodeCombiner, true, cnodes, cjobs, gb, cseed, &none);
    assert_eq!(
        comb_twin.results.len(),
        cjobs,
        "combiner fault-free twin hung"
    );
    let ctiming = TwinTiming {
        submit_s: comb_twin
            .results
            .iter()
            .map(|r| r.start_s)
            .fold(f64::INFINITY, f64::min),
        map_end_s: comb_twin
            .results
            .iter()
            .map(|r| r.map_phase_end_s)
            .fold(0.0, f64::max),
        end_s: comb_twin
            .results
            .iter()
            .map(|r| r.end_s)
            .fold(0.0, f64::max),
    };
    let cplan = rmr_bench::chaos::combiner_plan(&ctiming);
    let cfaulted = chaos_run(System::NodeCombiner, true, cnodes, cjobs, gb, cseed, &cplan);
    let crerun = chaos_run(System::NodeCombiner, true, cnodes, cjobs, gb, cseed, &cplan);
    let quiesced = cfaulted.results.len() == cjobs && cfaulted.footprint_total == 0;
    let deterministic = cfaulted.trace_hash == crerun.trace_hash;
    let no_lost_work = lossless(&comb_twin, &cfaulted);
    let folded = comb_twin.shuffled_bytes() < osu_twin.shuffled_bytes();
    println!(
        "comb {:>6} {:>7} {:>9.0}s {:>9.0}s {:>6.1}s  {} {} {} {}   [{}]",
        cseed,
        cplan.events.len(),
        comb_twin
            .results
            .iter()
            .map(|r| r.end_s)
            .fold(0.0, f64::max),
        cfaulted.results.iter().map(|r| r.end_s).fold(0.0, f64::max),
        comb_twin.wall_s + cfaulted.wall_s + crerun.wall_s,
        gate("quiesce", quiesced),
        gate("determinism", deterministic),
        gate("no-lost-work", no_lost_work),
        gate("folded", folded),
        render_plan(&cplan),
    );
    println!(
        "combiner point: WordCount x{cjobs} on {cnodes} nodes; shuffle {} B combined vs {} B OSU-IB",
        comb_twin.shuffled_bytes(),
        osu_twin.shuffled_bytes()
    );
    if !(quiesced && deterministic && no_lost_work && folded) {
        failed = true;
    }

    if failed || over_budget {
        std::process::exit(1);
    }
}

fn gate(name: &str, ok: bool) -> String {
    format!("{}:{}", name, if ok { "PASS" } else { "FAIL" })
}

/// A single point; prints sim duration and wall time.
fn one(args: &[String]) {
    let gb: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(4.0);
    let system = parse_system(args.get(1).map(String::as_str).unwrap_or("osu"));
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let disks: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
    let bench = if args.get(4).map(|s| s == "sort").unwrap_or(false) {
        Bench::Sort
    } else {
        Bench::TeraSort
    };
    let seed: u64 = args.get(5).and_then(|s| s.parse().ok()).unwrap_or(42);
    // simcheck: allow(wall-clock) -- reports host-side run time to stderr only
    let t0 = std::time::Instant::now();
    let rec = run_experiment(&Experiment::new(
        "p1",
        bench,
        system,
        Testbed::compute(nodes, disks),
        gb,
        seed,
    ));
    println!(
        "{} {}GB: {:.3}s sim (map_end {:.3}s) in {:.1}s wall",
        rec.system,
        gb,
        rec.duration_s,
        rec.map_phase_end_s,
        t0.elapsed().as_secs_f64()
    );
}

/// A single point with a full phase/metrics breakdown.
fn phases(args: &[String]) {
    let gb: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let system = parse_system(args.get(1).map(String::as_str).unwrap_or("osu"));
    let nodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let disks: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
    let bench = if args.get(4).map(|s| s.as_str() == "sort").unwrap_or(false) {
        Bench::Sort
    } else {
        Bench::TeraSort
    };
    let ssd = args
        .get(4)
        .map(|s| s.as_str() == "ssdsort")
        .unwrap_or(false);

    let sim = rmr_des::Sim::new(42);
    let testbed = if ssd {
        Testbed::ssd(nodes)
    } else {
        Testbed::compute(nodes, disks)
    };
    let bench = if ssd { Bench::Sort } else { bench };
    let cluster = Cluster::build(
        &sim,
        system.fabric(),
        &testbed.node_specs(),
        HdfsConfig {
            block_size: tuned_block_size(system, bench),
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let conf = tuned_conf(system, bench, &testbed);
    let bytes = (gb * (1u64 << 30) as f64) as u64;
    let out: Rc<RefCell<Option<rmr_core::JobResult>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    let c2 = cluster.clone();
    // simcheck: allow(wall-clock) -- reports host-side run time to stderr only
    let t_wall = std::time::Instant::now();
    sim.spawn_named("probe-driver", async move {
        let spec = match bench {
            Bench::TeraSort => {
                teragen(&c2, "/in", bytes, false).await;
                terasort_spec("/in", "/out")
            }
            Bench::Sort => {
                randomwriter(&c2, "/in", bytes, false).await;
                sort_spec("/in", "/out")
            }
        };
        let gen_end = c2.sim.now().as_secs_f64();
        eprintln!("  datagen done at {gen_end:.0}s");
        let res = run_job(&c2, conf, spec).await;
        *o2.borrow_mut() = Some(res);
    })
    .detach();
    match std::env::var("RMR_LIMIT")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(secs) => {
            sim.run_until(rmr_des::SimTime::from_nanos(secs * 1_000_000_000));
        }
        None => {
            sim.run();
        }
    }
    if out.borrow().is_none() {
        eprintln!("JOB DID NOT FINISH by limit; dumping metrics:");
        for (k, v) in sim.metrics().snapshot() {
            if v.abs() > 0.0 {
                eprintln!("  {k} = {v:.3e}");
            }
        }
        std::process::exit(2);
    }
    let res = out.borrow_mut().take().expect("hung");
    println!(
        "== {} {} {}GB n{} d{} ssd={} ==",
        res.name,
        system.label(),
        gb,
        nodes,
        disks,
        ssd
    );
    println!(
        "duration {:.0}s  start {:.0} map_end {:.0} end {:.0}",
        res.duration_s, res.start_s, res.map_phase_end_s, res.end_s
    );
    let n = res.reduce_stats.len() as f64;
    let avg = |f: &dyn Fn(&rmr_core::reduce::ReduceStats) -> f64| {
        res.reduce_stats.iter().map(f).sum::<f64>() / n
    };
    let max = |f: &dyn Fn(&rmr_core::reduce::ReduceStats) -> f64| {
        res.reduce_stats.iter().map(f).fold(0.0f64, f64::max)
    };
    println!("reduce phases (avg/max): shuffle_end {:.0}/{:.0}  merge_end {:.0}/{:.0}  reduce_end {:.0}/{:.0}",
        avg(&|s| s.shuffle_end_s), max(&|s| s.shuffle_end_s),
        avg(&|s| s.merge_end_s), max(&|s| s.merge_end_s),
        avg(&|s| s.reduce_end_s), max(&|s| s.reduce_end_s));
    println!(
        "cache: {} hits / {} misses",
        res.cache_hits, res.cache_misses
    );
    let m = sim.metrics();
    for key in [
        "fs.bytes_written",
        "fs.bytes_read",
        "fs.bytes_read_disk",
        "tt.disk_serve_bytes",
        "tt.cache_hit_bytes",
        "net.bytes_transferred",
        "hdfs.bytes_written",
        "disk.seeks",
        "prefetch.staged",
        "reduce.inmem_merges",
        "reduce.disk_merges",
        "reduce.shuffle_spill_bytes",
        "rdma.loop_iters",
        "rdma.emits",
        "rdma.emit_records",
        "rdma.stalls",
        "rdma.stall_dry",
    ] {
        println!("  {key:24} {:.2e}", m.get(key));
    }
    let mut disk_busy = 0.0;
    let mut cpu_busy = 0.0;
    for w in cluster.workers.iter() {
        disk_busy += w.fs.disks_busy_seconds();
        cpu_busy += w.cpu.busy_seconds();
    }
    println!("  disks busy total       {disk_busy:.0}s");
    println!("  cpu busy total         {cpu_busy:.0}s");
    println!("  events fired           {:.2e}", sim.events_fired() as f64);
    println!("  polls                  {:.2e}", sim.polls() as f64);
    println!(
        "  wall                   {:.1}s",
        t_wall.elapsed().as_secs_f64()
    );
    rmr_des::resource::fluid::FLUID_ADVANCE_WORK
        .with(|w| println!("  fluid advance work     {:.2e}", w.get() as f64));
}

/// A concurrent multi-job OSU-IB mix with the observability recorder on.
/// Writes every `rmr_obs` artifact to `outdir` and self-validates the
/// Chrome trace — a schema violation exits non-zero (the CI smoke job
/// relies on that).
fn obs(args: &[String]) {
    let jobs: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let gb: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let outdir = args
        .get(3)
        .cloned()
        .unwrap_or_else(|| "obs-out".to_string());
    let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(91);

    let system = System::OsuIb;
    let testbed = Testbed::compute(nodes, 1);
    let sim = rmr_des::Sim::new(seed);
    let cluster = Cluster::build(
        &sim,
        system.fabric(),
        &testbed.node_specs(),
        HdfsConfig {
            block_size: tuned_block_size(system, Bench::TeraSort),
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let conf = tuned_conf(system, Bench::TeraSort, &testbed);
    let bytes = (gb * (1u64 << 30) as f64) as u64;

    let recorder = rmr_obs::Recorder::on(&sim);
    let snapshots: Rc<RefCell<Vec<rmr_obs::RuntimeSnapshot>>> = Rc::new(RefCell::new(Vec::new()));
    let c2 = cluster.clone();
    let rec2 = recorder.clone();
    let snaps2 = Rc::clone(&snapshots);
    let conf2 = conf.clone();
    sim.spawn_named("obs-driver", async move {
        for i in 0..jobs {
            teragen(&c2, &format!("/obs/in{i}"), bytes, false).await;
        }
        let rt = Runtime::with_obs(&c2, conf2.clone(), SchedulePolicy::Fifo, rec2);
        let mut ids = (0..jobs)
            .map(|i| {
                rt.submit(
                    conf2.clone(),
                    terasort_spec(&format!("/obs/in{i}"), &format!("/obs/out{i}")),
                )
            })
            .collect::<Vec<_>>()
            .into_iter();
        if let Some(first) = ids.next() {
            rt.join(first).await;
            // Mid-run snapshot: the remaining jobs are still in flight.
            snaps2.borrow_mut().push(rt.dump());
        }
        for id in ids {
            rt.join(id).await;
        }
        snaps2.borrow_mut().push(rt.dump());
    })
    .detach();
    sim.run();

    std::fs::create_dir_all(&outdir).expect("create outdir");
    let path = |name: &str| format!("{outdir}/{name}");
    let events = recorder.events();
    std::fs::write(path("events.jsonl"), recorder.to_jsonl()).expect("write events.jsonl");

    let trace = rmr_obs::chrome_trace(&events);
    std::fs::write(path("trace.json"), &trace).expect("write trace.json");
    match rmr_obs::validate_chrome_trace(&trace) {
        Ok(c) => println!(
            "trace.json: {} events ({} spans, {} counter samples, {} instants, {} processes)",
            c.n_events, c.n_spans, c.n_counters, c.n_instants, c.n_processes
        ),
        Err(e) => {
            eprintln!("Chrome trace FAILED validation: {e}");
            std::process::exit(1);
        }
    }

    let spans = rmr_obs::spans_from_events(&events);
    let heatmap = rmr_obs::slot_heatmap(&spans, nodes, 64);
    std::fs::write(path("heatmap.txt"), heatmap.to_ascii()).expect("write heatmap.txt");
    std::fs::write(path("heatmap.json"), heatmap.to_json()).expect("write heatmap.json");

    let mut lines = String::new();
    for pts in rmr_obs::queue_depth_traces(&events).values() {
        for pt in pts {
            lines.push_str(&pt.to_json());
            lines.push('\n');
        }
    }
    std::fs::write(path("queue_depth.jsonl"), lines).expect("write queue_depth.jsonl");

    let mut lines = String::new();
    for pts in rmr_obs::cache_pressure(&events).values() {
        for pt in pts {
            lines.push_str(&pt.to_json());
            lines.push('\n');
        }
    }
    std::fs::write(path("cache_pressure.jsonl"), lines).expect("write cache_pressure.jsonl");

    let mut lines = String::new();
    for pts in rmr_obs::shuffle_throughput(&events, 5.0).values() {
        for pt in pts {
            lines.push_str(&pt.to_json());
            lines.push('\n');
        }
    }
    std::fs::write(path("shuffle_throughput.jsonl"), lines)
        .expect("write shuffle_throughput.jsonl");

    let snaps = snapshots.borrow();
    let mut txt = String::new();
    let mut json = String::from("[");
    for (i, s) in snaps.iter().enumerate() {
        let label = if i + 1 == snaps.len() {
            "final"
        } else {
            "mid-run"
        };
        txt.push_str(&format!("== snapshot {} (t={:.1}s) ==\n", label, s.t_s));
        txt.push_str(&s.render());
        txt.push('\n');
        if i > 0 {
            json.push(',');
        }
        json.push_str(&s.to_json());
    }
    json.push(']');
    std::fs::write(path("snapshot.txt"), txt).expect("write snapshot.txt");
    std::fs::write(path("snapshot.json"), json).expect("write snapshot.json");

    let hb = rmr_obs::heartbeat_intervals(&events);
    let lat = rmr_obs::shuffle_latencies(&events);
    println!(
        "{} jobs x {} nodes ({} GB/job, seed {}): {} obs events -> {}/",
        jobs,
        nodes,
        gb,
        seed,
        events.len(),
        outdir
    );
    println!(
        "heartbeat interval: p50 {:.3}s p95 {:.3}s p99 {:.3}s (n={})",
        hb.p50(),
        hb.p95(),
        hb.p99(),
        hb.count()
    );
    println!(
        "shuffle serve time: p50 {:.6}s p95 {:.6}s p99 {:.6}s (n={})",
        lat.p50(),
        lat.p95(),
        lat.p99(),
        lat.count()
    );
    println!("trace_hash: {:016x}", sim.trace_hash());
}

//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <terasort-grid|wordcount-real|service-64|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! (`all` runs the three workloads one after another, each with its own
//! table and result line.)
//!
//! Runs one workload repeatedly for about `--seconds`, each pass in a fresh
//! child process of this binary (so every pass starts from a clean heap and
//! its peak RSS is its own), one at a time, on one sim thread. It checks the
//! outputs of every pass, prints a table of metrics, and ends its standard
//! output with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, medians over the
//! passes, host times scaled to the reference host speed (see
//! [`CAL_REF_S`]). With `--trace 1` it runs an untraced pass, a traced pass (obs
//! recorder on, host spans, the layer ladder, a Chrome trace written to
//! `perfbench/out/<workload>.trace.json`), and a pass at another seed, gates
//! them against each other, and the metrics are the per-layer ones.
//!
//! Exit code 0 when every check passed, 1 when a check failed, 2 on bad
//! usage.

mod grid;
mod ladder;
mod measure;
mod pass;
mod report;
mod service;
mod wordcount;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use measure::{median, peak_rss_mb, Tracer};
use pass::Pass;
use report::{PassReport, Run};

/// Passes per untraced run, at least: the median needs three, and two
/// passes at one seed must replay bit-identically.
const MIN_PASSES: usize = 3;

/// The end-to-end metrics, with units. Host figures are medians over the
/// passes, `wall_s` and `setup_s` scaled to the reference host speed; sim
/// figures are identical in every pass of a run.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_job_s", "sim_s"),
    ("sim_p50_s", "sim_s"),
    ("sim_p99_s", "sim_s"),
];

/// Seconds per calibration chunk on the reference host, the 2-vCPU VM the
/// figures in `perfbench/README.md` were measured on.
///
/// A pass runs its sims in short slices of sim time with one chunk of the
/// calibration kernel between slices ([`measure::Calibrator`]), and
/// reports its host times without the chunks. `wall_s` and `setup_s` are
/// each pass's time × `CAL_REF_S` ÷ its mean chunk time in that phase: the
/// time the pass would take on a host running a chunk in `CAL_REF_S`. The
/// same pass takes 2.2 to 4.4 s on a shared host, in spells that last
/// minutes, and the chunks slow down with it, so the scaling keeps the
/// spells out of the figures while any change to the code under test still
/// moves them.
const CAL_REF_S: f64 = 34e-6;

/// A traced run's third pass runs at `seed ^ OTHER_SEED`.
const OTHER_SEED: u64 = 0x5eed;

/// Where traced runs write their Chrome traces.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Grid,
    WordCount,
    Service,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Grid, Workload::WordCount, Workload::Service];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "terasort-grid",
            Workload::WordCount => "wordcount-real",
            Workload::Service => "service-64",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn pass(self, seed: u64, traced: bool, tracer: &mut Tracer) -> Pass {
        let span = tracer.open(format!("{} pass seed {seed}", self.name()), None);
        let p = match self {
            Workload::Grid => grid::pass(seed, traced, tracer, span),
            Workload::WordCount => wordcount::pass(seed, traced, tracer, span),
            Workload::Service => service::pass(seed, traced, tracer, span),
        };
        tracer.close(span);
        p
    }

    /// Whether the seed reaches this workload's generated inputs. The grid
    /// runs synthetic TeraSort at a fixed size: its model draws no random
    /// numbers, so every seed replays the same schedule.
    fn seeded_inputs(self) -> bool {
        self != Workload::Grid
    }
}

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run exactly one pass and report it.
    child: Option<ChildMode>,
}

struct ChildMode {
    workload: Workload,
    traced: bool,
    run_id: u64,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

/// Every option takes a value; `pass`, `traced` and `run-id` are the
/// parent-to-child protocol.
const KEYS: [&str; 7] = [
    "workload", "seed", "seconds", "trace", "pass", "traced", "run-id",
];

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            usage(&format!("unexpected argument {k:?}"));
        };
        if !KEYS.contains(&key) {
            usage(&format!("unknown option --{key}"));
        }
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("--{key} needs a value")));
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).map(String::as_str);
    let num = |k: &str| -> Option<f64> {
        get(k).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("--{k} needs a number")))
        })
    };
    let workload = match get("workload").or(get("pass")) {
        None => usage("--workload is required"),
        Some("all") => None,
        Some(w) => {
            Some(Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload {w:?}"))))
        }
    };
    let seed: u64 = get("seed")
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed needs a non-negative integer"));
    let child = get("pass").map(|_| ChildMode {
        workload: workload.unwrap_or_else(|| usage("a pass runs one workload")),
        traced: num("traced") == Some(1.0),
        run_id: num("run-id").unwrap_or(0.0) as u64,
    });
    Args {
        workload,
        seed,
        seconds: num("seconds").unwrap_or(10.0).max(0.0),
        trace: num("trace").unwrap_or(0.0) == 1.0,
        child,
    }
}

fn main() {
    let args = parse_args();
    if let Some(mode) = &args.child {
        std::process::exit(child_pass(args.seed, mode));
    }
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut code = 0;
    for w in workloads {
        let c = if args.trace {
            traced_run(w, &args)
        } else {
            timed_run(w, &args)
        };
        code = code.max(c);
    }
    std::process::exit(code);
}

/// Child mode: one pass, reported as a `PASS {json}` line on stdout.
fn child_pass(seed: u64, mode: &ChildMode) -> i32 {
    let w = mode.workload;
    let mut tracer = Tracer::new(mode.traced, mode.run_id);
    let p = w.pass(seed, mode.traced, &mut tracer);
    let mut rep = PassReport::from_pass(&p, peak_rss_mb());
    if mode.traced {
        let rungs = tracer.open("layer ladder", None);
        rep.layer.extend(ladder::run(seed, &mut tracer, rungs));
        tracer.close(rungs);
        match report::write_trace(w, &p, &tracer, OUT_DIR) {
            Ok((path, check)) => eprintln!(
                "  trace {path}: {} events, {} spans, {} processes",
                check.n_events, check.n_spans, check.n_processes
            ),
            Err(e) => rep.fail(format!("chrome trace: {e}")),
        }
        report::print_sim_split(&p);
    }
    println!("PASS {}", rep.to_json());
    0
}

/// Runs one pass in a child process of this binary and parses its report.
fn spawn_pass(w: Workload, seed: u64, traced: bool, run_id: u64) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--pass", w.name(), "--seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .args(["--run-id", &run_id.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("PASS "))
        .ok_or("pass printed no report")?;
    PassReport::parse(line)
}

/// `--trace 0`: untraced passes for about `seconds`, end-to-end medians.
fn timed_run(w: Workload, args: &Args) -> i32 {
    let t0 = Instant::now();
    let mut run = Run::default();
    loop {
        let i = run.passes.len();
        match spawn_pass(w, args.seed, false, std::process::id() as u64) {
            Ok(p) => {
                eprintln!(
                    "  {} pass {i}: setup {:.3}s wall {:.3}s chunk {:.1}/{:.1}us rss {:.0} MB",
                    w.name(),
                    p.setup_s,
                    p.wall_s,
                    p.cal_setup_s * 1e6,
                    p.cal_run_s * 1e6,
                    p.rss_mb
                );
                run.passes.push(p);
            }
            Err(e) => {
                run.errors.push(e);
                break;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_pass = elapsed / run.passes.len() as f64;
        if run.passes.len() >= MIN_PASSES && elapsed + per_pass > args.seconds {
            break;
        }
    }
    run.check_replay("passes at one seed");
    let metrics: Vec<(&str, f64, &str)> = match run.passes.first() {
        Some(p) => {
            let col = |f: &dyn Fn(&PassReport) -> f64| {
                median(&run.passes.iter().map(f).collect::<Vec<_>>())
            };
            let scaled = |t: f64, chunk: f64| {
                if chunk > 0.0 {
                    t * CAL_REF_S / chunk
                } else {
                    t
                }
            };
            run.table = vec![
                ("unscaled wall_s", col(&|p| p.wall_s), "s"),
                ("unscaled setup_s", col(&|p| p.setup_s), "s"),
                ("calibration chunk, run", col(&|p| p.cal_run_s), "s"),
                ("calibration chunk, set-up", col(&|p| p.cal_setup_s), "s"),
            ];
            let values = [
                col(&|p| scaled(p.wall_s, p.cal_run_s)),
                col(&|p| scaled(p.setup_s, p.cal_setup_s)),
                col(&|p| p.rss_mb),
                p.job_s,
                p.p50_s,
                p.p99_s,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
        None => Vec::new(),
    };
    run.finish(w, &metrics)
}

/// `--trace 1`: untraced, traced and other-seed passes, gated against each
/// other, per-layer metrics from the traced pass.
fn traced_run(w: Workload, args: &Args) -> i32 {
    let run_id = std::process::id() as u64;
    let mut run = Run::default();
    let reports: Vec<Result<PassReport, String>> = [
        (args.seed, false),
        (args.seed, true),
        (args.seed ^ OTHER_SEED, false),
    ]
    .into_iter()
    .map(|(seed, traced)| spawn_pass(w, seed, traced, run_id))
    .collect();
    let mut ok = Vec::new();
    for r in reports {
        match r {
            Ok(p) => ok.push(p),
            Err(e) => run.errors.push(e),
        }
    }
    let metrics = match <[PassReport; 3]>::try_from(ok) {
        Ok([untraced, traced, other]) => {
            if untraced.hashes != traced.hashes || untraced.fingerprint != traced.fingerprint {
                run.errors.push(format!(
                    "recording perturbed the run: trace hashes {:?} untraced vs {:?} traced",
                    untraced.hashes, traced.hashes
                ));
            }
            let seed_moved = other.hashes != untraced.hashes;
            if w.seeded_inputs() && !seed_moved {
                run.errors.push(format!(
                    "seed {} and seed {} replay the same trace hash: the seed never reached the inputs",
                    args.seed,
                    args.seed ^ OTHER_SEED
                ));
            }
            eprintln!(
                "  other seed {}: trace hash {}",
                args.seed ^ OTHER_SEED,
                if seed_moved {
                    "changed"
                } else {
                    "unchanged (seed-invariant model)"
                }
            );
            let mut layer = traced.layer.clone();
            layer.insert(
                "des.ns_per_event".into(),
                untraced.wall_s * 1e9 / traced.events.max(1.0),
            );
            layer.insert(
                "obs.overhead_pct".into(),
                (traced.wall_s / untraced.wall_s - 1.0) * 100.0,
            );
            layer.insert("error_rate".into(), traced.error_rate());
            layer.insert("host.cal_chunk_ns".into(), untraced.cal_run_s * 1e9);
            run.passes = vec![untraced, traced, other];
            report::PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layer.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        }
        Err(_) => Vec::new(),
    };
    run.finish(w, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    /// The metric names this binary prints are the ones `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        let doc = rmr_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(report::PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }
}

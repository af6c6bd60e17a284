//! Pass reports (the child → parent wire format), run aggregation and the
//! result line, and the Chrome trace writer.

use std::collections::BTreeMap;

use rmr_obs::json::{parse, Json};
use rmr_obs::{chrome_trace, validate_chrome_trace, TraceCheck};

use crate::measure::{json_str, nearest_rank, Tracer};
use crate::pass::Pass;
use crate::Workload;

/// The per-layer metrics a traced run reports, with units. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.polls_per_event", "ratio"),
    ("des.fluid_work", "count"),
    ("des.ns_per_event", "ns"),
    ("des.timer_ns", "ns"),
    ("des.fluid_ns", "ns"),
    ("net.bytes", "bytes"),
    ("net.transfer_gbps", "Gbps"),
    ("net.transfer_lat_us", "sim_us"),
    ("net.ipoib_gbps", "Gbps"),
    ("net.ipoib_lat_us", "sim_us"),
    ("net.rdma_read_gbps", "Gbps"),
    ("net.rdma_read_lat_us", "sim_us"),
    ("net.ucr_send_us", "sim_us"),
    ("net.transfer_ns", "ns"),
    ("net.rdma_ns", "ns"),
    ("net.ucr_ns", "ns"),
    ("store.disk_seeks", "count"),
    ("store.disk_read_bytes", "bytes"),
    ("store.cache_hit_ratio", "ratio"),
    ("hdfs.bytes_written", "bytes"),
    ("hdfs.setup_sim_s", "sim_s"),
    ("hdfs.write_ns", "ns"),
    ("core.maptask.phase_s", "sim_s"),
    ("core.reduce.shuffle_tail_s", "sim_s"),
    ("core.reduce.merge_tail_s", "sim_s"),
    ("core.reduce.reduce_tail_s", "sim_s"),
    ("core.reduce.shuffle_bytes", "bytes"),
    ("core.combine.fold_ratio", "ratio"),
    ("core.reduce.rdma_stall_ratio", "ratio"),
    ("core.reduce.records_per_emit", "count"),
    ("core.prefetch.hit_ratio", "ratio"),
    ("core.tasktracker.serve_p50_ns", "sim_ns"),
    ("core.tasktracker.serve_p99_ns", "sim_ns"),
    ("core.tasktracker.from_cache_ratio", "ratio"),
    ("core.merge.ns_per_record", "ns"),
    ("core.runtime.attempts", "count"),
    ("core.runtime.queue_wait_s", "sim_s"),
    ("core.runtime.slot_occupancy", "ratio"),
    ("load.t0_p99_s", "sim_s"),
    ("load.wait_p99_s", "sim_s"),
    ("load.utilization", "ratio"),
    ("load.makespan_s", "sim_s"),
    ("obs.events", "count"),
    ("obs.overhead_pct", "%"),
    ("paper_err_pp", "pp"),
    ("error_rate", "ratio"),
    ("host.cal_chunk_ns", "ns"),
];

/// What a child process reports about its one pass.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub setup_s: f64,
    pub wall_s: f64,
    pub rss_mb: f64,
    /// Mean seconds per calibration chunk during set-up and during the run.
    pub cal_setup_s: f64,
    pub cal_run_s: f64,
    /// Trace hash of every sim, hex.
    pub hashes: Vec<String>,
    /// Raw bits of every sim-side end-to-end figure, hex.
    pub fingerprint: Vec<String>,
    pub job_s: f64,
    pub p50_s: f64,
    pub p99_s: f64,
    pub events: f64,
    pub attempted: f64,
    pub failed: f64,
    /// Failed output checks.
    pub checks: Vec<String>,
    pub layer: BTreeMap<String, f64>,
}

impl PassReport {
    pub fn from_pass(p: &Pass, rss_mb: f64) -> PassReport {
        let (attempted, failed) = p.outcome();
        PassReport {
            setup_s: p.setup_s,
            wall_s: p.wall_s,
            rss_mb,
            cal_setup_s: p.cal.setup.per_chunk(),
            cal_run_s: p.cal.run.per_chunk(),
            hashes: p.hashes().iter().map(|h| format!("{h:016x}")).collect(),
            fingerprint: p
                .sim_fingerprint()
                .iter()
                .map(|b| format!("{b:016x}"))
                .collect(),
            job_s: p.job_s,
            p50_s: nearest_rank(&p.latencies, 0.50),
            p99_s: nearest_rank(&p.latencies, 0.99),
            events: p.events() as f64,
            attempted: attempted as f64,
            failed: failed as f64,
            checks: p.check_failures.clone(),
            layer: p.layer_metrics(),
        }
    }

    /// Failed over attempted (see [`Pass::outcome`]).
    pub fn error_rate(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            0.0
        }
    }

    /// Records a failed check found after the pass itself ended.
    pub fn fail(&mut self, what: String) {
        self.checks.push(what);
        self.failed += 1.0;
    }

    pub fn to_json(&self) -> String {
        let strs = |v: &[String]| {
            let items: Vec<String> = v.iter().map(|s| json_str(s)).collect();
            format!("[{}]", items.join(","))
        };
        let layer: Vec<String> = self
            .layer
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), num(*v)))
            .collect();
        format!(
            "{{\"setup_s\":{},\"wall_s\":{},\"rss_mb\":{},\"cal_setup_s\":{},\"cal_run_s\":{},\"hashes\":{},\"fingerprint\":{},\
             \"job_s\":{},\"p50_s\":{},\"p99_s\":{},\"events\":{},\"attempted\":{},\
             \"failed\":{},\"checks\":{},\"layer\":{{{}}}}}",
            num(self.setup_s),
            num(self.wall_s),
            num(self.rss_mb),
            num(self.cal_setup_s),
            num(self.cal_run_s),
            strs(&self.hashes),
            strs(&self.fingerprint),
            num(self.job_s),
            num(self.p50_s),
            num(self.p99_s),
            num(self.events),
            num(self.attempted),
            num(self.failed),
            strs(&self.checks),
            layer.join(",")
        )
    }

    pub fn parse(line: &str) -> Result<PassReport, String> {
        let doc = parse(line)?;
        let n = |k: &str| {
            doc.get(k)
                .and_then(Json::as_num)
                .ok_or(format!("pass report lacks {k}"))
        };
        let strs = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        Ok(PassReport {
            setup_s: n("setup_s")?,
            wall_s: n("wall_s")?,
            rss_mb: n("rss_mb")?,
            cal_setup_s: n("cal_setup_s")?,
            cal_run_s: n("cal_run_s")?,
            hashes: strs("hashes"),
            fingerprint: strs("fingerprint"),
            job_s: n("job_s")?,
            p50_s: n("p50_s")?,
            p99_s: n("p99_s")?,
            events: n("events")?,
            attempted: n("attempted")?,
            failed: n("failed")?,
            checks: strs("checks"),
            layer: doc
                .get("layer")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_num().map(|x| (k.clone(), x)))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The passes of one run and everything that went wrong in it.
#[derive(Default)]
pub struct Run {
    pub passes: Vec<PassReport>,
    pub errors: Vec<String>,
    /// Figures printed in the table but not in the result line.
    pub table: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    /// Every pass at one seed must replay the same trace hashes and the same
    /// sim figures, bit for bit.
    pub fn check_replay(&mut self, what: &str) {
        if let Some(first) = self.passes.first() {
            for (i, p) in self.passes.iter().enumerate().skip(1) {
                if p.hashes != first.hashes || p.fingerprint != first.fingerprint {
                    self.errors.push(format!(
                        "{what}: pass {i} diverged (trace hashes {:?} vs {:?})",
                        p.hashes, first.hashes
                    ));
                }
            }
        }
    }

    /// Prints the metric table and the result line; returns the exit code.
    pub fn finish(mut self, w: Workload, metrics: &[(&str, f64, &str)]) -> i32 {
        if metrics.is_empty() && self.errors.is_empty() {
            self.errors.push("no pass completed".into());
        }
        // Run-level failures (divergence, lost passes) count on top of what
        // each pass counted itself, its failed output checks included.
        let attempted: f64 = self.passes.iter().map(|p| p.attempted).sum();
        let failed = self.passes.iter().map(|p| p.failed).sum::<f64>() + self.errors.len() as f64;
        for (i, p) in self.passes.iter().enumerate() {
            for c in &p.checks {
                self.errors.push(format!("pass {i}: {c}"));
            }
        }
        let correct = self.errors.is_empty();
        let error_rate = if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        };
        println!("{} — {} pass(es)", w.name(), self.passes.len());
        let paper_err = self
            .passes
            .first()
            .and_then(|p| p.layer.get("paper_err_pp"))
            .copied()
            .unwrap_or(0.0);
        // The paper error and the error rate read 0 where there is no paper
        // claim or nothing failed, so they ride along in the table only.
        let mut rows: Vec<(&str, f64, &str)> = metrics.to_vec();
        rows.extend(self.table.iter().copied());
        for (name, value, unit) in [
            ("paper_err_pp", paper_err, "pp"),
            ("error_rate", error_rate, "ratio"),
        ] {
            if !rows.iter().any(|r| r.0 == name) {
                rows.push((name, value, unit));
            }
        }
        for (name, value, unit) in &rows {
            println!("  {name:<36} {value:>18.6} {unit}");
        }
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            attempted.max(1.0) as u64,
            failed as u64,
            body.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// Process id of the benchmark's own host spans in the Chrome trace.
const HOST_PID: u64 = 900_000;
/// Each sim's node pids are shifted by this much times its index.
const SIM_PID_STRIDE: u64 = 1_000;
/// Counter and instant rows per validation chunk.
const CHUNK_ROWS: usize = 256;

/// Writes one Chrome trace for the pass: every sim's obs stream rendered by
/// `rmr_obs::chrome_trace` (sim `i` on pids shifted by `i` × 1000, process
/// names prefixed with the sim's label) plus the benchmark's host spans.
/// Returns the path and the summed validation counts.
pub fn write_trace(
    w: Workload,
    p: &Pass,
    tracer: &Tracer,
    dir: &str,
) -> Result<(String, TraceCheck), String> {
    let mut rows: Vec<String> = Vec::new();
    for (i, sim) in p.sims.iter().enumerate() {
        let doc = chrome_trace(&sim.obs);
        let body = doc
            .trim_end()
            .strip_prefix("{\"traceEvents\":[")
            .and_then(|b| b.strip_suffix("]}"))
            .ok_or("unexpected chrome_trace framing")?;
        for row in body.split(",\n").map(str::trim).filter(|r| !r.is_empty()) {
            let pid = row_pid(row).ok_or_else(|| format!("row without pid: {row}"))?;
            let shifted = row.replacen(
                &format!("\"pid\":{pid},"),
                &format!("\"pid\":{},", pid + SIM_PID_STRIDE * i as u64),
                1,
            );
            rows.push(shifted.replacen(
                "\"name\":\"process_name\",\"args\":{\"name\":\"",
                &format!(
                    "\"name\":\"process_name\",\"args\":{{\"name\":\"{} ",
                    sim.label
                ),
                1,
            ));
        }
    }
    rows.extend(tracer.chrome_rows(HOST_PID));
    let check = validate_rows(&rows)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{}.trace.json", w.name());
    std::fs::write(&path, trace_doc(rows.iter())).map_err(|e| format!("{path}: {e}"))?;
    Ok((path, check))
}

fn trace_doc<'a>(rows: impl Iterator<Item = &'a String>) -> String {
    let rows: Vec<&str> = rows.map(String::as_str).collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", rows.join(",\n"))
}

/// The pid of one trace row (every row `chrome_trace` and the tracer emit
/// carries exactly one `"pid":N`).
fn row_pid(row: &str) -> Option<u64> {
    let rest = &row[row.find("\"pid\":")? + 6..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Runs `rmr_obs::validate_chrome_trace` over the rows process by process:
/// each process's metadata with its spans (span overlap is checked per
/// process and thread), then its counters and instants in chunks. Every
/// check the validator makes is per process, so this accepts exactly what
/// one whole-document call would — without its parser's cost, which grows
/// with the square of the document size.
fn validate_rows(rows: &[String]) -> Result<TraceCheck, String> {
    let mut by_pid: BTreeMap<u64, [Vec<&String>; 3]> = BTreeMap::new();
    for row in rows {
        let pid = row_pid(row).ok_or_else(|| format!("row without pid: {row}"))?;
        let kind = if row.starts_with("{\"ph\":\"M\"") {
            0
        } else if row.starts_with("{\"ph\":\"X\"") {
            1
        } else {
            2
        };
        by_pid.entry(pid).or_default()[kind].push(row);
    }
    let mut total = TraceCheck {
        n_events: 0,
        n_spans: 0,
        n_counters: 0,
        n_instants: 0,
        n_processes: 0,
    };
    for (pid, [meta, spans, other]) in &by_pid {
        let mut docs = vec![trace_doc(meta.iter().chain(spans).copied())];
        docs.extend(
            other
                .chunks(CHUNK_ROWS)
                .map(|c| trace_doc(meta.iter().chain(c).copied())),
        );
        for (j, doc) in docs.iter().enumerate() {
            let c = validate_chrome_trace(doc).map_err(|e| format!("pid {pid}: {e}"))?;
            total.n_events += c.n_events - if j == 0 { 0 } else { meta.len() };
            total.n_spans += c.n_spans;
            total.n_counters += c.n_counters;
            total.n_instants += c.n_instants;
            total.n_processes += if j == 0 { c.n_processes } else { 0 };
        }
    }
    Ok(total)
}

/// Per-sim split of the main layer counters (stderr), so the grid's three
/// systems can be told apart.
pub fn print_sim_split(p: &Pass) {
    eprintln!(
        "  {:<22} {:>10} {:>12} {:>10} {:>14} {:>8}",
        "sim", "job_s", "events", "seeks", "disk_read_B", "cache"
    );
    for s in &p.sims {
        let c = |k: &str| s.counters.get(k).copied().unwrap_or(0.0);
        let job_s = s.results.first().map_or(0.0, |r| r.duration_s);
        let (hits, misses) = s
            .results
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.cache_hits, m + r.cache_misses));
        let hit = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        eprintln!(
            "  {:<22} {:>10.2} {:>12} {:>10} {:>14} {:>8.3}",
            s.label,
            job_s,
            s.events,
            c("disk.seeks"),
            c("fs.bytes_read_disk"),
            hit
        );
    }
}

//! The experiment runner: one simulation per (system, size, testbed) point,
//! run in parallel across OS threads (each `Sim` is single-threaded and
//! `!Send`, so parallelism lives *across* runs).

use std::cell::RefCell;
use std::rc::Rc;

use rmr_core::cluster::Cluster;
use rmr_core::{run_job, JobResult};
use rmr_hdfs::HdfsConfig;
use rmr_workloads::{randomwriter, sort_spec, teragen, terasort_spec};

use crate::testbed::{tuned_block_size, tuned_conf, Bench, System, Testbed};

/// One experiment point.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment/figure id (e.g. "fig4a"), echoed into the record.
    pub id: String,
    /// Which benchmark.
    pub bench: Bench,
    /// Which system.
    pub system: System,
    /// Cluster shape.
    pub testbed: Testbed,
    /// Dataset size in gigabytes (the x-axis of the paper's figures).
    pub data_gb: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Override the tuned HDFS block size (tuning sweeps).
    pub block_size_override: Option<u64>,
    /// Override the OSU-IB packet byte budget (tuning sweeps).
    pub osu_packet_override: Option<u64>,
}

impl Experiment {
    /// A standard experiment point with no tuning overrides.
    pub fn new(
        id: impl Into<String>,
        bench: Bench,
        system: System,
        testbed: Testbed,
        data_gb: f64,
        seed: u64,
    ) -> Experiment {
        Experiment {
            id: id.into(),
            bench,
            system,
            testbed,
            data_gb,
            seed,
            block_size_override: None,
            osu_packet_override: None,
        }
    }
}

/// Current [`RunRecord`] wire-format version, emitted as the `schema`
/// field. Records without the field (pre-versioning) parse as schema 1.
/// The full field catalogue lives in DESIGN.md §"RunRecord schema".
pub const RUN_RECORD_SCHEMA: u32 = 2;

/// One row of results, serialisable for EXPERIMENTS.md regeneration.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Wire-format version of this record (see [`RUN_RECORD_SCHEMA`]).
    pub schema: u32,
    /// Experiment id.
    pub id: String,
    /// Benchmark label.
    pub bench: String,
    /// System label.
    pub system: String,
    /// Worker count.
    pub nodes: usize,
    /// Disks per node.
    pub disks: usize,
    /// SSD data store?
    pub ssd: bool,
    /// Dataset size, GB.
    pub data_gb: f64,
    /// Job execution time, seconds — the paper's y-axis.
    pub duration_s: f64,
    /// Time the map wave finished.
    pub map_phase_end_s: f64,
    /// Map task count.
    pub maps: usize,
    /// Reduce task count.
    pub reduces: usize,
    /// Bytes shuffled.
    pub shuffled_bytes: u64,
    /// PrefetchCache hit rate (0 when caching disabled).
    pub cache_hit_rate: f64,
    /// Map attempts that failed and were re-executed.
    pub failed_maps: usize,
    /// Reduce attempts that failed and were re-executed.
    pub failed_reduces: usize,
    /// Seconds between job submission and its first launched attempt.
    pub queue_wait_s: f64,
    /// Fraction of the cluster's slot-seconds this job occupied while active.
    pub slot_occupancy: f64,
}

impl RunRecord {
    /// One JSON object (hand-rolled: the workspace stays serde-free, same
    /// convention as `rmr_core::timeline`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"id\":{},\"bench\":{},\"system\":{},\"nodes\":{},\"disks\":{},\
             \"ssd\":{},\"data_gb\":{},\"duration_s\":{},\"map_phase_end_s\":{},\
             \"maps\":{},\"reduces\":{},\"shuffled_bytes\":{},\"cache_hit_rate\":{},\
             \"failed_maps\":{},\"failed_reduces\":{},\"queue_wait_s\":{},\
             \"slot_occupancy\":{}}}",
            self.schema,
            json_str(&self.id),
            json_str(&self.bench),
            json_str(&self.system),
            self.nodes,
            self.disks,
            self.ssd,
            self.data_gb,
            self.duration_s,
            self.map_phase_end_s,
            self.maps,
            self.reduces,
            self.shuffled_bytes,
            self.cache_hit_rate,
            self.failed_maps,
            self.failed_reduces,
            self.queue_wait_s,
            self.slot_occupancy,
        )
    }

    /// Parses a record produced by [`RunRecord::to_json`]. Field order is
    /// free; unknown keys are ignored; missing keys fall back to defaults.
    pub fn from_json(json: &str) -> Result<RunRecord, String> {
        let mut rec = RunRecord {
            schema: 1, // pre-versioning records carry no field
            id: String::new(),
            bench: String::new(),
            system: String::new(),
            nodes: 0,
            disks: 0,
            ssd: false,
            data_gb: 0.0,
            duration_s: 0.0,
            map_phase_end_s: 0.0,
            maps: 0,
            reduces: 0,
            shuffled_bytes: 0,
            cache_hit_rate: 0.0,
            failed_maps: 0,
            failed_reduces: 0,
            queue_wait_s: 0.0,
            slot_occupancy: 0.0,
        };
        for (key, value) in json_fields(json)? {
            match key.as_str() {
                "schema" => rec.schema = value.into_number()? as u32,
                "id" => rec.id = value.into_string()?,
                "bench" => rec.bench = value.into_string()?,
                "system" => rec.system = value.into_string()?,
                "nodes" => rec.nodes = value.into_number()? as usize,
                "disks" => rec.disks = value.into_number()? as usize,
                "ssd" => rec.ssd = value.into_bool()?,
                "data_gb" => rec.data_gb = value.into_number()?,
                "duration_s" => rec.duration_s = value.into_number()?,
                "map_phase_end_s" => rec.map_phase_end_s = value.into_number()?,
                "maps" => rec.maps = value.into_number()? as usize,
                "reduces" => rec.reduces = value.into_number()? as usize,
                "shuffled_bytes" => rec.shuffled_bytes = value.into_number()? as u64,
                "cache_hit_rate" => rec.cache_hit_rate = value.into_number()?,
                "failed_maps" => rec.failed_maps = value.into_number()? as usize,
                "failed_reduces" => rec.failed_reduces = value.into_number()? as usize,
                "queue_wait_s" => rec.queue_wait_s = value.into_number()?,
                "slot_occupancy" => rec.slot_occupancy = value.into_number()?,
                _ => {}
            }
        }
        Ok(rec)
    }

    fn from_result(exp: &Experiment, res: &JobResult) -> RunRecord {
        let lookups = res.cache_hits + res.cache_misses;
        RunRecord {
            schema: RUN_RECORD_SCHEMA,
            id: exp.id.clone(),
            bench: exp.bench.label().to_string(),
            system: exp.system.label().to_string(),
            nodes: exp.testbed.nodes,
            disks: exp.testbed.disks,
            ssd: exp.testbed.ssd,
            data_gb: exp.data_gb,
            duration_s: res.duration_s,
            map_phase_end_s: res.map_phase_end_s,
            maps: res.maps,
            reduces: res.reduces,
            shuffled_bytes: res.shuffled_bytes,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                res.cache_hits as f64 / lookups as f64
            },
            failed_maps: res.failed_map_attempts,
            failed_reduces: res.failed_reduce_attempts,
            queue_wait_s: res.queue_wait_s,
            slot_occupancy: res.slot_occupancy,
        }
    }
}

/// Escapes a string into a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A scalar value from a flat JSON object.
enum JsonValue {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl JsonValue {
    fn into_string(self) -> Result<String, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err("expected string".into()),
        }
    }
    fn into_number(self) -> Result<f64, String> {
        match self {
            JsonValue::Num(n) => Ok(n),
            _ => Err("expected number".into()),
        }
    }
    fn into_bool(self) -> Result<bool, String> {
        match self {
            JsonValue::Bool(b) => Ok(b),
            _ => Err("expected bool".into()),
        }
    }
}

/// Parses a flat `{"key":scalar,...}` object into (key, value) pairs.
fn json_fields(json: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = json.chars().peekable();
    let mut fields = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected '\"'".into());
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('u') => {
                            let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            s.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => break,
            Some('"') => {}
            other => return Err(format!("expected key, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err("expected ':'".into());
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    w => return Err(format!("bad literal {w:?}")),
                }
            }
            _ => {
                let num: String = std::iter::from_fn(|| {
                    chars.next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c))
                })
                .collect();
                JsonValue::Num(
                    num.parse()
                        .map_err(|e| format!("bad number {num:?}: {e}"))?,
                )
            }
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    Ok(fields)
}

/// Runs one experiment point (synthetic data plane) to completion inside
/// its own simulation.
pub fn run_experiment(exp: &Experiment) -> RunRecord {
    run_experiment_traced(exp).0
}

/// [`run_experiment`] plus the simulation's replay-identity trace hash —
/// the determinism fingerprint the sweep gates compare across thread
/// counts and topologies.
pub fn run_experiment_traced(exp: &Experiment) -> (RunRecord, u64) {
    let sim = rmr_des::Sim::new(exp.seed);
    let block_size = exp
        .block_size_override
        .unwrap_or_else(|| tuned_block_size(exp.system, exp.bench));
    let cluster = Cluster::build_with_topology(
        &sim,
        exp.system.fabric(),
        exp.testbed.topology,
        &exp.testbed.node_specs(),
        HdfsConfig {
            block_size,
            replication: 1,
            packet_size: 4 << 20,
        },
    );
    let mut conf = tuned_conf(exp.system, exp.bench, &exp.testbed);
    if let Some(p) = exp.osu_packet_override {
        conf.osu_packet_bytes = p;
    }
    let bytes = (exp.data_gb * (1u64 << 30) as f64) as u64;
    let result: Rc<RefCell<Option<JobResult>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    let c2 = cluster.clone();
    let bench = exp.bench;
    sim.spawn_named("experiment-driver", async move {
        let spec = match bench {
            Bench::TeraSort => {
                teragen(&c2, "/bench/in", bytes, false).await;
                terasort_spec("/bench/in", "/bench/out")
            }
            Bench::Sort => {
                randomwriter(&c2, "/bench/in", bytes, false).await;
                sort_spec("/bench/in", "/bench/out")
            }
        };
        let res = run_job(&c2, conf, spec).await;
        *r2.borrow_mut() = Some(res);
    })
    .detach();
    sim.run();
    let res = result
        .borrow_mut()
        .take()
        .unwrap_or_else(|| panic!("experiment {} hung", exp.id));
    (RunRecord::from_result(exp, &res), sim.trace_hash())
}

/// Runs experiments in parallel across `threads` OS threads, preserving
/// input order in the output.
pub fn run_all(experiments: &[Experiment], threads: usize) -> Vec<RunRecord> {
    let threads = threads.max(1);
    let n = experiments.len();
    let results: Vec<std::sync::Mutex<Option<RunRecord>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Each worker owns a whole single-threaded Sim; threads never share sim
    // state, and results are written to per-experiment slots, so replay
    // stays bit-identical at any thread count.
    // simcheck: allow(thread-spawn)
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let rec = run_experiment(&experiments[i]);
                eprintln!(
                    "  [{}] {} {} {}GB n{} d{} → {:.0}s",
                    experiments[i].id,
                    rec.bench,
                    rec.system,
                    rec.data_gb,
                    rec.nodes,
                    rec.disks,
                    rec.duration_s
                );
                *results[i].lock().unwrap() = Some(rec);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect()
}

/// Formats records as an aligned text table grouped the way the paper's
/// figures are (one row per size, one column per system).
pub fn format_table(records: &[RunRecord]) -> String {
    use std::collections::BTreeMap;
    let mut systems: Vec<String> = Vec::new();
    for r in records {
        let key = format!(
            "{} ({}d{})",
            r.system,
            if r.ssd { "ssd " } else { "" },
            r.disks
        );
        if !systems.contains(&key) {
            systems.push(key);
        }
    }
    let mut rows: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    for r in records {
        let key = format!(
            "{} ({}d{})",
            r.system,
            if r.ssd { "ssd " } else { "" },
            r.disks
        );
        rows.entry((r.data_gb * 1000.0) as u64)
            .or_default()
            .insert(key, r.duration_s);
    }
    let mut out = String::new();
    out.push_str(&format!("{:>10}", "Size(GB)"));
    for s in &systems {
        out.push_str(&format!(" | {s:>28}"));
    }
    out.push('\n');
    for (gb, cols) in rows {
        out.push_str(&format!("{:>10.0}", gb as f64 / 1000.0));
        for s in &systems {
            match cols.get(s) {
                Some(v) => out.push_str(&format!(" | {v:>26.0}s ")),
                None => out.push_str(&format!(" | {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp(system: System) -> Experiment {
        Experiment::new(
            "test",
            Bench::TeraSort,
            system,
            Testbed::compute(2, 1),
            0.5,
            1,
        )
    }

    #[test]
    fn single_experiment_completes() {
        let rec = run_experiment(&tiny_exp(System::OsuIb));
        assert!(rec.duration_s > 0.0);
        assert!(rec.maps > 0);
        assert_eq!(rec.reduces, 8);
        assert!(rec.cache_hit_rate > 0.0, "caching enabled → hits expected");
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let exps = vec![tiny_exp(System::IpoIb), tiny_exp(System::OsuIb)];
        let recs = run_all(&exps, 2);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].system, System::IpoIb.label());
        assert_eq!(recs[1].system, System::OsuIb.label());
    }

    #[test]
    fn records_serialize_to_json() {
        let rec = run_experiment(&tiny_exp(System::GigE1));
        let json = rec.to_json();
        let back = RunRecord::from_json(&json).unwrap();
        assert_eq!(back.system, rec.system);
        assert_eq!(back.duration_s, rec.duration_s);
    }

    #[test]
    fn json_round_trips_escapes_and_fields() {
        let rec = RunRecord {
            schema: RUN_RECORD_SCHEMA,
            id: "fig\"4a\"\n".to_string(),
            bench: "TeraSort".to_string(),
            system: "OSU-IB".to_string(),
            nodes: 8,
            disks: 2,
            ssd: true,
            data_gb: 12.5,
            duration_s: 98.25,
            map_phase_end_s: 40.5,
            maps: 160,
            reduces: 64,
            shuffled_bytes: 1 << 33,
            cache_hit_rate: 0.75,
            failed_maps: 2,
            failed_reduces: 1,
            queue_wait_s: 3.25,
            slot_occupancy: 0.625,
        };
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.schema, RUN_RECORD_SCHEMA);
        assert_eq!(back.id, rec.id);
        assert_eq!(back.ssd, rec.ssd);
        assert_eq!(back.shuffled_bytes, rec.shuffled_bytes);
        assert_eq!(back.cache_hit_rate, rec.cache_hit_rate);
        assert_eq!(back.failed_maps, 2);
        assert_eq!(back.failed_reduces, 1);
        assert_eq!(back.queue_wait_s, rec.queue_wait_s);
        assert_eq!(back.slot_occupancy, rec.slot_occupancy);
    }

    #[test]
    fn records_without_schema_field_parse_as_v1() {
        let legacy = r#"{"id":"old","bench":"Sort","system":"IPoIB","duration_s":42}"#;
        let rec = RunRecord::from_json(legacy).unwrap();
        assert_eq!(rec.schema, 1);
        assert_eq!(rec.id, "old");
        assert_eq!(rec.duration_s, 42.0);
    }

    #[test]
    fn format_table_lists_all_systems() {
        let recs = run_all(&[tiny_exp(System::IpoIb), tiny_exp(System::OsuIb)], 2);
        let table = format_table(&recs);
        assert!(table.contains("IPoIB"));
        assert!(table.contains("OSU-IB"));
    }
}

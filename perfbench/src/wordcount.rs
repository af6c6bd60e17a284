//! `wordcount-real`: WordCount over real text records on the in-node
//! combiner engine — 200k lines × 10 words drawn from a 30k-word vocabulary,
//! 4 nodes, the map-side combiner on.
//!
//! Real records put the host time into the data-plane kernels (tokenising,
//! sorting and spilling in the map, the combiner and the in-node fold, the
//! real-key merge); the job fires only hundreds of sim events.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use rmr_cluster::{tuned_conf, Bench, System, Testbed};
use rmr_core::{Cluster, JobResult, Runtime, SchedulePolicy};
use rmr_des::resource::fluid::FLUID_ADVANCE_WORK;
use rmr_des::{Sim, SimDuration};
use rmr_hdfs::HdfsConfig;
use rmr_obs::Recorder;
use rmr_workloads::{read_counts, textgen_vocab, wordcount_spec};

use crate::measure::{Calibrator, SpanId, Tracer};
use crate::pass::{run_sliced, Bounds, HostTimes, Pass, SimRun};

pub const LINES: usize = 200_000;
pub const WORDS_PER_LINE: usize = 10;
pub const LINES_PER_BLOCK: usize = 10_000;
pub const VOCAB: usize = 30_000;
pub const NODES: usize = 4;
pub const SYSTEM: System = System::NodeCombiner;

/// Sim time between calibration chunks: ~6 sim s in all, so about 1 200
/// chunks.
const SLICE: SimDuration = SimDuration::from_millis(5);

type Counts = Result<BTreeMap<String, u64>, String>;

/// One pass: generate the text, run WordCount, read the counts back.
pub fn pass(seed: u64, traced: bool, tracer: &mut Tracer, parent: Option<SpanId>) -> Pass {
    let testbed = Testbed::compute(NODES, 1);
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let work0 = FLUID_ADVANCE_WORK.with(|w| w.get());
    let sim = Sim::new(seed);
    // Each ~0.9 MB blob of 10k lines is its own 512 KB-block split, so the
    // job fans out over 20 maps and every node has co-located waves to fold.
    let cluster = Cluster::build(
        &sim,
        SYSTEM.fabric(),
        &testbed.node_specs(),
        HdfsConfig {
            block_size: 512 << 10,
            replication: 1,
            packet_size: 256 << 10,
        },
    );
    let obs = if traced {
        Recorder::on(&sim)
    } else {
        Recorder::off()
    };
    let mut conf = tuned_conf(SYSTEM, Bench::TeraSort, &testbed);
    conf.num_reduces = NODES;
    let reduces = conf.num_reduces;
    let bounds = Rc::new(RefCell::new(Bounds::default()));
    let out: Rc<RefCell<Option<(JobResult, Counts)>>> = Rc::default();
    let (c2, b2, o2, obs2) = (
        cluster.clone(),
        Rc::clone(&bounds),
        Rc::clone(&out),
        obs.clone(),
    );
    sim.spawn_named("perfbench-wordcount", async move {
        textgen_vocab(&c2, "/wc/in", LINES, WORDS_PER_LINE, LINES_PER_BLOCK, VOCAB).await;
        b2.borrow_mut().mark_setup(&c2.sim);
        let rt = Runtime::with_obs(&c2, conf.clone(), SchedulePolicy::Fifo, obs2);
        let id = rt.submit(conf, wordcount_spec("/wc/in", "/wc/out"));
        let res = rt.join(id).await;
        b2.borrow_mut().mark_joined();
        // Reading the output back is checking, not the measured run.
        let counts = read_counts(&c2, "/wc/out", reduces).await;
        *o2.borrow_mut() = Some((res, counts));
    })
    .detach();
    run_sliced(&sim, SLICE, &mut cal);
    let end = Instant::now();
    let fluid_work = FLUID_ADVANCE_WORK.with(|w| w.get()) - work0;

    let bounds = bounds.borrow();
    let HostTimes {
        setup_s,
        wall_s,
        cal,
    } = bounds.host_times(t0, end, &cal, tracer, parent, "WordCount");
    let mut pass = Pass {
        setup_s,
        wall_s,
        cal,
        sims: Vec::new(),
        job_s: 0.0,
        latencies: Vec::new(),
        jobs: 1,
        unfinished: 0,
        check_failures: Vec::new(),
        extra: Default::default(),
    };
    let results = match out.take() {
        Some((res, counts)) => {
            match counts {
                Ok(counts) => check_counts(&counts, &mut pass.check_failures),
                Err(e) => pass.check_failures.push(format!("read_counts: {e}")),
            }
            pass.job_s = res.duration_s;
            pass.latencies.push(res.duration_s);
            vec![res]
        }
        None => {
            pass.unfinished = 1;
            pass.check_failures.push("job never joined".into());
            Vec::new()
        }
    };
    pass.sims.push(SimRun::capture(
        SYSTEM.label(),
        &sim,
        fluid_work,
        bounds.setup_sim_s(),
        results,
        obs.events(),
    ));
    pass
}

/// Every input word is counted exactly once, and only vocabulary words
/// appear.
fn check_counts(counts: &BTreeMap<String, u64>, failures: &mut Vec<String>) {
    let total: u64 = counts.values().sum();
    let expect = (LINES * WORDS_PER_LINE) as u64;
    if total != expect {
        failures.push(format!("word total {total} != lines × words {expect}"));
    }
    if counts.is_empty() || counts.len() > VOCAB {
        failures.push(format!(
            "{} distinct words, vocabulary is {VOCAB}",
            counts.len()
        ));
    }
    if let Some(w) = counts.keys().find(|w| !is_vocab_word(w)) {
        failures.push(format!("word {w:?} is not in the vocabulary"));
    }
}

/// `textgen_vocab` words are `w` followed by a six-digit index below VOCAB.
fn is_vocab_word(w: &str) -> bool {
    w.len() == 7 && w.starts_with('w') && w[1..].parse::<usize>().is_ok_and(|i| i < VOCAB)
}

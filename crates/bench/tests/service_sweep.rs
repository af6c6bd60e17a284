//! Thread-count invariance gate for the service probe's fan-out: the same
//! two-policy service grid must produce byte-identical per-tenant rows,
//! bit-identical makespans, and identical executor counters and trace
//! hashes at 1, 2, and 4 worker threads.

use rmr_bench::service::service_spec;
use rmr_bench::sweep::sweep_map;
use rmr_load::{run_service, ServicePolicy, ServiceReport};

#[cfg(debug_assertions)]
const SCALE: (usize, usize) = (4, 14); // nodes, jobs
#[cfg(not(debug_assertions))]
const SCALE: (usize, usize) = (16, 80);

/// Everything the gate compares for one report: per-tenant job counts and
/// latency percentiles, then the makespan's bits, events, polls and trace
/// hash.
fn fingerprint(r: &ServiceReport) -> (String, [u64; 4]) {
    (
        r.tenants_jsonl(),
        [
            r.makespan_s.to_bits(),
            r.events_fired,
            r.polls,
            r.trace_hash,
        ],
    )
}

#[test]
fn service_rows_are_byte_identical_at_any_thread_count() {
    let (nodes, jobs) = SCALE;
    let cases = [
        ServicePolicy::Fifo,
        ServicePolicy::Capacity { preempt: true },
    ];
    let runs: Vec<Vec<(String, [u64; 4])>> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let reports = sweep_map(&cases, threads, |&policy, _| {
                run_service(&service_spec(nodes, jobs, 7, policy, false))
            });
            reports.iter().map(fingerprint).collect()
        })
        .collect();
    let rows: usize = runs[0].iter().map(|(jsonl, _)| jsonl.lines().count()).sum();
    assert_eq!(rows, 4, "2 tenant rows per policy");
    assert!(runs[0][0].0.contains("\"latency_p99_s\":"));
    for (i, threads) in [2usize, 4].into_iter().enumerate() {
        assert_eq!(
            runs[0],
            runs[i + 1],
            "tenant rows, makespan, events, polls or trace hash differ \
             between 1 and {threads} threads"
        );
    }
}

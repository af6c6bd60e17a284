//! Service-mode bench plumbing: the canonical two-tenant workload shared by
//! `probe service`, the thread-count determinism gate and `perfbench`'s
//! `service-64` workload.
//!
//! The spec mirrors the capacity-isolation scenario from the load crate's
//! own gates: an interactive tenant submitting a Poisson stream of small
//! TeraSort/WordCount jobs with a 600‰ slot guarantee, and a batch tenant
//! submitting heavy-tailed TeraSort/Sort jobs in a diurnal wave on the
//! remaining 400‰. Under FIFO the batch elephants block the interactive
//! mice head-of-line; under capacity scheduling they cannot.

use rmr_load::{Arrival, BoundedPareto, JobKind, JobMix, ServicePolicy, ServiceSpec, TenantSpec};

/// The canonical two-tenant service spec. `jobs` is split 60/40 between the
/// interactive and batch tenants. Arrival rates scale with the cluster so
/// per-node offered load stays constant: the rates below saturate 8 nodes,
/// and without the scaling a 64-node run sits at a few percent utilization
/// where every policy looks the same (no queueing, no isolation to show).
pub fn service_spec(
    nodes: usize,
    jobs: usize,
    seed: u64,
    policy: ServicePolicy,
    record_events: bool,
) -> ServiceSpec {
    assert!(jobs >= 2, "need at least one job per tenant");
    let t0_jobs = (jobs * 6).div_ceil(10).min(jobs - 1);
    let t1_jobs = jobs - t0_jobs;
    let load = nodes as f64 / 8.0;
    ServiceSpec {
        nodes,
        seed,
        policy,
        locality_delay: 1,
        record_events,
        tenants: vec![
            TenantSpec {
                queue: 0,
                jobs: t0_jobs,
                arrival: Arrival::Poisson {
                    rate_hz: 0.8 * load,
                },
                mix: JobMix::new(
                    &[(JobKind::TeraSort, 700), (JobKind::WordCount, 300)],
                    BoundedPareto::new(1.5, 32e6, 64e6),
                    2,
                ),
                share_mille: 600,
            },
            TenantSpec {
                queue: 1,
                jobs: t1_jobs,
                arrival: Arrival::Diurnal {
                    base_hz: 0.1 * load,
                    peak_hz: 1.2 * load,
                    period_s: 120.0,
                },
                mix: JobMix::new(
                    &[(JobKind::TeraSort, 500), (JobKind::Sort, 500)],
                    BoundedPareto::new(1.3, 64e6, 512e6),
                    4,
                ),
                share_mille: 400,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_splits_jobs_and_keeps_shares() {
        let spec = service_spec(8, 10, 1, ServicePolicy::Fifo, false);
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(spec.tenants[0].jobs + spec.tenants[1].jobs, 10);
        assert_eq!(spec.tenants[0].jobs, 6);
        let mille: u32 = spec.tenants.iter().map(|t| t.share_mille).sum();
        assert_eq!(mille, 1000);
    }
}

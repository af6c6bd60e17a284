//! # rmr-bench — the per-figure benchmark harness
//!
//! One binary per table/figure in the paper's evaluation (§IV): each defines
//! the experiment grid exactly as the figure sweeps it, runs every point as
//! an independent deterministic simulation (in parallel across OS threads),
//! prints the figure's series, and checks the paper's quantified claims
//! against the measured improvements. Raw rows are written as JSON lines
//! under `results/` for EXPERIMENTS.md.

use std::io::Write as _;

use rmr_cluster::{
    format_table, run_experiment_traced, Bench, Experiment, RunRecord, System, Testbed,
};

pub mod chaos;
pub mod service;
pub mod sweep;

/// A quantified claim from the paper's text, checked against measurements.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Free-text source ("§IV-B, 100GB, 1 disk").
    pub context: &'static str,
    /// Dataset size the claim is about.
    pub data_gb: f64,
    /// Disks per node.
    pub disks: usize,
    /// SSD testbed?
    pub ssd: bool,
    /// System OSU-IB is compared against.
    pub baseline: System,
    /// The paper's reported improvement of OSU-IB over the baseline, %.
    pub paper_pct: f64,
}

/// One reproducible figure.
pub struct Figure {
    /// Identifier ("fig4a").
    pub id: &'static str,
    /// Caption-level description.
    pub title: &'static str,
    /// The grid.
    pub experiments: Vec<Experiment>,
    /// Quantified claims to verify.
    pub claims: Vec<Claim>,
}

fn grid(
    id: &'static str,
    bench: Bench,
    systems: &[System],
    sizes_gb: &[f64],
    testbeds: &[Testbed],
) -> Vec<Experiment> {
    let mut out = Vec::new();
    for tb in testbeds {
        for &system in systems {
            for &gb in sizes_gb {
                out.push(Experiment::new(id, bench, system, tb.clone(), gb, 42));
            }
        }
    }
    out
}

/// Fig 4(a): TeraSort on four DataNodes, single and dual HDD.
pub fn fig4a() -> Figure {
    let systems = [
        System::GigE10,
        System::IpoIb,
        System::HadoopA,
        System::OsuIb,
    ];
    Figure {
        id: "fig4a",
        title: "TeraSort job execution time, 4-node cluster, 1 vs 2 HDDs",
        experiments: grid(
            "fig4a",
            Bench::TeraSort,
            &systems,
            &[20.0, 30.0, 40.0],
            &[Testbed::compute(4, 1), Testbed::compute(4, 2)],
        ),
        claims: vec![
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs Hadoop-A",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 9.0,
            },
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs IPoIB",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 35.0,
            },
            Claim {
                context: "§IV-B: 30GB, 1 HDD, vs 10GigE",
                data_gb: 30.0,
                disks: 1,
                ssd: false,
                baseline: System::GigE10,
                paper_pct: 38.0,
            },
            Claim {
                context: "§IV-B: 30GB, 2 HDD, vs Hadoop-A",
                data_gb: 30.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 13.0,
            },
            Claim {
                context: "§IV-B: 30GB, 2 HDD, vs IPoIB",
                data_gb: 30.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 38.0,
            },
            Claim {
                context: "§IV-B: 40GB, 2 HDD, vs Hadoop-A",
                data_gb: 40.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 17.0,
            },
            Claim {
                context: "§IV-B: 40GB, 2 HDD, vs IPoIB",
                data_gb: 40.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 48.0,
            },
        ],
    }
}

/// Fig 4(b): TeraSort on eight DataNodes, single and dual HDD.
pub fn fig4b() -> Figure {
    let systems = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];
    Figure {
        id: "fig4b",
        title: "TeraSort job execution time, 8-node cluster, 1 vs 2 HDDs",
        experiments: grid(
            "fig4b",
            Bench::TeraSort,
            &systems,
            &[60.0, 80.0, 100.0],
            &[Testbed::compute(8, 1), Testbed::compute(8, 2)],
        ),
        claims: vec![
            Claim {
                context: "§I/§IV-B headline: 100GB, 1 HDD, vs Hadoop-A",
                data_gb: 100.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 21.0,
            },
            Claim {
                context: "§I headline: 100GB, 1 HDD, vs IPoIB",
                data_gb: 100.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 32.0,
            },
            Claim {
                context: "§IV-B: 100GB, 2 HDD, vs Hadoop-A",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 31.0,
            },
            Claim {
                context: "§I headline: 100GB, 2 HDD, vs IPoIB",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 39.0,
            },
        ],
    }
}

/// Fig 5: TeraSort at larger scale on storage-class nodes (24 GB RAM).
pub fn fig5() -> Figure {
    let systems = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];
    let mut experiments = grid(
        "fig5",
        Bench::TeraSort,
        &systems,
        &[100.0],
        &[Testbed::storage(12, 2)],
    );
    experiments.extend(grid(
        "fig5",
        Bench::TeraSort,
        &systems,
        &[200.0],
        &[Testbed::storage(24, 2)],
    ));
    Figure {
        id: "fig5",
        title: "TeraSort at larger scale: 100GB on 12 nodes, 200GB on 24 nodes (storage nodes)",
        experiments,
        claims: vec![
            Claim {
                context: "§IV-B: 100GB @ 12 nodes vs IPoIB",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 41.0,
            },
            Claim {
                context: "§IV-B: 100GB @ 12 nodes vs Hadoop-A",
                data_gb: 100.0,
                disks: 2,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 7.0,
            },
        ],
    }
}

/// Fig 6(a): Sort on four DataNodes (single HDD).
pub fn fig6a() -> Figure {
    let systems = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];
    Figure {
        id: "fig6a",
        title: "Sort job execution time, 4-node cluster, 1 HDD",
        experiments: grid(
            "fig6a",
            Bench::Sort,
            &systems,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::compute(4, 1)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C: 20GB vs IPoIB",
                data_gb: 20.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 26.0,
            },
            Claim {
                context: "§IV-C: 20GB vs Hadoop-A (HA loses to IPoIB here)",
                data_gb: 20.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 38.0,
            },
        ],
    }
}

/// Fig 6(b): Sort on eight DataNodes (single HDD).
pub fn fig6b() -> Figure {
    let systems = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];
    Figure {
        id: "fig6b",
        title: "Sort job execution time, 8-node cluster, 1 HDD",
        experiments: grid(
            "fig6b",
            Bench::Sort,
            &systems,
            &[25.0, 30.0, 35.0, 40.0],
            &[Testbed::compute(8, 1)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C/§I: 40GB vs IPoIB",
                data_gb: 40.0,
                disks: 1,
                ssd: false,
                baseline: System::IpoIb,
                paper_pct: 27.0,
            },
            Claim {
                context: "§IV-C/§I: 40GB vs Hadoop-A",
                data_gb: 40.0,
                disks: 1,
                ssd: false,
                baseline: System::HadoopA,
                paper_pct: 32.0,
            },
        ],
    }
}

/// Fig 7: Sort with SSD HDFS data stores.
pub fn fig7() -> Figure {
    let systems = [System::GigE1, System::IpoIb, System::HadoopA, System::OsuIb];
    Figure {
        id: "fig7",
        title: "Sort job execution time with SSD data stores, 4 nodes",
        experiments: grid(
            "fig7",
            Bench::Sort,
            &systems,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::ssd(4)],
        ),
        claims: vec![
            Claim {
                context: "§IV-C: 15GB on SSD vs Hadoop-A",
                data_gb: 15.0,
                disks: 1,
                ssd: true,
                baseline: System::HadoopA,
                paper_pct: 22.0,
            },
            Claim {
                context: "§IV-C: 15GB on SSD vs IPoIB",
                data_gb: 15.0,
                disks: 1,
                ssd: true,
                baseline: System::IpoIb,
                paper_pct: 46.0,
            },
        ],
    }
}

/// Fig 8: effect of the caching mechanism (SSD Sort, caching on vs off).
pub fn fig8() -> Figure {
    let systems = [System::IpoIb, System::OsuIbNoCache, System::OsuIb];
    Figure {
        id: "fig8",
        title: "Effect of the PrefetchCache: Sort on SSD, caching enabled vs disabled",
        experiments: grid(
            "fig8",
            Bench::Sort,
            &systems,
            &[5.0, 10.0, 15.0, 20.0],
            &[Testbed::ssd(4)],
        ),
        claims: vec![Claim {
            context: "§IV-D: 20GB, caching on vs off",
            data_gb: 20.0,
            disks: 1,
            ssd: true,
            baseline: System::OsuIbNoCache,
            paper_pct: 18.39,
        }],
    }
}

/// All figures, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![fig4a(), fig4b(), fig5(), fig6a(), fig6b(), fig7(), fig8()]
}

/// Measured improvement of OSU-IB over `claim.baseline` at the claim's
/// point, in percent (positive = OSU-IB faster).
pub fn measured_improvement(records: &[RunRecord], claim: &Claim) -> Option<f64> {
    let find = |sys: System| {
        records.iter().find(|r| {
            r.system == sys.label()
                && (r.data_gb - claim.data_gb).abs() < 1e-9
                && r.disks == claim.disks
                && r.ssd == claim.ssd
        })
    };
    let osu = find(System::OsuIb)?;
    let base = find(claim.baseline)?;
    Some((base.duration_s - osu.duration_s) / base.duration_s * 100.0)
}

/// Runs a figure end to end: executes the grid, prints the series table and
/// the claim comparison, writes `results/<id>.jsonl`.
pub fn run_figure(fig: &Figure, threads: usize) -> Vec<RunRecord> {
    eprintln!(
        "=== {}: {} ({} runs) ===",
        fig.id,
        fig.title,
        fig.experiments.len()
    );
    let records = run_grid(&fig.experiments, threads);
    println!("\n{} — {}", fig.id, fig.title);
    println!("{}", format_table(&records));
    if !fig.claims.is_empty() {
        println!("paper-vs-measured (OSU-IB improvement over baseline):");
        for claim in &fig.claims {
            match measured_improvement(&records, claim) {
                Some(m) => println!(
                    "  {:55} paper {:>5.1}%   measured {:>5.1}%",
                    claim.context, claim.paper_pct, m
                ),
                None => println!(
                    "  {:55} paper {:>5.1}%   (point missing)",
                    claim.context, claim.paper_pct
                ),
            }
        }
    }
    write_results(fig.id, &records);
    records
}

/// Runs an experiment grid through the [`sweep`] worker pool, preserving
/// grid order in the output regardless of thread count.
pub fn run_grid(experiments: &[Experiment], threads: usize) -> Vec<RunRecord> {
    run_grid_traced(experiments, threads)
        .into_iter()
        .map(|(rec, _)| rec)
        .collect()
}

/// [`run_grid`] plus each run's replay-identity trace hash — what the
/// determinism gates compare across thread counts.
pub fn run_grid_traced(experiments: &[Experiment], threads: usize) -> Vec<(RunRecord, u64)> {
    sweep::sweep_map(experiments, threads, |exp, _| {
        let (rec, hash) = run_experiment_traced(exp);
        eprintln!(
            "  [{}] {} {} {}GB n{} d{} → {:.0}s",
            exp.id, rec.bench, rec.system, rec.data_gb, rec.nodes, rec.disks, rec.duration_s
        );
        (rec, hash)
    })
}

/// Writes records as JSON lines under `results/`.
pub fn write_results(id: &str, records: &[RunRecord]) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{id}.jsonl");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            for r in records {
                let _ = writeln!(f, "{}", r.to_json());
            }
            eprintln!("wrote {path}");
        }
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Default parallelism for harness binaries.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_cover_every_paper_figure() {
        let ids: Vec<&str> = all_figures().iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec!["fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7", "fig8"]
        );
    }

    #[test]
    fn grids_have_expected_shapes() {
        assert_eq!(fig4a().experiments.len(), 4 * 3 * 2);
        assert_eq!(fig4b().experiments.len(), 4 * 3 * 2);
        assert_eq!(fig5().experiments.len(), 8);
        assert_eq!(fig6a().experiments.len(), 16);
        assert_eq!(fig6b().experiments.len(), 16);
        assert_eq!(fig7().experiments.len(), 16);
        assert_eq!(fig8().experiments.len(), 12);
    }

    #[test]
    fn every_claim_references_a_grid_point() {
        for fig in all_figures() {
            for c in &fig.claims {
                let osu_point = fig.experiments.iter().any(|e| {
                    e.system == System::OsuIb
                        && (e.data_gb - c.data_gb).abs() < 1e-9
                        && e.testbed.disks == c.disks
                        && e.testbed.ssd == c.ssd
                });
                let base_point = fig.experiments.iter().any(|e| {
                    e.system == c.baseline
                        && (e.data_gb - c.data_gb).abs() < 1e-9
                        && e.testbed.disks == c.disks
                        && e.testbed.ssd == c.ssd
                });
                assert!(
                    osu_point && base_point,
                    "{}: claim {:?} dangling",
                    fig.id,
                    c.context
                );
            }
        }
    }
}

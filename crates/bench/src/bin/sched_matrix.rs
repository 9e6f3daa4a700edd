//! Scheduler matrix — minimum pool cores × pool architecture × pooled
//! cells, plus per-architecture simulation throughput.
//!
//! PR 9 made the worker pool a pluggable [`PoolArchitecture`]: the
//! paper's centralized EDF queue against centralized FCFS, per-cell
//! dFCFS with static cell→core affinity, seeded work stealing, and a
//! FH/PHY/MAC pipeline partition. This bench reuses the Table-2 sizing
//! harness to answer the design question the refactor opens: *how many
//! cores does each discipline need to carry peak traffic reliably?* The
//! paper's argument for a centralized deadline queue predicts EDF sizes
//! smallest — partitioned disciplines strand slack behind their affinity
//! walls, so their minimum grows with C.
//!
//! Two outputs:
//!
//! - `sched_matrix.json` (under `bench-results/` or
//!   `CONCORDIA_RESULTS_DIR`): the *deterministic* min-cores matrix.
//!   Bytes are independent of `--jobs` (the runner merges in input
//!   order), so CI diffs the file across worker counts.
//! - `BENCH_sched.json` in the working directory: the matrix again plus
//!   the *timing* figures — wall-clock and simulated cell-slots/sec per
//!   architecture. Machine-dependent, committed at the repo root as the
//!   reference measurement.
//!
//! `--check` exits non-zero unless centralized EDF needs no more cores
//! than per-cell dFCFS at every C >= 4 (the pooling argument, stated as
//! a gate). `--pool NAME` restricts the sweep to one architecture
//! (the check is skipped unless both edf and dfcfs are swept).
//!
//! Example:
//! `cargo run -p concordia-bench --release --bin sched_matrix -- --quick --check`

use concordia_bench::{
    banner, bool_flag, f64_flag, flag_with, jobs_from_args, write_json, RunLength,
};
use concordia_core::runner::run_parallel;
use concordia_core::{SimConfig, Simulation};
use concordia_platform::arch::PoolArchChoice;
use concordia_ran::Nanos;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    arch: &'static str,
    cells: u32,
    min_cores: u32,
    reliability: f64,
    /// `true` when the smallest passing pool was found within the search
    /// bound; `false` means even the largest candidate missed the target
    /// and `min_cores` is that largest candidate.
    met_target: bool,
}

#[derive(Serialize)]
struct TimingRow {
    arch: &'static str,
    cells: u32,
    cores: u32,
    sim_secs: f64,
    cell_slots: u64,
    run_secs: f64,
    slots_per_sec: f64,
}

/// Minimum cores meeting `target` reliability, by running every candidate
/// pool size in parallel and taking the smallest that passes (same answer
/// as a linear scan, a fraction of the wall-clock). Falls back to the
/// largest candidate when none passes.
fn min_cores(template: &SimConfig, max_cores: u32, target: f64, jobs: usize) -> (u32, f64, bool) {
    let configs: Vec<SimConfig> = (1..=max_cores)
        .map(|cores| SimConfig {
            cores,
            ..template.clone()
        })
        .collect();
    let reports = run_parallel(configs, jobs);
    for r in &reports {
        if r.metrics.reliability >= target {
            return (r.cores, r.metrics.reliability, true);
        }
    }
    let last = reports.last().expect("at least one candidate");
    (last.cores, last.metrics.reliability, false)
}

fn main() {
    let len = RunLength::from_args();
    let seed = concordia_bench::seed_from_args();
    let jobs = jobs_from_args();
    let check = bool_flag("--check");
    let load = f64_flag("--load", 1.0).clamp(0.0, 1.0);
    let arches: Vec<PoolArchChoice> = match flag_with("--pool", PoolArchChoice::from_name) {
        Some(a) => vec![a],
        None => PoolArchChoice::ALL.to_vec(),
    };
    banner(
        "Scheduler matrix (minimum pool cores x architecture x pooled cells)",
        "a centralized deadline queue sizes the pool no larger than partitioned \
         disciplines, and the gap grows with C",
    );

    let (secs, profiling, target) = match len {
        RunLength::Quick => (1, 300, 0.999),
        RunLength::Standard => (4, 1_000, 0.9999),
        RunLength::Long => (15, 2_000, 0.9999),
    };
    let cell_counts: &[u32] = match len {
        RunLength::Quick => &[1, 2, 4],
        _ => &[1, 2, 4, 7],
    };

    let mut base = SimConfig::paper_20mhz();
    base.duration = Nanos::from_secs(secs);
    base.profiling_slots = profiling;
    base.load = load;
    base.seed = seed;
    // Like Table 2: size for peak traffic, not the bursty average.
    base.peak_provisioning = true;

    println!(
        "\n{}s simulated per candidate, reliability target {}, seed {}, {} jobs",
        secs, target, seed, jobs
    );
    println!(
        "\n{:>9} {:>6} {:>10} {:>12} {:>7}",
        "arch", "cells", "min cores", "reliability", "met"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut timing: Vec<TimingRow> = Vec::new();
    for &arch in &arches {
        // This architecture's single-cell slice bounds the multi-cell
        // search: C isolated slices could always mimic a partition, so no
        // discipline should need much more than C x its own slice (+2
        // headroom for partition-boundary rounding).
        let mut single = base.clone();
        single.pool = arch;
        single.n_cells = 1;
        let (per_cell, _, _) = min_cores(&single, 6, target, jobs);
        for &cells in cell_counts {
            let mut shared = base.clone();
            shared.pool = arch;
            shared.n_cells = cells;
            let bound = per_cell * cells + 2;
            let (cores, rel, met) = min_cores(&shared, bound, target, jobs);
            println!(
                "{:>9} {:>6} {:>10} {:>12.5} {:>7}",
                arch.name(),
                cells,
                cores,
                rel,
                met
            );
            rows.push(Row {
                arch: arch.name(),
                cells,
                min_cores: cores,
                reliability: rel,
                met_target: met,
            });
        }

        // Throughput: one timed run at the largest C on that C's minimum
        // pool. Wall-clock only — never part of the deterministic output.
        let row = rows.last().expect("at least one row per arch");
        let (cells, cores) = (row.cells, row.min_cores);
        let mut timed = base.clone();
        timed.pool = arch;
        timed.n_cells = cells;
        timed.cores = cores;
        let slot_ns = timed.cell.slot_duration().as_nanos();
        let cell_slots = timed.duration.as_nanos() / slot_ns * cells as u64;
        let sim = Simulation::new(timed);
        let t0 = Instant::now();
        let report = sim.run();
        let run_secs = t0.elapsed().as_secs_f64();
        assert!(report.metrics.dags > 0, "timed run must complete DAGs");
        timing.push(TimingRow {
            arch: arch.name(),
            cells,
            cores,
            sim_secs: secs as f64,
            cell_slots,
            run_secs,
            slots_per_sec: cell_slots as f64 / run_secs,
        });
    }

    println!(
        "\n{:>9} {:>6} {:>6} {:>12}",
        "arch", "cells", "cores", "slots/sec"
    );
    for t in &timing {
        println!(
            "{:>9} {:>6} {:>6} {:>12.0}",
            t.arch, t.cells, t.cores, t.slots_per_sec
        );
    }

    write_json(
        "sched_matrix",
        &serde_json::json!({
            "bench": "sched_matrix",
            "seed": seed,
            "simulated_secs": secs,
            "load": load,
            "reliability_target": target,
            "rows": rows,
        }),
    );

    std::fs::write(
        "BENCH_sched.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "bench": "sched_matrix",
            "mode": format!("{len:?}").to_lowercase(),
            "seed": seed,
            "reliability_target": target,
            "rows": rows,
            "timing": timing,
        }))
        .expect("serialize timing")
            + "\n",
    )
    .expect("write BENCH_sched.json");
    println!("[matrix + timing written to BENCH_sched.json]");

    if check {
        let min_for = |arch: &str, cells: u32| {
            rows.iter()
                .find(|r| r.arch == arch && r.cells == cells)
                .map(|r| r.min_cores)
        };
        let mut compared = false;
        let mut ok = true;
        for &cells in cell_counts.iter().filter(|&&c| c >= 4) {
            if let (Some(edf), Some(dfcfs)) = (min_for("edf", cells), min_for("dfcfs", cells)) {
                compared = true;
                if edf > dfcfs {
                    eprintln!(
                        "CHECK FAILED: C={cells} edf needs {edf} cores vs dfcfs {dfcfs} \
                         (centralized EDF must never size larger)"
                    );
                    ok = false;
                }
            }
        }
        if !compared {
            println!("\ncheck skipped: needs both edf and dfcfs at some C >= 4 (drop --pool)");
        } else if ok {
            println!("\ncheck passed: edf <= dfcfs min cores at every C >= 4");
        } else {
            std::process::exit(1);
        }
    }
}

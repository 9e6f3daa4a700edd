//! Golden-report harness: fixed (seed, config) pairs whose canonical
//! [`concordia_core::ExperimentReport`] JSON is checked into
//! `tests/golden/` and byte-compared on every run.
//!
//! Any change to the simulation's event order, RNG stream layout, float
//! arithmetic or report serialization shows up here as a byte diff. When a
//! divergence is intentional (a behavior change, not an accident), bless
//! new goldens with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p concordia-core --test golden
//! ```
//!
//! and review the JSON diff like any other code change.

use concordia_core::{
    Colocation, ExperimentReport, ReconfigPlan, ReconfigStep, ScenarioSpec, SchedulerChoice,
    SimConfig,
};
use concordia_platform::arch::PoolArchChoice;
use concordia_platform::faults::{FaultKind, FaultPlan, FaultSpec};
use concordia_platform::workloads::WorkloadKind;
use concordia_ran::time::Nanos;
use concordia_sched::supervisor::SupervisorConfig;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, cfg: SimConfig) -> ExperimentReport {
    let report = concordia_core::run_experiment(cfg);
    let got = report.to_canonical_json();
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        eprintln!("blessed {}", path.display());
        return report;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with \
             GOLDEN_BLESS=1 cargo test -p concordia-core --test golden",
            path.display()
        )
    });
    assert!(
        got == want,
        "{name}: report diverged from tests/golden/{name}.json \
         ({} vs {} bytes). If the change is intentional, regenerate with \
         GOLDEN_BLESS=1 cargo test -p concordia-core --test golden and \
         review the diff.",
        got.len(),
        want.len()
    );
    report
}

fn base(cells: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_20mhz();
    cfg.n_cells = cells;
    cfg.cores = (cells + 1).min(8);
    cfg.duration = Nanos::from_millis(250);
    cfg.profiling_slots = 120;
    cfg.load = 0.5;
    cfg.seed = seed;
    cfg.colocation = Colocation::Isolated;
    cfg
}

/// Pair 1: the single-cell baseline — the single-clock loop at C=1,
/// frozen here as bytes.
#[test]
fn golden_single_cell_baseline() {
    check("single_cell_baseline", base(1, 2021));
}

/// Pair 2: a staggered 4-cell deployment with a colocated workload — the
/// multiplexing path (phase groups, per-cell guards, per-cell ledgers).
#[test]
fn golden_staggered_four_cells_redis() {
    let mut cfg = base(4, 7);
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    check("staggered_four_cells_redis", cfg);
}

/// Pair 3: a faulted FlexRAN run — covers the fault timeline, requeue path
/// and the fault section of the report.
#[test]
fn golden_flexran_two_cells_core_loss() {
    let mut cfg = base(2, 42);
    cfg.scheduler = SchedulerChoice::FlexRan;
    cfg.faults = FaultPlan::chaos(&[FaultKind::CoreOffline], cfg.duration);
    check("flexran_two_cells_core_loss", cfg);
}

/// Pair 4: a three-step live reconfiguration at C=4 — pins the whole
/// transition machinery as bytes: apply/settle/commit slots, the
/// `ReconfigReport` section, and the reshaped deployment's metrics.
#[test]
fn golden_reconfig_three_step_c4() {
    let mut cfg = base(4, 13);
    let mut plan = ReconfigPlan::new(vec![
        ReconfigStep::GrowPool { cores: 2 },
        ReconfigStep::AddCell,
        ReconfigStep::DrainCell { cell: 1 },
    ]);
    plan.start_slot = 60;
    plan.settle_slots = 30;
    plan.max_retries = 1;
    plan.backoff_slots = 10;
    cfg.reconfig = Some(plan);
    check("reconfig_three_step_c4", cfg);
}

/// Pair 5: the supervised predictor under drift with a colocated Redis —
/// pins `train_supervisor`'s primaries and fallbacks plus the lifecycle
/// (quarantine, retrain, shadow, readmit) as bytes. One drift window opens
/// at 20 % of the run and clears at 70 %.
#[test]
fn golden_supervised_drift_redis() {
    let mut cfg = SimConfig::paper_100mhz();
    cfg.cores = 6;
    cfg.duration = Nanos::from_millis(2_000);
    cfg.profiling_slots = 400;
    cfg.load = 0.85;
    cfg.seed = 77;
    cfg.colocation = Colocation::Single(WorkloadKind::Redis);
    let (start, end) = (cfg.duration.scale(0.2), cfg.duration.scale(0.7));
    cfg.faults = FaultPlan {
        specs: vec![FaultSpec::fixed(
            FaultKind::DriftInjection,
            start,
            end - start,
            2.5,
        )],
    };
    cfg.supervisor = Some(SupervisorConfig::default());
    let report = check("supervised_drift_redis", cfg);
    let sup = report.supervisor.expect("supervisor report");
    assert!(sup.retrains >= 1, "the drift window must force a retrain");
}

/// Pair 6: MAC scheduling in the pool under the colocation mix, with a
/// predictor-bias and a traffic-surge window — pins the MAC DAG injection,
/// the mix-schedule pressure updates and both workload-level fault factors
/// (every prediction divided by the bias, every volume scaled by the surge).
#[test]
fn golden_mac_mix_bias_surge() {
    let mut cfg = base(2, 31);
    cfg.mac_in_pool = true;
    cfg.colocation = Colocation::Mix;
    let d = cfg.duration;
    cfg.faults = FaultPlan {
        specs: vec![
            FaultSpec::fixed(FaultKind::PredictorBias, d.scale(0.2), d.scale(0.3), 1.5),
            FaultSpec::fixed(FaultKind::TrafficSurge, d.scale(0.4), d.scale(0.3), 0.8),
        ],
    };
    check("mac_mix_bias_surge", cfg);
}

/// Pair 7: the supervisor's admission control on an under-provisioned
/// pool. With both reliability thresholds at 1.0 and one overload window,
/// a single window with a violation sheds and a second one rejects, so
/// the run pins the shed and reject paths and the supervisor's shed-window
/// and rejected-DAG counters.
#[test]
fn golden_admission_shed_reject() {
    let mut cfg = base(4, 53);
    cfg.cores = 1;
    cfg.load = 1.0;
    cfg.supervisor = Some(SupervisorConfig {
        window_slots: 10,
        shed_reliability: 1.0,
        reject_reliability: 1.0,
        overload_windows: 1,
        ..SupervisorConfig::default()
    });
    let report = check("admission_shed_reject", cfg);
    let sup = report.supervisor.expect("supervisor report");
    assert!(sup.shed_windows >= 1, "no window shed");
    assert!(sup.rejected_dags >= 1, "no DAG rejected");
}

/// One golden per library scenario, all on a staggered two-cell pool so
/// the per-cell RNG streams, phase groups and (for `sliced_deadlines`)
/// per-slice deadline budgets are all exercised. The trace-replay golden
/// synthesizes a short calibrated trace so the file stays small.
fn scenario_base(name_and_knobs: &str, seed: u64) -> SimConfig {
    let mut cfg = base(2, seed);
    cfg.scenario = Some(ScenarioSpec::parse(name_and_knobs).expect("library scenario parses"));
    cfg
}

#[test]
fn golden_scenario_urban_macro_burst() {
    check(
        "scenario_urban_macro_burst",
        scenario_base("urban_macro_burst:period=600", 1001),
    );
}

#[test]
fn golden_scenario_stadium_flash_crowd() {
    check(
        "scenario_stadium_flash_crowd",
        scenario_base(
            "stadium_flash_crowd:onset=0.2,ramp=120,hold=200,decay=160",
            1002,
        ),
    );
}

#[test]
fn golden_scenario_sliced_deadlines() {
    check(
        "scenario_sliced_deadlines",
        scenario_base("sliced_deadlines:urllc_deadline=0.5", 1003),
    );
}

#[test]
fn golden_scenario_mmtc_background() {
    // A short period so the device floor actually lands bytes in 250 ms.
    check(
        "scenario_mmtc_background",
        scenario_base("mmtc_background:devices=500000,period=20000", 1004),
    );
}

#[test]
fn golden_scenario_trace_replay_on_epyc() {
    // Platform knob rides along: the EPYC compute scale must be pinned in
    // the same bytes as the replayed trace.
    check(
        "scenario_trace_replay_epyc",
        scenario_base(
            "trace_replay:ttis=256,trace_seed=3,scale=1.2,platform=epyc_rome7452",
            1005,
        ),
    );
}

/// Differential: every library scenario runs byte-identically under any
/// `--jobs` worker count, and deterministically on every pluggable pool
/// architecture. The scenario envelope draws from its own RNG streams, so
/// this is the test that proves those draws are thread- and
/// pool-invariant.
#[test]
fn scenarios_are_jobs_and_pool_invariant() {
    let specs = [
        "urban_macro_burst:period=600",
        "stadium_flash_crowd:onset=0.2,ramp=120,hold=200,decay=160",
        "sliced_deadlines:urllc_deadline=0.5",
        "mmtc_background:devices=500000,period=20000",
        "trace_replay:ttis=256,trace_seed=3,scale=1.2",
    ];
    let runs: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let cfg = scenario_base(s, 1001 + i as u64);
            let solo = concordia_core::run_experiment(cfg.clone()).to_canonical_json();
            (s, cfg, solo)
        })
        .collect();
    // Worker count never changes a byte.
    let many =
        concordia_core::runner::run_parallel(runs.iter().map(|(_, c, _)| c.clone()).collect(), 4);
    for ((s, _, solo), parallel) in runs.iter().zip(&many) {
        assert!(
            *solo == parallel.to_canonical_json(),
            "{s}: report depends on --jobs"
        );
    }
    // Every pool architecture stays a pure function of (config, seed)
    // under a scenario envelope, and none of them strands a cell's work
    // while the flash crowd holds at peak.
    let (s, cfg, _) = &runs[1];
    for arch in PoolArchChoice::ALL {
        let mut c = cfg.clone();
        c.pool = arch;
        let first = concordia_core::run_experiment(c.clone());
        let again = concordia_core::run_experiment(c).to_canonical_json();
        assert!(
            first.to_canonical_json() == again,
            "{s}: pool {} is not deterministic",
            arch.name()
        );
        for (cell, ledger) in first.metrics.per_cell.iter().enumerate() {
            assert!(
                ledger.injected > 0,
                "{s}: pool {} cell {cell} injected nothing",
                arch.name()
            );
        }
        if let Err(e) = first.audit() {
            panic!("{s}: pool {} lost work: {e}", arch.name());
        }
    }
}

/// Differential: an *empty* reconfiguration plan must not change a single
/// byte of the report — the engine only engages for non-empty plans, so a
/// no-op plan and a plain run are the same experiment.
#[test]
fn empty_reconfig_plan_is_byte_identical_to_plain_run() {
    let plain = concordia_core::run_experiment(base(2, 7)).to_canonical_json();
    let mut cfg = base(2, 7);
    cfg.reconfig = Some(ReconfigPlan::new(Vec::new()));
    let noop = concordia_core::run_experiment(cfg).to_canonical_json();
    assert_eq!(plain, noop, "an empty plan must be a byte-level no-op");
}

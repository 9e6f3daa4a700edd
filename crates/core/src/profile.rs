//! Offline profiling and predictor training (§4.2, §5).
//!
//! "The decision trees are trained offline, using a dataset with samples
//! collected by profiling the vRAN in the absence of collocated workloads.
//! … the profiling is performed using a set of transmission parameters
//! that vary for each TTI (e.g. 0 to 16 transmitting UEs, varying
//! transport block sizes, modulation and coding schemes etc)."
//!
//! The profiling pass generates randomized slot workloads spanning the
//! input space, executes their DAG tasks against the cost model in
//! isolation (varying the pool width, which matters per §4.1), and trains
//! one predictor per task kind via Algorithm 1 feature selection.

use crate::config::PredictorChoice;
use concordia_predictor::api::{InflatedPredictor, ModelBank, TrainingSample, WcetPredictor};
use concordia_predictor::evt::PwcetEvt;
use concordia_predictor::featsel::{select_features, FeatSelConfig};
use concordia_predictor::gbt::{GbtConfig, GradientBoosting};
use concordia_predictor::linreg::LinearRegression;
use concordia_predictor::qdt::QuantileDecisionTree;
use concordia_predictor::tree::TreeConfig;
use concordia_ran::cell::CellConfig;
use concordia_ran::cost::CostModel;
use concordia_ran::dag::{build_dag, build_mac_dag, SlotDag, SlotWorkload, UeAlloc};
use concordia_ran::features::{extract, handpicked};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::task::TaskKind;
use concordia_ran::time::Nanos;
use concordia_sched::supervisor::{PredictorSupervisor, SupervisorConfig};
use concordia_stats::rng::Rng;

/// Offline profiling dataset: per-kind training samples.
pub struct ProfilingDataset {
    per_kind: Vec<Vec<TrainingSample>>,
}

impl ProfilingDataset {
    /// Samples collected for `kind`.
    pub fn samples(&self, kind: TaskKind) -> &[TrainingSample] {
        &self.per_kind[kind.index()]
    }

    /// Total samples across kinds.
    pub fn total(&self) -> usize {
        self.per_kind.iter().map(|v| v.len()).sum()
    }
}

/// Generates one randomized profiling workload (0–16 UEs, random sizes,
/// MCS, SNR, layers — maximum coverage of the input space).
pub fn random_workload(cell: &CellConfig, direction: SlotDirection, rng: &mut Rng) -> SlotWorkload {
    let n_ues = rng.range_u64(0, cell.max_ues as u64) as usize;
    let peak = match direction {
        SlotDirection::Uplink => cell.peak_ul_bytes_per_slot(),
        _ => cell.peak_dl_bytes_per_slot(),
    };
    let mut prb_budget = cell.prbs;
    let ues = (0..n_ues)
        .filter_map(|_| {
            if prb_budget < 2 {
                return None;
            }
            // Log-uniform sizes to cover both tiny and peak transfers.
            let frac = (-3.0 * rng.f64()).exp(); // ~0.05..1
            let tb_bytes = ((peak / n_ues.max(1) as f64) * frac).max(64.0) as u32;
            let mcs_index = rng.range_u64(0, 27) as u8;
            let mcs = concordia_ran::transport::Mcs::from_index(mcs_index);
            let snr_db = mcs.required_snr_db() + rng.normal_ms(4.0, 4.0);
            let layers = rng.range_u64(1, cell.max_layers as u64) as u32;
            let prbs = concordia_ran::transport::prbs_for_payload(
                tb_bytes * 8,
                cell.numerology.symbols_per_slot(),
                mcs,
                layers,
            )
            .min(prb_budget);
            prb_budget -= prbs;
            Some(UeAlloc {
                tb_bytes,
                mcs_index,
                snr_db,
                layers,
                prbs,
            })
        })
        .collect();
    SlotWorkload { direction, ues }
}

/// Runs the offline profiling phase: `slots` randomized UL+DL slots per
/// direction, with runtimes sampled in isolation at randomized pool widths.
pub fn profile(
    cell: &CellConfig,
    cost: &CostModel,
    slots: usize,
    max_cores: u32,
    seed: u64,
) -> ProfilingDataset {
    let mut rng = Rng::new(seed);
    let mut per_kind: Vec<Vec<TrainingSample>> =
        (0..TaskKind::ALL.len()).map(|_| Vec::new()).collect();

    // Runs every task of `dag` in isolation at one randomized pool width.
    let mut sample = |dag: &SlotDag, rng: &mut Rng| {
        let pool_cores = rng.range_u64(1, max_cores.max(1) as u64) as u32;
        for node in &dag.nodes {
            let mut params = node.task.params;
            params.pool_cores = pool_cores;
            let runtime = cost.sample_runtime(node.task.kind, &params, 1.0, rng);
            per_kind[node.task.kind.index()].push(TrainingSample {
                x: extract(&params),
                runtime_us: runtime.as_micros_f64(),
            });
        }
    };
    for slot in 0..slots {
        for direction in [SlotDirection::Uplink, SlotDirection::Downlink] {
            let wl = random_workload(cell, direction, &mut rng);
            sample(&build_dag(cell, 0, slot as u64, Nanos::ZERO, &wl), &mut rng);
        }
        // §7 extension: profile the MAC schedulers too, so the predictor
        // bank covers them when `mac_in_pool` is enabled.
        let n_ues = rng.range_u64(0, cell.max_ues as u64) as u32;
        sample(
            &build_mac_dag(cell, 0, slot as u64, Nanos::ZERO, n_ues),
            &mut rng,
        );
    }
    ProfilingDataset { per_kind }
}

/// Builds one trained predictor for `kind` from its profiling samples.
pub fn train_predictor(
    kind: TaskKind,
    samples: &[TrainingSample],
    choice: PredictorChoice,
    cost: &CostModel,
) -> Box<dyn WcetPredictor> {
    debug_assert!(!samples.is_empty());
    let feats = match choice {
        PredictorChoice::QuantileDt
        | PredictorChoice::LinearRegression
        | PredictorChoice::GradientBoosting => select_for(kind, samples),
        // Input-insensitive models skip Algorithm 1.
        PredictorChoice::PwcetEvt | PredictorChoice::Oracle => Vec::new(),
    };
    fit_on(kind, samples, &feats, choice, cost)
}

/// Algorithm 1 feature selection for `kind`. Its inputs are capped for
/// the O(n²) dcor estimate.
fn select_for(kind: TaskKind, samples: &[TrainingSample]) -> Vec<usize> {
    select_features(samples, &handpicked(kind), &FeatSelConfig::default())
}

/// Fits `choice` for `kind` on the selected features `feats`, which the
/// pWCET and oracle models ignore.
fn fit_on(
    kind: TaskKind,
    samples: &[TrainingSample],
    feats: &[usize],
    choice: PredictorChoice,
    cost: &CostModel,
) -> Box<dyn WcetPredictor> {
    match choice {
        PredictorChoice::QuantileDt => Box::new(QuantileDecisionTree::fit(
            samples,
            feats,
            &TreeConfig::default(),
        )),
        PredictorChoice::LinearRegression => {
            Box::new(LinearRegression::fit(samples, feats, 0.99999))
        }
        PredictorChoice::GradientBoosting => Box::new(GradientBoosting::fit(
            samples,
            feats,
            0.99999,
            &GbtConfig::default(),
        )),
        PredictorChoice::PwcetEvt => Box::new(PwcetEvt::fit(samples, 0.99999, 50)),
        PredictorChoice::Oracle => Box::new(OraclePredictor {
            cost: cost.clone(),
            margin: 1.3,
            kind,
        }),
    }
}

/// Trains the full per-kind model bank.
pub fn train_bank(
    dataset: &ProfilingDataset,
    choice: PredictorChoice,
    cost: &CostModel,
) -> ModelBank {
    let mut bank = ModelBank::new();
    for kind in TaskKind::ALL {
        let samples = dataset.samples(kind);
        if samples.len() < 100 {
            continue; // kind never profiled (e.g. DL tasks on a UL-only cell)
        }
        bank.insert(kind, train_predictor(kind, samples, choice, cost));
    }
    bank
}

/// Builds the predictor control plane from the profiling dataset: per
/// task kind, a lane with the configured primary model plus a conservative
/// fallback — an inflated linear model, whose residual-quantile bound and
/// extra inflation keep it safe across regimes the tree never saw. Both
/// models of a lane train on one feature selection.
pub fn train_supervisor(
    dataset: &ProfilingDataset,
    choice: PredictorChoice,
    cost: &CostModel,
    cfg: SupervisorConfig,
) -> PredictorSupervisor {
    let mut sup = PredictorSupervisor::new(cfg, TaskKind::ALL.len());
    for kind in TaskKind::ALL {
        let samples = dataset.samples(kind);
        if samples.len() < 100 {
            continue; // kind never profiled
        }
        let feats = select_for(kind, samples);
        let primary = fit_on(kind, samples, &feats, choice, cost);
        let fallback = Box::new(InflatedPredictor::new(
            Box::new(LinearRegression::fit(samples, &feats, 0.99999)),
            cfg.fallback_inflation,
        ));
        sup.install(kind.index(), primary, fallback);
    }
    sup
}

/// Ground-truth oracle predictor (ablation only): the cost model's
/// expected value times a safety margin. A real deployment cannot have
/// this — it is the "how much does prediction error cost us" yardstick.
struct OraclePredictor {
    cost: CostModel,
    margin: f64,
    kind: TaskKind,
}

impl WcetPredictor for OraclePredictor {
    fn predict_us(&self, x: &concordia_ran::features::FeatureVec) -> f64 {
        // Rebuild the parameters the cost model needs from the features.
        use concordia_ran::features::Feature as F;
        let params = concordia_ran::task::TaskParams {
            n_cbs: x[F::NCbs as usize] as u32,
            cb_bits: x[F::CbBits as usize] as u32,
            tb_bits: x[F::TbBits as usize] as u32,
            mcs_index: x[F::McsIndex as usize] as u8,
            modulation_order: x[F::ModulationOrder as usize] as u8,
            code_rate: x[F::CodeRate as usize],
            snr_db: x[F::SnrDb as usize],
            layers: x[F::Layers as usize] as u32,
            prbs: x[F::Prbs as usize] as u32,
            symbols: x[F::Symbols as usize] as u32,
            antennas: x[F::Antennas as usize] as u32,
            n_ues_slot: x[F::NUesSlot as usize] as u32,
            slot_cbs: x[F::SlotCbs as usize] as u32,
            slot_bytes: x[F::SlotBytes as usize] as u32,
            pool_cores: x[F::PoolCores as usize] as u32,
        };
        self.cost
            .expected_cost_on_pool(self.kind, &params)
            .as_micros_f64()
            * self.margin
    }
    fn observe(&mut self, _x: &concordia_ran::features::FeatureVec, _r: f64) {}
    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiling_covers_all_nr_kinds_and_mac() {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 42);
        for kind in TaskKind::ALL {
            // Turbo kinds only appear for LTE cells.
            if matches!(kind, TaskKind::TurboDecode | TaskKind::TurboEncode) {
                assert!(ds.samples(kind).is_empty());
                continue;
            }
            assert!(
                ds.samples(kind).len() > 100,
                "{kind:?} has only {} samples",
                ds.samples(kind).len()
            );
        }
        assert!(ds.total() > 5_000);
    }

    #[test]
    fn lte_profiling_covers_turbo_kinds() {
        let cell = CellConfig::lte_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 300, 8, 48);
        assert!(ds.samples(TaskKind::TurboDecode).len() > 100);
        assert!(ds.samples(TaskKind::TurboEncode).len() > 100);
        assert!(ds.samples(TaskKind::LdpcDecode).is_empty());
    }

    #[test]
    fn profiling_spans_the_input_space() {
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 43);
        let decode = ds.samples(TaskKind::LdpcDecode);
        let cbs: Vec<f64> = decode
            .iter()
            .map(|s| s.x[concordia_ran::features::Feature::NCbs as usize])
            .collect();
        let max = cbs.iter().cloned().fold(0.0, f64::max);
        let min = cbs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min <= 2.0, "min cbs {min}");
        assert!(max >= 5.0, "max cbs {max}");
        // Pool width varies too (§4.1 multicore effect must be learnable).
        let cores: std::collections::HashSet<u64> = decode
            .iter()
            .map(|s| s.x[concordia_ran::features::Feature::PoolCores as usize] as u64)
            .collect();
        assert!(cores.len() >= 4, "pool widths {cores:?}");
    }

    #[test]
    fn trained_qdt_bank_covers_runtimes() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 500, 8, 44);
        let bank = train_bank(&ds, PredictorChoice::QuantileDt, &cost);
        assert!(bank.len() >= 15, "models {}", bank.len());
        // Fresh samples from the same distribution must rarely exceed the
        // predictions.
        let mut rng = Rng::new(45);
        let mut total = 0u64;
        let mut misses = 0u64;
        for _ in 0..300 {
            let wl = random_workload(&cell, SlotDirection::Uplink, &mut rng);
            let dag = build_dag(&cell, 0, 0, Nanos::ZERO, &wl);
            for node in &dag.nodes {
                let mut params = node.task.params;
                params.pool_cores = 4;
                let runtime = cost
                    .sample_runtime(node.task.kind, &params, 1.0, &mut rng)
                    .as_micros_f64();
                if let Some(pred) = bank.predict(node.task.kind, &extract(&params)) {
                    total += 1;
                    if runtime > pred.as_micros_f64() {
                        misses += 1;
                    }
                }
            }
        }
        let rate = misses as f64 / total as f64;
        assert!(rate < 0.02, "miss rate {rate} over {total} tasks");
    }

    #[test]
    fn trained_supervisor_has_lanes_with_fallbacks() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 400, 8, 49);
        let sup = train_supervisor(
            &ds,
            PredictorChoice::QuantileDt,
            &cost,
            SupervisorConfig::default(),
        );
        assert!(sup.n_lanes() >= 15, "lanes {}", sup.n_lanes());
        let lane = TaskKind::LdpcDecode.index();
        assert!(sup.has_lane(lane));
        // The lane serves its primary from generation zero.
        assert_eq!(sup.generation(lane), 0);
        let x = extract(&concordia_ran::task::TaskParams {
            n_cbs: 2,
            cb_bits: 8448,
            pool_cores: 4,
            ..Default::default()
        });
        assert!(sup.predict_us(lane, &x).unwrap() > 0.0);
    }

    #[test]
    fn supervisor_primaries_predict_like_the_bank() {
        // One feature selection per kind serves both lane models; the
        // primaries must still be the models `train_bank` fits.
        let cell = CellConfig::tdd_100mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 150, 6, 50);
        let bank = train_bank(&ds, PredictorChoice::QuantileDt, &cost);
        let sup = train_supervisor(
            &ds,
            PredictorChoice::QuantileDt,
            &cost,
            SupervisorConfig::default(),
        );
        let mut checked = 0;
        for kind in TaskKind::ALL {
            let model = bank.get(kind);
            assert_eq!(model.is_some(), sup.has_lane(kind.index()), "{kind:?}");
            let Some(model) = model else { continue };
            for s in ds.samples(kind) {
                let want = model.predict_us(&s.x).to_bits();
                let got = sup.predict_us(kind.index(), &s.x).map(f64::to_bits);
                assert_eq!(got, Some(want), "{kind:?}");
                checked += 1;
            }
        }
        assert!(checked > 5_000, "only {checked} samples checked");
    }

    #[test]
    fn pwcet_bank_is_input_insensitive() {
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 300, 8, 46);
        let bank = train_bank(&ds, PredictorChoice::PwcetEvt, &cost);
        let small = extract(&concordia_ran::task::TaskParams {
            n_cbs: 1,
            ..Default::default()
        });
        let large = extract(&concordia_ran::task::TaskParams {
            n_cbs: 15,
            ..Default::default()
        });
        assert_eq!(
            bank.predict(TaskKind::LdpcDecode, &small),
            bank.predict(TaskKind::LdpcDecode, &large)
        );
    }

    #[test]
    fn qdt_tighter_than_pwcet_for_small_inputs() {
        // The Fig. 13 mechanism in miniature.
        let cell = CellConfig::fdd_20mhz();
        let cost = CostModel::new();
        let ds = profile(&cell, &cost, 500, 8, 47);
        let qdt = train_bank(&ds, PredictorChoice::QuantileDt, &cost);
        let pwcet = train_bank(&ds, PredictorChoice::PwcetEvt, &cost);
        let small = {
            let p = concordia_ran::task::TaskParams {
                n_cbs: 1,
                cb_bits: 8448,
                tb_bits: 8448,
                mcs_index: 20,
                snr_db: 30.0,
                pool_cores: 2,
                ..Default::default()
            };
            extract(&p)
        };
        let q = qdt.predict(TaskKind::LdpcDecode, &small).unwrap();
        let p = pwcet.predict(TaskKind::LdpcDecode, &small).unwrap();
        assert!(
            q.as_micros_f64() < p.as_micros_f64() * 0.5,
            "qdt {q} should be much tighter than pwcet {p}"
        );
    }
}

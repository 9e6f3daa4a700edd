//! 5G-scaled traffic generation and slot-workload construction.
//!
//! §6 of the paper: "The traces are based on the traffic fluctuation
//! patterns of the LTE traces presented in Section 2.2, but with a volume
//! of traffic that is scaled up to match that expected from 5G deployments
//! (> ×10 increase in aggregate traffic)", with a varying number of 5G
//! users, MCS, transport block sizes and MIMO layers, and a *load* knob
//! (Fig. 8 sweeps 5–100 % of the max designated capacity).

use crate::burst::{BurstModel, BurstParams};
use concordia_ran::cell::CellConfig;
use concordia_ran::dag::{SlotWorkload, UeAlloc};
use concordia_ran::numerology::SlotDirection;
use concordia_ran::transport::{prbs_for_payload, Mcs};
use concordia_stats::rng::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a 5G cell traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Load as a fraction of the max allowed *average* load (0.05–1.0,
    /// Fig. 8's x-axis).
    pub load: f64,
    /// Mean relative demand (fraction of slot peak) at `load = 1.0`.
    /// Table 1 vs Table 2: the max-allowed average throughput is about half
    /// the peak, so the default is 0.5.
    pub mean_at_full: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            load: 1.0,
            mean_at_full: 0.5,
        }
    }
}

/// Relative-shape burst parameters for a 5G cell: same ms-scale Markov
/// fluctuation structure as the LTE measurements, sizes expressed as a
/// fraction of the slot peak.
fn shape_params() -> BurstParams {
    BurstParams {
        idle_exit: 0.30,
        active_exit: 0.22,
        active_to_burst: 0.16,
        burst_exit: 0.5,
        // Relative sizes: Active median ~0.38 of peak, Burst median ~0.95.
        active_size: (-0.95, 0.55),
        burst_size: (-0.05, 0.30),
        max_bytes: 1.2,
    }
}

/// Per-cell 5G traffic source: produces per-slot UL/DL demands and expands
/// them into scheduled UE allocations.
#[derive(Debug, Clone)]
pub struct CellTraffic {
    cell: CellConfig,
    cfg: TrafficConfig,
    ul_shape: BurstModel,
    dl_shape: BurstModel,
    rng: Rng,
    /// Scratch for the per-slot UE weight draws, reused across slots so
    /// the hot path stops allocating it (values never outlive one call).
    weights: Vec<f64>,
}

impl CellTraffic {
    /// Creates a source for `cell`; each cell should get a distinct `seed`
    /// stream so its trace is unique (§6).
    pub fn new(cell: CellConfig, cfg: TrafficConfig, rng: Rng) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.load),
            "load must be a fraction of max average load"
        );
        CellTraffic {
            cell,
            cfg,
            ul_shape: BurstModel::new(shape_params(), rng.fork(1)),
            dl_shape: BurstModel::new(shape_params(), rng.fork(2)),
            rng: rng.fork(3),
            weights: Vec::new(),
        }
    }

    /// Creates the source for cell `cell_id` of a pooled deployment,
    /// deriving its streams from the deployment-level `parent` generator.
    ///
    /// Two things decorrelate the cells: each gets its own forked stream
    /// (keyed by id), and each is additionally warmed up by `cell_id` TTIs
    /// so that even identically-seeded cells start at different points of
    /// the burst process. Cell 0 performs no warm-up, so a one-cell
    /// deployment reproduces the legacy single-cell traffic byte for byte.
    pub fn for_cell(cell: CellConfig, cfg: TrafficConfig, cell_id: u32, parent: &Rng) -> Self {
        let mut t = CellTraffic::new(cell, cfg, parent.fork(100 + cell_id as u64));
        for _ in 0..cell_id {
            t.ul_shape.next_tti();
            t.dl_shape.next_tti();
        }
        t
    }

    /// Demand in bytes for the next uplink slot.
    pub fn next_ul_bytes(&mut self) -> f64 {
        self.next_bytes(true)
    }

    /// Demand in bytes for the next downlink slot.
    pub fn next_dl_bytes(&mut self) -> f64 {
        self.next_bytes(false)
    }

    fn next_bytes(&mut self, uplink: bool) -> f64 {
        let peak = if uplink {
            self.cell.peak_ul_bytes_per_slot()
        } else {
            self.cell.peak_dl_bytes_per_slot()
        };
        if peak <= 0.0 {
            return 0.0;
        }
        let shape = if uplink {
            self.ul_shape.next_tti()
        } else {
            self.dl_shape.next_tti()
        };
        // Low loads thin activity as well as scale sizes: a 5 %-load cell
        // has many fully idle TTIs, not a trickle in every TTI.
        let load = self.cfg.load;
        if shape == 0.0 || self.rng.chance((1.0 - load) * 0.5) {
            return 0.0;
        }
        // Normalize the shape so that mean demand at load=1 is
        // `mean_at_full` of peak. The raw shape process has mean ~0.30 of
        // peak over non-thinned slots; rescale accordingly.
        let calib = self.cfg.mean_at_full / 0.30;
        (shape * calib * load * peak).min(peak)
    }

    /// Expands a byte demand into the slot's scheduled UE allocations —
    /// random UE count, per-UE link adaptation (SNR → MCS), layers and PRBs,
    /// capped by the cell's PRB budget — overwriting a reusable `out`. The
    /// draws depend only on `bytes` and the stream, never on `out`'s old
    /// contents, so threading one `SlotWorkload` through every slot keeps
    /// the `ues` buffer (and the internal weight scratch) from churning.
    pub fn workload_into(&mut self, direction: SlotDirection, bytes: f64, out: &mut SlotWorkload) {
        out.direction = direction;
        out.ues.clear();
        if bytes < 1.0 {
            return;
        }
        let peak = match direction {
            SlotDirection::Uplink => self.cell.peak_ul_bytes_per_slot(),
            _ => self.cell.peak_dl_bytes_per_slot(),
        };
        // UE count grows with demand: ~1 UE per sixth of peak plus jitter.
        let base_ues = 1 + (bytes / (peak / 6.0).max(1.0)) as u64;
        let n_ues = self
            .rng
            .range_u64(base_ues, base_ues + 2)
            .min(self.cell.max_ues as u64)
            .max(1) as usize;

        // Random split of the demand across UEs (exponential weights),
        // batched into the reusable scratch (take/put so the RNG borrow
        // stays disjoint).
        let mut weights = std::mem::take(&mut self.weights);
        weights.clear();
        weights.extend((0..n_ues).map(|_| self.rng.exponential(1.0)));
        let total_w: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total_w;
        }

        let symbols = self.cell.numerology.symbols_per_slot();
        let mut prb_budget = self.cell.prbs;
        for &w in &weights {
            if prb_budget == 0 {
                break;
            }
            let ue_bytes = (bytes * w).round() as u32;
            if ue_bytes == 0 {
                continue;
            }
            // Link adaptation: SNR drawn per UE; MCS chosen with ~3 dB
            // backoff plus occasional OLLA mismatch.
            let snr_db = self.rng.normal_ms(21.0, 5.0).clamp(-2.0, 34.0);
            let target = snr_db - 3.0 + self.rng.normal_ms(0.0, 1.0);
            let mut mcs_index = 0u8;
            for i in (0..=27u8).rev() {
                if Mcs::from_index(i).required_snr_db() <= target {
                    mcs_index = i;
                    break;
                }
            }
            let mcs = Mcs::from_index(mcs_index);
            // Bigger allocations get more layers.
            let layers = match self.rng.categorical(&[1.0, 2.0, 1.0, 1.0]) {
                0 => 1,
                1 => 2,
                2 => 3,
                _ => 4,
            }
            .min(self.cell.max_layers);
            let want_prbs = prbs_for_payload(ue_bytes * 8, symbols, mcs, layers);
            let prbs = want_prbs.min(prb_budget);
            prb_budget -= prbs;
            // If the PRB budget truncated the allocation, the carried bytes
            // shrink accordingly.
            let carried_bits =
                concordia_ran::transport::transport_block_bits(prbs, symbols, mcs, layers);
            let tb_bytes = ue_bytes.min(carried_bits / 8).max(1);
            out.ues.push(UeAlloc {
                tb_bytes,
                mcs_index,
                snr_db,
                layers,
                prbs,
            });
        }
        self.weights = weights;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(load: f64) -> CellTraffic {
        CellTraffic::new(
            CellConfig::fdd_20mhz(),
            TrafficConfig {
                load,
                mean_at_full: 0.5,
            },
            Rng::new(11),
        )
    }

    #[test]
    fn full_load_mean_is_about_half_peak() {
        let mut s = source(1.0);
        let peak = s.cell.peak_ul_bytes_per_slot();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.next_ul_bytes()).sum::<f64>() / n as f64;
        let rel = mean / peak;
        assert!((0.35..0.6).contains(&rel), "mean/peak {rel}");
    }

    #[test]
    fn load_scales_mean_roughly_linearly() {
        let n = 100_000;
        let mut lo = source(0.25);
        let mut hi = source(1.0);
        let m_lo: f64 = (0..n).map(|_| lo.next_ul_bytes()).sum::<f64>() / n as f64;
        let m_hi: f64 = (0..n).map(|_| hi.next_ul_bytes()).sum::<f64>() / n as f64;
        let ratio = m_hi / m_lo;
        assert!((2.5..6.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn low_load_has_many_idle_slots() {
        let mut s = source(0.05);
        let n = 50_000;
        let idle = (0..n).filter(|_| s.next_ul_bytes() == 0.0).count() as f64 / n as f64;
        assert!(idle > 0.6, "idle at 5% load: {idle}");
    }

    #[test]
    fn demand_never_exceeds_slot_peak() {
        let mut s = source(1.0);
        let peak = s.cell.peak_ul_bytes_per_slot();
        for _ in 0..100_000 {
            assert!(s.next_ul_bytes() <= peak + 1e-9);
        }
    }

    #[test]
    fn aggregate_5g_traffic_is_10x_lte() {
        // §6: >x10 increase vs the LTE traces (LTE 3-cell aggregate mean is
        // a few hundred bytes/TTI; one 20 MHz 5G cell at full load averages
        // ~10 KB/slot).
        let mut s = source(1.0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.next_ul_bytes()).sum::<f64>() / n as f64;
        assert!(mean > 3_000.0, "5G mean per slot {mean}");
    }

    #[test]
    fn workload_respects_prb_budget_and_byte_totals() {
        let mut s = source(1.0);
        let mut wl = SlotWorkload {
            direction: SlotDirection::Uplink,
            ues: Vec::new(),
        };
        for _ in 0..2_000 {
            let bytes = s.next_ul_bytes();
            s.workload_into(SlotDirection::Uplink, bytes, &mut wl);
            let prbs: u32 = wl.ues.iter().map(|u| u.prbs).sum();
            assert!(prbs <= s.cell.prbs, "prbs {prbs}");
            let total: u32 = wl.ues.iter().map(|u| u.tb_bytes).sum();
            assert!(total as f64 <= bytes * 1.2 + 64.0);
            for u in &wl.ues {
                assert!(u.layers >= 1 && u.layers <= s.cell.max_layers);
                assert!(u.mcs_index <= 27);
                assert!(u.tb_bytes >= 1);
            }
        }
    }

    #[test]
    fn zero_demand_gives_empty_workload() {
        let mut s = source(0.5);
        let mut wl = SlotWorkload {
            direction: SlotDirection::Uplink,
            ues: Vec::new(),
        };
        // A reused buffer still holding an earlier slot's UEs comes back
        // empty.
        let peak = s.cell.peak_ul_bytes_per_slot();
        s.workload_into(SlotDirection::Uplink, peak, &mut wl);
        assert!(!wl.ues.is_empty());
        s.workload_into(SlotDirection::Uplink, 0.0, &mut wl);
        assert!(wl.ues.is_empty());
    }

    #[test]
    fn ue_count_grows_with_demand() {
        let mut s = source(1.0);
        let peak = s.cell.peak_ul_bytes_per_slot();
        let mut wl = SlotWorkload {
            direction: SlotDirection::Uplink,
            ues: Vec::new(),
        };
        let mut mean_ues = |bytes: f64| {
            (0..500)
                .map(|_| {
                    s.workload_into(SlotDirection::Uplink, bytes, &mut wl);
                    wl.ues.len() as f64
                })
                .sum::<f64>()
                / 500.0
        };
        let small = mean_ues(peak * 0.05);
        let large = mean_ues(peak * 0.9);
        assert!(large > small + 2.0, "small {small} large {large}");
    }

    #[test]
    fn cells_with_same_seed_but_different_ids_emit_distinct_streams() {
        let parent = Rng::new(77);
        let cfg = TrafficConfig::default();
        let mut a = CellTraffic::for_cell(CellConfig::fdd_20mhz(), cfg, 0, &parent);
        let mut b = CellTraffic::for_cell(CellConfig::fdd_20mhz(), cfg, 1, &parent);
        let n = 5_000;
        let sa: Vec<f64> = (0..n).map(|_| a.next_ul_bytes()).collect();
        let sb: Vec<f64> = (0..n).map(|_| b.next_ul_bytes()).collect();
        assert_ne!(sa, sb, "two cells of one deployment must not be clones");
        // Beyond mere inequality: unclamped nonzero demands should
        // essentially never coincide, because the forked streams are
        // decorrelated. (Slots pinned at the peak byte cap are excluded —
        // saturation makes them equal by construction, not by correlation.)
        let peak = CellConfig::fdd_20mhz().peak_ul_bytes_per_slot();
        let coincide = sa
            .iter()
            .zip(&sb)
            .filter(|(x, y)| **x > 0.0 && **x < peak && x == y)
            .count();
        assert!(coincide < n / 100, "{coincide} coincident nonzero slots");
    }

    #[test]
    fn cell_zero_matches_legacy_stream_construction() {
        // `for_cell(.., 0, parent)` must be byte-for-byte the legacy
        // `new(.., parent.fork(100))` — the C=1 differential test and the
        // golden reports depend on it.
        let parent = Rng::new(42);
        let cfg = TrafficConfig::default();
        let mut a = CellTraffic::for_cell(CellConfig::tdd_100mhz(), cfg, 0, &parent);
        let mut b = CellTraffic::new(CellConfig::tdd_100mhz(), cfg, parent.fork(100));
        for _ in 0..2_000 {
            assert_eq!(a.next_ul_bytes(), b.next_ul_bytes());
            assert_eq!(a.next_dl_bytes(), b.next_dl_bytes());
        }
    }

    #[test]
    fn uplink_only_cell_has_no_dl_demand() {
        let mut s = CellTraffic::new(
            CellConfig::ul_only_20mhz(),
            TrafficConfig::default(),
            Rng::new(12),
        );
        for _ in 0..1_000 {
            assert_eq!(s.next_dl_bytes(), 0.0);
        }
    }
}

//! Simulation cells: their text ids, the grid's cell list in first-touch
//! order, and the candidate space of the `replay` workload.
//!
//! A cell id is `MODEL:BATCH:POLICY:HW`, for example `BERT:256:g10:t2` or
//! `ViT:1024:deepum+:host=16`.  `HW` is `t2` (the Table 2 system),
//! `host=<GiB>` (Figures 16-17), `ssd=<GB/s>` (Figure 18, PCIe 4.0) or
//! `gpu=<MiB>` (a GPU-capacity override, as serve requests carry).

use g10_bench::experiments::{HOST_SWEEP_GIB, SSD_BANDWIDTH_SWEEP_GBPS};
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::PolicyKind;
use std::collections::HashSet;

/// The hardware point of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hardware {
    Table2,
    HostGib(u64),
    SsdGbps(f64),
    GpuMib(u64),
}

impl Hardware {
    /// The configuration the figure drivers build for this point.
    pub fn config(self) -> SystemConfig {
        let table2 = SystemConfig::table2();
        match self {
            Hardware::Table2 => table2,
            Hardware::HostGib(gib) => table2.with_host_memory(gib << 30),
            Hardware::SsdGbps(gbps) => table2
                .with_ssd_bandwidth(gbps * 1e9)
                .with_pcie_bandwidth(32e9),
            Hardware::GpuMib(mib) => table2.with_gpu_memory(mib << 20),
        }
    }

    fn tag(self) -> String {
        match self {
            Hardware::Table2 => "t2".to_string(),
            Hardware::HostGib(gib) => format!("host={gib}"),
            Hardware::SsdGbps(gbps) => format!("ssd={gbps:.1}"),
            Hardware::GpuMib(mib) => format!("gpu={mib}"),
        }
    }

    fn parse(tag: &str) -> Result<Hardware, String> {
        let bad = || format!("bad hardware tag {tag:?}");
        match tag.split_once('=') {
            None if tag == "t2" => Ok(Hardware::Table2),
            Some(("host", gib)) => gib.parse().map(Hardware::HostGib).map_err(|_| bad()),
            Some(("ssd", gbps)) => gbps.parse().map(Hardware::SsdGbps).map_err(|_| bad()),
            Some(("gpu", mib)) => mib.parse().map(Hardware::GpuMib).map_err(|_| bad()),
            _ => Err(bad()),
        }
    }
}

/// One (model, batch, design, hardware) simulation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub model: ModelKind,
    pub batch: u64,
    pub policy: PolicyKind,
    pub hw: Hardware,
}

impl Cell {
    pub fn new(model: ModelKind, batch: u64, policy: PolicyKind, hw: Hardware) -> Cell {
        Cell {
            model,
            batch,
            policy,
            hw,
        }
    }

    pub fn id(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.model.name(),
            self.batch,
            self.policy.names()[0],
            self.hw.tag()
        )
    }

    pub fn parse(id: &str) -> Result<Cell, String> {
        let parts: Vec<&str> = id.split(':').collect();
        let [model, batch, policy, hw] = parts[..] else {
            return Err(format!("cell id {id:?} is not MODEL:BATCH:POLICY:HW"));
        };
        Ok(Cell {
            model: model.parse()?,
            batch: batch
                .parse()
                .map_err(|_| format!("bad batch in cell id {id:?}"))?,
            policy: policy.parse().map_err(|err| format!("{err}"))?,
            hw: Hardware::parse(hw)?,
        })
    }

    /// The key the grid's run cache deduplicates on.
    fn cache_key(&self) -> (ModelKind, u64, PolicyKind, [u64; 12]) {
        (
            self.model,
            self.batch,
            self.policy,
            self.hw.config().cache_key(),
        )
    }
}

/// Figure 16's (model, batch) points, as `experiments::fig16` sweeps them.
pub const FIG16_BATCHES: [(ModelKind, [u64; 4]); 5] = [
    (ModelKind::Bert, [256, 384, 512, 640]),
    (ModelKind::Vit, [768, 1024, 1280, 1536]),
    (ModelKind::InceptionV3, [512, 1024, 1280, 1536]),
    (ModelKind::ResNet152, [768, 1024, 1280, 1536]),
    (ModelKind::SENet154, [256, 512, 768, 1024]),
];

/// Figure 17's points and host sizes.
const FIG17_POINTS: [(ModelKind, u64); 2] =
    [(ModelKind::Vit, 1024), (ModelKind::InceptionV3, 1280)];
const FIG17_HOST_GIB: [u64; 5] = [0, 16, 32, 64, 256];

/// Every cell the `experiments all` figure drivers look up, tagged with the
/// figure that touches it first, in presentation order.  Repeats are
/// dropped exactly as the run cache drops them, so the list is the set of
/// cells the grid replays.
pub fn grid_cells() -> Vec<(&'static str, Cell)> {
    let mut touched: Vec<(&'static str, Cell)> = Vec::new();
    let eval = |model: ModelKind| model.eval_batch();
    for model in ModelKind::PAPER_MODELS {
        let mut policies = vec![PolicyKind::Ideal];
        policies.extend(PolicyKind::FIGURE11);
        for policy in policies {
            touched.push((
                "fig11",
                Cell::new(model, eval(model), policy, Hardware::Table2),
            ));
        }
    }
    for model in ModelKind::PAPER_MODELS {
        for batch in model.batch_sweep() {
            for policy in [
                PolicyKind::Ideal,
                PolicyKind::BaseUvm,
                PolicyKind::FlashNeuron,
                PolicyKind::DeepUmPlus,
                PolicyKind::G10Full,
            ] {
                touched.push(("fig15", Cell::new(model, batch, policy, Hardware::Table2)));
            }
        }
    }
    for (model, batches) in FIG16_BATCHES {
        for batch in batches {
            for gib in HOST_SWEEP_GIB {
                let hw = Hardware::HostGib(gib);
                touched.push(("fig16", Cell::new(model, batch, PolicyKind::G10Full, hw)));
            }
        }
    }
    for (model, batch) in FIG17_POINTS {
        for gib in FIG17_HOST_GIB {
            for policy in [
                PolicyKind::DeepUmPlus,
                PolicyKind::FlashNeuron,
                PolicyKind::G10Full,
            ] {
                touched.push((
                    "fig17",
                    Cell::new(model, batch, policy, Hardware::HostGib(gib)),
                ));
            }
        }
    }
    for model in ModelKind::PAPER_MODELS {
        for gbps in SSD_BANDWIDTH_SWEEP_GBPS {
            for policy in PolicyKind::COMPARED {
                let hw = Hardware::SsdGbps(gbps);
                touched.push(("fig18", Cell::new(model, eval(model), policy, hw)));
            }
        }
    }
    let mut seen = HashSet::new();
    touched.retain(|(_, cell)| seen.insert(cell.cache_key()));
    touched
}

/// The four designs that never call the G10 planner.
pub const NON_PLANNING: [PolicyKind; 4] = [
    PolicyKind::Ideal,
    PolicyKind::BaseUvm,
    PolicyKind::DeepUmPlus,
    PolicyKind::FlashNeuron,
];

/// Candidate cells of the `replay` workload: the paper models' Figure 15
/// batch sweeps and the Figure 16-18 hardware points under the four
/// non-planning designs, without repeated cache keys.  Cells that replay to
/// an identical report are dropped later, by fingerprint.
pub fn replay_candidates() -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in ModelKind::PAPER_MODELS {
        for batch in model.batch_sweep() {
            for policy in NON_PLANNING {
                cells.push(Cell::new(model, batch, policy, Hardware::Table2));
            }
        }
    }
    for (model, batches) in FIG16_BATCHES {
        for batch in batches {
            for gib in HOST_SWEEP_GIB {
                for policy in NON_PLANNING {
                    cells.push(Cell::new(model, batch, policy, Hardware::HostGib(gib)));
                }
            }
        }
    }
    for (model, batch) in FIG17_POINTS {
        for gib in FIG17_HOST_GIB {
            for policy in NON_PLANNING {
                cells.push(Cell::new(model, batch, policy, Hardware::HostGib(gib)));
            }
        }
    }
    for model in ModelKind::PAPER_MODELS {
        for gbps in SSD_BANDWIDTH_SWEEP_GBPS {
            for policy in NON_PLANNING {
                let hw = Hardware::SsdGbps(gbps);
                cells.push(Cell::new(model, model.eval_batch(), policy, hw));
            }
        }
    }
    let mut seen = HashSet::new();
    cells.retain(|cell| seen.insert(cell.cache_key()));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_ids_round_trip() {
        for cell in grid_cells()
            .iter()
            .map(|(_, c)| *c)
            .chain(replay_candidates())
        {
            let parsed = Cell::parse(&cell.id()).expect("own ids parse");
            assert_eq!(parsed.cache_key(), cell.cache_key(), "{}", cell.id());
        }
        let gpu = Cell::parse("TinyCNN:32:base-uvm:gpu=64").unwrap();
        assert_eq!(gpu.hw, Hardware::GpuMib(64));
        assert!(Cell::parse("BERT:256:g10").is_err());
        assert!(Cell::parse("BERT:256:g10:host=x").is_err());
    }

    #[test]
    fn replay_space_never_plans() {
        assert!(replay_candidates()
            .iter()
            .all(|cell| cell.policy.scheduler_variant().is_none()));
    }
}

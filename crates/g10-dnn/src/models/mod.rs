//! Model zoo: the DNN training workloads evaluated by the paper (Table 1).
//!
//! Each sub-module builds one model's training-iteration dataflow graph for a
//! given batch size.  The architectures follow the published model
//! definitions (layer counts, channel widths, hidden sizes); kernel counts
//! and memory footprints land in the same regime as Table 1 / Figure 11 of
//! the paper, which is what the migration scheduler's behaviour depends on.

pub mod bert;
pub mod inception;
pub mod resnet;
pub mod senet;
pub mod stress;
pub mod tiny;
pub mod vit;

use crate::graph::DnnGraph;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The largest batch size accepted from outside the process (the CLI's
/// `--batch` and `--jobs`, the daemon's `batch` fields).  It is far above
/// every paper batch (the largest sweep point is 1792), and every built-in
/// model builds at it without a shape product overflowing `u64`.
pub const MAX_BATCH: u64 = 1 << 20;

/// The models used throughout the paper's evaluation, plus two deliberately
/// small models used by tests and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// BERT-Large (24-layer transformer encoder, CoLA fine-tuning, seq 128).
    Bert,
    /// ViT-Base/16 on 224×224 ImageNet (197 tokens).
    Vit,
    /// Inception-v3 on 299×299 ImageNet.
    InceptionV3,
    /// ResNet-152 on 224×224 ImageNet.
    ResNet152,
    /// SENet-154 (squeeze-and-excitation, grouped bottlenecks) on 224×224.
    SENet154,
    /// A 6-layer toy CNN, small enough for unit tests and doc examples.
    TinyCnn,
    /// A 2-layer toy transformer, small enough for unit tests.
    TinyTransformer,
    /// The synthetic deep GPT-style stress transformer
    /// ([`stress`]), used by the planner/replay scaling studies.  Built here
    /// at a fixed default depth; the scaling harnesses size it explicitly
    /// via [`stress::StressGptConfig`].
    StressGpt,
}

impl ModelKind {
    /// The five models of the paper's Table 1.
    pub const PAPER_MODELS: [ModelKind; 5] = [
        ModelKind::Bert,
        ModelKind::Vit,
        ModelKind::InceptionV3,
        ModelKind::ResNet152,
        ModelKind::SENet154,
    ];

    /// Display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            ModelKind::Bert => "BERT",
            ModelKind::Vit => "ViT",
            ModelKind::InceptionV3 => "Inceptionv3",
            ModelKind::ResNet152 => "ResNet152",
            ModelKind::SENet154 => "SENet154",
            ModelKind::TinyCnn => "TinyCNN",
            ModelKind::TinyTransformer => "TinyTransformer",
            ModelKind::StressGpt => "StressGPT",
        }
    }

    /// The batch size used in the end-to-end evaluation (Figure 11).
    pub const fn eval_batch(self) -> u64 {
        match self {
            ModelKind::Bert => 256,
            ModelKind::Vit => 1280,
            ModelKind::InceptionV3 => 1536,
            ModelKind::ResNet152 => 1280,
            ModelKind::SENet154 => 1024,
            ModelKind::TinyCnn => 32,
            ModelKind::TinyTransformer => 32,
            ModelKind::StressGpt => 8,
        }
    }

    /// The batch size used in the characterisation study (Figures 2–4).
    pub const fn characterization_batch(self) -> u64 {
        match self {
            ModelKind::Bert => 128,
            ModelKind::Vit => 512,
            ModelKind::InceptionV3 => 512,
            ModelKind::ResNet152 => 512,
            ModelKind::SENet154 => 512,
            ModelKind::TinyCnn => 16,
            ModelKind::TinyTransformer => 16,
            ModelKind::StressGpt => 8,
        }
    }

    /// The batch sizes swept in the batch-size study (Figure 15).
    pub fn batch_sweep(self) -> Vec<u64> {
        match self {
            ModelKind::Bert => vec![128, 256, 512, 768, 1024],
            ModelKind::Vit => vec![256, 512, 768, 1024, 1280],
            ModelKind::InceptionV3 => vec![512, 768, 1024, 1280, 1536, 1792],
            ModelKind::ResNet152 => vec![256, 512, 768, 1024, 1280],
            ModelKind::SENet154 => vec![256, 512, 768, 1024],
            ModelKind::TinyCnn | ModelKind::TinyTransformer => vec![8, 16, 32],
            ModelKind::StressGpt => vec![4, 8, 16],
        }
    }

    /// Slow-down factor applied to the native A100 roofline so that the
    /// model's ideal iteration time matches the ideal training throughput
    /// the paper reports in Figure 15.  The paper replays kernel traces
    /// collected through its simulation stack, whose effective throughput is
    /// one to two orders of magnitude below native A100 execution for the
    /// CNN workloads; what every experiment depends on is the *ratio*
    /// between compute time and migration time, so the reproduction
    /// calibrates that ratio per model.
    pub const fn calibration_factor(self) -> f64 {
        match self {
            ModelKind::Bert => 4.5,
            ModelKind::Vit => 2.0,
            ModelKind::InceptionV3 => 22.0,
            ModelKind::ResNet152 => 44.0,
            ModelKind::SENet154 => 48.0,
            ModelKind::TinyCnn | ModelKind::TinyTransformer | ModelKind::StressGpt => 1.0,
        }
    }

    /// Throughput unit used in Figure 15 (sequences/s for BERT, images/s
    /// otherwise).
    pub const fn throughput_unit(self) -> &'static str {
        match self {
            ModelKind::Bert | ModelKind::TinyTransformer | ModelKind::StressGpt => "sequence/sec",
            _ => "image/sec",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bert" => Ok(ModelKind::Bert),
            "vit" => Ok(ModelKind::Vit),
            "inceptionv3" | "inception" => Ok(ModelKind::InceptionV3),
            "resnet152" | "resnet" => Ok(ModelKind::ResNet152),
            "senet154" | "senet" => Ok(ModelKind::SENet154),
            "tinycnn" => Ok(ModelKind::TinyCnn),
            "tinytransformer" => Ok(ModelKind::TinyTransformer),
            "stressgpt" => Ok(ModelKind::StressGpt),
            other => Err(format!("unknown model name: {other}")),
        }
    }
}

/// Builds the training-iteration dataflow graph for a model at the given
/// batch size.
///
/// # Example
///
/// ```
/// use g10_dnn::models::{build_model, ModelKind};
///
/// let graph = build_model(ModelKind::TinyCnn, 8);
/// assert!(graph.validate().is_ok());
/// assert_eq!(graph.batch_size(), 8);
/// ```
pub fn build_model(kind: ModelKind, batch: u64) -> DnnGraph {
    match kind {
        ModelKind::Bert => bert::build(batch),
        ModelKind::Vit => vit::build(batch),
        ModelKind::InceptionV3 => inception::build(batch),
        ModelKind::ResNet152 => resnet::build(batch),
        ModelKind::SENet154 => senet::build(batch),
        ModelKind::TinyCnn => tiny::build_cnn(batch),
        ModelKind::TinyTransformer => tiny::build_transformer(batch),
        ModelKind::StressGpt => stress::build(batch, &stress::StressGptConfig::with_layers(12)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_MODELS: [ModelKind; 8] = [
        ModelKind::Bert,
        ModelKind::Vit,
        ModelKind::InceptionV3,
        ModelKind::ResNet152,
        ModelKind::SENet154,
        ModelKind::TinyCnn,
        ModelKind::TinyTransformer,
        ModelKind::StressGpt,
    ];

    #[test]
    fn every_model_parses_its_own_name() {
        for kind in ALL_MODELS {
            let parsed: ModelKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("not-a-model".parse::<ModelKind>().is_err());
    }

    /// The shape products panic rather than wrap on overflow; no batch the
    /// process accepts from outside reaches that panic.
    #[test]
    fn every_model_builds_at_max_batch() {
        for kind in ALL_MODELS {
            let small = build_model(kind, 1);
            let g = build_model(kind, MAX_BATCH);
            g.validate().unwrap();
            assert_eq!(g.num_kernels(), small.num_kernels(), "{kind}");
            assert!(
                g.total_tensor_bytes() > small.total_tensor_bytes(),
                "{kind}"
            );
            assert!(g.index().peak_live_bytes() >= g.index().global_tensor_bytes());
        }
    }

    /// Many graphs stay alive at once, so a built graph keeps no growth
    /// slack in any table, its index's included.
    #[test]
    fn built_graphs_keep_no_spare_capacity() {
        for kind in ALL_MODELS {
            for batch in [kind.eval_batch(), kind.batch_sweep()[0]] {
                let g = build_model(kind, batch);
                for (table, len, capacity) in g.table_sizes() {
                    assert_eq!(len, capacity, "{kind} b{batch}: {table}");
                }
            }
        }
    }

    #[test]
    fn batch_sweeps_contain_eval_batch_or_smaller() {
        for kind in ModelKind::PAPER_MODELS {
            let sweep = kind.batch_sweep();
            assert!(!sweep.is_empty());
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn calibration_factors_are_positive_and_largest_for_cnns() {
        for kind in ModelKind::PAPER_MODELS {
            assert!(kind.calibration_factor() >= 1.0);
        }
        assert!(ModelKind::SENet154.calibration_factor() > ModelKind::Bert.calibration_factor());
        assert_eq!(ModelKind::TinyCnn.calibration_factor(), 1.0);
    }

    #[test]
    fn tiny_models_build_quickly_and_validate() {
        for kind in [ModelKind::TinyCnn, ModelKind::TinyTransformer] {
            let g = build_model(kind, 4);
            g.validate().unwrap();
            assert!(g.num_kernels() > 10);
        }
    }
}

//! ResNet-152 (He et al., CVPR '16) on 224×224 ImageNet inputs.
//!
//! Bottleneck residual blocks arranged as `[3, 8, 36, 3]` stages with output
//! widths 256 / 512 / 1024 / 2048.  The same generator is reused (with group
//! convolutions and squeeze-and-excitation blocks) by [`crate::models::senet`].

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// Configuration shared by the ResNet-style generators.
#[derive(Debug, Clone, Copy)]
pub struct ResNetConfig {
    /// Blocks per stage.
    pub stage_blocks: [u64; 4],
    /// Output channels per stage.
    pub stage_channels: [u64; 4],
    /// Group count for the 3×3 convolutions (1 = plain ResNet, 64 = SENet-154).
    pub groups: u64,
    /// Ratio of bottleneck mid-channels to output channels (4 for ResNet,
    /// 2 for SENet-154).
    pub bottleneck_ratio: u64,
    /// Squeeze-and-excitation reduction factor; `None` disables SE blocks.
    pub se_reduction: Option<u64>,
    /// Number of classifier classes.
    pub classes: u64,
}

impl ResNetConfig {
    /// The ResNet-152 configuration.
    pub fn resnet152() -> Self {
        ResNetConfig {
            stage_blocks: [3, 8, 36, 3],
            stage_channels: [256, 512, 1024, 2048],
            groups: 1,
            bottleneck_ratio: 4,
            se_reduction: None,
            classes: 1000,
        }
    }
}

/// Builds the ResNet-152 training iteration at the given batch size.
pub fn build(batch: u64) -> DnnGraph {
    build_with_config("ResNet152", batch, &ResNetConfig::resnet152())
}

/// Builds a ResNet-style network from an explicit configuration.
pub fn build_with_config(name: &str, batch: u64, cfg: &ResNetConfig) -> DnnGraph {
    let mut b = GraphBuilder::new(name, batch);
    let x = b.input_image(3, 224, 224);

    // Stem: 7×7/2 convolution + 3×3/2 max-pool (ResNet) — SENet replaces this
    // with a deeper stem, handled by the caller via `stem_channels`.
    let c1 = b.conv2d("conv1", &x, 64, 7, 2, 1);
    let n1 = b.batch_norm("bn1", &c1);
    let r1 = b.relu("relu1", &n1);
    let mut features = b.max_pool("maxpool", &r1, 3, 2);

    for (stage_idx, (&blocks, &out_c)) in cfg
        .stage_blocks
        .iter()
        .zip(cfg.stage_channels.iter())
        .enumerate()
    {
        let stride_first = if stage_idx == 0 { 1 } else { 2 };
        for block_idx in 0..blocks {
            let stride = if block_idx == 0 { stride_first } else { 1 };
            let block_name = format!("layer{}.{}", stage_idx + 1, block_idx);
            features = bottleneck(&mut b, &block_name, &features, out_c, stride, cfg);
        }
    }

    let pooled = b.global_avg_pool("avgpool", &features);
    let logits = b.linear("fc", &pooled, cfg.classes);
    b.finish(&logits)
}

/// One bottleneck residual block (1×1 reduce, 3×3, 1×1 expand), optionally
/// grouped and optionally followed by a squeeze-and-excitation stage.
pub(crate) fn bottleneck(
    b: &mut GraphBuilder,
    name: &str,
    input: &Act,
    out_c: u64,
    stride: u64,
    cfg: &ResNetConfig,
) -> Act {
    let mid_c = out_c / cfg.bottleneck_ratio.max(1);

    let c1 = b.conv2d(&format!("{name}.conv1"), input, mid_c, 1, 1, 1);
    let n1 = b.batch_norm(&format!("{name}.bn1"), &c1);
    let r1 = b.relu(&format!("{name}.relu1"), &n1);

    let c2 = b.conv2d(&format!("{name}.conv2"), &r1, mid_c, 3, stride, cfg.groups);
    let n2 = b.batch_norm(&format!("{name}.bn2"), &c2);
    let r2 = b.relu(&format!("{name}.relu2"), &n2);

    let c3 = b.conv2d(&format!("{name}.conv3"), &r2, out_c, 1, 1, 1);
    let n3 = b.batch_norm(&format!("{name}.bn3"), &c3);

    let main = if let Some(reduction) = cfg.se_reduction {
        se_block(b, name, &n3, out_c, reduction)
    } else {
        n3
    };

    let shortcut = if stride != 1 || input.map().c != out_c {
        let sc = b.conv2d(
            &format!("{name}.downsample.conv"),
            input,
            out_c,
            1,
            stride,
            1,
        );
        b.batch_norm(&format!("{name}.downsample.bn"), &sc)
    } else {
        *input
    };

    let sum = b.add(&format!("{name}.add"), &main, &shortcut);
    b.relu(&format!("{name}.relu3"), &sum)
}

/// Squeeze-and-excitation: global pool → FC reduce → ReLU → FC expand →
/// sigmoid → channel-wise scale.
pub(crate) fn se_block(
    b: &mut GraphBuilder,
    name: &str,
    input: &Act,
    channels: u64,
    reduction: u64,
) -> Act {
    let squeezed = b.global_avg_pool(&format!("{name}.se.squeeze"), input);
    let fc1 = b.linear(
        &format!("{name}.se.fc1"),
        &squeezed,
        channels / reduction.max(1),
    );
    let act = b.relu(&format!("{name}.se.relu"), &fc1);
    let fc2 = b.linear(&format!("{name}.se.fc2"), &act, channels);
    let gate = b.sigmoid(&format!("{name}.se.sigmoid"), &fc2);
    b.scale(&format!("{name}.se.scale"), input, &gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorKind;

    #[test]
    fn resnet152_builds_and_validates() {
        let g = build(2);
        g.validate().unwrap();
        // 50 bottleneck blocks, each with ≥ 9 forward kernels, plus backward
        // and optimizer kernels: well over 1000 kernels total.
        assert!(
            g.num_kernels() > 1000 && g.num_kernels() < 3000,
            "unexpected kernel count {}",
            g.num_kernels()
        );
    }

    #[test]
    fn resnet152_has_expected_parameter_scale() {
        let g = build(1);
        let weight_bytes: u64 = g
            .tensors()
            .iter()
            .filter(|t| t.kind() == TensorKind::Weight)
            .map(|t| t.bytes())
            .sum();
        // ResNet-152 has ~60 M parameters ≈ 240 MB at FP32; accept 150–400 MB.
        let mb = weight_bytes as f64 / (1 << 20) as f64;
        assert!((150.0..400.0).contains(&mb), "weights were {mb:.1} MB");
    }

    #[test]
    fn activation_bytes_scale_linearly_with_batch() {
        let g1 = build(1);
        let g2 = build(2);
        let act = |g: &DnnGraph| {
            g.tensors()
                .iter()
                .filter(|t| t.kind() == TensorKind::Activation)
                .map(|t| t.bytes())
                .sum::<u64>()
        };
        assert_eq!(act(&g2), 2 * act(&g1));
    }

    #[test]
    fn stage_structure_is_present() {
        let g = build(1);
        for stage in 1..=4 {
            assert!(g.kernels().iter().any(|k| g
                .kernel_name(k.id())
                .to_string()
                .starts_with(&format!("layer{stage}."))));
        }
        // Deepest stage has 36 blocks.
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).to_string().starts_with("layer3.35.")));
    }
}

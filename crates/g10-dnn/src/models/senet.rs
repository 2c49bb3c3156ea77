//! SENet-154 (Hu et al., CVPR '18): a very deep squeeze-and-excitation
//! network with grouped bottlenecks, the most memory-hungry model in the
//! paper's evaluation (M ≈ 43× the GPU capacity at batch 1024).

use crate::builder::GraphBuilder;
use crate::graph::DnnGraph;
use crate::models::resnet::{bottleneck, ResNetConfig};

/// The SENet-154 configuration: stages `[3, 8, 36, 3]`, 64 convolution
/// groups, bottleneck mid-width of half the output channels and SE reduction
/// of 16.
fn senet154_config() -> ResNetConfig {
    ResNetConfig {
        stage_blocks: [3, 8, 36, 3],
        stage_channels: [256, 512, 1024, 2048],
        groups: 64,
        bottleneck_ratio: 2,
        se_reduction: Some(16),
        classes: 1000,
    }
}

/// Builds the SENet-154 training iteration at the given batch size.
pub fn build(batch: u64) -> DnnGraph {
    let cfg = senet154_config();
    let mut b = GraphBuilder::new("SENet154", batch);
    let x = b.input_image(3, 224, 224);

    // SENet-154 uses a deeper 3-convolution stem (64, 64, 128 channels).
    let c1 = b.conv2d("stem.conv1", &x, 64, 3, 2, 1);
    let n1 = b.batch_norm("stem.bn1", &c1);
    let r1 = b.relu("stem.relu1", &n1);
    let c2 = b.conv2d("stem.conv2", &r1, 64, 3, 1, 1);
    let n2 = b.batch_norm("stem.bn2", &c2);
    let r2 = b.relu("stem.relu2", &n2);
    let c3 = b.conv2d("stem.conv3", &r2, 128, 3, 1, 1);
    let n3 = b.batch_norm("stem.bn3", &c3);
    let r3 = b.relu("stem.relu3", &n3);
    let mut features = b.max_pool("stem.maxpool", &r3, 3, 2);

    for (stage_idx, (&blocks, &out_c)) in cfg
        .stage_blocks
        .iter()
        .zip(cfg.stage_channels.iter())
        .enumerate()
    {
        let stride_first = if stage_idx == 0 { 1 } else { 2 };
        for block_idx in 0..blocks {
            let stride = if block_idx == 0 { stride_first } else { 1 };
            let name = format!("layer{}.{}", stage_idx + 1, block_idx);
            features = bottleneck(&mut b, &name, &features, out_c, stride, &cfg);
        }
    }

    let pooled = b.global_avg_pool("avgpool", &features);
    let logits = b.linear("fc", &pooled, cfg.classes);
    b.finish(&logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::resnet;

    #[test]
    fn senet154_builds_and_validates() {
        let g = build(2);
        g.validate().unwrap();
        // SE blocks add ~6 extra forward kernels per bottleneck compared to
        // plain ResNet, so SENet-154 has substantially more kernels.
        assert!(
            g.num_kernels() > 1800 && g.num_kernels() < 5000,
            "unexpected kernel count {}",
            g.num_kernels()
        );
    }

    #[test]
    fn senet_has_more_kernels_than_resnet() {
        let senet = build(1);
        let resnet = resnet::build(1);
        assert!(senet.num_kernels() > resnet.num_kernels());
    }

    #[test]
    fn se_blocks_are_present() {
        let g = build(1);
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).to_string().contains(".se.scale")));
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).to_string().contains(".se.sigmoid")));
    }

    #[test]
    fn senet_footprint_exceeds_resnet_at_same_batch() {
        let senet = build(2);
        let resnet = resnet::build(2);
        assert!(senet.total_tensor_bytes() > resnet.total_tensor_bytes());
    }
}

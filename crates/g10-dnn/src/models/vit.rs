//! ViT (Dosovitskiy et al., ICLR '21) on 224×224 ImageNet inputs: a
//! patch-embedding convolution producing a token sequence followed by a
//! stack of transformer encoder layers and a 1000-way classifier.
//!
//! The default configuration used by the evaluation is ViT-Large with a
//! 32-pixel patch, which reproduces both the kernel count (~1 k kernels per
//! iteration, Table 1) and the memory-footprint regime (a few hundred
//! percent of the 40 GB GPU capacity at batch 1280, Figure 11) of the
//! paper's ViT workload.  [`VitConfig::large16`] is the same model with a
//! 16-pixel patch.

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// ViT hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct VitConfig {
    /// Number of encoder layers.
    pub layers: u64,
    /// Hidden size.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// MLP intermediate size.
    pub mlp: u64,
    /// Image resolution (square).
    pub image: u64,
    /// Patch size (square).
    pub patch: u64,
    /// Number of classifier classes.
    pub classes: u64,
}

impl VitConfig {
    /// The ViT-Large/16 configuration.
    pub fn large16() -> Self {
        VitConfig {
            layers: 24,
            hidden: 1024,
            heads: 16,
            mlp: 4096,
            image: 224,
            patch: 16,
            classes: 1000,
        }
    }

    /// The ViT-Large/32 configuration used as the default evaluation
    /// workload (see the module documentation).
    pub fn large32() -> Self {
        VitConfig {
            patch: 32,
            ..Self::large16()
        }
    }

    /// Number of tokens (patches plus the class token).
    pub fn tokens(&self) -> u64 {
        (self.image / self.patch) * (self.image / self.patch) + 1
    }
}

/// Builds the ViT training iteration at the given batch size.
pub fn build(batch: u64) -> DnnGraph {
    build_with_config(batch, &VitConfig::large32())
}

/// Builds a ViT-style encoder from an explicit configuration.
pub fn build_with_config(batch: u64, cfg: &VitConfig) -> DnnGraph {
    let mut b = GraphBuilder::new("ViT", batch);

    // Patch embedding: a strided convolution from the image to hidden-size
    // patch vectors, then reinterpreted as a token sequence (the class token
    // and position embeddings are folded into the sequence length).
    let image = b.input_image(3, cfg.image, cfg.image);
    let patches = b.conv2d(
        "patch_embed.proj",
        &image,
        cfg.hidden,
        cfg.patch,
        cfg.patch,
        1,
    );
    let tokens = cfg.tokens();
    let mut x = b.to_sequence("patch_embed.tokens", &patches, tokens, cfg.hidden);

    for layer in 0..cfg.layers {
        x = encoder_layer(&mut b, &format!("blocks.{layer}"), &x, cfg);
    }

    let ln = b.layer_norm("norm", &x);
    let logits = b.linear("head", &ln, cfg.classes);
    b.finish(&logits)
}

fn encoder_layer(b: &mut GraphBuilder, name: &str, input: &Act, cfg: &VitConfig) -> Act {
    let ln1 = b.layer_norm(&format!("{name}.norm1"), input);
    let q = b.linear(&format!("{name}.attn.q"), &ln1, cfg.hidden);
    let k = b.linear(&format!("{name}.attn.k"), &ln1, cfg.hidden);
    let v = b.linear(&format!("{name}.attn.v"), &ln1, cfg.hidden);
    let scores = b.attention_scores(&format!("{name}.attn.scores"), &q, &k, cfg.heads);
    let probs = b.softmax(&format!("{name}.attn.softmax"), &scores);
    let ctx = b.attention_context(&format!("{name}.attn.context"), &probs, &v, cfg.heads);
    let proj = b.linear(&format!("{name}.attn.proj"), &ctx, cfg.hidden);
    let res1 = b.add_seq(&format!("{name}.attn.residual"), &proj, input);

    let ln2 = b.layer_norm(&format!("{name}.norm2"), &res1);
    let fc1 = b.linear(&format!("{name}.mlp.fc1"), &ln2, cfg.mlp);
    let act = b.gelu(&format!("{name}.mlp.gelu"), &fc1);
    let fc2 = b.linear(&format!("{name}.mlp.fc2"), &act, cfg.hidden);
    b.add_seq(&format!("{name}.mlp.residual"), &fc2, &res1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vit_builds_and_validates() {
        let g = build(4);
        g.validate().unwrap();
        assert!(
            g.num_kernels() > 900 && g.num_kernels() < 2500,
            "unexpected kernel count {}",
            g.num_kernels()
        );
    }

    #[test]
    fn coarser_patch_keeps_kernels_and_shrinks_tensors() {
        let coarse = build_with_config(2, &VitConfig::large32());
        let fine = build_with_config(2, &VitConfig::large16());
        assert_eq!(coarse.num_kernels(), fine.num_kernels());
        assert!(coarse.total_tensor_bytes() < fine.total_tensor_bytes());
    }

    #[test]
    fn token_count_matches_patch_grid() {
        assert_eq!(VitConfig::large16().tokens(), 14 * 14 + 1);
        assert_eq!(VitConfig::large32().tokens(), 7 * 7 + 1);
    }

    #[test]
    fn every_block_has_attention_and_mlp() {
        let g = build(1);
        let cfg = VitConfig::large32();
        for layer in 0..cfg.layers {
            assert!(g.kernels().iter().any(|k| g
                .kernel_name(k.id())
                .starts_with(&format!("blocks.{layer}.attn.scores"))));
            assert!(g.kernels().iter().any(|k| g
                .kernel_name(k.id())
                .starts_with(&format!("blocks.{layer}.mlp.fc1"))));
        }
    }
}

//! Deliberately small models used by unit tests, doc examples and the
//! quickstart example.  They exercise every builder feature (convolutions,
//! residuals, normalisation, attention) but build in microseconds and keep
//! footprints in the tens of megabytes.

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// A 6-layer residual CNN on 32×32×3 inputs with a 10-way classifier.
pub fn build_cnn(batch: u64) -> DnnGraph {
    let mut b = GraphBuilder::new("TinyCNN", batch);
    let x = b.input_image(3, 32, 32);
    let c1 = b.conv2d("stem.conv", &x, 32, 3, 1, 1);
    let n1 = b.batch_norm("stem.bn", &c1);
    let r1 = b.relu("stem.relu", &n1);

    let block1 = residual_block(&mut b, "block1", &r1, 32, 1);
    let block2 = residual_block(&mut b, "block2", &block1, 64, 2);
    let block3 = residual_block(&mut b, "block3", &block2, 128, 2);

    let pool = b.global_avg_pool("pool", &block3);
    let logits = b.linear("fc", &pool, 10);
    b.finish(&logits)
}

fn residual_block(
    b: &mut GraphBuilder,
    name: &str,
    input: &Act,
    channels: u64,
    stride: u64,
) -> Act {
    let c1 = b.conv2d(&format!("{name}.conv1"), input, channels, 3, stride, 1);
    let n1 = b.batch_norm(&format!("{name}.bn1"), &c1);
    let r1 = b.relu(&format!("{name}.relu1"), &n1);
    let c2 = b.conv2d(&format!("{name}.conv2"), &r1, channels, 3, 1, 1);
    let n2 = b.batch_norm(&format!("{name}.bn2"), &c2);
    let shortcut = if stride != 1 || input.map().c != channels {
        let sc = b.conv2d(
            &format!("{name}.downsample.conv"),
            input,
            channels,
            1,
            stride,
            1,
        );
        b.batch_norm(&format!("{name}.downsample.bn"), &sc)
    } else {
        *input
    };
    let sum = b.add(&format!("{name}.add"), &n2, &shortcut);
    b.relu(&format!("{name}.relu2"), &sum)
}

/// A 2-layer transformer encoder on 32-token sequences with hidden size 64.
pub fn build_transformer(batch: u64) -> DnnGraph {
    let mut b = GraphBuilder::new("TinyTransformer", batch);
    let hidden = 64;
    let heads = 4;
    let seq = 32;
    let mut x = b.embedding("embed", seq, hidden, 1024);
    for layer in 0..2 {
        x = encoder_layer(&mut b, &format!("layer{layer}"), &x, hidden, heads);
    }
    let pooled = b.layer_norm("final_ln", &x);
    let logits = b.linear("classifier", &pooled, 2);
    b.finish(&logits)
}

fn encoder_layer(b: &mut GraphBuilder, name: &str, input: &Act, hidden: u64, heads: u64) -> Act {
    let ln1 = b.layer_norm(&format!("{name}.ln1"), input);
    let q = b.linear(&format!("{name}.attn.q"), &ln1, hidden);
    let k = b.linear(&format!("{name}.attn.k"), &ln1, hidden);
    let v = b.linear(&format!("{name}.attn.v"), &ln1, hidden);
    let scores = b.attention_scores(&format!("{name}.attn.scores"), &q, &k, heads);
    let probs = b.softmax(&format!("{name}.attn.softmax"), &scores);
    let ctx = b.attention_context(&format!("{name}.attn.context"), &probs, &v, heads);
    let proj = b.linear(&format!("{name}.attn.proj"), &ctx, hidden);
    let res1 = b.add_seq(&format!("{name}.attn.residual"), &proj, input);
    let ln2 = b.layer_norm(&format!("{name}.ln2"), &res1);
    let ffn1 = b.linear(&format!("{name}.ffn.fc1"), &ln2, hidden * 4);
    let act = b.gelu(&format!("{name}.ffn.gelu"), &ffn1);
    let ffn2 = b.linear(&format!("{name}.ffn.fc2"), &act, hidden);
    b.add_seq(&format!("{name}.ffn.residual"), &ffn2, &res1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorKind;

    #[test]
    fn tiny_cnn_validates_and_has_residuals() {
        let g = build_cnn(4);
        g.validate().unwrap();
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).contains("block3.add")));
        assert!(g.num_kernels() > 40);
    }

    #[test]
    fn tiny_transformer_validates_and_has_attention() {
        let g = build_transformer(4);
        g.validate().unwrap();
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).contains("attn.scores")));
        assert!(g
            .tensors()
            .iter()
            .any(|t| t.kind() == TensorKind::Weight && g.tensor_name(t.id()).contains("ffn.fc1")));
    }

    #[test]
    fn footprints_stay_small() {
        let g = build_cnn(8);
        assert!(
            g.total_tensor_bytes() < (1u64 << 30),
            "tiny CNN must stay under 1 GiB"
        );
        let t = build_transformer(8);
        assert!(t.total_tensor_bytes() < (1u64 << 30));
    }
}

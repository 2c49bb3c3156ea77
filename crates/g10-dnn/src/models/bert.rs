//! BERT-Large (Devlin et al., 2018) fine-tuning on CoLA: a 24-layer
//! transformer encoder with hidden size 1024, 16 attention heads, 4096-wide
//! feed-forward blocks and sequence length 128, followed by a pooler and a
//! 2-way classification head.

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// BERT-Large hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct BertConfig {
    /// Number of transformer encoder layers.
    pub layers: u64,
    /// Hidden (embedding) size.
    pub hidden: u64,
    /// Number of attention heads.
    pub heads: u64,
    /// Feed-forward intermediate size.
    pub ffn: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Classifier label count (2 for CoLA).
    pub classes: u64,
}

impl BertConfig {
    /// The BERT-Large configuration used by the paper's evaluation.
    pub fn large() -> Self {
        BertConfig {
            layers: 24,
            hidden: 1024,
            heads: 16,
            ffn: 4096,
            seq_len: 128,
            vocab: 30522,
            classes: 2,
        }
    }
}

/// Builds the BERT training iteration at the given batch size.
pub fn build(batch: u64) -> DnnGraph {
    build_with_config(batch, &BertConfig::large())
}

/// Builds a BERT-style encoder from an explicit configuration.
pub fn build_with_config(batch: u64, cfg: &BertConfig) -> DnnGraph {
    let mut b = GraphBuilder::new("BERT", batch);
    let mut x = b.embedding("embeddings", cfg.seq_len, cfg.hidden, cfg.vocab);
    x = b.layer_norm("embeddings.ln", &x);

    for layer in 0..cfg.layers {
        x = encoder_layer(&mut b, &format!("encoder.layer{layer}"), &x, cfg);
    }

    // Pooler over the [CLS] token and the CoLA classifier head.
    let pooled = b.linear("pooler.dense", &x, cfg.hidden);
    let pooled_act = b.gelu("pooler.activation", &pooled);
    let logits = b.linear("classifier", &pooled_act, cfg.classes);
    b.finish(&logits)
}

fn encoder_layer(b: &mut GraphBuilder, name: &str, input: &Act, cfg: &BertConfig) -> Act {
    // Self-attention.
    let q = b.linear(&format!("{name}.attention.query"), input, cfg.hidden);
    let k = b.linear(&format!("{name}.attention.key"), input, cfg.hidden);
    let v = b.linear(&format!("{name}.attention.value"), input, cfg.hidden);
    let scores = b.attention_scores(&format!("{name}.attention.scores"), &q, &k, cfg.heads);
    let probs = b.softmax(&format!("{name}.attention.softmax"), &scores);
    let probs = b.dropout(&format!("{name}.attention.dropout"), &probs);
    let ctx = b.attention_context(&format!("{name}.attention.context"), &probs, &v, cfg.heads);
    let attn_out = b.linear(&format!("{name}.attention.output.dense"), &ctx, cfg.hidden);
    let res1 = b.add_seq(
        &format!("{name}.attention.output.residual"),
        &attn_out,
        input,
    );
    let ln1 = b.layer_norm(&format!("{name}.attention.output.ln"), &res1);

    // Feed-forward network.
    let ffn1 = b.linear(&format!("{name}.intermediate.dense"), &ln1, cfg.ffn);
    let act = b.gelu(&format!("{name}.intermediate.gelu"), &ffn1);
    let ffn2 = b.linear(&format!("{name}.output.dense"), &act, cfg.hidden);
    let res2 = b.add_seq(&format!("{name}.output.residual"), &ffn2, &ln1);
    b.layer_norm(&format!("{name}.output.ln"), &res2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::TensorKind;

    #[test]
    fn bert_builds_and_validates() {
        let g = build(4);
        g.validate().unwrap();
        assert!(
            g.num_kernels() > 1000 && g.num_kernels() < 3000,
            "unexpected kernel count {}",
            g.num_kernels()
        );
    }

    #[test]
    fn bert_parameter_count_is_large_scale() {
        let g = build(1);
        let weight_bytes: u64 = g
            .tensors()
            .iter()
            .filter(|t| t.kind() == TensorKind::Weight)
            .map(|t| t.bytes())
            .sum();
        // BERT-Large has ~340 M parameters ≈ 1.36 GB at FP32.
        let gb = weight_bytes as f64 / 1e9;
        assert!((0.8..2.5).contains(&gb), "weights were {gb:.2} GB");
    }

    #[test]
    fn every_layer_has_attention_and_ffn() {
        let g = build(1);
        let cfg = BertConfig::large();
        for layer in 0..cfg.layers {
            let prefix = format!("encoder.layer{layer}.attention.scores");
            assert!(
                g.kernels()
                    .iter()
                    .any(|k| g.kernel_name(k.id()).starts_with(&prefix)),
                "layer {layer} missing attention"
            );
            let ffn = format!("encoder.layer{layer}.intermediate.dense");
            assert!(g
                .kernels()
                .iter()
                .any(|k| g.kernel_name(k.id()).starts_with(&ffn)));
        }
    }

    #[test]
    fn smaller_config_builds_fewer_kernels() {
        let small = BertConfig {
            layers: 2,
            ..BertConfig::large()
        };
        let g_small = build_with_config(2, &small);
        let g_large = build(2);
        assert!(g_small.num_kernels() < g_large.num_kernels() / 4);
    }
}

//! Synthetic deep GPT-style stress workload for planner scaling studies.
//!
//! The paper's models top out around 3k kernels per training iteration;
//! systems that plan migrations over multi-iteration or multi-tenant traces
//! (10Cache, TENSILE) see one to two orders of magnitude more.  This module
//! builds a decoder-only transformer whose kernel count is configurable from
//! a few hundred to 100k+ via the layer count and the number of unrolled
//! gradient-accumulation micro-steps, so `bench_planner` and the scaling
//! tests can measure how the migration planner behaves far beyond Table 1.
//!
//! The graph keeps the lifetime structure the planner feeds on: every
//! micro-step's activations are produced in its forward pass and consumed
//! again in its backward pass, giving each a long inactive period exactly as
//! in Figure 3 of the paper.  Micro-steps are *unrolled* into one iteration
//! graph (each with its own parameter copies — the layer-level builder
//! materialises one forward and one backward pass per recorded layer), which
//! preserves what matters for planner scaling: kernel count, tensor count
//! and inactive-period structure all grow linearly with
//! `layers × grad_accum_steps`.

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// Concatenates a layer-name prefix and a fixed suffix into an
/// exact-capacity `String`, skipping the `format!` machinery for the deep
/// stack's many layer names.
fn joined(prefix: &str, suffix: &str) -> String {
    let mut name = String::with_capacity(prefix.len() + suffix.len());
    name.push_str(prefix);
    name.push_str(suffix);
    name
}

/// Hyper-parameters of the stress transformer.
#[derive(Debug, Clone, Copy)]
pub struct StressGptConfig {
    /// Decoder layers per micro-step.
    pub layers: u64,
    /// Unrolled gradient-accumulation micro-steps.
    pub grad_accum_steps: u64,
    /// Hidden (embedding) size.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Feed-forward intermediate size.
    pub ffn: u64,
    /// Sequence length.
    pub seq_len: u64,
    /// Vocabulary size (kept modest so parameter tensors do not dominate).
    pub vocab: u64,
}

/// Training-iteration kernels emitted per decoder layer: 14 forward records
/// (2 layer-norms, 4 attention GEMMs + scores/softmax/context, 2 residuals,
/// 2 FFN GEMMs + GELU), each with a backward kernel, plus 6 split
/// weight-gradient kernels and 8 optimizer kernels.
pub const KERNELS_PER_LAYER: u64 = 42;

/// Kernels outside the decoder stack per micro-step (embedding + final
/// layer-norm + head + the micro-step combine add).
const KERNELS_PER_STEP_OVERHEAD: u64 = 13;

impl StressGptConfig {
    /// A single-step stress model with the given depth and GPT-2-small-like
    /// widths (scaled to keep graph construction fast at extreme depths).
    pub fn with_layers(layers: u64) -> Self {
        StressGptConfig {
            layers: layers.max(1),
            grad_accum_steps: 1,
            hidden: 512,
            heads: 8,
            ffn: 2048,
            seq_len: 128,
            vocab: 8192,
        }
    }

    /// Picks a layer count so one micro-step lands close to `target`
    /// training-iteration kernels (within a few percent; see
    /// `target_kernel_count_is_hit_within_tolerance`).
    pub fn with_target_kernels(target: usize) -> Self {
        let budget = (target as u64).saturating_sub(KERNELS_PER_STEP_OVERHEAD);
        StressGptConfig::with_layers((budget / KERNELS_PER_LAYER).max(1))
    }
}

/// Builds the stress workload's training iteration.
pub fn build(batch: u64, cfg: &StressGptConfig) -> DnnGraph {
    let mut b = GraphBuilder::new("StressGPT", batch);
    let mut combined: Option<Act> = None;
    for step in 0..cfg.grad_accum_steps {
        let prefix = format!("step{step}");
        let mut x = b.embedding(
            &joined(&prefix, ".embed"),
            cfg.seq_len,
            cfg.hidden,
            cfg.vocab,
        );
        for layer in 0..cfg.layers {
            x = decoder_layer(&mut b, &format!("{prefix}.layer{layer}"), &x, cfg);
        }
        let xn = b.layer_norm(&joined(&prefix, ".final_ln"), &x);
        let logits = b.linear(&joined(&prefix, ".head"), &xn, cfg.vocab);
        combined = Some(match combined {
            None => logits,
            Some(acc) => b.add_seq(&joined(&prefix, ".combine"), &acc, &logits),
        });
    }
    let final_output = combined.expect("at least one micro-step");
    b.finish(&final_output)
}

fn decoder_layer(b: &mut GraphBuilder, name: &str, input: &Act, cfg: &StressGptConfig) -> Act {
    // Pre-norm GPT block.
    let ln1 = b.layer_norm(&joined(name, ".ln1"), input);
    let q = b.linear(&joined(name, ".attn.q"), &ln1, cfg.hidden);
    let k = b.linear(&joined(name, ".attn.k"), &ln1, cfg.hidden);
    let v = b.linear(&joined(name, ".attn.v"), &ln1, cfg.hidden);
    let scores = b.attention_scores(&joined(name, ".attn.scores"), &q, &k, cfg.heads);
    let probs = b.softmax(&joined(name, ".attn.softmax"), &scores);
    let ctx = b.attention_context(&joined(name, ".attn.context"), &probs, &v, cfg.heads);
    let proj = b.linear(&joined(name, ".attn.proj"), &ctx, cfg.hidden);
    let res1 = b.add_seq(&joined(name, ".attn.residual"), &proj, input);
    let ln2 = b.layer_norm(&joined(name, ".ln2"), &res1);
    let fc1 = b.linear(&joined(name, ".ffn.fc1"), &ln2, cfg.ffn);
    let act = b.gelu(&joined(name, ".ffn.gelu"), &fc1);
    let fc2 = b.linear(&joined(name, ".ffn.fc2"), &act, cfg.hidden);
    b.add_seq(&joined(name, ".ffn.residual"), &fc2, &res1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_model_builds_and_validates() {
        let cfg = StressGptConfig::with_layers(4);
        let g = build(2, &cfg);
        g.validate().unwrap();
        assert!(g
            .kernels()
            .iter()
            .any(|k| g.kernel_name(k.id()).contains("layer3.attn.scores")));
    }

    #[test]
    fn micro_steps_unroll_linearly() {
        let single = build(1, &StressGptConfig::with_layers(3)).num_kernels() as i64;
        for steps in [2, 4] {
            let cfg = StressGptConfig {
                grad_accum_steps: steps,
                ..StressGptConfig::with_layers(3)
            };
            let got = build(1, &cfg).num_kernels() as i64;
            let want = single * steps as i64;
            assert!(
                (got - want).abs() <= 4 * steps as i64,
                "steps={steps}: built {got} kernels, {want} from unrolling"
            );
        }
    }

    #[test]
    fn target_kernel_count_is_hit_within_tolerance() {
        for target in [500usize, 2_000] {
            let cfg = StressGptConfig::with_target_kernels(target);
            let g = build(1, &cfg);
            let got = g.num_kernels() as f64;
            let want = target as f64;
            assert!(
                (got - want).abs() / want < 0.15,
                "target {target}: built {got} kernels"
            );
        }
    }

    #[test]
    fn grad_accum_steps_multiply_depth() {
        let one = build(1, &StressGptConfig::with_layers(3));
        let four = StressGptConfig {
            grad_accum_steps: 4,
            ..StressGptConfig::with_layers(3)
        };
        let four = build(1, &four);
        assert!(four.num_kernels() > 3 * one.num_kernels());
        assert!(four.num_tensors() > 3 * one.num_tensors());
    }
}

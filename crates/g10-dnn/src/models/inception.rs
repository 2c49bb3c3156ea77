//! Inception-v3 (Szegedy et al., CVPR '16) on 299×299 ImageNet inputs.
//!
//! The network is a stem followed by three groups of Inception modules
//! (A/B/C) separated by grid-reduction modules, a global pool and a 1000-way
//! classifier.  The 1×7/7×1 factorised convolutions of the B modules and the
//! 1×3/3×1 splits of the C modules are modelled as pairs of 3×3 convolutions
//! with equivalent channel widths, which preserves both kernel counts and
//! activation footprints.

use crate::builder::{Act, GraphBuilder};
use crate::graph::DnnGraph;

/// Builds the Inception-v3 training iteration at the given batch size.
pub fn build(batch: u64) -> DnnGraph {
    let mut b = GraphBuilder::new("Inceptionv3", batch);
    let x = b.input_image(3, 299, 299);

    // --- Stem ---------------------------------------------------------------
    let s1 = conv_bn_relu(&mut b, "stem.conv1", &x, 32, 3, 2, 1);
    let s2 = conv_bn_relu(&mut b, "stem.conv2", &s1, 32, 3, 1, 1);
    let s3 = conv_bn_relu(&mut b, "stem.conv3", &s2, 64, 3, 1, 1);
    let p1 = b.max_pool("stem.pool1", &s3, 3, 2);
    let s4 = conv_bn_relu(&mut b, "stem.conv4", &p1, 80, 1, 1, 1);
    let s5 = conv_bn_relu(&mut b, "stem.conv5", &s4, 192, 3, 1, 1);
    let mut features = b.max_pool("stem.pool2", &s5, 3, 2);

    // --- Inception-A ×3 -----------------------------------------------------
    for (i, pool_c) in [32u64, 64, 64].iter().enumerate() {
        features = inception_a(
            &mut b,
            &format!("mixed5{}", (b'b' + i as u8) as char),
            &features,
            *pool_c,
        );
    }

    // --- Reduction-A --------------------------------------------------------
    features = reduction_a(&mut b, "mixed6a", &features);

    // --- Inception-B ×4 -----------------------------------------------------
    for (i, c7) in [128u64, 160, 160, 192].iter().enumerate() {
        features = inception_b(
            &mut b,
            &format!("mixed6{}", (b'b' + i as u8) as char),
            &features,
            *c7,
        );
    }

    // --- Reduction-B --------------------------------------------------------
    features = reduction_b(&mut b, "mixed7a", &features);

    // --- Inception-C ×2 -----------------------------------------------------
    for i in 0..2 {
        features = inception_c(
            &mut b,
            &format!("mixed7{}", (b'b' + i as u8) as char),
            &features,
        );
    }

    let pooled = b.global_avg_pool("avgpool", &features);
    let logits = b.linear("fc", &pooled, 1000);
    b.finish(&logits)
}

fn conv_bn_relu(
    b: &mut GraphBuilder,
    name: &str,
    input: &Act,
    out_c: u64,
    k: u64,
    stride: u64,
    groups: u64,
) -> Act {
    let c = b.conv2d(&format!("{name}.conv"), input, out_c, k, stride, groups);
    let n = b.batch_norm(&format!("{name}.bn"), &c);
    b.relu(&format!("{name}.relu"), &n)
}

/// Inception-A: 1×1, 5×5, double-3×3 and pooled-1×1 branches concatenated.
fn inception_a(b: &mut GraphBuilder, name: &str, input: &Act, pool_c: u64) -> Act {
    let b1 = conv_bn_relu(b, &format!("{name}.branch1x1"), input, 64, 1, 1, 1);

    let b5_1 = conv_bn_relu(b, &format!("{name}.branch5x5_1"), input, 48, 1, 1, 1);
    let b5_2 = conv_bn_relu(b, &format!("{name}.branch5x5_2"), &b5_1, 64, 5, 1, 1);

    let b3_1 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_1"), input, 64, 1, 1, 1);
    let b3_2 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_2"), &b3_1, 96, 3, 1, 1);
    let b3_3 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_3"), &b3_2, 96, 3, 1, 1);

    let pooled = b.avg_pool(&format!("{name}.branch_pool.avg"), input, 3, 1);
    let bp = conv_bn_relu(b, &format!("{name}.branch_pool"), &pooled, pool_c, 1, 1, 1);

    b.concat(&format!("{name}.concat"), &[b1, b5_2, b3_3, bp])
}

/// Reduction-A: strided 3×3, strided double-3×3 and max-pool branches.
fn reduction_a(b: &mut GraphBuilder, name: &str, input: &Act) -> Act {
    let b3 = conv_bn_relu(b, &format!("{name}.branch3x3"), input, 384, 3, 2, 1);

    let d1 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_1"), input, 64, 1, 1, 1);
    let d2 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_2"), &d1, 96, 3, 1, 1);
    let d3 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_3"), &d2, 96, 3, 2, 1);

    let pool = b.max_pool(&format!("{name}.branch_pool"), input, 3, 2);

    b.concat(&format!("{name}.concat"), &[b3, d3, pool])
}

/// Inception-B with factorised 7×7 convolutions (modelled as 3×3 pairs).
fn inception_b(b: &mut GraphBuilder, name: &str, input: &Act, c7: u64) -> Act {
    let b1 = conv_bn_relu(b, &format!("{name}.branch1x1"), input, 192, 1, 1, 1);

    let b7_1 = conv_bn_relu(b, &format!("{name}.branch7x7_1"), input, c7, 1, 1, 1);
    let b7_2 = conv_bn_relu(b, &format!("{name}.branch7x7_2"), &b7_1, c7, 3, 1, 1);
    let b7_3 = conv_bn_relu(b, &format!("{name}.branch7x7_3"), &b7_2, 192, 3, 1, 1);

    let d1 = conv_bn_relu(b, &format!("{name}.branch7x7dbl_1"), input, c7, 1, 1, 1);
    let d2 = conv_bn_relu(b, &format!("{name}.branch7x7dbl_2"), &d1, c7, 3, 1, 1);
    let d3 = conv_bn_relu(b, &format!("{name}.branch7x7dbl_3"), &d2, c7, 3, 1, 1);
    let d4 = conv_bn_relu(b, &format!("{name}.branch7x7dbl_4"), &d3, c7, 3, 1, 1);
    let d5 = conv_bn_relu(b, &format!("{name}.branch7x7dbl_5"), &d4, 192, 3, 1, 1);

    let pooled = b.avg_pool(&format!("{name}.branch_pool.avg"), input, 3, 1);
    let bp = conv_bn_relu(b, &format!("{name}.branch_pool"), &pooled, 192, 1, 1, 1);

    b.concat(&format!("{name}.concat"), &[b1, b7_3, d5, bp])
}

/// Reduction-B: strided 3×3 after 1×1, and a factorised-7×7 + strided-3×3
/// branch, plus max-pool.
fn reduction_b(b: &mut GraphBuilder, name: &str, input: &Act) -> Act {
    let a1 = conv_bn_relu(b, &format!("{name}.branch3x3_1"), input, 192, 1, 1, 1);
    let a2 = conv_bn_relu(b, &format!("{name}.branch3x3_2"), &a1, 320, 3, 2, 1);

    let c1 = conv_bn_relu(b, &format!("{name}.branch7x7x3_1"), input, 192, 1, 1, 1);
    let c2 = conv_bn_relu(b, &format!("{name}.branch7x7x3_2"), &c1, 192, 3, 1, 1);
    let c3 = conv_bn_relu(b, &format!("{name}.branch7x7x3_3"), &c2, 192, 3, 1, 1);
    let c4 = conv_bn_relu(b, &format!("{name}.branch7x7x3_4"), &c3, 192, 3, 2, 1);

    let pool = b.max_pool(&format!("{name}.branch_pool"), input, 3, 2);

    b.concat(&format!("{name}.concat"), &[a2, c4, pool])
}

/// Inception-C with split 1×3/3×1 convolutions (modelled as 3×3 pairs).
fn inception_c(b: &mut GraphBuilder, name: &str, input: &Act) -> Act {
    let b1 = conv_bn_relu(b, &format!("{name}.branch1x1"), input, 320, 1, 1, 1);

    let b3_1 = conv_bn_relu(b, &format!("{name}.branch3x3_1"), input, 384, 1, 1, 1);
    let b3_2a = conv_bn_relu(b, &format!("{name}.branch3x3_2a"), &b3_1, 384, 3, 1, 1);
    let b3_2b = conv_bn_relu(b, &format!("{name}.branch3x3_2b"), &b3_1, 384, 3, 1, 1);

    let d1 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_1"), input, 448, 1, 1, 1);
    let d2 = conv_bn_relu(b, &format!("{name}.branch3x3dbl_2"), &d1, 384, 3, 1, 1);
    let d3a = conv_bn_relu(b, &format!("{name}.branch3x3dbl_3a"), &d2, 384, 3, 1, 1);
    let d3b = conv_bn_relu(b, &format!("{name}.branch3x3dbl_3b"), &d2, 384, 3, 1, 1);

    let pooled = b.avg_pool(&format!("{name}.branch_pool.avg"), input, 3, 1);
    let bp = conv_bn_relu(b, &format!("{name}.branch_pool"), &pooled, 192, 1, 1, 1);

    b.concat(&format!("{name}.concat"), &[b1, b3_2a, b3_2b, d3a, d3b, bp])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_builds_and_validates() {
        let g = build(2);
        g.validate().unwrap();
        assert!(
            g.num_kernels() > 600 && g.num_kernels() < 2500,
            "unexpected kernel count {}",
            g.num_kernels()
        );
    }

    #[test]
    fn module_families_are_present() {
        let g = build(1);
        for prefix in ["mixed5b", "mixed6a", "mixed6b", "mixed7a", "mixed7b"] {
            assert!(
                g.kernels()
                    .iter()
                    .any(|k| g.kernel_name(k.id()).to_string().starts_with(prefix)),
                "missing inception module {prefix}"
            );
        }
    }

    #[test]
    fn concat_kernels_join_branches() {
        let g = build(1);
        let concat = g
            .kernels()
            .iter()
            .find(|k| g.kernel_name(k.id()) == "mixed5b.concat.forward")
            .expect("concat kernel must exist");
        assert!(g.inputs(concat.id()).len() >= 4);
    }
}

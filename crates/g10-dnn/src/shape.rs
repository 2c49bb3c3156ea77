//! Tensor shapes used by the layer builders.
//!
//! The model zoo tracks two families of shapes while it lays out a network:
//! 4-D feature maps (`N × C × H × W`) for convolutional models and 3-D token
//! sequences (`N × L × D`) for transformer models.  A shape knows how many
//! elements (and therefore bytes) it occupies, which is all the rest of the
//! system needs.
//!
//! Element counts are checked products: a shape too large for `u64` panics
//! with its dimensions instead of wrapping to a small, wrong size.  Batches
//! from outside the process are bounded by [`crate::models::MAX_BATCH`],
//! under which no built-in model comes near that limit.

use crate::tensor::fp32_bytes;
use std::fmt;

/// The product of `dims`, e.g. a shape's element count.
///
/// # Panics
///
/// Panics, naming the dimensions, if the product overflows `u64`.
pub(crate) fn product(dims: &[u64]) -> u64 {
    dims.iter()
        .try_fold(1u64, |acc, &dim| acc.checked_mul(dim))
        .unwrap_or_else(|| panic!("shape {dims:?} has more elements than a u64 counts"))
}

/// A feature-map shape `N × C × H × W` (batch, channels, height, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureMap {
    /// Batch size.
    pub n: u64,
    /// Channels.
    pub c: u64,
    /// Height.
    pub h: u64,
    /// Width.
    pub w: u64,
}

impl FeatureMap {
    /// Creates a new feature-map shape.
    pub const fn new(n: u64, c: u64, h: u64, w: u64) -> Self {
        FeatureMap { n, c, h, w }
    }

    /// Total number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn elements(&self) -> u64 {
        product(&[self.n, self.c, self.h, self.w])
    }

    /// Size in bytes at FP32 precision.
    pub fn bytes(&self) -> u64 {
        fp32_bytes(self.elements())
    }

    /// Returns the shape produced by a convolution / pooling with the given
    /// output channel count and stride (same-padding semantics).
    pub fn conv_output(&self, out_channels: u64, stride: u64) -> FeatureMap {
        debug_assert!(stride >= 1);
        FeatureMap {
            n: self.n,
            c: out_channels,
            h: self.h.div_ceil(stride),
            w: self.w.div_ceil(stride),
        }
    }
}

impl fmt::Display for FeatureMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

/// A token-sequence shape `N × L × D` (batch, sequence length, hidden size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqShape {
    /// Batch size.
    pub n: u64,
    /// Sequence length (number of tokens / patches).
    pub l: u64,
    /// Hidden (embedding) dimension.
    pub d: u64,
}

impl SeqShape {
    /// Creates a new sequence shape.
    pub const fn new(n: u64, l: u64, d: u64) -> Self {
        SeqShape { n, l, d }
    }

    /// Total number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn elements(&self) -> u64 {
        product(&[self.n, self.l, self.d])
    }

    /// Size in bytes at FP32 precision.
    pub fn bytes(&self) -> u64 {
        fp32_bytes(self.elements())
    }

    /// Returns a copy with a different hidden dimension (e.g. the FFN
    /// expansion).
    pub fn with_hidden(&self, d: u64) -> SeqShape {
        SeqShape { d, ..*self }
    }

    /// Number of elements of the attention-score tensor `N × heads × L × L`.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn attention_score_elements(&self, heads: u64) -> u64 {
        product(&[self.n, heads, self.l, self.l])
    }
}

impl fmt::Display for SeqShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.n, self.l, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_map_sizes() {
        let fm = FeatureMap::new(2, 3, 224, 224);
        assert_eq!(fm.elements(), 2 * 3 * 224 * 224);
        assert_eq!(fm.bytes(), fm.elements() * 4);
    }

    #[test]
    fn conv_output_applies_stride_and_channels() {
        let fm = FeatureMap::new(1, 3, 224, 224);
        let out = fm.conv_output(64, 2);
        assert_eq!(out, FeatureMap::new(1, 64, 112, 112));
        let odd = FeatureMap::new(1, 3, 7, 7).conv_output(8, 2);
        assert_eq!(odd, FeatureMap::new(1, 8, 4, 4));
    }

    #[test]
    fn seq_shape_sizes() {
        let s = SeqShape::new(8, 128, 768);
        assert_eq!(s.elements(), 8 * 128 * 768);
        assert_eq!(s.bytes(), s.elements() * 4);
        assert_eq!(s.attention_score_elements(12), 8 * 12 * 128 * 128);
        assert_eq!(s.with_hidden(3072).d, 3072);
    }

    #[test]
    #[should_panic(expected = "more elements than a u64 counts")]
    fn overflowing_shapes_panic_instead_of_wrapping() {
        FeatureMap::new(u64::MAX, 3, 224, 224).elements();
    }

    #[test]
    #[should_panic(expected = "overflow u64 bytes")]
    fn overflowing_byte_sizes_panic_instead_of_wrapping() {
        SeqShape::new(1 << 62, 1, 1).bytes();
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(FeatureMap::new(1, 2, 3, 4).to_string(), "1x2x3x4");
        assert_eq!(SeqShape::new(1, 2, 3).to_string(), "1x2x3");
    }
}

//! Network layer descriptors and shape/cost propagation.
//!
//! A [`NetworkDescriptor`] is a fully resolved list of layers with explicit
//! input shapes — enough information to compute MACs, parameter sizes, and
//! activation footprints, which is all the systolic-array performance model
//! needs. Weights/activations are modeled as int8 (1 byte/element), the
//! standard quantization for mobile accelerators of the paper's era.

use euphrates_common::error::{Error, Result};
use euphrates_common::units::Bytes;

/// A 3-D activation shape (height × width × channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Spatial height.
    pub h: u32,
    /// Spatial width.
    pub w: u32,
    /// Channel count.
    pub c: u32,
}

impl TensorShape {
    /// Creates a shape.
    pub const fn new(h: u32, w: u32, c: u32) -> Self {
        TensorShape { h, w, c }
    }

    /// Total element count.
    pub const fn elements(&self) -> u64 {
        self.h as u64 * self.w as u64 * self.c as u64
    }
}

/// The operation a layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv {
        /// Output channels.
        out_channels: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Symmetric zero padding.
        pad: u32,
    },
    /// Max pooling.
    MaxPool {
        /// Square window size.
        size: u32,
        /// Stride.
        stride: u32,
    },
    /// Fully connected layer (input is flattened).
    FullyConnected {
        /// Output features.
        out_features: u32,
    },
    /// Space-to-depth reorg (YOLOv2's passthrough), stride 2:
    /// `(h, w, c) → (h/2, w/2, 4c)`.
    Reorg,
}

/// One resolved layer: kind plus explicit input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name (diagnostic; appears in per-layer stats).
    pub name: String,
    /// The operation.
    pub kind: LayerKind,
    /// Input activation shape (already includes any concatenated
    /// passthrough channels).
    pub input: TensorShape,
}

impl Layer {
    /// Output shape of this layer.
    pub fn output(&self) -> TensorShape {
        match self.kind {
            LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            } => {
                let oh = (self.input.h + 2 * pad).saturating_sub(kernel) / stride + 1;
                let ow = (self.input.w + 2 * pad).saturating_sub(kernel) / stride + 1;
                TensorShape::new(oh, ow, out_channels)
            }
            LayerKind::MaxPool { size, stride } => {
                let oh = (self.input.h.saturating_sub(size)) / stride + 1;
                let ow = (self.input.w.saturating_sub(size)) / stride + 1;
                TensorShape::new(oh, ow, self.input.c)
            }
            LayerKind::FullyConnected { out_features } => TensorShape::new(1, 1, out_features),
            LayerKind::Reorg => {
                TensorShape::new(self.input.h / 2, self.input.w / 2, self.input.c * 4)
            }
        }
    }

    /// Multiply-accumulate count (per batch element).
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { kernel, .. } => {
                let out = self.output();
                out.elements() * u64::from(kernel) * u64::from(kernel) * u64::from(self.input.c)
            }
            LayerKind::FullyConnected { out_features } => {
                self.input.elements() * u64::from(out_features)
            }
            LayerKind::MaxPool { .. } | LayerKind::Reorg => 0,
        }
    }

    /// Non-MAC scalar operations (pooling comparisons, data reshuffles).
    pub fn scalar_ops(&self) -> u64 {
        match self.kind {
            LayerKind::MaxPool { size, .. } => {
                self.output().elements() * u64::from(size) * u64::from(size)
            }
            LayerKind::Reorg => self.input.elements(),
            _ => 0,
        }
    }

    /// Weight bytes (int8).
    pub fn weight_bytes(&self) -> Bytes {
        match self.kind {
            LayerKind::Conv {
                out_channels,
                kernel,
                ..
            } => Bytes(
                u64::from(kernel)
                    * u64::from(kernel)
                    * u64::from(self.input.c)
                    * u64::from(out_channels),
            ),
            LayerKind::FullyConnected { out_features } => {
                Bytes(self.input.elements() * u64::from(out_features))
            }
            LayerKind::MaxPool { .. } | LayerKind::Reorg => Bytes::ZERO,
        }
    }

    /// The GEMM this layer lowers to on the accelerator:
    /// `(M, N, K)` = (output pixels, output channels, reduction length).
    /// `None` for data-movement-only layers.
    pub fn gemm_dims(&self, batch: u32) -> Option<(u64, u64, u64)> {
        match self.kind {
            LayerKind::Conv { kernel, .. } => {
                let out = self.output();
                Some((
                    u64::from(out.h) * u64::from(out.w) * u64::from(batch),
                    u64::from(out.c),
                    u64::from(kernel) * u64::from(kernel) * u64::from(self.input.c),
                ))
            }
            LayerKind::FullyConnected { out_features } => Some((
                u64::from(batch),
                u64::from(out_features),
                self.input.elements(),
            )),
            LayerKind::MaxPool { .. } | LayerKind::Reorg => None,
        }
    }
}

/// A fully resolved network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDescriptor {
    /// Network name (e.g. `"YOLOv2"`).
    pub name: String,
    /// Batch size per frame (MDNet evaluates many candidate crops; single-
    /// shot detectors use 1).
    pub batch: u32,
    /// The layers, in execution order.
    pub layers: Vec<Layer>,
}

impl NetworkDescriptor {
    /// Validates the descriptor: non-empty, consistent chained shapes for
    /// layers whose input matches the previous output (explicit overrides —
    /// e.g. post-concat layers — are allowed to differ in channels only).
    pub fn validate(&self) -> Result<()> {
        if self.layers.is_empty() {
            return Err(Error::config("network has no layers"));
        }
        if self.batch == 0 {
            return Err(Error::config("batch must be positive"));
        }
        for pair in self.layers.windows(2) {
            let out = pair[0].output();
            let next_in = pair[1].input;
            // Spatial dims must chain; channels may grow via concat.
            let spatial_ok = (out.h == next_in.h && out.w == next_in.w)
                || matches!(pair[1].kind, LayerKind::FullyConnected { .. });
            if !spatial_ok {
                return Err(Error::config(format!(
                    "layer '{}' output {}x{} does not feed '{}' input {}x{}",
                    pair[0].name, out.h, out.w, pair[1].name, next_in.h, next_in.w
                )));
            }
            if next_in.c < out.c && !matches!(pair[1].kind, LayerKind::FullyConnected { .. }) {
                return Err(Error::config(format!(
                    "layer '{}' drops channels into '{}' ({} -> {})",
                    pair[0].name, pair[1].name, out.c, next_in.c
                )));
            }
        }
        Ok(())
    }

    /// Total MACs per frame (all batch elements).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum::<u64>() * u64::from(self.batch)
    }

    /// Total arithmetic operations per frame (2 ops per MAC + scalar ops).
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs()
            + self.layers.iter().map(Layer::scalar_ops).sum::<u64>() * u64::from(self.batch)
    }

    /// Giga-operations per second required to sustain `fps` (Table 2's
    /// metric).
    pub fn gops_at_fps(&self, fps: f64) -> f64 {
        self.total_ops() as f64 * fps / 1e9
    }

    /// Total weight bytes.
    pub fn weight_bytes(&self) -> Bytes {
        self.layers.iter().map(Layer::weight_bytes).sum()
    }
}

/// Incremental builder for chained networks.
#[derive(Debug, Clone)]
pub struct NetBuilder {
    name: String,
    batch: u32,
    cursor: TensorShape,
    layers: Vec<Layer>,
    conv_index: u32,
}

impl NetBuilder {
    /// Starts a network with the given input shape.
    pub fn new(name: impl Into<String>, input: TensorShape, batch: u32) -> Self {
        NetBuilder {
            name: name.into(),
            batch,
            cursor: input,
            layers: Vec::new(),
            conv_index: 0,
        }
    }

    /// Appends a convolution (named automatically `convN`).
    pub fn conv(mut self, out_channels: u32, kernel: u32, stride: u32, pad: u32) -> Self {
        self.conv_index += 1;
        let layer = Layer {
            name: format!("conv{}", self.conv_index),
            kind: LayerKind::Conv {
                out_channels,
                kernel,
                stride,
                pad,
            },
            input: self.cursor,
        };
        self.cursor = layer.output();
        self.layers.push(layer);
        self
    }

    /// Appends a 3×3 stride-1 same-padded convolution.
    pub fn conv3(self, out_channels: u32) -> Self {
        self.conv(out_channels, 3, 1, 1)
    }

    /// Appends a 1×1 convolution.
    pub fn conv1(self, out_channels: u32) -> Self {
        self.conv(out_channels, 1, 1, 0)
    }

    /// Appends a max-pool layer.
    pub fn maxpool(mut self, size: u32, stride: u32) -> Self {
        let layer = Layer {
            name: format!("pool@{}", self.layers.len()),
            kind: LayerKind::MaxPool { size, stride },
            input: self.cursor,
        };
        self.cursor = layer.output();
        self.layers.push(layer);
        self
    }

    /// Appends a fully connected layer.
    pub fn fc(mut self, out_features: u32) -> Self {
        let layer = Layer {
            name: format!("fc@{}", self.layers.len()),
            kind: LayerKind::FullyConnected { out_features },
            input: self.cursor,
        };
        self.cursor = layer.output();
        self.layers.push(layer);
        self
    }

    /// Widens the current activation's channel count (models a concat with
    /// a passthrough branch whose compute was already counted upstream).
    pub fn concat_channels(mut self, extra_channels: u32) -> Self {
        self.cursor =
            TensorShape::new(self.cursor.h, self.cursor.w, self.cursor.c + extra_channels);
        self
    }

    /// Finalizes and validates the network.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the layer chain is inconsistent.
    pub fn build(self) -> Result<NetworkDescriptor> {
        let net = NetworkDescriptor {
            name: self.name,
            batch: self.batch,
            layers: self.layers,
        };
        net.validate()?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_propagation() {
        let l = Layer {
            name: "c".into(),
            kind: LayerKind::Conv {
                out_channels: 64,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            input: TensorShape::new(416, 416, 3),
        };
        assert_eq!(l.output(), TensorShape::new(416, 416, 64));
        // MACs = 416*416*64 * 3*3*3 = 299,040,768.
        assert_eq!(l.macs(), 416 * 416 * 64 * 27);
        assert_eq!(l.weight_bytes().0, 3 * 3 * 3 * 64);
    }

    #[test]
    fn strided_conv_and_pool_shapes() {
        let c = Layer {
            name: "c".into(),
            kind: LayerKind::Conv {
                out_channels: 96,
                kernel: 7,
                stride: 2,
                pad: 0,
            },
            input: TensorShape::new(107, 107, 3),
        };
        assert_eq!(c.output(), TensorShape::new(51, 51, 96));
        let p = Layer {
            name: "p".into(),
            kind: LayerKind::MaxPool { size: 2, stride: 2 },
            input: TensorShape::new(51, 51, 96),
        };
        assert_eq!(p.output(), TensorShape::new(25, 25, 96));
        assert_eq!(p.macs(), 0);
        assert!(p.scalar_ops() > 0);
    }

    #[test]
    fn fc_flattens_input() {
        let l = Layer {
            name: "fc".into(),
            kind: LayerKind::FullyConnected { out_features: 512 },
            input: TensorShape::new(3, 3, 512),
        };
        assert_eq!(l.output(), TensorShape::new(1, 1, 512));
        assert_eq!(l.macs(), 3 * 3 * 512 * 512);
        assert_eq!(l.gemm_dims(4), Some((4, 512, 3 * 3 * 512)));
    }

    #[test]
    fn reorg_is_space_to_depth() {
        let l = Layer {
            name: "reorg".into(),
            kind: LayerKind::Reorg,
            input: TensorShape::new(26, 26, 512),
        };
        assert_eq!(l.output(), TensorShape::new(13, 13, 2048));
        assert_eq!(l.macs(), 0);
        assert_eq!(l.gemm_dims(1), None);
    }

    #[test]
    fn builder_chains_shapes() {
        let net = NetBuilder::new("toy", TensorShape::new(32, 32, 3), 1)
            .conv3(16)
            .maxpool(2, 2)
            .conv3(32)
            .fc(10)
            .build()
            .unwrap();
        assert_eq!(net.layers.len(), 4);
        assert_eq!(net.layers[2].input, TensorShape::new(16, 16, 16));
        assert_eq!(net.layers[3].input, TensorShape::new(16, 16, 32));
        assert!(net.total_macs() > 0);
        assert_eq!(
            net.total_ops(),
            2 * net.total_macs() + net.layers[1].scalar_ops()
        );
    }

    #[test]
    fn batch_multiplies_cost() {
        let mk = |batch| {
            NetBuilder::new("b", TensorShape::new(16, 16, 8), batch)
                .conv3(16)
                .build()
                .unwrap()
        };
        assert_eq!(mk(4).total_macs(), 4 * mk(1).total_macs());
        let (m4, _, _) = mk(4).layers[0].gemm_dims(4).unwrap();
        let (m1, _, _) = mk(1).layers[0].gemm_dims(1).unwrap();
        assert_eq!(m4, 4 * m1);
    }

    #[test]
    fn validation_rejects_broken_chains() {
        // Manually corrupt a chain.
        let bad = NetworkDescriptor {
            name: "bad".into(),
            batch: 1,
            layers: vec![
                Layer {
                    name: "a".into(),
                    kind: LayerKind::Conv {
                        out_channels: 8,
                        kernel: 3,
                        stride: 2,
                        pad: 1,
                    },
                    input: TensorShape::new(32, 32, 3),
                },
                Layer {
                    name: "b".into(),
                    kind: LayerKind::Conv {
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                    },
                    input: TensorShape::new(32, 32, 8), // should be 16x16
                },
            ],
        };
        assert!(bad.validate().is_err());
        let empty = NetworkDescriptor {
            name: "e".into(),
            batch: 1,
            layers: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn concat_widens_channels() {
        let net = NetBuilder::new("cat", TensorShape::new(13, 13, 1024), 1)
            .concat_channels(256)
            .conv3(1024)
            .build()
            .unwrap();
        assert_eq!(net.layers[0].input.c, 1280);
    }

    #[test]
    fn gops_metric_matches_hand_math() {
        let net = NetBuilder::new("g", TensorShape::new(16, 16, 8), 1)
            .conv3(16)
            .build()
            .unwrap();
        let ops = net.total_ops() as f64;
        assert!((net.gops_at_fps(60.0) - ops * 60.0 / 1e9).abs() < 1e-9);
    }
}

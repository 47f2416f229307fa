//! SCALE-Sim-style analytical model of the systolic-array CNN accelerator
//! (§5.1, Table 1).
//!
//! The modeled accelerator is a `rows × cols` fully pipelined MAC array
//! (Table 1: 24×24 at 1 GHz → 1.152 TOPS peak) with a double-buffered
//! local SRAM partitioned into weight/ifmap/ofmap regions (1.5 MB total),
//! fed by a multi-channel DMA. Per layer, the convolution is lowered to a
//! GEMM of dimensions `M × N × K` (output pixels × output channels ×
//! reduction) and tiled onto the array:
//!
//! * **Output-stationary**: each `R × C` output tile accumulates in place
//!   while `K` operand pairs stream through; per-tile latency is
//!   `K + R + C − 2` (fill + stream + drain), and `⌈M/R⌉·⌈N/C⌉` tiles run
//!   back to back.
//! * **Weight-stationary**: weights are pinned per `R × C` fold
//!   (`⌈K/R⌉·⌈N/C⌉` folds), each fold streaming all `M` rows.
//!
//! DRAM traffic follows SCALE-Sim's accounting with strip grouping:
//! operands that fit their SRAM partition are fetched once; otherwise the
//! scheduler holds as many `K`-deep operand strips as the partition allows
//! and refetches once per strip group (weights once per group of `M`-tile
//! rows, ifmaps once per group of `N`-tile strips). This reproduces the
//! paper's headline I-frame traffic — ~646 MB per YOLOv2 inference — from
//! first principles.
//!
//! Per-layer latency takes the max of compute time and DMA time (the
//! double-buffered SRAM overlaps them), so memory-bound layers are charged
//! their DRAM time. This is what limits baseline YOLOv2 to ~17 FPS.
//!
//! # Cross-request batching
//!
//! [`SystolicModel::analyze`] walks one inference: every layer is a
//! separate job, every tile pays its own fill + drain, and the weights
//! are streamed from DRAM once per *inference*. When `N` requests run
//! the *same* network (the serving case — many sessions, one model),
//! the scheduler can instead fold all `N` GEMMs into one: the `M`
//! dimension grows `N×` (exactly the [`NetworkDescriptor::batch`]
//! machinery, extended across requests), and
//! [`SystolicModel::analyze_batch`] charges the **weight-resident
//! walk**: all row tiles that share one weight column block run back to
//! back, so the array pays one fill + drain per weight block instead of
//! one per tile, partial `M`-tiles amortize across requests, and
//! weights travel from DRAM once per *batch*. Per-request cycles and
//! traffic are therefore strictly below the `N×` solo cost whenever any
//! layer has fill/drain overhead or a ragged `M`-tile — the
//! amortization the serving layer's batch collector charges, asserted
//! on op counts in Ablation C2 of `euphrates-bench`'s `paper` run.

use crate::layer::{LayerKind, NetworkDescriptor};
use euphrates_common::units::{Bytes, Clock, Cycles, Picos};

/// Mapping of the GEMM onto the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Outputs accumulate in place (TPU-style; Table 1 baseline).
    OutputStationary,
    /// Weights pinned in the array, activations stream.
    WeightStationary,
}

/// Static accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicConfig {
    /// MAC array rows.
    pub rows: u32,
    /// MAC array columns.
    pub cols: u32,
    /// Array clock (Table 1: 1 GHz).
    pub clock: Clock,
    /// SRAM partition for weights, bytes.
    pub weight_sram: Bytes,
    /// SRAM partition for input activations, bytes.
    pub ifmap_sram: Bytes,
    /// SRAM partition for output activations, bytes.
    pub ofmap_sram: Bytes,
    /// Dataflow.
    pub dataflow: Dataflow,
    /// Effective DRAM bandwidth available to the accelerator, bytes/s
    /// (≈70 % of the 25.6 GB/s LPDDR3 peak of Table 1).
    pub dram_bandwidth: f64,
    /// Scalar-unit lanes for pooling/activation work.
    pub scalar_lanes: u32,
}

impl SystolicConfig {
    /// The Table 1 accelerator: 24×24 @ 1 GHz, 1.5 MB unified SRAM
    /// partitioned 256 KiB weights / 512 KiB ifmap / 768 KiB ofmap (the
    /// split is a calibration choice; with it the model reproduces both
    /// the paper's ~17 FPS YOLOv2 baseline and its ~646 MB-per-inference
    /// DRAM traffic).
    pub fn table1() -> Self {
        SystolicConfig {
            rows: 24,
            cols: 24,
            clock: Clock::from_mhz(1000.0),
            weight_sram: Bytes::from_kib(256),
            ifmap_sram: Bytes::from_kib(512),
            ofmap_sram: Bytes::from_kib(768),
            dataflow: Dataflow::OutputStationary,
            dram_bandwidth: 0.7 * 25.6e9,
            scalar_lanes: 8,
        }
    }

    /// Peak throughput in operations/second (2 ops per MAC per cycle).
    pub fn peak_ops_per_sec(&self) -> f64 {
        2.0 * f64::from(self.rows) * f64::from(self.cols) * self.clock.hz()
    }
}

impl Default for SystolicConfig {
    fn default() -> Self {
        SystolicConfig::table1()
    }
}

/// Per-layer performance statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// Layer name.
    pub name: String,
    /// MACs executed (all batch elements).
    pub macs: u64,
    /// Array-busy cycles.
    pub compute_cycles: Cycles,
    /// Array utilization during compute (MACs / (cycles × array size)).
    pub utilization: f64,
    /// DRAM bytes read (weights + activations, with refetch).
    pub dram_read: Bytes,
    /// DRAM bytes written (output activations).
    pub dram_write: Bytes,
    /// Layer latency: max(compute, DMA) under double buffering.
    pub latency: Picos,
}

/// Whole-network performance statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Network name.
    pub network: String,
    /// Per-layer breakdown.
    pub per_layer: Vec<LayerStats>,
}

impl NetworkStats {
    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.per_layer.iter().map(|l| l.macs).sum()
    }

    /// Total array-busy cycles.
    pub fn total_compute_cycles(&self) -> Cycles {
        self.per_layer.iter().map(|l| l.compute_cycles).sum()
    }

    /// Total DRAM reads.
    pub fn dram_read(&self) -> Bytes {
        self.per_layer.iter().map(|l| l.dram_read).sum()
    }

    /// Total DRAM writes.
    pub fn dram_write(&self) -> Bytes {
        self.per_layer.iter().map(|l| l.dram_write).sum()
    }

    /// Total DRAM traffic (reads + writes).
    pub fn dram_total(&self) -> Bytes {
        self.dram_read() + self.dram_write()
    }

    /// End-to-end inference latency (layers run back to back).
    pub fn latency(&self) -> Picos {
        self.per_layer.iter().map(|l| l.latency).sum()
    }

    /// Sustained frames/second for back-to-back inferences.
    pub fn fps(&self) -> f64 {
        let s = self.latency().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            1.0 / s
        }
    }

    /// Average array utilization (MAC-weighted).
    pub fn mean_utilization(&self, config: &SystolicConfig) -> f64 {
        let cycles = self.total_compute_cycles().0 as f64;
        if cycles <= 0.0 {
            return 0.0;
        }
        self.total_macs() as f64 / (cycles * f64::from(config.rows) * f64::from(config.cols))
    }
}

/// The analytical accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicModel {
    config: SystolicConfig,
}

impl SystolicModel {
    /// Creates a model with the given configuration.
    pub fn new(config: SystolicConfig) -> Self {
        SystolicModel { config }
    }

    /// Analyzes a network, producing per-layer and aggregate statistics.
    pub fn analyze(&self, net: &NetworkDescriptor) -> NetworkStats {
        let per_layer = net
            .layers
            .iter()
            .map(|layer| self.analyze_layer(layer, net.batch))
            .collect();
        NetworkStats {
            network: net.name.clone(),
            per_layer,
        }
    }

    /// Analyzes `requests` same-network inferences folded into **one
    /// batched job** (see the crate docs on cross-request batching).
    ///
    /// Each layer's GEMM grows its `M` dimension by `requests` — the
    /// [`NetworkDescriptor::batch`] machinery extended across requests —
    /// and is charged the *weight-resident walk*: row tiles sharing a
    /// weight column block run back to back, so the `R + C − 2`
    /// fill/drain bubble is paid once per weight block instead of once
    /// per tile, ragged final `M`-tiles amortize across requests, and
    /// weights stream from DRAM once per batch (per strip group when
    /// they exceed their SRAM partition). Input/output activations still
    /// scale linearly — they are distinct per request.
    ///
    /// The returned stats cover the **whole batch**; divide by
    /// `requests` for per-request quantities. `requests` is clamped to
    /// at least 1. Note `analyze_batch(net, 1)` is *not* identical to
    /// [`analyze`][SystolicModel::analyze]: the per-inference walk
    /// conservatively re-fills the array on every tile, the batched
    /// scheduler pipelines tiles that share weights — the comparison the
    /// amortization ratio is defined against.
    pub fn analyze_batch(&self, net: &NetworkDescriptor, requests: u32) -> NetworkStats {
        let requests = requests.max(1);
        let per_layer = net
            .layers
            .iter()
            .map(|layer| self.analyze_layer_batched(layer, net.batch, requests))
            .collect();
        NetworkStats {
            network: net.name.clone(),
            per_layer,
        }
    }

    /// One layer of the batched walk: identical DRAM strip-grouping
    /// semantics to [`analyze_layer`][Self::analyze_layer], but tiles
    /// sharing a weight block pipeline their fill/drain.
    fn analyze_layer_batched(
        &self,
        layer: &crate::layer::Layer,
        net_batch: u32,
        requests: u32,
    ) -> LayerStats {
        let cfg = &self.config;
        let batch = net_batch.saturating_mul(requests);
        let macs = layer.macs() * u64::from(batch);
        match layer.gemm_dims(batch) {
            Some((m, n, k)) => {
                let r = u64::from(cfg.rows);
                let c = u64::from(cfg.cols);
                let m_tiles = m.div_ceil(r);
                let n_tiles = n.div_ceil(c);
                let compute_cycles = match cfg.dataflow {
                    Dataflow::OutputStationary => {
                        // Per weight block (N-tile): all M-tiles stream
                        // back to back, drain of tile i overlapping fill
                        // of tile i+1 — one fill/drain bubble per block.
                        n_tiles * (k * m_tiles + r + c - 2)
                    }
                    Dataflow::WeightStationary => {
                        // Weights pinned per fold; the whole batched M
                        // streams through each fold once.
                        let k_folds = k.div_ceil(r);
                        k_folds * n_tiles * (r + m + c - 1)
                    }
                };

                // Weights travel once per batch (or once per strip group
                // of the batched M walk). Activations stay per-request:
                // a request's ifmap rows are live only while its slice
                // of the batched M streams, so each request makes the
                // same SRAM-residency decision a solo run would — the
                // batched ifmap traffic is exactly `requests ×` solo,
                // never a refetch blow-up from summing live sets.
                let weight_bytes = k * n;
                let req_ifmap_bytes = layer.input.elements() * u64::from(net_batch);
                let ofmap_bytes = layer.output().elements() * u64::from(batch);
                let weight_reads = if weight_bytes <= cfg.weight_sram.0 {
                    weight_bytes
                } else {
                    let strips = (cfg.weight_sram.0 / (k * c)).max(1);
                    weight_bytes * m_tiles.div_ceil(strips)
                };
                let req_ifmap_reads = if req_ifmap_bytes <= cfg.ifmap_sram.0 {
                    req_ifmap_bytes
                } else {
                    let strips = (cfg.ifmap_sram.0 / (k * r)).max(1);
                    req_ifmap_bytes * n_tiles.div_ceil(strips)
                };
                let dram_read = Bytes(weight_reads + req_ifmap_reads * u64::from(requests));
                let dram_write = Bytes(ofmap_bytes);

                let compute_time = cfg.clock.to_time(Cycles(compute_cycles));
                let dma_time =
                    Picos::from_secs_f64((dram_read.0 + dram_write.0) as f64 / cfg.dram_bandwidth);
                LayerStats {
                    name: layer.name.clone(),
                    macs,
                    compute_cycles: Cycles(compute_cycles),
                    utilization: macs as f64
                        / (compute_cycles as f64 * f64::from(cfg.rows) * f64::from(cfg.cols)),
                    dram_read,
                    dram_write,
                    latency: if compute_time > dma_time {
                        compute_time
                    } else {
                        dma_time
                    },
                }
            }
            // Scalar-unit work has no array fill to amortize: the
            // batched cost is exactly the per-request cost scaled.
            None => self.analyze_layer(layer, batch),
        }
    }

    fn analyze_layer(&self, layer: &crate::layer::Layer, batch: u32) -> LayerStats {
        let cfg = &self.config;
        let macs = layer.macs() * u64::from(batch);
        match layer.gemm_dims(batch) {
            Some((m, n, k)) => {
                let r = u64::from(cfg.rows);
                let c = u64::from(cfg.cols);
                let m_tiles = m.div_ceil(r);
                let n_tiles = n.div_ceil(c);
                let compute_cycles = match cfg.dataflow {
                    Dataflow::OutputStationary => {
                        // Fill + stream K + drain, per tile.
                        m_tiles * n_tiles * (k + r + c - 2)
                    }
                    Dataflow::WeightStationary => {
                        let k_folds = k.div_ceil(r);
                        k_folds * n_tiles * (r + m + c - 1)
                    }
                };

                // DRAM traffic with SCALE-Sim refetch semantics plus strip
                // grouping (int8). A weight strip for one N-tile is K*C
                // bytes; holding `g` strips lets `g` M-tile rows pass before
                // a weight refetch, so weights stream ceil(m_tiles / g)
                // times. Symmetrically for ifmap strips of K*R bytes.
                let weight_bytes = k * n;
                let ifmap_bytes = layer.input.elements() * u64::from(batch);
                let ofmap_bytes = layer.output().elements() * u64::from(batch);
                let weight_reads = if weight_bytes <= cfg.weight_sram.0 {
                    weight_bytes
                } else {
                    let strips = (cfg.weight_sram.0 / (k * c)).max(1);
                    weight_bytes * m_tiles.div_ceil(strips)
                };
                let ifmap_reads = if ifmap_bytes <= cfg.ifmap_sram.0 {
                    ifmap_bytes
                } else {
                    let strips = (cfg.ifmap_sram.0 / (k * r)).max(1);
                    ifmap_bytes * n_tiles.div_ceil(strips)
                };
                let dram_read = Bytes(weight_reads + ifmap_reads);
                let dram_write = Bytes(ofmap_bytes);

                let compute_time = cfg.clock.to_time(Cycles(compute_cycles));
                let dma_time =
                    Picos::from_secs_f64((dram_read.0 + dram_write.0) as f64 / cfg.dram_bandwidth);
                LayerStats {
                    name: layer.name.clone(),
                    macs,
                    compute_cycles: Cycles(compute_cycles),
                    utilization: macs as f64
                        / (compute_cycles as f64 * f64::from(cfg.rows) * f64::from(cfg.cols)),
                    dram_read,
                    dram_write,
                    latency: if compute_time > dma_time {
                        compute_time
                    } else {
                        dma_time
                    },
                }
            }
            None => {
                // Pooling / reorg on the scalar unit; activations assumed to
                // stay in SRAM (fused with the producing conv).
                let ops = layer.scalar_ops() * u64::from(batch);
                let cycles = ops.div_ceil(u64::from(cfg.scalar_lanes));
                LayerStats {
                    name: layer.name.clone(),
                    macs: 0,
                    compute_cycles: Cycles(cycles),
                    utilization: 0.0,
                    dram_read: Bytes::ZERO,
                    dram_write: match layer.kind {
                        // Reorg rewrites its tensor through the frame buffer.
                        LayerKind::Reorg => Bytes(layer.output().elements() * u64::from(batch)),
                        _ => Bytes::ZERO,
                    },
                    latency: cfg.clock.to_time(Cycles(cycles)),
                }
            }
        }
    }
}

impl Default for SystolicModel {
    fn default() -> Self {
        SystolicModel::new(SystolicConfig::table1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{NetBuilder, TensorShape};
    use crate::zoo;

    #[test]
    fn peak_throughput_matches_table1() {
        // 24*24 MACs * 2 ops * 1 GHz = 1.152 TOPS.
        let cfg = SystolicConfig::table1();
        assert!((cfg.peak_ops_per_sec() - 1.152e12).abs() < 1e6);
    }

    #[test]
    fn single_tile_gemm_cycles_match_formula() {
        // A conv that lowers to exactly one 24x24 tile: M=16 (4x4 out),
        // N=24, K=9*8=72.
        let net = NetBuilder::new("t", TensorShape::new(4, 4, 8), 1)
            .conv(24, 3, 1, 1)
            .build()
            .unwrap();
        let stats = SystolicModel::default().analyze(&net);
        let l = &stats.per_layer[0];
        // One tile: K + R + C - 2 = 72 + 24 + 24 - 2 = 118 cycles.
        assert_eq!(l.compute_cycles, Cycles(118));
        assert_eq!(l.macs, 16 * 24 * 72);
    }

    #[test]
    fn tile_counts_multiply_cycles() {
        // M = 32 -> 2 M-tiles; N = 48 -> 2 N-tiles; 4 tiles total.
        let one = NetBuilder::new("a", TensorShape::new(4, 4, 8), 1)
            .conv(24, 3, 1, 1)
            .build()
            .unwrap();
        let four = NetBuilder::new("b", TensorShape::new(4, 8, 8), 1)
            .conv(48, 3, 1, 1)
            .build()
            .unwrap();
        let m = SystolicModel::default();
        let c1 = m.analyze(&one).per_layer[0].compute_cycles.0;
        let c4 = m.analyze(&four).per_layer[0].compute_cycles.0;
        assert_eq!(c4, 4 * c1);
    }

    #[test]
    fn utilization_is_bounded_and_sane() {
        let stats = SystolicModel::default().analyze(&zoo::yolov2());
        for l in &stats.per_layer {
            assert!(
                (0.0..=1.0).contains(&l.utilization),
                "{}: util {}",
                l.name,
                l.utilization
            );
        }
        let mean = stats.mean_utilization(&SystolicConfig::table1());
        assert!((0.4..0.95).contains(&mean), "mean util {mean}");
    }

    #[test]
    fn yolov2_fps_matches_paper_baseline() {
        // §6.1: baseline YOLOv2 achieves ~17 FPS on the Table 1 NNX.
        let stats = SystolicModel::default().analyze(&zoo::yolov2());
        let fps = stats.fps();
        assert!((13.0..22.0).contains(&fps), "YOLOv2 fps {fps}");
    }

    #[test]
    fn yolov2_iframe_traffic_matches_paper() {
        // §6.1: each I-frame incurs ~646 MB of memory traffic.
        let stats = SystolicModel::default().analyze(&zoo::yolov2());
        let mb = stats.dram_total().as_mib_f64();
        assert!((450.0..850.0).contains(&mb), "I-frame traffic {mb} MiB");
    }

    #[test]
    fn mdnet_sustains_60fps() {
        // §5.2/Table 2: MDNet tracking reaches 60 FPS on this accelerator.
        let stats = SystolicModel::default().analyze(&zoo::mdnet());
        assert!(stats.fps() >= 58.0, "MDNet fps {}", stats.fps());
    }

    #[test]
    fn tiny_yolo_is_faster_than_yolov2_but_only_marginally_real_time() {
        let m = SystolicModel::default();
        let ty = m.analyze(&zoo::tiny_yolo()).fps();
        let yv2 = m.analyze(&zoo::yolov2()).fps();
        assert!(ty > 1.5 * yv2, "tiny {ty} vs yolo {yv2}");
        // The paper's Fig. 9b shows Tiny YOLO just below real time; our
        // model puts it marginally above (62–67 FPS) — within modeling
        // error of the 60 FPS boundary.
        assert!(ty < 70.0, "tiny yolo fps {ty}");
    }

    #[test]
    fn bigger_array_reduces_latency() {
        let small = SystolicModel::new(SystolicConfig {
            rows: 16,
            cols: 16,
            ..SystolicConfig::table1()
        });
        let big = SystolicModel::new(SystolicConfig {
            rows: 32,
            cols: 32,
            ..SystolicConfig::table1()
        });
        let net = zoo::tiny_yolo();
        assert!(big.analyze(&net).latency() < small.analyze(&net).latency());
    }

    #[test]
    fn larger_sram_reduces_dram_traffic() {
        let small = SystolicModel::new(SystolicConfig::table1());
        let big = SystolicModel::new(SystolicConfig {
            weight_sram: Bytes::from_mib(16),
            ifmap_sram: Bytes::from_mib(16),
            ..SystolicConfig::table1()
        });
        let net = zoo::yolov2();
        let t_small = small.analyze(&net).dram_total().0;
        let t_big = big.analyze(&net).dram_total().0;
        assert!(
            t_big < t_small / 3,
            "big-SRAM traffic {t_big} vs small {t_small}"
        );
        // With everything resident, traffic approaches weights + acts once.
        let floor = net.weight_bytes().0;
        assert!(t_big >= floor);
    }

    #[test]
    fn weight_stationary_is_a_different_tradeoff() {
        let os = SystolicModel::new(SystolicConfig::table1());
        let ws = SystolicModel::new(SystolicConfig {
            dataflow: Dataflow::WeightStationary,
            ..SystolicConfig::table1()
        });
        let net = zoo::tiny_yolo();
        let c_os = os.analyze(&net).total_compute_cycles().0;
        let c_ws = ws.analyze(&net).total_compute_cycles().0;
        assert_ne!(c_os, c_ws);
        // Both within 10x of each other (sanity).
        let ratio = c_os.max(c_ws) as f64 / c_os.min(c_ws) as f64;
        assert!(ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn pool_layers_cost_scalar_cycles_not_macs() {
        let net = NetBuilder::new("p", TensorShape::new(8, 8, 4), 1)
            .maxpool(2, 2)
            .build()
            .unwrap();
        let stats = SystolicModel::default().analyze(&net);
        let l = &stats.per_layer[0];
        assert_eq!(l.macs, 0);
        assert!(l.compute_cycles.0 > 0);
        assert_eq!(l.dram_read, Bytes::ZERO);
    }

    #[test]
    fn empty_latency_yields_zero_fps() {
        let stats = NetworkStats {
            network: "none".into(),
            per_layer: vec![],
        };
        assert_eq!(stats.fps(), 0.0);
    }

    // -- cross-request batching ---------------------------------------------

    #[test]
    fn batched_cycles_amortize_below_n_times_solo() {
        // The tentpole invariant: a B-request batch costs strictly fewer
        // array cycles than B solo inferences, for the networks the
        // server actually runs, under both dataflows.
        for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
            let model = SystolicModel::new(SystolicConfig {
                dataflow,
                ..SystolicConfig::table1()
            });
            for net in [zoo::mdnet(), zoo::yolov2(), zoo::tiny_yolo()] {
                let solo = model.analyze(&net).total_compute_cycles().0;
                for b in [2u32, 4, 8, 16] {
                    let batched = model.analyze_batch(&net, b).total_compute_cycles().0;
                    assert!(
                        batched < u64::from(b) * solo,
                        "{} B={b} {dataflow:?}: batched {batched} !< {}",
                        net.name,
                        u64::from(b) * solo
                    );
                }
            }
        }
    }

    #[test]
    fn batched_macs_and_activation_traffic_scale_exactly() {
        // Amortization never drops work: MACs and output writes are
        // exactly B× (every request computes its own activations).
        let model = SystolicModel::default();
        let net = zoo::mdnet();
        let solo = model.analyze_batch(&net, 1);
        for b in [2u32, 5, 8] {
            let batched = model.analyze_batch(&net, b);
            assert_eq!(batched.total_macs(), u64::from(b) * solo.total_macs());
            assert_eq!(batched.dram_write().0, u64::from(b) * solo.dram_write().0);
        }
    }

    #[test]
    fn batched_weight_traffic_is_shared_across_requests() {
        // Weight bytes stream once per batch (or strip group), so the
        // batched read traffic sits strictly below B× the solo reads.
        let model = SystolicModel::default();
        for net in [zoo::mdnet(), zoo::yolov2()] {
            let solo = model.analyze(&net).dram_read().0;
            for b in [4u32, 16] {
                let batched = model.analyze_batch(&net, b).dram_read().0;
                assert!(
                    batched < u64::from(b) * solo,
                    "{} B={b}: reads {batched} !< {}",
                    net.name,
                    u64::from(b) * solo
                );
            }
        }
    }

    #[test]
    fn per_request_cycles_never_exceed_the_single_request_walk() {
        // Batching can be ragged (ceil effects make adjacent batch
        // sizes wobble), but it never makes a request more expensive
        // than running alone: cycles(B)/B ≤ cycles(1), checked as
        // cycles(B) ≤ B·cycles(1) in integers to avoid float fuzz.
        let model = SystolicModel::default();
        for net in [zoo::mdnet(), zoo::yolov2(), zoo::tiny_yolo()] {
            let one = model.analyze_batch(&net, 1).total_compute_cycles().0;
            for b in 2u32..=32 {
                let cycles = model.analyze_batch(&net, b).total_compute_cycles().0;
                assert!(
                    u128::from(cycles) <= u128::from(b) * u128::from(one),
                    "{} B={b}: per-request cycles exceed solo walk",
                    net.name
                );
            }
        }
    }

    #[test]
    fn batch_of_zero_clamps_to_one() {
        let model = SystolicModel::default();
        let net = zoo::tiny_yolo();
        assert_eq!(model.analyze_batch(&net, 0), model.analyze_batch(&net, 1));
    }

    #[test]
    fn batched_utilization_stays_bounded() {
        let model = SystolicModel::default();
        for b in [1u32, 3, 17] {
            let stats = model.analyze_batch(&zoo::yolov2(), b);
            for l in &stats.per_layer {
                assert!(
                    (0.0..=1.0).contains(&l.utilization),
                    "B={b} {}: util {}",
                    l.name,
                    l.utilization
                );
            }
        }
    }
}

//! Table 1 — the modeled vision SoC, plus the calibration checkpoints the
//! paper quotes for each IP (§5.1).

use euphrates_common::image::Resolution;
use euphrates_common::table::Table;
use euphrates_common::units::{Bytes, MilliWatts, Picos};
use euphrates_mc::McConfig;
use euphrates_nn::NnxConfig;
use euphrates_soc::{DramConfig, EnergyModel, IpBlock, SchemeParams, SocConfig};

fn main() {
    println!("== Table 1: modeled vision SoC ==\n{}", SocConfig::table1());

    let mut table =
        Table::new(["quantity", "paper", "model"]).with_title("Calibration checkpoints (§5.1)");
    let nnx = NnxConfig::default();
    table.row([
        "NNX peak throughput".to_string(),
        "1.152 TOPS".to_string(),
        format!("{:.3} TOPS", nnx.systolic.peak_ops_per_sec() / 1e12),
    ]);
    table.row([
        "NNX power efficiency".to_string(),
        "1.77 TOPS/W".to_string(),
        format!("{:.2} TOPS/W", nnx.tops_per_watt()),
    ]);
    // The ISP's share of the frontend ledger over one capture period, as
    // every figure charges it (frontend power is scheme-invariant).
    let model = EnergyModel::default();
    let frame = SchemeParams::baseline(Picos::ZERO, Bytes::ZERO, Bytes::ZERO);
    let isp = model.evaluate(&frame, 0).expect("window 1 is valid");
    table.row([
        "ISP power @1080p60".to_string(),
        "153+2.5% ME=156.8 mW".to_string(),
        format!(
            "{}",
            MilliWatts(isp.ledger.of(IpBlock::Isp).0 * model.config().capture_fps)
        ),
    ]);
    let mc = McConfig::default();
    table.row([
        "MC power".to_string(),
        "2.2 mW".to_string(),
        format!("{}", mc.active_power),
    ]);
    table.row([
        "MC area".to_string(),
        "35,000 um2".to_string(),
        format!("{:.0} um2", mc.area_mm2 * 1e6),
    ]);
    table.row([
        "MC SRAM vs 1080p/16 MVs".to_string(),
        "8 KB holds one frame".to_string(),
        format!(
            "{} needed of {}",
            McConfig::packed_mv_bytes(Resolution::FULL_HD, 16),
            mc.sram
        ),
    ]);
    let dram = DramConfig::default();
    table.row([
        "DRAM power @1080p60 streaming".to_string(),
        "~230 mW".to_string(),
        format!("{}", dram.average_power(11.4e6 * 60.0)),
    ]);
    println!("{table}");
}

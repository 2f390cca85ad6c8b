//! The model and frames every workload is built from. The model is fixed
//! by the benchmark; the frames and the arrival schedule come from the
//! workload seed.

use skynet_core::detector::Detector;
use skynet_core::head::{Anchors, Detection};
use skynet_core::replica::DetectorBlueprint;
use skynet_core::skynet::{SkyNetConfig, Variant};
use skynet_core::Sample;
use skynet_data::dacsdc::{DacSdc, DacSdcConfig};
use skynet_nn::Act;

/// The paper's DAC-SDC input size (§6.1).
pub const FRAME_H: usize = 160;
pub const FRAME_W: usize = 320;

/// SkyNet model C at a width divisor of 8, the scale the repository's
/// detection experiments train at.
const WIDTH_DIVISOR: usize = 8;
/// Weight seed of the benchmark model (fixed, so only inputs vary with
/// the workload seed).
const MODEL_SEED: u64 = 2020;

pub fn blueprint() -> DetectorBlueprint {
    DetectorBlueprint::from_seed(
        SkyNetConfig::new(Variant::C, Act::Relu6).with_width_divisor(WIDTH_DIVISOR),
        Anchors::dac_sdc(),
        MODEL_SEED,
    )
}

pub fn spawn(bp: &DetectorBlueprint) -> Result<Detector, String> {
    bp.spawn().map_err(|e| format!("spawning a detector: {e}"))
}

/// `n` synthetic DAC-SDC frames of `h×w` drawn from `seed`.
pub fn frames(seed: u64, n: usize, h: usize, w: usize) -> Vec<Sample> {
    let cfg = DacSdcConfig {
        height: h,
        width: w,
        seed,
        ..DacSdcConfig::default()
    };
    DacSdc::new(cfg.trainable()).generate(n)
}

/// Bitwise equality of two detections.
pub fn same_detection(a: &Detection, b: &Detection) -> bool {
    let bits =
        |d: &Detection| [d.bbox.cx, d.bbox.cy, d.bbox.w, d.bbox.h, d.confidence].map(f32::to_bits);
    bits(a) == bits(b)
}

/// CRC-32 of a tensor's f32 bit patterns, with the lowest bit of the
/// first value flipped when `corrupt` is set (the self-test's way of
/// proving a gate can fail).
pub fn crc(values: &[f32], corrupt: bool) -> u32 {
    let mut bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    if corrupt {
        if let Some(b) = bytes.first_mut() {
            *b ^= 1;
        }
    }
    skynet_tensor::crc32::crc32(&bytes)
}

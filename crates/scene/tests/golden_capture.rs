//! Golden capture digest for a composed multi-transmitter scene: FNV-1a-64
//! over the stored bytes of a settled two-transmitter capture with guard
//! columns and optical bleed, pinned as a constant.
//!
//! The scene equivalence tests compare the renderer with itself; this digest
//! pins the bytes, so a change to the per-(row, region) sampling, the
//! per-region blur or the photosite loop cannot pass unnoticed. The f64 path
//! is set explicitly so `COLORBARS_CAPTURE_F32` cannot flip it.

use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Frame};
use colorbars_channel::{AmbientLight, OpticalChannel};
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
use colorbars_scene::{Scene, SceneLayout, SceneTransmitter};

/// FNV-1a-64 over every stored pixel byte of `frames`, row-major.
fn digest(frames: &[Frame]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for frame in frames {
        for row in frame.rows() {
            for byte in row.iter().flatten() {
                h ^= u64::from(*byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// A 3 kHz schedule cycling through `drives`, one second long.
fn emitter(drives: &[DriveLevels]) -> LedEmitter {
    let schedule: Vec<ScheduledColor> = (0..3000)
        .map(|k| ScheduledColor {
            drive: drives[k % drives.len()],
            duration: 1.0 / 3000.0,
        })
        .collect();
    LedEmitter::new(TriLed::typical(), 200_000.0, &schedule)
}

fn two_tx_scene() -> Scene {
    let txs = vec![
        SceneTransmitter {
            emitter: emitter(&[
                DriveLevels::new(0.30, 0.05, 0.05),
                DriveLevels::new(0.05, 0.30, 0.05),
                DriveLevels::new(0.05, 0.05, 0.30),
            ]),
            channel: OpticalChannel::paper_setup(),
        },
        SceneTransmitter {
            emitter: emitter(&[
                DriveLevels::new(0.20, 0.20, 0.02),
                DriveLevels::new(0.02, 0.20, 0.20),
            ]),
            channel: OpticalChannel::paper_setup(),
        },
    ];
    // Odd span and guard widths put region boundaries on odd columns.
    let layout = SceneLayout {
        cols_per_tx: 11,
        guard_cols: 3,
        bleed: 0.15,
    };
    Scene::compose(txs, layout, AmbientLight::dim_indoor()).unwrap()
}

#[test]
fn two_transmitter_scene_capture_matches_golden_digest() {
    let scene = two_tx_scene();
    let mut device = DeviceProfile::nexus5();
    device.rows = 640;
    for threads in [1, 3] {
        let cfg = CaptureConfig {
            roi_width: scene.width(),
            seed: 0x5CE_4E01,
            threads,
            lane_f32: false,
            ..Default::default()
        };
        let mut rig = CameraRig::new(device.clone(), OpticalChannel::paper_setup(), cfg);
        rig.settle_exposure_scene(&scene, 6);
        let frames = rig.capture_video_scene(&scene, 0.25, 3);
        let luma = frames[0].mean_luma();
        assert!((0.1..0.9).contains(&luma), "unsettled capture: luma {luma}");
        let got = digest(&frames);
        assert_eq!(
            got, 0xa3d0_48db_20fe_a88b,
            "scene capture digest moved at threads={threads}: got {got:#018x}"
        );
    }
}

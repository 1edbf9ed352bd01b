//! Golden capture digests: FNV-1a-64 over the stored bytes of a settled
//! Nexus 5 video, pinned as constants.
//!
//! The thread-count and scene-equivalence tests compare two captures with
//! each other, so they cannot see a change that moves every capture the same
//! way. These digests can: any byte the renderer stores differently — at
//! either precision, with or without 4:2:0 chroma subsampling — changes the
//! hash. `lane_f32` is set explicitly so `COLORBARS_CAPTURE_F32` cannot flip
//! the path under test.

use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, Frame};
use colorbars_channel::OpticalChannel;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};

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

/// A 3 kHz schedule cycling through four distinct drives, long enough for
/// auto-exposure settling plus the recorded frames.
fn banded_emitter() -> LedEmitter {
    let drives = [
        DriveLevels::new(0.30, 0.05, 0.05),
        DriveLevels::new(0.05, 0.30, 0.05),
        DriveLevels::new(0.05, 0.05, 0.30),
        DriveLevels::new(0.15, 0.15, 0.15),
    ];
    let schedule: Vec<ScheduledColor> = (0..3000)
        .map(|k| ScheduledColor {
            drive: drives[k % drives.len()],
            duration: 1.0 / 3000.0,
        })
        .collect();
    LedEmitter::new(TriLed::typical(), 200_000.0, &schedule)
}

/// Settle auto-exposure, then capture three frames.
fn nexus5_video(threads: usize, lane_f32: bool, chroma_subsample: bool) -> Vec<Frame> {
    let cfg = CaptureConfig {
        seed: 0x5EED_0C01,
        threads,
        lane_f32,
        chroma_subsample,
        ..Default::default()
    };
    let e = banded_emitter();
    let mut rig = CameraRig::new(DeviceProfile::nexus5(), OpticalChannel::paper_setup(), cfg);
    rig.settle_exposure(&e, 6);
    rig.capture_video(&e, 0.25, 3)
}

fn assert_digest(lane_f32: bool, chroma_subsample: bool, want: u64) {
    for threads in [1, 3] {
        let frames = nexus5_video(threads, lane_f32, chroma_subsample);
        let luma = frames[0].mean_luma();
        assert!((0.1..0.9).contains(&luma), "unsettled capture: luma {luma}");
        let got = digest(&frames);
        assert_eq!(
            got, want,
            "capture digest moved (lane_f32={lane_f32}, chroma_subsample={chroma_subsample}, \
             threads={threads}): got {got:#018x}"
        );
    }
}

#[test]
fn nexus5_f64_capture_matches_golden_digest() {
    assert_digest(false, false, 0x428c_d69a_0684_8f93);
}

#[test]
fn nexus5_f32_capture_matches_golden_digest() {
    assert_digest(true, false, 0x395f_26f6_f325_9b61);
}

#[test]
fn nexus5_chroma_subsampled_capture_matches_golden_digest() {
    assert_digest(false, true, 0x5c42_3690_30bb_e199);
}

//! The benchmark's workloads and the frame corpus each one decodes.
//!
//! A corpus is generated from the workload seed alone: the seed picks the
//! random payloads and the capture seeds (sensor noise and the camera's
//! clock phase against the transmitter). The program only ever sees the
//! captured frames.
//!
//! Where the inter-frame gap falls inside each packet is fixed by the
//! capture phase, and it decides most of the packet loss: one clip per
//! seed loses anywhere from a quarter to nearly half of its packets on the
//! same link, and even four phases offset together by the seed leave a
//! 15 % spread in goodput between seeds. So a corpus is
//! [`Workload::clips`] clips captured at fixed phases spread evenly over
//! the frame period; the seed picks the payloads and the sensor noise, and
//! moves each phase by less than [`PHASE_TOLERANCE`] of a period.

use crate::refkernel::RefKernel;
use colorbars_camera::{CaptureConfig, DeviceProfile};
use colorbars_channel::OpticalChannel;
use colorbars_core::{
    start_phase, CapturedRun, CskOrder, EqualizerKind, LinkConfig, LinkSimulator,
};
use std::time::Instant;

/// Airtime of each clip's payload, seconds.
const CLIP_AIRTIME_S: f64 = 1.6;
/// Symbol rate of every workload, Hz: the paper's 3 kHz operating point.
const SYMBOL_RATE: f64 = 3000.0;
/// How close a clip's phase must come to its target, as a share of the
/// frame period.
const PHASE_TOLERANCE: f64 = 1.0 / 256.0;
/// Arithmetic-kernel calls timed before and after each clip's set-up: the
/// normaliser of [`SetupTime::rel`].
const SETUP_REF_CALLS: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Phone profile doing the capture.
    pub device: fn() -> DeviceProfile,
    /// CSK order of the link.
    pub order: CskOrder,
    /// Cross-packet interleave depth (`None`: per-packet RS framing).
    pub fec_depth: Option<usize>,
    /// Demodulation classifier.
    pub equalizer: EqualizerKind,
    /// Clips per corpus, at evenly spread capture phases. With
    /// interleaved FEC, four phases left an 11 % spread in packet loss
    /// between seeds and eight about 3 %.
    pub clips: usize,
    /// Feed the frames open-loop through `LinkSession`s at
    /// [`crate::measure::STREAM_FPS`]; otherwise decode in batch through
    /// one `Receiver` per clip.
    pub streamed: bool,
}

/// Every workload the benchmark can run.
///
/// * `n5_csk8`: the paper's headline point on its tallest frame (Nexus 5,
///   3264 rows). Row reduction and its Lab memo dominate; the equalizer
///   and interleaved FEC are bypassed.
/// * `n5_csk8_fec2_ridge`: the `n5_csk8` link with the ridge equalizer and
///   cross-packet interleave depth 2, so per-band equalization,
///   calibration retraining and group FEC are in the loop.
/// * `i5s_csk16_fec8_ridge`: the other paper phone (1920 rows) at 16-CSK,
///   interleave depth 8 (the interleaved-FEC best-uplift point) and the
///   ridge equalizer. On every seed tried, its receiver delivers chunks
///   that were never sent (Reed–Solomon miscorrections, which no checksum
///   catches), so its runs fail the output checks. So do deeper
///   interleaves than 2 on either phone, and depth 2 on the iPhone 5S, on
///   some seeds; `BENCHMARK.json` lists `n5_csk8_fec2_ridge` instead. This
///   workload stays runnable by name, so the failure can be seen.
/// * `n5_csk8_stream`: the `n5_csk8` frames fed open-loop through one
///   `LinkSession` per clip with a live registry that is scraped once a
///   second — the session queue, worker handoff and telemetry path.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "n5_csk8",
        device: DeviceProfile::nexus5,
        order: CskOrder::Csk8,
        fec_depth: None,
        equalizer: EqualizerKind::NearestNeighbor,
        clips: 4,
        streamed: false,
    },
    Workload {
        name: "n5_csk8_fec2_ridge",
        device: DeviceProfile::nexus5,
        order: CskOrder::Csk8,
        fec_depth: Some(2),
        equalizer: EqualizerKind::Ridge,
        clips: 8,
        streamed: false,
    },
    Workload {
        name: "i5s_csk16_fec8_ridge",
        device: DeviceProfile::iphone5s,
        order: CskOrder::Csk16,
        fec_depth: Some(8),
        equalizer: EqualizerKind::Ridge,
        clips: 4,
        streamed: false,
    },
    Workload {
        name: "n5_csk8_stream",
        device: DeviceProfile::nexus5,
        order: CskOrder::Csk8,
        fec_depth: None,
        equalizer: EqualizerKind::NearestNeighbor,
        clips: 4,
        streamed: true,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One captured clip with everything needed to decode and score it.
pub struct Clip {
    /// The simulator the clip came from (receiver factory and scorer).
    pub sim: LinkSimulator,
    /// The capture seed (sensor noise and clock phase).
    pub capture_seed: u64,
    /// The transmitted payload.
    pub payload: Vec<u8>,
    /// The captured frames plus the transmission's ground truth.
    pub run: CapturedRun,
}

/// The clips of one workload at one seed.
pub struct Corpus {
    /// [`Workload::clips`] clips in phase order.
    pub clips: Vec<Clip>,
}

impl Corpus {
    /// Every frame of every clip, in decode order.
    pub fn frames(&self) -> impl Iterator<Item = &colorbars_camera::Frame> {
        self.clips.iter().flat_map(|c| c.run.frames.iter())
    }

    /// Frames in the corpus.
    pub fn frame_count(&self) -> usize {
        self.clips.iter().map(|c| c.run.frames.len()).sum()
    }
}

/// The capture settings of every clip: single-threaded, on the bit-exact
/// reference arithmetic whatever the environment says.
pub fn capture_config(seed: u64) -> CaptureConfig {
    CaptureConfig {
        seed,
        threads: 1,
        lane_f32: false,
        ..CaptureConfig::default()
    }
}

/// splitmix64: the seed-derivation hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capture seeds derived from `seed` whose phases (as the simulator
/// derives them) sit within [`PHASE_TOLERANCE`] of `(j + 0.5) / clips` of
/// the frame period.
fn clip_seeds(seed: u64, clips: usize, frame_period: f64) -> Vec<u64> {
    (0..clips)
        .map(|j| {
            let target = (j as f64 + 0.5) / clips as f64;
            (0u64..)
                .map(|k| mix(seed ^ mix((j as u64) << 32 | k)))
                .find(|&s| {
                    let d = (start_phase(s, frame_period) / frame_period - target).abs();
                    d.min(1.0 - d) < PHASE_TOLERANCE
                })
                .expect("an unbounded search over a uniform hash finds a phase")
        })
        .collect()
}

impl Workload {
    /// The simulator for this workload's link at capture seed `seed`.
    fn simulator(&self, seed: u64) -> Result<LinkSimulator, String> {
        let device = (self.device)();
        let mut config = LinkConfig::paper_default(self.order, SYMBOL_RATE, device.loss_ratio())
            .with_equalizer(self.equalizer);
        if let Some(depth) = self.fec_depth {
            config = config.with_fec(depth);
        }
        LinkSimulator::new(
            config,
            device,
            OpticalChannel::paper_setup(),
            capture_config(seed),
        )
        .map_err(|e| format!("{}: simulator: {e}", self.name))
    }

    /// Build the simulators, settle exposure and capture every clip: the
    /// benchmark's set-up. The arithmetic kernel runs before and after
    /// each clip and is left out of the set-up time.
    pub fn setup(&self, seed: u64, kernel: &RefKernel) -> Result<(Corpus, SetupTime), String> {
        let t = Instant::now();
        let period = (self.device)().frame_period();
        let seeds = clip_seeds(seed, self.clips, period);
        let (mut setup_s, mut ref_s) = (t.elapsed().as_secs_f64(), 0.0);
        let mut clips = Vec::with_capacity(self.clips);
        for capture_seed in seeds {
            ref_s += (0..SETUP_REF_CALLS).map(|_| kernel.arith_s()).sum::<f64>();
            let t = Instant::now();
            let sim = self.simulator(capture_seed)?;
            let payload = sim
                .random_payload(CLIP_AIRTIME_S, mix(capture_seed))
                .map_err(|e| format!("{}: payload: {e}", self.name))?;
            let run = sim
                .prepare_data(&payload)
                .map_err(|e| format!("{}: capture: {e}", self.name))?;
            setup_s += t.elapsed().as_secs_f64();
            ref_s += (0..SETUP_REF_CALLS).map(|_| kernel.arith_s()).sum::<f64>();
            clips.push(Clip {
                sim,
                capture_seed,
                payload,
                run,
            });
        }
        let time = SetupTime {
            s: setup_s,
            rel: setup_s / (ref_s / (2 * SETUP_REF_CALLS * self.clips) as f64),
        };
        Ok((Corpus { clips }, time))
    }
}

/// How long one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Wall time, seconds.
    pub s: f64,
    /// Wall time ÷ the mean arithmetic-kernel call timed beside it.
    pub rel: f64,
}

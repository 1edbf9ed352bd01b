//! Fixed reference kernels the decode and capture timings are divided by.
//!
//! On a shared host the same decode can run a third slower from one run to
//! the next, and thread CPU time tracks wall time, so neither helps. Each
//! kernel below does a fixed amount of work of the same kind as the code
//! it normalises and runs beside it, between the decoded or captured
//! frames, so a slow spell stretches both sides of the ratio:
//!
//! * the frame kernel, like one whole frame's row reduction: a Nexus 5
//!   frame's worth of byte pixels through a memo with the receiver's slot
//!   count, recomputing a cube-root conversion on each miss. It runs before
//!   each batch-decoded frame, and is the work of the reference worker the
//!   streamed latencies are divided by (see `measure`). Its working set is
//!   the decoder's, so a neighbour that takes the shared cache slows both
//!   alike; one that fits in L2 does not. Over the same batch passes of
//!   six runs, the decode time's ratio to an L2-sized lookup kernel spread
//!   2.6 % between runs, its ratio to this one 0.5 %;
//! * the arithmetic kernel, like the sensor simulation: Box–Muller noise
//!   (`ln`, `sqrt`, `sin_cos`) and a threshold search per sample. It runs
//!   before each captured frame and before each clip of a set-up, which is
//!   mostly capture.
//!
//! They live here, in the benchmark, so that no change to the program can
//! make them faster.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Noise samples per arithmetic call.
const SAMPLES: usize = 12 * 1024;
/// Thresholds searched per sample, like an 8-bit quantizer's.
const LEVELS: usize = 255;

/// Pixels per frame-kernel call: one 3264-row, 24-column frame.
const FRAME_PIXELS: usize = 3264 * 24;
/// Distinct byte triples in the frame kernel's pixels, about as many as a
/// captured frame holds.
const FRAME_COLORS: usize = 40_000;
/// Memo slots of the frame kernel (a power of two): the receiver's 2¹⁵,
/// about 0.9 MiB of keys and `f64` triples.
const MEMO_SLOTS: usize = 1 << 15;

/// A fixed generator for the kernels' inputs.
fn lcg(mut state: u64) -> impl FnMut() -> u32 {
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    }
}

/// The frame and arithmetic kernels, for use on one thread.
pub struct RefKernel {
    frame: RefCell<FrameKernel>,
    thresholds: Vec<f64>,
}

impl RefKernel {
    /// Build the kernels' inputs from a fixed generator (never the
    /// workload seed: the kernels' work must not depend on the workload).
    pub fn new() -> RefKernel {
        let thresholds = (0..LEVELS)
            .map(|i| ((i as f64 + 0.5) / LEVELS as f64).powf(2.4))
            .collect();
        RefKernel {
            frame: RefCell::new(FrameKernel::new()),
            thresholds,
        }
    }

    fn arith(&self) -> f64 {
        let mut state = black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        let mut acc = 0.0f64;
        let mut codes = 0usize;
        for _ in 0..SAMPLES {
            let radius = (-2.0 * uniform().ln()).sqrt();
            let (sin, cos) = (2.0 * std::f64::consts::PI * uniform()).sin_cos();
            let signal = (0.5 + 0.05 * radius * cos).clamp(0.0, 1.0);
            acc += radius * sin;
            codes += self.thresholds.partition_point(|&t| t < signal);
        }
        acc + codes as f64
    }

    /// Time one call of the frame kernel (the decode side), seconds.
    pub fn frame_s(&self) -> f64 {
        self.frame.borrow_mut().frame_s()
    }

    /// Time one call of the arithmetic kernel (the capture side), seconds.
    pub fn arith_s(&self) -> f64 {
        let t = Instant::now();
        black_box(self.arith());
        t.elapsed().as_secs_f64()
    }
}

/// The frame kernel's fixed inputs and its memo, which carries over from
/// one call to the next as the receiver's does from frame to frame.
pub struct FrameKernel {
    pixels: Vec<[u8; 3]>,
    /// Per-channel byte → linear value.
    linear: [f64; 256],
    /// Occupied slots hold `key + 1` (so 0 means empty).
    keys: Vec<u32>,
    values: Vec<[f64; 3]>,
}

impl FrameKernel {
    /// Build the kernel's inputs from a fixed generator and an empty memo.
    pub fn new() -> FrameKernel {
        let mut next = lcg(0xFEDC_BA98_7654_3210);
        let colors: Vec<[u8; 3]> = (0..FRAME_COLORS)
            .map(|_| {
                let v = next();
                [v as u8, (v >> 8) as u8, (v >> 16) as u8]
            })
            .collect();
        let pixels = (0..FRAME_PIXELS)
            .map(|_| colors[next() as usize % FRAME_COLORS])
            .collect();
        let mut linear = [0.0; 256];
        for (i, l) in linear.iter_mut().enumerate() {
            *l = (i as f64 / 255.0).powf(2.4);
        }
        FrameKernel {
            pixels,
            linear,
            keys: vec![0; MEMO_SLOTS],
            values: vec![[0.0; 3]; MEMO_SLOTS],
        }
    }

    fn frame(&mut self) -> f64 {
        let pixels = black_box(&self.pixels);
        let (mut l, mut a, mut b) = (0.0f64, 0.0f64, 0.0f64);
        for px in pixels.iter() {
            let key = u32::from_be_bytes([0, px[0], px[1], px[2]]) + 1;
            let slot = (key.wrapping_mul(2_654_435_761) >> 17) as usize;
            let v = if self.keys[slot] == key {
                self.values[slot]
            } else {
                let [r, g, bl] = px.map(|c| self.linear[usize::from(c)]);
                let x = (0.41 * r + 0.36 * g + 0.18 * bl).cbrt();
                let y = (0.21 * r + 0.72 * g + 0.07 * bl).cbrt();
                let z = (0.02 * r + 0.12 * g + 0.95 * bl).cbrt();
                let v = [116.0 * y - 16.0, 500.0 * (x - y), 200.0 * (y - z)];
                self.keys[slot] = key;
                self.values[slot] = v;
                v
            };
            l += v[0];
            a += v[1];
            b += v[2];
        }
        l + a * 1e-3 + b * 1e-6
    }

    /// Time one call of the frame kernel, seconds.
    pub fn frame_s(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.frame());
        t.elapsed().as_secs_f64()
    }
}

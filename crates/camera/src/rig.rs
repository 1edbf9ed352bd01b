//! The rolling-shutter capture loop: LED → channel → sensor → frame.
//!
//! This is where the paper's Fig 1(a)/2(a) mechanics live. Each frame:
//!
//! 1. Rows begin exposing at staggered times `start + r·row_time` and each
//!    integrates the channel's light over its own exposure window — the
//!    rolling shutter. Symbols spanning several rows appear as color bands.
//! 2. Rows are convolved with the channel's PSF (band-edge mixing → ISI).
//! 3. Each photosite samples one Bayer channel with shot/read noise and ISO
//!    gain, the plane is demosaiced, the device's (imperfect) color
//!    transform maps to linear sRGB, gamma encoding and 8-bit quantization
//!    produce the stored frame.
//! 4. The next frame starts one frame period later; rows stop `readout`
//!    into the period, so symbols emitted in the remaining *inter-frame
//!    gap* are never captured — the loss the paper's RS coding recovers.
//!
//! A narrow region of interest (ROI) of columns is simulated rather than
//! the full sensor width: the LED fills the frame uniformly up to
//! vignetting, so extra columns add cost but no information. The ROI width
//! is configurable; receivers average across it exactly as the paper's app
//! averages across the full width.
//!
//! ## One capture kernel
//!
//! Every frame — one emitter filling the ROI, or several transmitters
//! sharing the sensor — renders through the same body. The rig sees the
//! world as a [`SceneRadiance`]: a column-partitioned set of radiance
//! regions. [`CameraRig::capture_frame`], [`CameraRig::capture_video`] and
//! [`CameraRig::settle_exposure`] wrap their emitter in a one-region
//! [`UniformScene`] and call the scene entry points, so the single-emitter
//! link is the scene kernel's one-region case rather than a second
//! renderer. Irradiance is integrated per (row, region) and blurred with
//! each region's PSF; the photosite loop walks the row's *column runs*
//! (contiguous columns sharing a region) and applies the device color
//! transform once per (row, run). A one-region scene has one run per row,
//! which is exactly the per-row transform of a uniform emitter.
//!
//! The kernel is built for speed without changing a single stored byte:
//!
//! * **Row parallelism.** Rows are independent under the rolling shutter;
//!   [`CaptureConfig::threads`] spreads both the irradiance integration and
//!   the photosite loop across scoped worker threads. Sensor noise comes
//!   from *per-row counter-derived RNG streams* (seeded by a splitmix64 mix
//!   of `(seed, frame_index, row)`), so the output is bit-identical for
//!   every thread count and every spatial layout — determinism is a
//!   function of the seed, not the schedule.
//! * **Hoisted per-pixel constants.** The radial vignetting factor
//!   decomposes into cached row + column profiles
//!   ([`Vignette::profiles`]), and gamma encoding uses the exact
//!   threshold-table quantizer ([`SrgbQuantizer`]) instead of a `powf` per
//!   channel per pixel.
//! * **One noise draw per photosite, filled in lanes.** Shot and read
//!   noise combine into a single Gaussian with `σ = sqrt(electrons +
//!   read²)` ([`crate::sensor::SensorModel::expose_with_noise`]), and the
//!   photosite loop consumes normals from even-width lane chunks filled by
//!   [`fill_normals`] — the RNG never appears inside the per-pixel loop,
//!   lane chunks are independent of where run boundaries fall, and the
//!   draw order (pairs in sequence, odd row tail discards the sine branch)
//!   is exactly the scalar spare-keeping order.
//! * **Zero allocations at steady state.** Raw planes, per-region
//!   row-irradiance scratch and the stored pixel buffer all cycle through a
//!   [`FramePool`], and the column-run map keeps its capacity in the rig;
//!   a captured [`Frame`] returns its pixels to the pool on drop, so a
//!   warmed-up capture→decode pipeline performs no per-frame heap
//!   allocation for single-emitter and multi-transmitter scenes alike (the
//!   gateway smoke run asserts zero pool misses).
//! * **One precision switch.** [`CaptureConfig::lane_f32`] (env
//!   `COLORBARS_CAPTURE_F32`) selects the photosite arithmetic and the
//!   demosaic/encode call, nothing else: polynomial Box–Muller kernels
//!   ([`fill_normals_f32`]), folded exposure constants and an f32 demosaic
//!   roughly halve capture cost. It is *tolerance*-gated (each lane tracks
//!   the f64 normal at the same stream position; SER/goodput sit inside
//!   the obs-diff noise bands), not bit-gated — byte-exact baselines keep
//!   the default f64 path.

use crate::bayer::{demosaic_bilinear_f32_with, demosaic_bilinear_with, CfaChannel};
use crate::device::DeviceProfile;
use crate::exposure::AutoExposure;
use crate::frame::{Frame, FrameMeta};
use crate::pool::FramePool;
use crate::scene::{SceneRadiance, UniformScene};
use crate::sensor::{fill_normals, fill_normals_f32};
use crate::vignette::Vignette;
use colorbars_channel::OpticalChannel;
use colorbars_color::{LinearRgb, SrgbQuantizer, SrgbQuantizerF32, Xyz};
use colorbars_led::LedEmitter;
use colorbars_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Capture configuration independent of the device profile.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Number of sensor columns to simulate (the ROI). The receiver's
    /// column averaging divides noise by √width like the real full-width
    /// average does; 24 columns keeps that benefit at simulation speed.
    pub roi_width: usize,
    /// Lens vignetting model.
    pub vignette: Vignette,
    /// RNG seed for sensor noise (captures are deterministic per seed).
    pub seed: u64,
    /// Apply 4:2:0 chroma subsampling to stored frames, as phone video
    /// encoders do — relevant to the paper's iPhone flow, which recorded
    /// video and decoded offline. Halves chroma resolution in both axes.
    pub chroma_subsample: bool,
    /// Worker threads for row-parallel capture. `0` means one per
    /// available core; harnesses that already parallelize *across*
    /// captures (the bench sweep pool) pin this to 1 so nested parallelism
    /// cannot oversubscribe the machine. Thread count never changes the
    /// captured bytes.
    pub threads: usize,
    /// Run the photosite loop in `f32` lanes: polynomial Box–Muller
    /// kernels, folded exposure constants and an `f32` demosaic in place of
    /// the `f64` reference arithmetic. Roughly halves capture cost; the
    /// stored bytes are *not* bit-identical to the reference path (each
    /// lane tracks the same per-row noise stream to a few `1e-4`), so the
    /// committed byte-exact baselines keep this off. The default reads the
    /// `COLORBARS_CAPTURE_F32` environment variable (any value except `0`
    /// enables), which lets benches and the gateway opt whole harnesses in
    /// without touching call sites.
    pub lane_f32: bool,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            roi_width: 24,
            vignette: Vignette::typical(),
            seed: 0xC01_0B52,
            chroma_subsample: false,
            threads: 0,
            lane_f32: std::env::var("COLORBARS_CAPTURE_F32")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false),
        }
    }
}

/// Width of the noise lane chunks the photosite loops fill at a time: even
/// (so chunking never changes the Box–Muller pair order within a row — only
/// the final chunk of a row can be odd, exactly where the scalar path
/// discarded its spare) and small enough to stay in registers/stack.
const NOISE_LANES: usize = 64;

/// Cached vignette row/column profiles (plus the f32 mirror of the column
/// profile used by the lane path). The vignette model and frame geometry
/// are fixed for the life of a rig, so these are computed on the first
/// capture and reused — the steady-state frame loop allocates nothing for
/// them.
#[derive(Debug, Default)]
struct VigCache {
    rows: usize,
    width: usize,
    vrows: Vec<f64>,
    vcols: Vec<f64>,
    vcols32: Vec<f32>,
}

/// Contiguous ROI columns `[start, end)` that all show scene `region`.
#[derive(Debug, Clone, Copy)]
struct ColumnRun {
    start: usize,
    end: usize,
    region: usize,
}

/// A camera rig: one device filming a scene through an optical channel.
#[derive(Debug)]
pub struct CameraRig {
    channel: OpticalChannel,
    capture: Capture,
}

/// Everything a frame render reads or mutates except the optical channel.
/// Keeping the channel outside lets the single-emitter entry points lend
/// `&self.channel` to a [`UniformScene`] while the kernel holds `&mut`
/// capture state — no per-frame channel clone.
#[derive(Debug)]
struct Capture {
    device: DeviceProfile,
    config: CaptureConfig,
    ae: AutoExposure,
    quant: SrgbQuantizer,
    quant_f32: SrgbQuantizerF32,
    pool: FramePool,
    vig: VigCache,
    /// The current frame's column-run map (capacity kept across frames).
    runs: Vec<ColumnRun>,
    /// The current frame's blurred per-row light, one pooled buffer per
    /// scene region; emptied back into the pool after every frame.
    region_light: Vec<Vec<Xyz>>,
    frames_captured: usize,
}

impl CameraRig {
    /// Build a rig with auto-exposure enabled (the paper's configuration).
    /// The rig draws its frame and scratch buffers from the process-global
    /// [`FramePool`]; see [`CameraRig::set_pool`] for a dedicated one.
    pub fn new(device: DeviceProfile, channel: OpticalChannel, config: CaptureConfig) -> CameraRig {
        assert!(
            config.roi_width >= 2,
            "ROI must be at least 2 columns for a Bayer tile"
        );
        let ae = AutoExposure::new(&device);
        CameraRig {
            channel,
            capture: Capture {
                device,
                config,
                ae,
                quant: SrgbQuantizer::new(),
                quant_f32: SrgbQuantizerF32::new(),
                pool: FramePool::global().clone(),
                vig: VigCache::default(),
                runs: Vec::new(),
                region_light: Vec::new(),
                frames_captured: 0,
            },
        }
    }

    /// Replace the exposure controller (e.g. [`AutoExposure::locked`] for
    /// the Fig 6 sweeps).
    pub fn set_exposure_controller(&mut self, ae: AutoExposure) {
        self.capture.ae = ae;
    }

    /// The buffer pool this rig's captures draw from and recycle into.
    pub fn pool(&self) -> &FramePool {
        &self.capture.pool
    }

    /// Use a dedicated buffer pool instead of the process-global one
    /// (isolated tests, memory-bounded embedders).
    pub fn set_pool(&mut self, pool: FramePool) {
        self.capture.pool = pool;
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceProfile {
        &self.capture.device
    }

    /// Mutable access to the channel (ambient/distance changes mid-capture).
    pub fn channel_mut(&mut self) -> &mut OpticalChannel {
        &mut self.channel
    }

    /// Capture `n` consecutive frames of `emitter`, starting at time
    /// `start_time`. Frames are spaced by the device frame period; the
    /// auto-exposure controller adapts between frames.
    pub fn capture_video(&mut self, emitter: &LedEmitter, start_time: f64, n: usize) -> Vec<Frame> {
        self.capture
            .video(&UniformScene::new(emitter, &self.channel), start_time, n)
    }

    /// Capture a single frame of `emitter` beginning at `start_time`.
    ///
    /// The frame's bytes depend only on the configuration (seed included)
    /// and the capture history — never on [`CaptureConfig::threads`].
    pub fn capture_frame(&mut self, emitter: &LedEmitter, start_time: f64) -> Frame {
        self.capture
            .frame(&UniformScene::new(emitter, &self.channel), start_time)
    }

    /// Warm the auto-exposure controller on `emitter` until it settles
    /// (real apps do this during the first second of preview). Captures
    /// and discards up to `max_frames` frames.
    pub fn settle_exposure(&mut self, emitter: &LedEmitter, max_frames: usize) {
        self.capture
            .settle(&UniformScene::new(emitter, &self.channel), max_frames);
    }

    /// Capture `n` consecutive frames of a column-partitioned scene — the
    /// multi-transmitter form of [`CameraRig::capture_video`]. The rig's own
    /// channel is not consulted: each region brings its own.
    pub fn capture_video_scene(
        &mut self,
        scene: &dyn SceneRadiance,
        start_time: f64,
        n: usize,
    ) -> Vec<Frame> {
        self.capture.video(scene, start_time, n)
    }

    /// Capture a single frame of a column-partitioned scene beginning at
    /// `start_time` — the one capture kernel every entry point runs.
    ///
    /// Every ROI column belongs to one of the scene's radiance regions:
    /// irradiance is integrated per (row, region), each region's scanline
    /// signal gets its own PSF blur, and the photosite loop applies the
    /// color transform once per (row, column run). Per-row noise streams,
    /// demosaic and gamma never see the layout, so a one-region scene
    /// ([`UniformScene`]) is byte for byte the single-emitter capture.
    pub fn capture_frame_scene(&mut self, scene: &dyn SceneRadiance, start_time: f64) -> Frame {
        self.capture.frame(scene, start_time)
    }

    /// Warm the auto-exposure controller on a column-partitioned scene —
    /// the multi-transmitter form of [`CameraRig::settle_exposure`].
    pub fn settle_exposure_scene(&mut self, scene: &dyn SceneRadiance, max_frames: usize) {
        self.capture.settle(scene, max_frames);
    }
}

impl Capture {
    /// Fill the vignette-profile cache for a `rows × width` frame if the
    /// geometry changed (or on first use).
    fn ensure_vig_cache(&mut self, rows: usize, width: usize) {
        if self.vig.rows == rows && self.vig.width == width && !self.vig.vrows.is_empty() {
            return;
        }
        let (vrows, vcols) = self.config.vignette.profiles(rows, width);
        self.vig.vcols32 = vcols.iter().map(|&v| v as f32).collect();
        self.vig.vrows = vrows;
        self.vig.vcols = vcols;
        self.vig.rows = rows;
        self.vig.width = width;
    }

    /// Capture `n` frames spaced by the frame period, letting auto-exposure
    /// adapt between them.
    fn video(&mut self, scene: &dyn SceneRadiance, start_time: f64, n: usize) -> Vec<Frame> {
        let _span = obs::span!("camera.capture_video");
        let mut frames = Vec::with_capacity(n);
        for k in 0..n {
            let t = start_time + k as f64 * self.device.frame_period();
            let frame = self.frame(scene, t);
            self.ae.observe(frame.mean_luma(), &self.device);
            frames.push(frame);
        }
        frames
    }

    /// Capture and discard frames until the meter settles, at most
    /// `max_frames`.
    fn settle(&mut self, scene: &dyn SceneRadiance, max_frames: usize) {
        let _span = obs::span!("camera.settle_exposure");
        let mut last = f64::NAN;
        for k in 0..max_frames {
            let t = k as f64 * self.device.frame_period();
            let frame = self.frame(scene, t);
            let luma = frame.mean_luma();
            self.ae.observe(luma, &self.device);
            // Converged only once the meter is in its informative range —
            // a clipped reading that hasn't moved is not convergence.
            if (0.1..=0.9).contains(&luma) && (luma - last).abs() < 0.01 {
                break;
            }
            last = luma;
        }
    }

    /// The capture kernel: render one frame of `scene` starting at
    /// `start_time`. See [`CameraRig::capture_frame_scene`].
    fn frame(&mut self, scene: &dyn SceneRadiance, start_time: f64) -> Frame {
        let _span = obs::span!("camera.capture_frame");
        obs::counter!("camera.frames");
        let rows = self.device.rows;
        let width = self.config.roi_width;
        let settings = self.ae.settings();
        let row_time = self.device.row_time();
        let frame_index = self.frames_captured;
        let threads = self.resolve_threads(rows);
        let regions = scene.region_count();
        assert!(regions >= 1, "a scene must have at least one region");

        // Column runs: contiguous columns sharing a region. Rebuilt every
        // frame (cheap) into a buffer that keeps its capacity.
        self.runs.clear();
        for c in 0..width {
            let k = scene.region_of_column(c, width);
            assert!(k < regions, "column {c} mapped to out-of-range region {k}");
            match self.runs.last_mut() {
                Some(run) if run.region == k => run.end = c + 1,
                _ => self.runs.push(ColumnRun {
                    start: c,
                    end: c + 1,
                    region: k,
                }),
            }
        }

        // Steps 1–2: per-(row, region) mean irradiance over each row's
        // exposure window (rows are independent — row-parallel), then the
        // region's PSF blur across rows (band-edge ISI). Scratch buffers
        // come from the frame pool; every element is overwritten, so reuse
        // needs no clearing.
        {
            let _stage = obs::span!("camera.rows_integrate");
            for k in 0..regions {
                let mut light = self.pool.take_row_light(rows);
                par_row_chunks(&mut light, 1, threads, |first, chunk| {
                    for (i, out) in chunk.iter_mut().enumerate() {
                        let t0 = start_time + (first + i) as f64 * row_time;
                        *out = scene.region_mean(k, t0, t0 + settings.exposure);
                    }
                });
                let mut blurred = self.pool.take_row_light(0);
                scene
                    .region_blur(k)
                    .convolve_rows_into(&light, &mut blurred);
                self.pool.recycle_row_light(light);
                self.region_light.push(blurred);
            }
        }

        // Step 3: per-photosite capture. The device sees the scene through
        // its own color transform; noise applies per photosite in the
        // mosaic domain; demosaic reconstructs RGB; gamma+quantize stores.
        // Vignetting uses the cached row/column profiles, and only the
        // mosaic-selected channel is scaled by it — the other two never
        // leave the sensor.
        self.ensure_vig_cache(rows, width);
        let device = &self.device;
        let (vrows, vcols, vcols32) = (&self.vig.vrows, &self.vig.vcols, &self.vig.vcols32);
        let mut pixels: Vec<[u8; 3]> = self.pool.take_pixels(rows * width);
        if self.config.lane_f32 {
            // The opt-in f32 lane path: same per-row streams, polynomial
            // Box–Muller, folded exposure constants, f32 demosaic. The run's
            // device RGB is still formed in f64 (cheap, and it keeps the
            // only precision loss in the noise/exposure math the equivalence
            // test bounds).
            let mut raw = self.pool.take_raw_f32(rows * width);
            {
                let _stage = obs::span!("camera.mosaic");
                let kernel = device
                    .sensor
                    .lane_kernel_f32(settings.exposure, settings.iso);
                self.mosaic(&mut raw, threads, fill_normals_f32, |r, ch, c0, out, nz| {
                    // Pairs start on even columns, so lane parity equals
                    // column parity and the pair loop is straight-line f32
                    // arithmetic; an odd-aligned run peels its first
                    // photosite, an odd-ended one its last.
                    let ch32 = [ch[0] as f32, ch[1] as f32];
                    let vrow32 = vrows[r] as f32;
                    let vseg = &vcols32[c0..c0 + out.len()];
                    let px = |c: usize, vc: f32, z: f32| {
                        kernel.expose((ch32[c & 1] * (vrow32 + vc)).max(0.0), z)
                    };
                    let lead = (c0 & 1).min(out.len());
                    if lead == 1 {
                        out[0] = px(c0, vseg[0], nz[0]);
                    }
                    let (out, vseg, nz) = (&mut out[lead..], &vseg[lead..], &nz[lead..]);
                    for ((pair, vc), z) in out
                        .chunks_exact_mut(2)
                        .zip(vseg.chunks_exact(2))
                        .zip(nz.chunks_exact(2))
                    {
                        pair[0] = kernel.expose((ch32[0] * (vrow32 + vc[0])).max(0.0), z[0]);
                        pair[1] = kernel.expose((ch32[1] * (vrow32 + vc[1])).max(0.0), z[1]);
                    }
                    if out.len() & 1 == 1 {
                        let k = out.len() - 1;
                        out[k] = px(c0 + lead + k, vseg[k], nz[k]);
                    }
                });
            }
            {
                let _stage = obs::span!("camera.encode");
                let quant = &self.quant_f32;
                demosaic_bilinear_f32_with(&raw, width, rows, device.cfa, |px| {
                    pixels.push(quant.encode_pixel(px));
                });
            }
            self.pool.recycle_raw_f32(raw);
        } else {
            // The reference f64 path.
            let mut raw = self.pool.take_raw_f64(rows * width);
            {
                let _stage = obs::span!("camera.mosaic");
                self.mosaic(&mut raw, threads, fill_normals, |r, ch, c0, out, nz| {
                    let vrow = vrows[r];
                    for (k, (o, &z)) in out.iter_mut().zip(nz).enumerate() {
                        let c = c0 + k;
                        let sample = (ch[c & 1] * (vrow + vcols[c])).max(0.0);
                        *o = device.sensor.expose_with_noise(
                            sample,
                            settings.exposure,
                            settings.iso,
                            z,
                        );
                    }
                });
            }
            // Demosaic and gamma encoding fuse into one streaming pass —
            // the full-RGB plane never materializes.
            {
                let _stage = obs::span!("camera.encode");
                let quant = &self.quant;
                demosaic_bilinear_with(&raw, width, rows, device.cfa, |px| {
                    pixels.push(quant.encode_pixel(px));
                });
            }
            self.pool.recycle_raw_f64(raw);
        }
        for light in self.region_light.drain(..) {
            self.pool.recycle_row_light(light);
        }
        if self.config.chroma_subsample {
            chroma_subsample_420(&mut pixels, width, rows);
        }

        let meta = FrameMeta {
            index: frame_index,
            start_time,
            exposure: settings.exposure,
            iso: settings.iso,
            row_time,
        };
        self.frames_captured += 1;
        Frame::new_pooled(width, rows, pixels, meta, self.pool.clone())
    }

    /// The photosite loop both precisions share: fill the `roi_width`-strided
    /// raw plane row-parallel. Each row draws its noise from its own RNG
    /// stream keyed on (seed, frame, row), so the bytes are identical at
    /// every thread count, in [`NOISE_LANES`]-wide chunks filled by `fill`
    /// whose boundaries depend only on the column, never on the runs. Each
    /// (row, run) gets its device RGB once, and `expose(row, ch, first_col,
    /// out, noise)` writes each stretch of photosites sharing one run and
    /// one lane chunk, where `ch[c & 1]` is the channel the row's CFA
    /// samples at column `c`.
    fn mosaic<T, F, E>(&self, raw: &mut [T], threads: usize, fill: F, expose: E)
    where
        T: Copy + Default + Send,
        F: Fn(&mut StdRng, &mut [T]) + Sync,
        E: Fn(usize, [f64; 2], usize, &mut [T], &[T]) + Sync,
    {
        let width = self.config.roi_width;
        let (seed, frame_index) = (self.config.seed, self.frames_captured);
        let m = self.device.xyz_to_linear_srgb();
        // The mosaic channel depends only on (row % 2, col % 2); hoist the
        // CFA dispatch into a parity table so the loop indexes instead of
        // matching per pixel.
        let cfa = self.device.cfa;
        let idx = |r: usize, c: usize| -> usize {
            match cfa.channel_at(r, c) {
                CfaChannel::R => 0,
                CfaChannel::G => 1,
                CfaChannel::B => 2,
            }
        };
        let cfa_parity = [[idx(0, 0), idx(0, 1)], [idx(1, 0), idx(1, 1)]];
        let (runs, region_light) = (&self.runs, &self.region_light);
        par_row_chunks(raw, width, threads, |first, chunk| {
            let mut lanes = [T::default(); NOISE_LANES];
            for (i, row_raw) in chunk.chunks_mut(width).enumerate() {
                let r = first + i;
                let mut rng = StdRng::seed_from_u64(row_stream_seed(seed, frame_index, r));
                let cfa_row = cfa_parity[r & 1];
                // The lane chunk currently filled: columns [base, base + n).
                let (mut base, mut n) = (0usize, 0usize);
                for run in runs {
                    // ISP gamut mapping: scene colors more saturated than
                    // the output space are desaturated toward neutral, not
                    // hard-clipped (hard clipping would collapse distinct
                    // saturated colors).
                    let rgb =
                        LinearRgb::from_vec3(m.mul_vec(region_light[run.region][r].to_vec3()))
                            .compress_into_gamut();
                    let rgb = [rgb.r, rgb.g, rgb.b];
                    let ch = [rgb[cfa_row[0]], rgb[cfa_row[1]]];
                    let mut c = run.start;
                    while c < run.end {
                        if c == base + n {
                            base += n;
                            n = (width - base).min(NOISE_LANES);
                            fill(&mut rng, &mut lanes[..n]);
                        }
                        let stop = run.end.min(base + n);
                        expose(
                            r,
                            ch,
                            c,
                            &mut row_raw[c..stop],
                            &lanes[c - base..stop - base],
                        );
                        c = stop;
                    }
                }
            }
        });
    }

    /// Resolve the configured thread count: `0` → one per available core,
    /// always clamped to `[1, rows]` so tiny frames never spawn idle
    /// workers.
    fn resolve_threads(&self, rows: usize) -> usize {
        let configured = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        configured.clamp(1, rows.max(1))
    }
}

/// Split `data` (a `row_len`-strided row-major buffer) into contiguous row
/// chunks and run `f(first_row, chunk)` on each, across `threads` scoped
/// workers. With `threads == 1` the closure runs inline — no spawn cost on
/// the already-parallelized sweep path.
fn par_row_chunks<T, F>(data: &mut [T], row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let rows = data.len() / row_len.max(1);
    if threads <= 1 || rows <= 1 {
        f(0, data);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (k, chunk) in data.chunks_mut(rows_per * row_len).enumerate() {
            let f = &f;
            scope.spawn(move || {
                // Short-lived capture workers still get a named timeline
                // track (no-op unless tracing is active).
                obs::trace::register_thread(&format!("row-worker-{k}"));
                f(k * rows_per, chunk)
            });
        }
    });
}

/// Seed for the per-row noise stream: a chained splitmix64 finalizer over
/// `(seed, frame, row)`. Distinct inputs land in well-separated streams, and
/// the derivation is pure arithmetic — no shared RNG to serialize rows.
fn row_stream_seed(seed: u64, frame: usize, row: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(seed) ^ frame as u64) ^ row as u64)
}

/// 4:2:0 chroma subsampling in BT.601 YCbCr: every 2×2 block shares the
/// mean chroma while keeping per-pixel luma — what phone video encoders do
/// before compression. Operates in place on 8-bit sRGB pixels.
fn chroma_subsample_420(pixels: &mut [[u8; 3]], width: usize, height: usize) {
    let to_ycbcr = |p: [u8; 3]| -> (f64, f64, f64) {
        let (r, g, b) = (p[0] as f64, p[1] as f64, p[2] as f64);
        (
            0.299 * r + 0.587 * g + 0.114 * b,
            128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b,
            128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b,
        )
    };
    let to_rgb = |y: f64, cb: f64, cr: f64| -> [u8; 3] {
        let r = y + 1.402 * (cr - 128.0);
        let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
        let b = y + 1.772 * (cb - 128.0);
        [
            r.round().clamp(0.0, 255.0) as u8,
            g.round().clamp(0.0, 255.0) as u8,
            b.round().clamp(0.0, 255.0) as u8,
        ]
    };
    // Fixed scratch for the (at most four) pixel indices of a block — this
    // runs per 2×2 block over every frame, so no per-block allocation.
    let mut coords = [0usize; 4];
    for by in (0..height).step_by(2) {
        for bx in (0..width).step_by(2) {
            let mut n = 0usize;
            for dy in 0..2 {
                for dx in 0..2 {
                    let (y, x) = (by + dy, bx + dx);
                    if y < height && x < width {
                        coords[n] = y * width + x;
                        n += 1;
                    }
                }
            }
            let coords = &coords[..n];
            let (mut cb_sum, mut cr_sum) = (0.0, 0.0);
            for &i in coords {
                let (_, cb, cr) = to_ycbcr(pixels[i]);
                cb_sum += cb;
                cr_sum += cr;
            }
            let (cb, cr) = (cb_sum / n as f64, cr_sum / n as f64);
            for &i in coords {
                let (y, _, _) = to_ycbcr(pixels[i]);
                pixels[i] = to_rgb(y, cb, cr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_led::{DriveLevels, ScheduledColor, TriLed};

    /// An emitter holding one drive for the whole duration.
    fn constant_emitter(drive: DriveLevels, seconds: f64) -> LedEmitter {
        LedEmitter::new(
            TriLed::typical(),
            200_000.0,
            &[ScheduledColor {
                drive,
                duration: seconds,
            }],
        )
    }

    /// A small fast device for unit tests: few rows, ideal color/noise.
    fn test_device(rows: usize) -> DeviceProfile {
        let mut d = DeviceProfile::ideal();
        d.rows = rows;
        // Keep readout and gap proportions of the Nexus.
        d
    }

    fn quiet_rig(rows: usize) -> CameraRig {
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 1,
            ..Default::default()
        };
        CameraRig::new(test_device(rows), OpticalChannel::ideal(), cfg)
    }

    #[test]
    fn white_led_fills_frame_with_gray() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 10);
        let f = rig.capture_frame(&e, 0.5);
        let m = f.row_mean_srgb(32);
        // Near-achromatic: channels within a fraction of each other.
        let spread = (m.r - m.g)
            .abs()
            .max((m.g - m.b).abs())
            .max((m.r - m.b).abs());
        assert!(
            spread < 0.25,
            "white LED should look roughly neutral: {m:?}"
        );
        assert!(m.g > 0.2, "scene should not be black");
    }

    #[test]
    fn dark_led_gives_dark_frame() {
        let e = constant_emitter(DriveLevels::OFF, 1.0);
        let mut rig = quiet_rig(32);
        let f = rig.capture_frame(&e, 0.0);
        assert!(f.mean_luma() < 0.05, "luma {}", f.mean_luma());
    }

    #[test]
    fn two_symbol_schedule_produces_two_bands() {
        // Red for the first half of the readout, green for the second.
        let mut d = test_device(128);
        d.readout_time = 1.0e-3;
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 0.5e-3,
                },
                ScheduledColor {
                    drive: green,
                    duration: 0.5e-3,
                },
            ],
        );
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 2,
            ..Default::default()
        };
        let mut rig = CameraRig::new(d, OpticalChannel::ideal(), cfg);
        // The schedule only spans 1 ms, so auto-exposure settling (which
        // captures frames 33 ms apart) would meter darkness; lock instead.
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame(&e, 0.0);
        // Row 20 is inside the red band; row 100 inside the green band.
        let top = f.row_mean_srgb(20);
        let bottom = f.row_mean_srgb(100);
        assert!(top.r > top.g, "top band should be red-ish: {top:?}");
        assert!(
            bottom.g > bottom.r,
            "bottom band should be green-ish: {bottom:?}"
        );
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let e = constant_emitter(DriveLevels::new(0.5, 0.5, 0.5), 1.0);
        let frame = |seed| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::none(),
                seed,
                ..Default::default()
            };
            let mut rig = CameraRig::new(DeviceProfile::nexus5(), OpticalChannel::ideal(), cfg);
            rig.capture.device.rows = 64;
            rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
                exposure: 40e-6,
                iso: 100.0,
            }));
            rig.capture_frame(&e, 0.0)
        };
        assert_eq!(frame(7), frame(7));
        assert_ne!(frame(7), frame(8), "different seeds give different noise");
    }

    #[test]
    fn capture_bytes_are_independent_of_thread_count() {
        // Per-row RNG streams make the thread count a pure scheduling
        // choice: every count must produce byte-identical frames, including
        // counts that don't divide the row count and counts above it.
        let e = constant_emitter(DriveLevels::new(0.4, 0.6, 0.3), 1.0);
        let capture = |threads: usize| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::typical(),
                seed: 99,
                threads,
                ..Default::default()
            };
            let mut rig = CameraRig::new(test_device(67), OpticalChannel::ideal(), cfg);
            rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
                exposure: 40e-6,
                iso: 400.0,
            }));
            // Two frames, so frame_index enters the stream derivation too.
            rig.capture_video(&e, 0.0, 2)
        };
        let reference = capture(1);
        for threads in [2, 3, 5, 128] {
            assert_eq!(
                capture(threads),
                reference,
                "threads={threads} changed the captured bytes"
            );
        }
    }

    #[test]
    fn uniform_scene_capture_is_byte_identical_to_classic_path() {
        // THE single-emitter equivalence guarantee: capturing a one-region
        // scene must reproduce the single-emitter entry points byte for
        // byte, at every thread count, with auto-exposure history and
        // frame indices in play. Both run the one capture kernel, so this
        // pins the wrappers and the thread schedule; the golden digests in
        // tests/golden_capture.rs pin the bytes themselves.
        use crate::scene::UniformScene;
        let mut d = test_device(67);
        d.readout_time = 1.0e-3;
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 40e-3,
                },
                ScheduledColor {
                    drive: green,
                    duration: 40e-3,
                },
            ],
        );
        let channel = OpticalChannel::paper_setup();
        let capture = |threads: usize, via_scene: bool| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::typical(),
                seed: 77,
                threads,
                ..Default::default()
            };
            let mut rig = CameraRig::new(d.clone(), channel.clone(), cfg);
            if via_scene {
                let scene = UniformScene::new(&e, &channel);
                rig.settle_exposure_scene(&scene, 3);
                rig.capture_video_scene(&scene, 0.0, 2)
            } else {
                rig.settle_exposure(&e, 3);
                rig.capture_video(&e, 0.0, 2)
            }
        };
        let reference = capture(1, false);
        for threads in [1, 2, 3, 5, 128] {
            assert_eq!(
                capture(threads, true),
                reference,
                "one-region scene diverged from the single-emitter capture at threads={threads}"
            );
        }
    }

    /// Two emitters side by side behind one channel: columns below `split`
    /// show `emitters[0]`, the rest `emitters[1]`.
    struct SplitScene {
        emitters: [LedEmitter; 2],
        channel: OpticalChannel,
        split: usize,
    }

    impl SceneRadiance for SplitScene {
        fn region_count(&self) -> usize {
            2
        }
        fn region_of_column(&self, col: usize, _width: usize) -> usize {
            usize::from(col >= self.split)
        }
        fn region_mean(&self, region: usize, t0: f64, t1: f64) -> Xyz {
            self.channel.received_mean(&self.emitters[region], t0, t1)
        }
        fn region_blur(&self, _region: usize) -> &colorbars_channel::BlurKernel {
            self.channel.blur()
        }
    }

    #[test]
    fn scene_regions_partition_the_frame() {
        // A two-region scene: left half red emitter, right half dark. The
        // column partition must be visible in the stored pixels.
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let scene = SplitScene {
            emitters: [
                constant_emitter(red, 1.0),
                constant_emitter(DriveLevels::OFF, 1.0),
            ],
            channel: OpticalChannel::ideal(),
            split: 8,
        };
        let cfg = CaptureConfig {
            roi_width: 16,
            vignette: Vignette::none(),
            seed: 5,
            ..Default::default()
        };
        let mut rig = CameraRig::new(test_device(64), OpticalChannel::ideal(), cfg);
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame_scene(&scene, 0.1);
        // Sample interior columns away from the demosaic boundary.
        let lit = f.pixel(32, 2)[0] as i32;
        let dark = f.pixel(32, 13)[0] as i32;
        assert!(
            lit > dark + 30,
            "left region lit ({lit}) vs right region dark ({dark})"
        );
    }

    #[test]
    fn f32_lane_capture_tracks_f64_reference_within_tolerance() {
        // The opt-in f32 path consumes the same per-row noise streams, so
        // it must track the f64 reference frame pixel by pixel — bytes a
        // quantization step or two apart, never a different image. (Bit
        // identity is deliberately NOT required here; the obs-diff noise
        // band gate covers the end-to-end metrics.) Two inputs: a uniform
        // emitter, and a two-region scene whose boundary falls on an odd
        // column, so the f32 loop's odd-aligned run start is covered.
        let e = constant_emitter(DriveLevels::new(0.4, 0.6, 0.3), 1.0);
        let scene = SplitScene {
            emitters: [
                e.clone(),
                constant_emitter(DriveLevels::new(0.6, 0.2, 0.5), 1.0),
            ],
            channel: OpticalChannel::paper_setup(),
            split: 7,
        };
        let capture = |lane_f32: bool, two_regions: bool| {
            let cfg = CaptureConfig {
                roi_width: 16,
                vignette: Vignette::typical(),
                seed: 42,
                lane_f32,
                threads: 1,
                ..Default::default()
            };
            let mut rig = CameraRig::new(test_device(67), OpticalChannel::paper_setup(), cfg);
            rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
                exposure: 40e-6,
                iso: 400.0,
            }));
            if two_regions {
                rig.capture_video_scene(&scene, 0.0, 2)
            } else {
                rig.capture_video(&e, 0.0, 2)
            }
        };
        for two_regions in [false, true] {
            let reference = capture(false, two_regions);
            let fast = capture(true, two_regions);
            let (mut n, mut sum_abs, mut max_abs) = (0u64, 0u64, 0i64);
            for (a, b) in fast.iter().zip(&reference) {
                assert_eq!(a.meta, b.meta, "metadata must not depend on the path");
                for r in 0..a.height() {
                    for (pa, pb) in a.row(r).iter().zip(b.row(r)) {
                        for ch in 0..3 {
                            let d = (pa[ch] as i64 - pb[ch] as i64).abs();
                            sum_abs += d as u64;
                            max_abs = max_abs.max(d);
                            n += 1;
                        }
                    }
                }
            }
            let mean_abs = sum_abs as f64 / n as f64;
            assert!(
                mean_abs < 1.5,
                "mean |Δbyte| {mean_abs} (two_regions={two_regions})"
            );
            assert!(
                max_abs <= 32,
                "max |Δbyte| {max_abs} (two_regions={two_regions})"
            );
        }
    }

    #[test]
    fn pool_recycles_buffers_across_rigs() {
        // One warm pool serves successive rigs (sessions) without any new
        // allocation: the second rig's captures must be all pool hits.
        let e = constant_emitter(DriveLevels::new(0.5, 0.5, 0.5), 1.0);
        let pool = crate::FramePool::new();
        let mk = |seed: u64| {
            let cfg = CaptureConfig {
                roi_width: 8,
                vignette: Vignette::none(),
                seed,
                threads: 1,
                ..Default::default()
            };
            let mut rig = CameraRig::new(test_device(32), OpticalChannel::ideal(), cfg);
            rig.set_pool(pool.clone());
            rig
        };
        let frames = mk(1).capture_video(&e, 0.0, 3);
        assert!(pool.misses() > 0, "cold pool must have allocated");
        drop(frames); // pixel buffers return to the pool
        let warm_misses = pool.misses();
        let frames = mk(2).capture_video(&e, 0.0, 3);
        assert_eq!(
            pool.misses(),
            warm_misses,
            "a warm pool serves a new rig with zero allocations"
        );
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn row_streams_are_distinct() {
        // Adjacent (seed, frame, row) triples must not collide — collisions
        // would correlate noise across rows.
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 99] {
            for frame in 0..4usize {
                for row in 0..64usize {
                    assert!(seen.insert(row_stream_seed(seed, frame, row)));
                }
            }
        }
    }

    #[test]
    fn video_frames_are_spaced_by_frame_period() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let mut rig = quiet_rig(16);
        let frames = rig.capture_video(&e, 0.0, 3);
        assert_eq!(frames.len(), 3);
        let dt = frames[1].meta.start_time - frames[0].meta.start_time;
        assert!((dt - rig.device().frame_period()).abs() < 1e-12);
        assert_eq!(frames[0].meta.index, 0);
        assert_eq!(frames[2].meta.index, 2);
    }

    #[test]
    fn auto_exposure_settles_to_sane_luma() {
        // A scene at typical link brightness (constant-power symbols run
        // well below full drive). Full drive would pin the exposure at the
        // device's shutter floor and saturate — also correct behaviour,
        // but not what this test probes.
        let e = constant_emitter(DriveLevels::new(0.15, 0.15, 0.15), 2.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 20);
        let f = rig.capture_frame(&e, 1.0);
        let luma = f.mean_luma();
        assert!(luma > 0.2 && luma < 0.8, "settled luma {luma}");
    }

    #[test]
    fn shutter_floor_saturates_on_overbright_scenes() {
        // The flip side: a full-drive LED through a camera that cannot
        // shutter below its floor ends up overexposed — the Fig 6(b)
        // saturation regime.
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 2.0);
        let mut rig = quiet_rig(64);
        rig.settle_exposure(&e, 20);
        let f = rig.capture_frame(&e, 1.0);
        assert!(
            f.mean_luma() > 0.9,
            "overbright scene saturates: {}",
            f.mean_luma()
        );
        assert!(
            (f.meta.exposure - rig.device().min_exposure).abs() < 1e-9,
            "exposure pinned at the floor"
        );
    }

    #[test]
    fn chroma_subsampling_preserves_flat_colors_and_luma() {
        // A flat field is invariant; a sharp chroma edge gets blended only
        // within its 2×2 block.
        let mut flat = vec![[200u8, 60, 100]; 16];
        let before = flat.clone();
        chroma_subsample_420(&mut flat, 4, 4);
        for (a, b) in flat.iter().zip(&before) {
            for k in 0..3 {
                assert!(
                    (a[k] as i16 - b[k] as i16).abs() <= 1,
                    "flat field preserved"
                );
            }
        }
        // Luma of individual pixels survives across an (unsaturated)
        // chroma edge; fully saturated primaries can clip on reconstruction,
        // which real 4:2:0 also does.
        let mut edge = vec![[180u8, 60, 60], [60, 180, 60], [180, 60, 60], [60, 180, 60]];
        let luma = |p: [u8; 3]| 0.299 * p[0] as f64 + 0.587 * p[1] as f64 + 0.114 * p[2] as f64;
        let before: Vec<f64> = edge.iter().map(|&p| luma(p)).collect();
        chroma_subsample_420(&mut edge, 2, 2);
        for (p, want) in edge.iter().zip(before) {
            assert!((luma(*p) - want).abs() < 3.0, "luma per pixel preserved");
        }
    }

    #[test]
    fn subsampled_capture_still_shows_bands() {
        let mut d = test_device(128);
        d.readout_time = 1.0e-3;
        let led = TriLed::typical();
        let red = led.solve_drive(led.gamut().red, 0.08).unwrap();
        let green = led.solve_drive(led.gamut().green, 0.08).unwrap();
        let e = LedEmitter::new(
            led,
            200_000.0,
            &[
                ScheduledColor {
                    drive: red,
                    duration: 0.5e-3,
                },
                ScheduledColor {
                    drive: green,
                    duration: 0.5e-3,
                },
            ],
        );
        let cfg = CaptureConfig {
            roi_width: 8,
            vignette: Vignette::none(),
            seed: 2,
            chroma_subsample: true,
            ..Default::default()
        };
        let mut rig = CameraRig::new(d, OpticalChannel::ideal(), cfg);
        rig.set_exposure_controller(AutoExposure::locked(crate::exposure::ExposureSettings {
            exposure: 40e-6,
            iso: 100.0,
        }));
        let f = rig.capture_frame(&e, 0.0);
        let top = f.row_mean_srgb(20);
        let bottom = f.row_mean_srgb(100);
        assert!(top.r > top.g, "red band survives subsampling: {top:?}");
        assert!(
            bottom.g > bottom.r,
            "green band survives subsampling: {bottom:?}"
        );
    }

    #[test]
    fn vignette_darkens_borders() {
        let e = constant_emitter(DriveLevels::new(1.0, 1.0, 1.0), 1.0);
        let cfg = CaptureConfig {
            roi_width: 16,
            vignette: Vignette::new(0.5),
            seed: 3,
            ..Default::default()
        };
        let mut rig = CameraRig::new(test_device(128), OpticalChannel::ideal(), cfg);
        rig.settle_exposure(&e, 10);
        let f = rig.capture_frame(&e, 0.5);
        let center = f.pixel_srgb(64, 8).decode().g;
        let corner = f.pixel_srgb(0, 0).decode().g;
        assert!(corner < center * 0.8, "corner {corner} vs center {center}");
    }
}

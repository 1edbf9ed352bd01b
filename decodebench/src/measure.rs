//! Timed passes over a corpus: batch decode and the capture rig, each
//! interleaved with a reference kernel, and open-loop streaming decode
//! beside a reference worker.

use crate::refkernel::{FrameKernel, RefKernel};
use crate::workload::{self, Clip, Corpus};
use colorbars_camera::{CameraRig, Frame};
use colorbars_channel::OpticalChannel;
use colorbars_core::{start_phase, LinkSession, ReceiverReport, SessionConfig, Transmitter};
use colorbars_obs::live::Registry;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest percentile of `n` samples that has at least ten samples
/// beyond it, capped at 0.99.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Each frame's median over repeated passes (`passes[p][frame]`): the
/// frame's own latency with the host's scheduling hiccups, which hit a
/// different frame in every pass, filtered out.
pub fn per_frame_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    per_frame(passes, 0.5)
}

/// Each frame's fastest time over repeated passes (`passes[p][frame]`).
/// A streamed frame waits on two woken threads, and on a busy host the
/// scheduler can hold up most passes of the slowest frames, so a tail over
/// per-frame medians reads the host; one over each frame's best pass does
/// not. The median frame is steadier at its median pass.
pub fn per_frame_minima(passes: &[Vec<f64>]) -> Vec<f64> {
    per_frame(passes, 0.0)
}

fn per_frame(passes: &[Vec<f64>], q: f64) -> Vec<f64> {
    let frames = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..frames)
        .map(|i| percentile(&passes.iter().map(|p| p[i]).collect::<Vec<_>>(), q))
        .collect()
}

/// One batch decode of the corpus, each clip through one `Receiver`.
pub struct BatchPass {
    /// `process_frame` over every frame plus `finish`, seconds.
    pub decode_s: f64,
    /// Each frame-kernel call interleaved with the frames, milliseconds.
    pub ref_ms: Vec<f64>,
    /// Each `process_frame` call, milliseconds.
    pub frame_ms: Vec<f64>,
    /// The finished report of each clip.
    pub reports: Vec<ReceiverReport>,
}

/// Decode every clip in one batch, running the frame kernel before each
/// frame.
pub fn batch_pass(corpus: &Corpus, kernel: &RefKernel) -> Result<BatchPass, String> {
    let mut out = BatchPass {
        decode_s: 0.0,
        ref_ms: Vec::with_capacity(corpus.frame_count()),
        frame_ms: Vec::with_capacity(corpus.frame_count()),
        reports: Vec::with_capacity(corpus.clips.len()),
    };
    for clip in &corpus.clips {
        let mut rx = clip.sim.receiver().map_err(|e| format!("receiver: {e}"))?;
        for frame in &clip.run.frames {
            out.ref_ms.push(kernel.frame_s() * 1e3);
            let t = Instant::now();
            rx.process_frame(frame);
            let d = t.elapsed().as_secs_f64();
            out.decode_s += d;
            out.frame_ms.push(d * 1e3);
        }
        let t = Instant::now();
        out.reports.push(rx.finish());
        out.decode_s += t.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// One open-loop streaming decode of the corpus, each clip through its
/// own `LinkSession`.
pub struct StreamPass {
    /// Due time to `frames_processed()` covering the frame, per frame, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator pushed each frame, ms.
    pub late_ms: Vec<f64>,
    /// Each `push_frame` call, microseconds.
    pub push_us: Vec<f64>,
    /// Each registry scrape (`snapshot` + `render_prometheus`), ms.
    pub scrape_ms: Vec<f64>,
    /// Instruments in the last scrape.
    pub series: usize,
    /// Most frames pushed but not yet decoded, seen at a push.
    pub queue_depth_max: u64,
    /// `session.backpressure_stalls` at the end.
    pub stalls: u64,
    /// The session's own enqueue-to-decoded p99, from the registry, ms.
    pub session_p99_ms: f64,
    /// Reference-worker jobs (see [`RefWorker`]), each from hand-off until
    /// the generator saw it done, milliseconds.
    pub ref_ms: Vec<f64>,
    /// The finished report of each clip.
    pub reports: Vec<ReceiverReport>,
}

/// Open-loop feed rate of the session passes, frames/s: two 30 frames/s
/// cameras' worth. The decoder, with telemetry on, is busy a third of the
/// time on the Nexus 5 frames when the host is slow. At 120 frames/s it was
/// busy more than two thirds of the time and the latency tail moved by a
/// quarter from run to run.
pub const STREAM_FPS: f64 = 60.0;

/// Sleep slice of the generator's wait loop: short enough to see each
/// completion within a tenth of a millisecond.
const POLL: Duration = Duration::from_micros(100);
/// Label of the benchmark's session in the registry.
const SESSION: &str = "bench";
/// The generator times a reference-worker job only when the decoder is
/// idle and the next frame is due at least this far off (about twice a
/// job), so the job delays neither.
const REF_GAP: Duration = Duration::from_millis(10);
/// Fewest reference-worker jobs behind a streamed pass's normaliser; a
/// pass whose decoder was rarely idle is topped up right after it, one job
/// per [`REF_GAP`].
const REF_JOBS: usize = 25;
/// Quantile of a streamed pass's reference-worker jobs that the tail
/// latency is divided by: the lower quartile, a job the scheduler barely
/// held up, to match each frame's fastest pass (see [`per_frame_minima`]).
pub const REF_QUANTILE: f64 = 0.25;

/// A stand-in for a session's worker thread, with fixed work: it blocks on
/// a channel as the worker does and, per job, runs one frame-kernel call,
/// then bumps a counter the generator polls as it polls
/// `frames_processed()`. A job's time therefore passes through the
/// same hand-off, wake-up and poll as a frame's latency. On a busy host
/// the scheduler runs a thread that has just woken at full speed for a
/// few milliseconds and then shares the core, so a short kernel call on
/// the generator's own thread barely slows down while a decode on the
/// woken worker nearly doubles; a job on a woken thread of similar length
/// slows down with it.
struct RefWorker<'a> {
    jobs: SyncSender<()>,
    done: &'a AtomicU64,
}

impl<'a> RefWorker<'a> {
    fn spawn<'env>(scope: &'a std::thread::Scope<'a, 'env>, done: &'a AtomicU64) -> RefWorker<'a> {
        let (jobs, queue) = sync_channel::<()>(1);
        scope.spawn(move || {
            let mut kernel = FrameKernel::new();
            for () in queue {
                black_box(kernel.frame_s());
                done.fetch_add(1, Ordering::Release);
            }
        });
        RefWorker { jobs, done }
    }

    /// Hand the worker one job and wait for it, milliseconds.
    fn time(&self) -> f64 {
        let before = self.done.load(Ordering::Acquire);
        let t = Instant::now();
        self.jobs
            .send(())
            .expect("the reference worker outlives its sender");
        while self.done.load(Ordering::Acquire) == before {
            std::thread::sleep(POLL);
        }
        ms(t.elapsed())
    }
}

/// [`stream_pass`] with observability switched on, so the session's live
/// registry records, and switched off and cleared again afterwards.
pub fn observed_stream_pass(corpus: &Corpus, fps: f64) -> Result<StreamPass, String> {
    colorbars_obs::init(colorbars_obs::ObsConfig::default());
    let pass = stream_pass(corpus, fps, &Registry::new());
    colorbars_obs::disable();
    colorbars_obs::reset();
    pass
}

/// Push every frame of each clip at `fps` on a fixed schedule, whatever
/// the decoder does, and time each frame from its due time until the
/// session reports it decoded. The registry is scraped about once a
/// second, and a [`RefWorker`] job timed in the decoder's idle gaps.
pub fn stream_pass(corpus: &Corpus, fps: f64, registry: &Registry) -> Result<StreamPass, String> {
    let mut out = StreamPass {
        latency_ms: Vec::with_capacity(corpus.frame_count()),
        late_ms: Vec::with_capacity(corpus.frame_count()),
        push_us: Vec::with_capacity(corpus.frame_count()),
        scrape_ms: Vec::new(),
        series: 0,
        queue_depth_max: 0,
        stalls: 0,
        session_p99_ms: 0.0,
        ref_ms: Vec::new(),
        reports: Vec::with_capacity(corpus.clips.len()),
    };
    let done = AtomicU64::new(0);
    std::thread::scope(|scope| -> Result<(), String> {
        let reference = RefWorker::spawn(scope, &done);
        let mut next_scrape = Instant::now() + Duration::from_secs(1);
        for clip in &corpus.clips {
            let report = stream_clip(clip, fps, registry, &reference, &mut next_scrape, &mut out)?;
            out.reports.push(report);
        }
        while out.ref_ms.len() < REF_JOBS {
            std::thread::sleep(REF_GAP);
            out.ref_ms.push(reference.time());
        }
        Ok(())
    })?;
    let snap = registry.snapshot();
    let mine = |id: &colorbars_obs::live::MetricId, name: &str| {
        id.name == name && id.label("session") == Some(SESSION)
    };
    out.stalls = snap
        .counters
        .iter()
        .find(|c| mine(&c.id, "session.backpressure_stalls"))
        .map_or(0, |c| c.value);
    out.session_p99_ms = snap
        .histograms
        .iter()
        .find(|h| mine(&h.id, "session.frame_latency_ms"))
        .map_or(0.0, |h| h.p99_ms);
    Ok(out)
}

fn stream_clip(
    clip: &Clip,
    fps: f64,
    registry: &Registry,
    reference: &RefWorker,
    next_scrape: &mut Instant,
    out: &mut StreamPass,
) -> Result<ReceiverReport, String> {
    let rx = clip.sim.receiver().map_err(|e| format!("receiver: {e}"))?;
    let frames: Vec<Frame> = clip.run.frames.clone();
    let n = frames.len();
    let session = LinkSession::spawn(rx, SessionConfig::new(SESSION, registry.clone()));
    let period = Duration::from_secs_f64(1.0 / fps);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + period * i as u32;
    let mut done = 0usize;
    let collect = |out: &mut StreamPass, done: &mut usize| {
        let processed = session.frames_processed() as usize;
        if processed > *done {
            let now = Instant::now();
            while *done < processed {
                out.latency_ms.push(ms(now - due(*done)));
                *done += 1;
            }
        }
    };
    for (i, frame) in frames.into_iter().enumerate() {
        let due_i = due(i);
        let mut ref_timed = false;
        loop {
            collect(out, &mut done);
            let now = Instant::now();
            if now >= due_i {
                out.late_ms.push(ms(now - due_i));
                break;
            }
            if !ref_timed && done == i && due_i - now > REF_GAP {
                out.ref_ms.push(reference.time());
                ref_timed = true;
                continue;
            }
            std::thread::sleep(POLL.min(due_i - now));
        }
        let t = Instant::now();
        session.push_frame(frame);
        out.push_us.push(t.elapsed().as_secs_f64() * 1e6);
        let in_flight = (i + 1) as u64 - session.frames_processed();
        out.queue_depth_max = out.queue_depth_max.max(in_flight);
        if Instant::now() >= *next_scrape {
            let t = Instant::now();
            let snap = registry.snapshot();
            black_box(snap.render_prometheus());
            out.scrape_ms.push(ms(t.elapsed()));
            out.series =
                snap.counters.len() + snap.gauges.len() + snap.rates.len() + snap.histograms.len();
            *next_scrape += Duration::from_secs(1);
        }
    }
    while done < n {
        collect(out, &mut done);
        if done < n {
            std::thread::sleep(POLL);
        }
    }
    Ok(session.finish())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One single-threaded capture of the corpus's transmission by a fresh
/// rig (the test rig), frame by frame, interleaved with the arithmetic
/// kernel.
pub struct CapturePass {
    /// Each frame's capture, milliseconds.
    pub frame_ms: Vec<f64>,
    /// Each frame's capture time ÷ the arithmetic kernel's just before it.
    pub rel: Vec<f64>,
}

/// Re-capture each clip's transmission with a rig built the way the
/// simulator builds one, timing each frame.
pub fn capture_pass(corpus: &Corpus, kernel: &RefKernel) -> Result<CapturePass, String> {
    let mut out = CapturePass {
        frame_ms: Vec::with_capacity(corpus.frame_count()),
        rel: Vec::with_capacity(corpus.frame_count()),
    };
    for clip in &corpus.clips {
        capture_clip(clip, kernel, &mut out)?;
    }
    Ok(out)
}

fn capture_clip(clip: &Clip, kernel: &RefKernel, out: &mut CapturePass) -> Result<(), String> {
    let sim = &clip.sim;
    let tx = Transmitter::new(sim.config().clone()).map_err(|e| format!("transmitter: {e}"))?;
    let emitter = tx.schedule(&tx.transmit(&clip.payload));
    let device = sim.device().clone();
    let period = device.frame_period();
    let capture = workload::capture_config(clip.capture_seed);
    let mut rig = CameraRig::new(device, OpticalChannel::paper_setup(), capture);
    rig.settle_exposure(&emitter, 12);
    let phase = start_phase(clip.capture_seed, period);
    for k in 0..clip.run.frames.len() {
        let r = kernel.arith_s();
        let t = Instant::now();
        let frame = rig.capture_video(&emitter, phase + k as f64 * period, 1);
        let d = t.elapsed().as_secs_f64();
        black_box(frame);
        out.rel.push(d / r);
        out.frame_ms.push(d * 1e3);
    }
    Ok(())
}

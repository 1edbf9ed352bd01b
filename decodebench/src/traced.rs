//! The traced run: per-layer timings and counts, taken by timing the calls
//! into each layer's public functions from the benchmark's own code.
//!
//! Spans (name, start, end, causing span, frame) are kept in memory and
//! written as a Chrome/Perfetto trace when the run ends. Each round starts
//! fresh threads that take turns (see [`round`]), so the row reduction's
//! thread-local Lab memo starts cold in every round and the stage timings
//! and the whole-frame timings see the same cache state frame for frame.
//! Every round also streams the corpus through `LinkSession`s, so every
//! workload reports the session and registry layers.

use crate::check;
use crate::measure::{self, mean, median, percentile};
use crate::refkernel::RefKernel;
use crate::workload::Corpus;
use colorbars_color::Lab;
use colorbars_core::classify::{classify, nearest_color};
use colorbars_core::segmentation::{row_signal, segment};
use colorbars_core::{Label, ReceiverReport, ReferenceStore, TrainedEqualizer};
use std::hint::black_box;
use std::sync::mpsc;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`segmentation.row_signal`).
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (its pass).
    pub parent: Option<usize>,
    /// The frame this span worked on; spans of one frame share it.
    pub frame: Option<usize>,
    /// Pass number (one thread per pass).
    pub pass: usize,
}

/// In-memory span store for one pass.
struct Recorder {
    epoch: Instant,
    pass: usize,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(epoch: Instant, pass: usize) -> Recorder {
        Recorder {
            epoch,
            pass,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant, frame: Option<usize>) {
        let parent = (!self.spans.is_empty()).then_some(0);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            frame,
            pass: self.pass,
        });
    }

    /// Close the pass: the pass span is the first span, parent of the rest.
    fn finish(mut self, name: &'static str, start: Instant) -> Vec<Span> {
        let end = Instant::now();
        let pass = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            frame: None,
            pass: self.pass,
        };
        self.spans.insert(0, pass);
        self.spans
    }
}

/// A thread that runs one job at a time for its caller: the caller blocks
/// until the result is back, so two workers never run at once.
struct Worker<J, R> {
    jobs: mpsc::Sender<J>,
    results: mpsc::Receiver<R>,
}

impl<J: Send, R: Send> Worker<J, R> {
    fn spawn<'s>(scope: &'s Scope<'s, '_>, mut f: impl FnMut(J) -> R + Send + 's) -> Worker<J, R>
    where
        J: 's,
        R: 's,
    {
        let (jobs, job_rx) = mpsc::channel::<J>();
        let (result_tx, results) = mpsc::channel::<R>();
        scope.spawn(move || {
            for job in job_rx {
                if result_tx.send(f(job)).is_err() {
                    break;
                }
            }
        });
        Worker { jobs, results }
    }

    fn call(&self, job: J) -> R {
        self.jobs.send(job).expect("worker thread is alive");
        self.results.recv().expect("worker thread panicked")
    }
}

/// A timed interval.
type Interval = (Instant, Instant);

fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let out = f();
    (out, (start, Instant::now()))
}

fn secs((start, end): Interval) -> f64 {
    (end - start).as_secs_f64()
}

/// The stage thread's result for one frame.
struct StageFrame {
    row_signal: Interval,
    segment: Interval,
    features: Vec<Lab>,
}

enum FrameJob {
    /// `process_frame` on this clip's frame (a new clip starts a receiver).
    Frame(usize, usize),
    /// `finish` the current clip's receiver.
    Finish,
}

enum FrameReply {
    Timed(Interval),
    Finished(
        Box<(ReceiverReport, ReferenceStore, Option<TrainedEqualizer>)>,
        Interval,
    ),
}

/// What one round over the corpus measured.
struct Round {
    row_signal_s: Vec<f64>,
    segment_s: Vec<f64>,
    process_frame_s: Vec<f64>,
    bands: Vec<usize>,
    /// Whole-clip decode time with no per-call timers, summed.
    untraced_s: f64,
    /// `process_frame` + `finish` under per-call timers, summed.
    traced_s: f64,
    /// Segmented band features, per clip.
    features: Vec<Vec<Lab>>,
    /// Reference store and trained equalizer at the end of each clip.
    classifiers: Vec<(ReferenceStore, Option<TrainedEqualizer>)>,
    reports: Vec<ReceiverReport>,
    spans: Vec<Span>,
}

/// One round: three fresh threads in lockstep. Per clip, the untraced
/// thread decodes the whole clip; then, frame by frame, the stage thread
/// runs `row_signal` + `segment` and the frame thread runs
/// `process_frame`, in alternating order. Each thread keeps its own Lab
/// memo, fed the same frames in the same order, and the two timings of a
/// frame are taken back to back, so `receiver.rest_ms` sees neither a
/// cache bias nor a slow spell on one side only.
fn round(corpus: &Corpus, epoch: Instant, first_pass: usize) -> Result<Round, String> {
    let mut out = Round {
        row_signal_s: Vec::new(),
        segment_s: Vec::new(),
        process_frame_s: Vec::new(),
        bands: Vec::new(),
        untraced_s: 0.0,
        traced_s: 0.0,
        features: Vec::new(),
        classifiers: Vec::new(),
        reports: Vec::new(),
        spans: Vec::new(),
    };
    let clips = &corpus.clips;
    let start = Instant::now();
    let mut stage_rec = Recorder::new(epoch, first_pass);
    let mut frame_rec = Recorder::new(epoch, first_pass + 1);
    let mut untraced_rec = Recorder::new(epoch, first_pass + 2);
    std::thread::scope(|scope| -> Result<(), String> {
        let untraced = Worker::spawn(scope, |c: usize| -> Result<Interval, String> {
            let mut rx = clips[c]
                .sim
                .receiver()
                .map_err(|e| format!("receiver: {e}"))?;
            let ((), t) = timed(|| {
                for f in &clips[c].run.frames {
                    rx.process_frame(f);
                }
                black_box(rx.finish());
            });
            Ok(t)
        });
        let mut seg = None;
        let stage = Worker::spawn(
            scope,
            move |(c, i): (usize, usize)| -> Result<StageFrame, String> {
                if i == 0 {
                    let rx = clips[c]
                        .sim
                        .receiver()
                        .map_err(|e| format!("receiver: {e}"))?;
                    seg = Some(*rx.segmentation());
                }
                let seg = seg.as_ref().expect("set at the clip's first frame");
                let (signal, row_signal) = timed(|| row_signal(&clips[c].run.frames[i]));
                let (bands, segment) = timed(|| segment(&signal, seg));
                Ok(StageFrame {
                    row_signal,
                    segment,
                    features: bands.iter().map(|b| b.feature).collect(),
                })
            },
        );
        let mut rx = None;
        let frame = Worker::spawn(scope, move |job: FrameJob| -> Result<FrameReply, String> {
            match job {
                FrameJob::Frame(c, i) => {
                    if i == 0 {
                        rx = Some(
                            clips[c]
                                .sim
                                .receiver()
                                .map_err(|e| format!("receiver: {e}"))?,
                        );
                    }
                    let rx = rx.as_mut().expect("set at the clip's first frame");
                    let ((), t) = timed(|| rx.process_frame(&clips[c].run.frames[i]));
                    Ok(FrameReply::Timed(t))
                }
                FrameJob::Finish => {
                    let rx = rx.take().expect("a clip is open");
                    let (store, eq) = (rx.store().clone(), rx.equalizer().cloned());
                    let (report, t) = timed(|| rx.finish());
                    Ok(FrameReply::Finished(Box::new((report, store, eq)), t))
                }
            }
        });

        let mut global = 0;
        for (c, clip) in clips.iter().enumerate() {
            let t = untraced.call(c)?;
            untraced_rec.record("bench.untraced_clip", t.0, t.1, None);
            out.untraced_s += secs(t);
            let mut features = Vec::new();
            for i in 0..clip.run.frames.len() {
                // Whichever thread reads a frame second finds its pixels in
                // cache; alternate the order so neither side keeps that
                // advantage.
                let stage_first = (global + first_pass).is_multiple_of(2);
                let run_frame = || match frame.call(FrameJob::Frame(c, i)) {
                    Ok(FrameReply::Timed(t)) => Ok(t),
                    Ok(FrameReply::Finished(..)) => {
                        unreachable!("a frame job replies with its timing")
                    }
                    Err(e) => Err(e),
                };
                let (s, t) = if stage_first {
                    let s = stage.call((c, i))?;
                    (s, run_frame()?)
                } else {
                    let t = run_frame()?;
                    (stage.call((c, i))?, t)
                };
                stage_rec.record(
                    "segmentation.row_signal",
                    s.row_signal.0,
                    s.row_signal.1,
                    Some(global),
                );
                stage_rec.record(
                    "segmentation.segment",
                    s.segment.0,
                    s.segment.1,
                    Some(global),
                );
                out.row_signal_s.push(secs(s.row_signal));
                out.segment_s.push(secs(s.segment));
                out.bands.push(s.features.len());
                features.extend(s.features);
                frame_rec.record("receiver.process_frame", t.0, t.1, Some(global));
                out.process_frame_s.push(secs(t));
                out.traced_s += secs(t);
                global += 1;
            }
            let FrameReply::Finished(done, t) = frame.call(FrameJob::Finish)? else {
                unreachable!("a finish job replies with the report")
            };
            frame_rec.record("receiver.finish", t.0, t.1, None);
            out.traced_s += secs(t);
            let (report, store, eq) = *done;
            out.reports.push(report);
            out.classifiers.push((store, eq));
            out.features.push(features);
        }
        Ok(())
    })?;
    out.spans
        .extend(stage_rec.finish("bench.stage_thread", start));
    out.spans
        .extend(frame_rec.finish("bench.frame_thread", start));
    out.spans
        .extend(untraced_rec.finish("bench.untraced_thread", start));
    Ok(out)
}

/// Time `f` over `features` until at least 5 ms have passed; returns
/// (seconds, calls).
fn time_bands(features: &[Lab], mut f: impl FnMut(Lab) -> u32) -> (f64, usize) {
    if features.is_empty() {
        return (0.0, 0);
    }
    let (mut calls, mut acc) = (0usize, 0u32);
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(5) {
        for &x in features {
            acc = acc.wrapping_add(f(black_box(x)));
        }
        calls += features.len();
    }
    black_box(acc);
    (t.elapsed().as_secs_f64(), calls)
}

/// Nanoseconds per band of the receiver's classifiers over the features
/// each clip segmented, with that clip's final store and equalizer:
/// (label + nearest-neighbor verdict, equalizer verdict). The equalizer
/// figure is 0 when no clip trained one.
fn classifier_ns(
    features: &[Vec<Lab>],
    classifiers: &[(ReferenceStore, Option<TrainedEqualizer>)],
) -> (f64, f64) {
    let (mut cls, mut eq) = ((0.0, 0usize), (0.0, 0usize));
    for (feats, (store, equalizer)) in features.iter().zip(classifiers) {
        let (s, n) = time_bands(feats, |x| {
            let label = match classify(x, store) {
                Label::Color(i) => u32::from(i),
                Label::White => 1 << 16,
                Label::Off => 1 << 17,
            };
            label ^ u32::from(nearest_color(x, store))
        });
        cls = (cls.0 + s, cls.1 + n);
        if let Some(e) = equalizer {
            let (s, n) = time_bands(feats, |x| u32::from(e.classify(x)));
            eq = (eq.0 + s, eq.1 + n);
        }
    }
    let per = |(s, n): (f64, usize)| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    (per(cls), per(eq))
}

/// The per-layer metrics (`name`, value, unit) plus every span recorded.
pub struct Traced {
    /// Metrics in `BENCHMARK.json`'s per-layer order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every span, pass spans first within each pass.
    pub spans: Vec<Span>,
    /// Output-check failures met on the way.
    pub failures: Vec<String>,
    /// The last whole-frame pass's report of each clip.
    pub reports: Vec<ReceiverReport>,
    /// Their quality, recomputed from ground truth.
    pub quality: check::Quality,
    /// Frames decoded, over every pass.
    pub decoded: usize,
    /// Human-readable bases for the counts.
    pub notes: Vec<(&'static str, String)>,
}

/// Run the traced passes over `corpus` for about `seconds`.
pub fn run(
    corpus: &Corpus,
    seconds: f64,
    kernel: &RefKernel,
    distinct_per_frame: &[usize],
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut failures = Vec::new();
    let mut pass = 0usize;

    let t = Instant::now();
    let capture = measure::capture_pass(corpus, kernel)?;
    spans.extend(Recorder::new(epoch, pass).finish("bench.capture_pass", t));
    pass += 1;
    let ref_ms: Vec<f64> = (0..50).map(|_| kernel.frame_s() * 1e3).collect();

    let (mut row, mut seg, mut rest, mut pf) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut overhead, mut bands) = (Vec::new(), Vec::new());
    let (mut row_total_s, mut px) = (0.0, 0usize);
    let (mut classify_ns, mut equalize_ns) = (Vec::new(), Vec::new());
    let mut stream: Option<measure::StreamPass> = None;
    let mut reports;
    let pixels: Vec<usize> = corpus.frames().map(|f| f.width() * f.height()).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let r = round(corpus, epoch, pass)?;
        pass += 3;
        let per_frame = r
            .row_signal_s
            .iter()
            .zip(&r.segment_s)
            .zip(&r.process_frame_s);
        for (((&rs, &sg), &p), &frame_px) in per_frame.zip(&pixels) {
            row.push(rs * 1e3);
            seg.push(sg * 1e6);
            pf.push(p * 1e3);
            rest.push((p - rs - sg) * 1e3);
            row_total_s += rs;
            px += frame_px;
        }
        bands.extend(r.bands.iter().map(|&b| b as f64));
        overhead.push(r.traced_s / r.untraced_s);
        let (c, e) = classifier_ns(&r.features, &r.classifiers);
        classify_ns.push(c);
        equalize_ns.push(e);
        spans.extend(r.spans);

        let t = Instant::now();
        let s = measure::observed_stream_pass(corpus, measure::STREAM_FPS)?;
        spans.extend(Recorder::new(epoch, pass).finish("bench.stream_pass", t));
        pass += 1;
        if let Err(e) = check::stream_matches_batch(&s.reports, &r.reports) {
            failures.push(e);
        }
        stream = Some(merge_stream(stream, s));
        reports = r.reports;
        if Instant::now() >= deadline {
            break;
        }
    }
    let (quality, fails) = check::corpus(&corpus.clips, &reports);
    failures.extend(fails);
    let stream = stream.expect("at least one stream pass ran");
    let mut st = colorbars_core::receiver::ReceiverStats::default();
    for r in &reports {
        add_stats(&mut st, &r.stats);
    }
    let lock_base = st.calibrations + st.calibrations_failed;
    let lock_rate = if lock_base == 0 {
        0.0
    } else {
        st.calibrations as f64 / lock_base as f64
    };
    let distinct: Vec<f64> = distinct_per_frame.iter().map(|&d| d as f64).collect();
    let metrics = vec![
        ("segmentation.row_signal_ms", median(&row), "ms"),
        (
            "segmentation.row_signal_ns_per_px",
            row_total_s * 1e9 / px.max(1) as f64,
            "ns",
        ),
        ("segmentation.segment_us", median(&seg), "us"),
        ("segmentation.bands_per_frame", mean(&bands), "count"),
        (
            "segmentation.distinct_px_per_frame",
            median(&distinct),
            "count",
        ),
        ("receiver.process_frame_ms", median(&pf), "ms"),
        ("receiver.rest_ms", median(&rest), "ms"),
        ("classify.ns_per_band", median(&classify_ns), "ns"),
        ("equalizer.ns_per_band", median(&equalize_ns), "ns"),
        ("equalizer.trained", st.eq_trained as f64, "count"),
        ("equalizer.fallbacks", st.eq_fallbacks as f64, "count"),
        ("calibration.ok", st.calibrations as f64, "count"),
        ("calibration.failed", st.calibrations_failed as f64, "count"),
        ("calibration.lock_rate", lock_rate, "ratio"),
        ("depacket.packets_ok", st.packets_ok as f64, "count"),
        ("depacket.rs_failed", st.packets_rs_failed as f64, "count"),
        (
            "depacket.header_lost",
            st.packets_header_lost as f64,
            "count",
        ),
        ("depacket.overrun", st.packets_overrun as f64, "count"),
        ("depacket.burst_lost", st.packets_burst_lost as f64, "count"),
        (
            "rscode.errors_corrected",
            st.errors_corrected as f64,
            "count",
        ),
        (
            "rscode.erasures_recovered",
            st.erasures_recovered as f64,
            "count",
        ),
        ("fec.groups", st.fec_groups as f64, "count"),
        ("fec.codewords_ok", st.fec_codewords_ok as f64, "count"),
        ("fec.codewords", st.fec_codewords as f64, "count"),
        (
            "fec.recovered_by_interleave",
            st.fec_recovered_by_interleave as f64,
            "count",
        ),
        ("session.push_us", median(&stream.push_us), "us"),
        ("session.backpressure_stalls", stream.stalls as f64, "count"),
        (
            "session.queue_depth_max",
            stream.queue_depth_max as f64,
            "count",
        ),
        ("session.frame_latency_p99_ms", stream.session_p99_ms, "ms"),
        ("obs.scrape_ms", median(&stream.scrape_ms), "ms"),
        ("obs.series", stream.series as f64, "count"),
        ("camera.capture_frame_ms", median(&capture.frame_ms), "ms"),
        (
            "bench.gen_late_p99_ms",
            percentile(
                &stream.late_ms,
                measure::tail_quantile(stream.late_ms.len()),
            ),
            "ms",
        ),
        ("bench.ref_kernel_ms", median(&ref_ms), "ms"),
        ("bench.trace_overhead", median(&overhead), "ratio"),
    ];
    let notes = vec![
        (
            "calibration_lock",
            format!("{} of {} calibration packets", st.calibrations, lock_base),
        ),
        (
            "fec_codewords",
            format!(
                "{} of {} codewords decoded",
                st.fec_codewords_ok, st.fec_codewords
            ),
        ),
        ("trace_rounds", overhead.len().to_string()),
    ];
    Ok(Traced {
        metrics,
        spans,
        failures,
        reports,
        quality,
        // Per round: the untraced, the timed and the streamed decode.
        decoded: 3 * overhead.len() * corpus.frame_count(),
        notes,
    })
}

/// Sum the counters of another clip's stats into `acc`.
fn add_stats(
    acc: &mut colorbars_core::receiver::ReceiverStats,
    s: &colorbars_core::receiver::ReceiverStats,
) {
    acc.packets_ok += s.packets_ok;
    acc.packets_rs_failed += s.packets_rs_failed;
    acc.packets_header_lost += s.packets_header_lost;
    acc.packets_overrun += s.packets_overrun;
    acc.packets_burst_lost += s.packets_burst_lost;
    acc.calibrations += s.calibrations;
    acc.calibrations_failed += s.calibrations_failed;
    acc.erasures_recovered += s.erasures_recovered;
    acc.errors_corrected += s.errors_corrected;
    acc.fec_groups += s.fec_groups;
    acc.fec_codewords += s.fec_codewords;
    acc.fec_codewords_ok += s.fec_codewords_ok;
    acc.fec_recovered_by_interleave += s.fec_recovered_by_interleave;
    acc.eq_trained += s.eq_trained;
    acc.eq_fallbacks += s.eq_fallbacks;
}

/// Pool the samples of successive stream passes; counts keep their worst.
fn merge_stream(acc: Option<measure::StreamPass>, s: measure::StreamPass) -> measure::StreamPass {
    let Some(mut acc) = acc else { return s };
    acc.latency_ms.extend(s.latency_ms);
    acc.late_ms.extend(s.late_ms);
    acc.push_us.extend(s.push_us);
    acc.scrape_ms.extend(s.scrape_ms);
    acc.series = acc.series.max(s.series);
    acc.queue_depth_max = acc.queue_depth_max.max(s.queue_depth_max);
    acc.stalls += s.stalls;
    acc.session_p99_ms = acc.session_p99_ms.max(s.session_p99_ms);
    acc.reports = s.reports;
    acc
}

/// Write `spans` as Chrome/Perfetto trace JSON to `path`.
pub fn write_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    // Span ids are per pass (index within the pass); the pass span is 0.
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
            s.name,
            s.pass,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3
        )?;
        let mut args = Vec::new();
        if let Some(p) = s.parent {
            args.push(format!("\"parent\":\"{}#{p}\"", s.pass));
        }
        if let Some(f) = s.frame {
            args.push(format!("\"frame\":{f}"));
        }
        writeln!(out, "{}}}}}{sep}", args.join(","))?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

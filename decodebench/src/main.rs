//! Decode-path benchmark for the ColorBars receive pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path decodebench/Cargo.toml -- \
//!     --workload n5_csk8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates its workload's corpus from `--seed` (payloads and
//! sensor noise), decodes it through the public receive API for about
//! `--seconds`, checks every output against the transmission's ground
//! truth, and prints two JSON lines on standard output: the workload's
//! descriptors (corpus shape, raw rates and latencies, quality with its
//! bases), then the result. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the per-layer passes instead and writes their spans to
//! `decodebench/out/<workload>-seed<seed>.trace.json`. A failed check
//! still prints the result, with `"correct": false`, and exits with 1; a
//! run that cannot start exits with 2 and prints no result.
//!
//! Timings are reported as ratios to fixed reference kernels run beside
//! them (see `refkernel`), because the raw figures move with the host's
//! load far more than any change worth catching.

mod check;
mod measure;
mod refkernel;
mod traced;
mod workload;

use colorbars_core::ReceiverReport;
use measure::{mean, median, per_frame_medians, per_frame_minima, percentile, tail_quantile};
use refkernel::RefKernel;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Corpus, Workload};

/// Slot count of the receiver's direct-mapped sRGB→Lab memo
/// (`colorbars_color::SrgbLabCache`, 2¹⁵ slots), printed beside the
/// corpus's distinct pixel values.
const LAB_CACHE_SLOTS: usize = 1 << 15;

/// Set-ups per run; `setup_s` and `setup_rel` are their medians.
const SETUPS: usize = 3;

/// Capture passes per run; each frame's capture time is its median over
/// them.
const CAPTURES: usize = 3;

/// Batch passes of a streaming workload; its `decode_rel` is their
/// median. From a single pass it spread 4 % between runs.
const STREAM_BATCH_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// What the corpus looks like to the receiver.
struct Descriptors {
    frames: usize,
    rows: usize,
    cols: usize,
    distinct_per_frame: Vec<usize>,
    distinct_corpus: usize,
}

fn describe(corpus: &Corpus) -> Descriptors {
    let frames: Vec<&colorbars_camera::Frame> = corpus.frames().collect();
    let mut corpus_seen = vec![0u64; 1 << 18];
    let mut frame_seen = vec![0u64; 1 << 18];
    let mut distinct_corpus = 0;
    let mut distinct_per_frame = Vec::with_capacity(frames.len());
    let key = |px: &[u8; 3]| u32::from_be_bytes([0, px[0], px[1], px[2]]) as usize;
    for f in &frames {
        let mut distinct = 0;
        for px in f.rows().flatten() {
            let (word, bit) = (key(px) >> 6, 1u64 << (key(px) & 63));
            if frame_seen[word] & bit == 0 {
                frame_seen[word] |= bit;
                distinct += 1;
            }
            if corpus_seen[word] & bit == 0 {
                corpus_seen[word] |= bit;
                distinct_corpus += 1;
            }
        }
        for px in f.rows().flatten() {
            frame_seen[key(px) >> 6] = 0;
        }
        distinct_per_frame.push(distinct);
    }
    Descriptors {
        frames: frames.len(),
        rows: frames.first().map_or(0, |f| f.height()),
        cols: frames.first().map_or(0, |f| f.width()),
        distinct_per_frame,
        distinct_corpus,
    }
}

/// The result line's metrics, in order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    metrics: Metrics,
    /// Every failed output check; any failure fails the whole run.
    failures: Vec<String>,
    /// Frames decoded, over every pass of the run.
    attempted: usize,
    notes: Vec<(&'static str, String)>,
}

/// The untraced run: end-to-end metrics.
fn run_untraced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    kernel: &RefKernel,
) -> Result<Outcome, String> {
    let (mut setup_s, mut setup_rel) = (Vec::new(), Vec::new());
    let mut corpus = None;
    for _ in 0..SETUPS {
        drop(corpus.take());
        let (c, t) = w.setup(seed, kernel)?;
        setup_s.push(t.s);
        setup_rel.push(t.rel);
        corpus = Some(c);
    }
    let corpus = corpus.expect("SETUPS > 0");
    let desc = describe(&corpus);
    let (mut capture_ms, mut capture_rel) = (Vec::new(), Vec::new());
    for _ in 0..CAPTURES {
        let c = measure::capture_pass(&corpus, kernel)?;
        capture_ms.push(c.frame_ms);
        capture_rel.push(c.rel);
    }
    let capture_ms = per_frame_medians(&capture_ms);
    let capture_rel = per_frame_medians(&capture_rel);

    let mut failures = Vec::new();
    let (mut fps, mut rel, mut frame_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Per pass: the median frame-kernel call interleaved with a batch
    // pass's frames, and every reference-worker job timed in a streamed
    // pass's idle gaps.
    let (mut ref_ms, mut stream_refs, mut latency_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<ReceiverReport>> = None;
    let (mut batch_passes, mut stream_passes, mut decoded) = (0usize, 0usize, 0usize);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for round in 0.. {
        // A streaming workload decodes in batch in its first rounds only:
        // the reference of the stream-vs-batch check, and enough passes
        // for a steady `decode_rel`. The rest of the run is streamed.
        if !w.streamed || round < STREAM_BATCH_PASSES {
            let pass = measure::batch_pass(&corpus, kernel)?;
            batch_passes += 1;
            fps.push(pass.frame_ms.len() as f64 / pass.decode_s);
            decoded += pass.frame_ms.len();
            rel.push(pass.decode_s * 1e3 / pass.ref_ms.iter().sum::<f64>());
            ref_ms.push(median(&pass.ref_ms));
            frame_ms.push(pass.frame_ms);
            match &first {
                None => first = Some(pass.reports),
                Some(batch) if *batch != pass.reports => failures.push(format!(
                    "batch pass {batch_passes} decoded differently from pass 1"
                )),
                Some(_) => {}
            }
        }
        if w.streamed {
            let s = measure::observed_stream_pass(&corpus, measure::STREAM_FPS)?;
            stream_passes += 1;
            decoded += s.latency_ms.len();
            stream_refs.push(s.ref_ms);
            latency_ms.push(s.latency_ms);
            let batch = first.as_ref().expect("round 0 decodes in batch");
            if let Err(e) = check::stream_matches_batch(&s.reports, batch) {
                failures.push(format!("stream pass {stream_passes}: {e}"));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let reports = first.expect("at least one batch pass");
    let (q, fails) = check::corpus(&corpus.clips, &reports);
    failures.extend(fails);

    // Batch: the `process_frame` call, each frame at its median over the
    // run's passes, divided by its pass's median frame-kernel call.
    // Streaming: due time to decoded, divided by its pass's
    // reference-worker job at the quantile the frames are taken at: the
    // median over frames of each frame's median pass, against the median
    // job; the tail over frames of each frame's fastest pass (see
    // `per_frame_minima`), against the lower-quartile job.
    let divide = |passes: &[Vec<f64>], refs: &[f64]| -> Vec<Vec<f64>> {
        passes
            .iter()
            .zip(refs)
            .map(|(p, r)| p.iter().map(|ms| ms / r).collect())
            .collect()
    };
    let (mid_ms, mid_rel, tail_ms, tail_rel) = if w.streamed {
        let jobs_at = |q| {
            stream_refs
                .iter()
                .map(|r| percentile(r, q))
                .collect::<Vec<_>>()
        };
        (
            per_frame_medians(&latency_ms),
            per_frame_medians(&divide(&latency_ms, &jobs_at(0.5))),
            per_frame_minima(&latency_ms),
            per_frame_minima(&divide(&latency_ms, &jobs_at(measure::REF_QUANTILE))),
        )
    } else {
        let (ms, rel) = (
            per_frame_medians(&frame_ms),
            per_frame_medians(&divide(&frame_ms, &ref_ms)),
        );
        (ms.clone(), rel.clone(), ms, rel)
    };
    let tail_q = tail_quantile(mid_ms.len());
    let (p50_ms, tail_ms) = (percentile(&mid_ms, 0.5), percentile(&tail_ms, tail_q));
    let ref_ms = median(&ref_ms);
    let capture_fps = 1e3 / mean(&capture_ms);
    let metrics = vec![
        ("decode_rel", median(&rel), "ratio"),
        ("frame_p50_rel", percentile(&mid_rel, 0.5), "ratio"),
        ("frame_p95_rel", percentile(&tail_rel, tail_q), "ratio"),
        ("capture_rel", mean(&capture_rel), "ratio"),
        ("setup_s", median(&setup_s), "s"),
        ("setup_rel", median(&setup_rel), "ratio"),
        ("symbol_accuracy", 1.0 - q.ser(), "ratio"),
        ("goodput_bps", q.goodput_bps(), "bit/s"),
        ("packet_loss", q.packet_loss(), "ratio"),
        ("rx_retained_kib", q.retained_kib, "KiB"),
    ];
    // The raw rates and latencies swing with the host's load from run to
    // run; they are printed here, beside the steadier ratios above.
    let mut notes = vec![
        ("decode_fps", format!("{} frames/s", median(&fps))),
        ("frame_p50_ms", format!("{p50_ms} ms")),
        ("frame_p95_ms", format!("{tail_ms} ms")),
        ("capture_fps", format!("{capture_fps} frames/s")),
        ("ref_kernel_ms", format!("{ref_ms} ms")),
    ];
    if w.streamed {
        notes.push((
            "stream_ref_job_ms",
            format!("{} ms", median(&stream_refs.concat())),
        ));
    }
    notes.extend(descriptor_notes(&desc, &reports));
    notes.extend([
        ("batch_passes", batch_passes.to_string()),
        ("stream_passes", stream_passes.to_string()),
        ("latency_frames", mid_ms.len().to_string()),
        ("frame_p95_is_percentile", format!("{:.4}", tail_q * 100.0)),
    ]);
    notes.extend(quality_notes(&q));
    Ok(Outcome {
        metrics,
        attempted: decoded,
        failures,
        notes,
    })
}

fn quality_notes(q: &check::Quality) -> Vec<(&'static str, String)> {
    vec![
        (
            "ser",
            format!("{} ({} of {} bands)", q.ser(), q.ser_errors, q.ser_bands),
        ),
        (
            "packet_loss",
            format!(
                "{} ({} of {} data packets)",
                q.packet_loss(),
                q.packets_sent - q.packets_delivered,
                q.packets_sent
            ),
        ),
        ("goodput_bps", q.goodput_bps().to_string()),
    ]
}

fn descriptor_notes(desc: &Descriptors, reports: &[ReceiverReport]) -> Vec<(&'static str, String)> {
    let per_frame: Vec<f64> = desc.distinct_per_frame.iter().map(|&d| d as f64).collect();
    let bands: usize = reports.iter().map(|r| r.stats.bands).sum();
    vec![
        ("clips", reports.len().to_string()),
        ("frames", desc.frames.to_string()),
        ("rows_x_cols", format!("{}x{}", desc.rows, desc.cols)),
        (
            "bands_per_frame",
            format!("{:.2}", bands as f64 / desc.frames.max(1) as f64),
        ),
        (
            "distinct_srgb_per_frame_p50",
            median(&per_frame).to_string(),
        ),
        (
            "distinct_srgb_per_frame_max",
            percentile(&per_frame, 1.0).to_string(),
        ),
        ("distinct_srgb_corpus", desc.distinct_corpus.to_string()),
        ("lab_cache_slots", LAB_CACHE_SLOTS.to_string()),
    ]
}

/// The traced run: per-layer metrics and the span file.
fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    kernel: &RefKernel,
) -> Result<Outcome, String> {
    let (corpus, _) = w.setup(seed, kernel)?;
    let desc = describe(&corpus);
    let t = traced::run(&corpus, seconds, kernel, &desc.distinct_per_frame)?;
    let path =
        std::path::PathBuf::from(format!("decodebench/out/{}-seed{seed}.trace.json", w.name));
    traced::write_trace(&path, &t.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut notes = descriptor_notes(&desc, &t.reports);
    notes.extend(quality_notes(&t.quality));
    notes.extend(t.notes);
    notes.push((
        "spans",
        format!("{} spans in {}", t.spans.len(), path.display()),
    ));
    Ok(Outcome {
        metrics: t.metrics,
        failures: t.failures,
        attempted: t.decoded,
        notes,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("decodebench: {e}");
            return ExitCode::from(2);
        }
    };
    let kernel = RefKernel::new();
    for _ in 0..20 {
        kernel.frame_s();
        kernel.arith_s();
    }
    let w = args.workload;
    let outcome = if args.trace {
        run_traced(&w, args.seed, args.seconds, &kernel)
    } else {
        run_untraced(&w, args.seed, args.seconds, &kernel)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("decodebench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    let mut notes = vec![
        ("workload", json_str(w.name)),
        ("seed", args.seed.to_string()),
        (
            "cpus",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
    ];
    notes.extend(outcome.notes.iter().map(|(k, v)| (*k, json_str(v))));
    let notes: Vec<String> = notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"descriptors\":{{{}}}}}", notes.join(","));
    for f in &outcome.failures {
        eprintln!("decodebench: check failed: {f}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let correct = outcome.failures.is_empty();
    // An operation is one frame decoded; a failed check fails them all.
    let failed = if correct { 0 } else { outcome.attempted };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorbars_camera::Frame;
    use colorbars_obs::live::Registry;

    /// Stream as fast as the session takes frames.
    const FAST: f64 = 1000.0;

    /// The stream-vs-batch check must catch a single corrupted frame.
    #[test]
    fn corrupted_frame_trips_the_stream_batch_check() {
        let w = workload::by_name("n5_csk8").expect("workload exists");
        let (mut corpus, _) = w.setup(7, &RefKernel::new()).expect("set-up succeeds");
        let batch = measure::batch_pass(&corpus, &RefKernel::new())
            .expect("batch decode")
            .reports;
        let clean = measure::stream_pass(&corpus, FAST, &Registry::new()).expect("stream decode");
        assert_eq!(check::stream_matches_batch(&clean.reports, &batch), Ok(()));

        let frames = &mut corpus.clips[1].run.frames;
        let f = &frames[10];
        let negative = f
            .rows()
            .flatten()
            .map(|p| [255 - p[0], 255 - p[1], 255 - p[2]])
            .collect();
        frames[10] = Frame::new(f.width(), f.height(), negative, f.meta);
        let dirty = measure::stream_pass(&corpus, FAST, &Registry::new()).expect("stream decode");
        let err =
            check::stream_matches_batch(&dirty.reports, &batch).expect_err("corruption detected");
        assert!(err.starts_with("clip 1:"), "{err}");
    }

    /// Every output check passes on a seed that was not used while the
    /// benchmark was written.
    #[test]
    fn unused_seed_passes_every_check() {
        for w in [
            workload::by_name("n5_csk8"),
            workload::by_name("n5_csk8_fec2_ridge"),
            workload::by_name("n5_csk8_stream"),
        ] {
            let w = w.expect("workload exists");
            let (corpus, _) = w.setup(4242, &RefKernel::new()).expect("set-up succeeds");
            let batch = measure::batch_pass(&corpus, &RefKernel::new())
                .expect("batch decode")
                .reports;
            let (q, failures) = check::corpus(&corpus.clips, &batch);
            assert_eq!(failures, Vec::<String>::new(), "{}", w.name);
            assert!(q.packets_delivered > 0 && q.ser_bands > 0, "{}", w.name);
            let stream =
                measure::stream_pass(&corpus, FAST, &Registry::new()).expect("stream decode");
            assert_eq!(
                check::stream_matches_batch(&stream.reports, &batch),
                Ok(()),
                "{}",
                w.name
            );
        }
    }
}

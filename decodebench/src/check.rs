//! Output checks against the transmission's ground truth.
//!
//! The quality metrics are recomputed here from the transmitted symbols
//! and chunks, independently of `LinkSimulator::score`, and the two must
//! agree. Any disagreement, any delivered chunk that was never sent and
//! any chunk delivered twice make the run incorrect.

use crate::workload::Clip;
use colorbars_core::receiver::DemodulatedBand;
use colorbars_core::{ReceiverReport, Symbol};

/// Quality of one decode, recomputed from ground truth.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Color bands with known ground truth (SER base).
    pub ser_bands: usize,
    /// Of those, demodulated to the wrong color.
    pub ser_errors: usize,
    /// Data packets transmitted (packet-loss base).
    pub packets_sent: usize,
    /// Distinct transmitted chunks delivered byte-exact.
    pub packets_delivered: usize,
    /// Delivered chunks that match no transmitted chunk.
    pub bad_chunks: usize,
    /// Delivered chunks that repeat an already delivered one.
    pub dup_chunks: usize,
    /// Payload bytes delivered intact.
    pub good_bytes: usize,
    /// Airtime of the transmissions, seconds.
    pub airtime_s: f64,
    /// `bands.len() × size_of::<DemodulatedBand>()` + chunk bytes, KiB.
    pub retained_kib: f64,
}

impl Quality {
    /// Symbol error rate.
    pub fn ser(&self) -> f64 {
        ratio(self.ser_errors, self.ser_bands)
    }

    /// Share of transmitted data packets not delivered intact.
    pub fn packet_loss(&self) -> f64 {
        1.0 - ratio(self.packets_delivered, self.packets_sent)
    }

    /// Delivered payload bits per airtime second.
    pub fn goodput_bps(&self) -> f64 {
        self.good_bytes as f64 * 8.0 / self.airtime_s
    }

    /// Pool another clip's figures into these.
    pub fn add(&mut self, o: &Quality) {
        self.ser_bands += o.ser_bands;
        self.ser_errors += o.ser_errors;
        self.packets_sent += o.packets_sent;
        self.packets_delivered += o.packets_delivered;
        self.bad_chunks += o.bad_chunks;
        self.dup_chunks += o.dup_chunks;
        self.good_bytes += o.good_bytes;
        self.airtime_s += o.airtime_s;
        self.retained_kib += o.retained_kib;
    }
}

fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Recompute SER, goodput and packet loss for `report` from ground truth.
fn quality(clip: &Clip, report: &ReceiverReport) -> Quality {
    let tx = &clip.run.transmission;
    let rate = clip.sim.config().symbol_rate;
    let (mut ser_bands, mut ser_errors) = (0, 0);
    for b in report.bands.iter().filter(|b| b.calibrated) {
        if b.timestamp < 0.0 {
            continue;
        }
        let idx = (b.timestamp * rate).floor() as usize;
        if let Some(Symbol::Color(truth)) = tx.symbols.get(idx) {
            ser_bands += 1;
            if b.color_idx != *truth {
                ser_errors += 1;
            }
        }
    }

    let sent: Vec<&[u8]> = tx
        .packets
        .iter()
        .filter_map(|p| p.chunk.as_deref())
        .collect();
    let mut delivered = vec![false; sent.len()];
    let (mut bad_chunks, mut dup_chunks) = (0, 0);
    let mut good_bytes = 0usize;
    for chunk in &report.chunks {
        match sent
            .iter()
            .enumerate()
            .position(|(i, s)| !delivered[i] && *s == chunk.as_slice())
        {
            Some(i) => {
                delivered[i] = true;
                good_bytes += chunk.len();
            }
            None if sent.contains(&chunk.as_slice()) => dup_chunks += 1,
            None => bad_chunks += 1,
        }
    }
    let chunk_bytes: usize = report.chunks.iter().map(Vec::len).sum();
    let retained = report.bands.len() * std::mem::size_of::<DemodulatedBand>() + chunk_bytes;
    Quality {
        ser_bands,
        ser_errors,
        packets_sent: sent.len(),
        packets_delivered: delivered.iter().filter(|&&d| d).count(),
        bad_chunks,
        dup_chunks,
        good_bytes,
        airtime_s: clip.run.airtime,
        retained_kib: retained as f64 / 1024.0,
    }
}

/// Quality of a whole corpus decode (one report per clip) and every
/// reason it fails the output checks, each prefixed with its clip.
pub fn corpus(clips: &[Clip], reports: &[ReceiverReport]) -> (Quality, Vec<String>) {
    let mut total = Quality::default();
    let mut out = Vec::new();
    for (i, (clip, report)) in clips.iter().zip(reports).enumerate() {
        let q = quality(clip, report);
        out.extend(
            failures(clip, report, &q)
                .into_iter()
                .map(|f| format!("clip {i}: {f}")),
        );
        total.add(&q);
    }
    if total.packets_delivered == 0 {
        out.push("no packet delivered".to_string());
    }
    (total, out)
}

/// Every reason `report` fails the output checks (empty when it passes).
fn failures(clip: &Clip, report: &ReceiverReport, q: &Quality) -> Vec<String> {
    let mut out = Vec::new();
    if q.bad_chunks > 0 {
        out.push(format!(
            "{} delivered chunks match no transmitted chunk",
            q.bad_chunks
        ));
    }
    if q.dup_chunks > 0 {
        out.push(format!("{} chunks delivered more than once", q.dup_chunks));
    }
    if report.stats.packets_ok != report.chunks.len() {
        out.push(format!(
            "stats.packets_ok = {} but {} chunks delivered",
            report.stats.packets_ok,
            report.chunks.len()
        ));
    }
    let scored = clip.sim.score(&clip.run, report.clone());
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if !close(scored.ser, q.ser()) || scored.ser_bands != q.ser_bands {
        out.push(format!(
            "ser: score() gives {} over {} bands, ground truth {} over {}",
            scored.ser,
            scored.ser_bands,
            q.ser(),
            q.ser_bands
        ));
    }
    if !close(scored.goodput_bps, q.goodput_bps()) {
        out.push(format!(
            "goodput: score() gives {} bit/s, ground truth {}",
            scored.goodput_bps,
            q.goodput_bps()
        ));
    }
    if !close(1.0 - scored.packet_delivery, q.packet_loss()) {
        out.push(format!(
            "packet loss: score() gives {}, ground truth {}",
            1.0 - scored.packet_delivery,
            q.packet_loss()
        ));
    }
    out
}

/// The stream-vs-batch check: each report streamed through a
/// `LinkSession` must equal the batch report of the same clip's frames.
pub fn stream_matches_batch(
    stream: &[ReceiverReport],
    batch: &[ReceiverReport],
) -> Result<(), String> {
    if stream.len() != batch.len() {
        return Err(format!(
            "{} streamed reports for {} clips",
            stream.len(),
            batch.len()
        ));
    }
    for (i, (s, b)) in stream.iter().zip(batch).enumerate() {
        if s != b {
            return Err(format!(
                "clip {i}: streamed report differs from batch: {} vs {} bands, {} vs {} chunks, stats equal: {}",
                s.bands.len(),
                b.bands.len(),
                s.chunks.len(),
                b.chunks.len(),
                s.stats == b.stats
            ));
        }
    }
    Ok(())
}

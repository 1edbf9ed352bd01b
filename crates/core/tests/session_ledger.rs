//! The link doctor's ledger, end to end: a streamed decode must leave every
//! `rx.*` stage counter equal to the matching `ReceiverStats` field, both
//! in the session's labeled registry and in the process-global obs
//! snapshot.
//!
//! This is a test binary of its own so that no other test's decode can add
//! to the global counters while this one reads them; its tests take
//! [`obs_guard`] for the same reason.

use colorbars_camera::{CaptureConfig, DeviceProfile, Vignette};
use colorbars_channel::OpticalChannel;
use colorbars_core::depacket::{FailReason, ParsedPacket};
use colorbars_core::receiver::ReceiverStats;
use colorbars_core::{
    CskOrder, EqualizerKind, LinkConfig, LinkSession, LinkSimulator, Receiver, SessionConfig,
};
use colorbars_obs as obs;
use colorbars_obs::live::Registry;

/// Reads one stats field.
type StatsField = fn(&ReceiverStats) -> usize;

/// Every ledger counter the receiver maintains, with the stats field it
/// must equal.
const LEDGER: [(&str, StatsField); 22] = [
    ("rx.frames", |s| s.frames),
    ("rx.bands.segmented", |s| s.bands),
    ("rx.bands.classified", |s| s.bands_classified),
    ("rx.bands.calibrated", |s| s.bands_calibrated),
    ("rx.bands.depacketized", |s| s.bands_depacketized),
    ("rx.packets.ok", |s| s.packets_ok),
    ("rx.packets.header_lost", |s| s.packets_header_lost),
    ("rx.packets.rs_failed", |s| s.packets_rs_failed),
    ("rx.packets.overrun", |s| s.packets_overrun),
    ("rx.packets.undecoded", |s| s.packets_undecoded),
    ("rx.packets.unrecoverable_burst", |s| s.packets_burst_lost),
    ("rx.calibrations.ok", |s| s.calibrations),
    ("rx.calibrations.failed", |s| s.calibrations_failed),
    ("rx.rs.erasures_recovered", |s| s.erasures_recovered),
    ("rx.rs.errors_corrected", |s| s.errors_corrected),
    ("rx.fec.groups", |s| s.fec_groups),
    ("rx.fec.codewords", |s| s.fec_codewords),
    ("rx.fec.codewords_ok", |s| s.fec_codewords_ok),
    ("rx.fec.segments_missing", |s| s.fec_segments_missing),
    ("rx.fec.recovered_by_interleave", |s| {
        s.fec_recovered_by_interleave
    }),
    ("rx.eq.trained", |s| s.eq_trained),
    ("rx.eq.fallback", |s| s.eq_fallbacks),
];

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Assert that every ledger counter in `global` equals its `stats` field.
fn assert_global_ledger(global: &obs::Snapshot, stats: &ReceiverStats) {
    for (name, field) in LEDGER {
        let value = global
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value);
        assert_eq!(value, field(stats) as u64, "global counter {name}");
    }
}

#[test]
fn every_ledger_counter_equals_its_stats_field() {
    let _guard = obs_guard();
    let device = DeviceProfile::nexus5();
    let capture = CaptureConfig {
        roi_width: 8,
        vignette: Vignette::none(),
        seed: 177,
        threads: 1,
        ..Default::default()
    };
    let config = LinkConfig::paper_default(CskOrder::Csk8, 3000.0, device.loss_ratio())
        .with_fec(2)
        .with_equalizer(EqualizerKind::Ridge);
    let sim = LinkSimulator::new(config, device, OpticalChannel::ideal(), capture).unwrap();
    let k = sim.config().packet_budget().unwrap().k_bytes;
    let data: Vec<u8> = (0..8 * k).map(|i| (i * 11 + 5) as u8).collect();
    let run = sim.prepare_data(&data).unwrap();

    obs::init(obs::ObsConfig::default());
    obs::reset();
    let registry = Registry::new();
    let session = LinkSession::spawn(
        sim.receiver().unwrap(),
        SessionConfig::new("ledger", registry.clone()),
    );
    for f in &run.frames {
        session.push_frame(f.clone());
    }
    let report = session.finish();
    let global = obs::snapshot();
    obs::disable();
    obs::reset();

    // The run must exercise the deinterleave, RS-erasure and equalizer
    // stages, or most of the ledger would compare zero with zero.
    let stats = &report.stats;
    assert!(stats.fec_groups > 0, "{stats:?}");
    assert!(stats.erasures_recovered > 0, "{stats:?}");
    assert!(stats.eq_trained > 0, "{stats:?}");

    let labeled = registry.snapshot();
    for (name, field) in LEDGER {
        let want = field(stats) as u64;
        let in_session = labeled
            .counters
            .iter()
            .find(|c| c.id.name == name && c.id.label("session") == Some("ledger"))
            .map_or(0, |c| c.value);
        assert_eq!(in_session, want, "session counter {name}");
    }
    assert_global_ledger(&global, stats);
}

#[test]
fn finish_publishes_outcomes_absorbed_after_the_last_frame() {
    let _guard = obs_guard();
    let config = LinkConfig::paper_default(CskOrder::Csk8, 2000.0, 0.2312);
    let mut rx = Receiver::new(config, 7.85e-6).unwrap();
    obs::init(obs::ObsConfig::default());
    obs::reset();
    rx.absorb(vec![
        ParsedPacket::DataFailed {
            reason: FailReason::Overrun,
            data_symbols_received: 11,
        },
        ParsedPacket::CalibrationFailed,
    ]);
    let report = rx.finish();
    let global = obs::snapshot();
    obs::disable();
    obs::reset();
    assert_eq!(report.stats.packets_overrun, 1);
    assert_eq!(report.stats.calibrations_failed, 1);
    assert_global_ledger(&global, &report.stats);
}

//! Hierarchical timing spans.
//!
//! `let _s = obs::span!("rx.process_frame");` times the enclosing scope and
//! records the duration into the global registry's latency histogram of
//! the span's static name ([`crate::registry`]). Hierarchy is by naming
//! convention (dotted paths), not by runtime nesting — aggregation stays
//! O(1) per span and the reports stay stable across thread interleavings
//! (seed sweeps run spans from several threads at once).
//!
//! A span's histogram keeps count / total / min / max exactly (integer
//! nanoseconds) and p50 / p99 to its log-spaced bucket: within ~19 % of the
//! value, with a ~1 µs floor (see [`crate::live::LatencyHistogram`]).

use crate::json::Value;
use crate::live::{HistogramSample, LatencyHistogram};
use std::sync::OnceLock;
use std::time::Instant;

/// Time a scope: `let _guard = span!("name");`. The span ends (and its
/// duration is recorded) when the guard drops. Each call site resolves its
/// histogram once and caches it in a `static`; when observability is
/// disabled the guard is a no-op and nothing is resolved.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::live::LatencyHistogram> =
            ::std::sync::OnceLock::new();
        $crate::span::SpanGuard::enter($name, &HANDLE)
    }};
}

/// RAII guard produced by [`span!`]. Records elapsed wall-clock time into
/// the span's histogram on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    started: Option<(Instant, &'static LatencyHistogram)>,
}

impl SpanGuard {
    /// Start a span whose histogram is cached in `handle` (no-op when
    /// observability is disabled).
    #[inline]
    pub fn enter(name: &'static str, handle: &'static OnceLock<LatencyHistogram>) -> SpanGuard {
        let started = crate::is_enabled().then(|| {
            let hist = handle.get_or_init(|| crate::registry().histogram_ms(name, &[]));
            (Instant::now(), hist)
        });
        SpanGuard { name, started }
    }

    /// End the span early (otherwise it ends when dropped).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.started.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            hist.record_ns(ns);
            // Timeline tracing keeps the individual occurrence (begin
            // timestamp + duration) on this thread's track; one relaxed
            // atomic when tracing is off.
            crate::trace::record_span(self.name, start, ns);
        }
    }
}

/// Aggregated timings for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// The span's dotted name.
    pub name: String,
    /// Number of recorded entries.
    pub count: u64,
    /// Sum of all durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest observed duration, nanoseconds.
    pub min_ns: u64,
    /// Longest observed duration, nanoseconds.
    pub max_ns: u64,
    /// Median duration (histogram estimate), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile duration (histogram estimate), nanoseconds.
    pub p99_ns: u64,
}

impl SpanSummary {
    /// Summarize a span's histogram. The histogram holds integer
    /// nanoseconds and reports milliseconds; rounding back is exact for
    /// totals below 2^51 ns (26 days).
    pub(crate) fn from_sample(h: &HistogramSample) -> SpanSummary {
        let ns = |ms: f64| (ms * 1e6).round() as u64;
        SpanSummary {
            name: h.id.name.clone(),
            count: h.count,
            total_ns: ns(h.sum_ms),
            min_ns: ns(h.min_ms),
            max_ns: ns(h.max_ms),
            p50_ns: ns(h.p50_ms),
            p99_ns: ns(h.p99_ms),
        }
    }

    /// Mean duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("count", Value::from(self.count)),
            ("total_ns", Value::from(self.total_ns)),
            ("mean_ns", Value::from(self.mean_ns())),
            ("min_ns", Value::from(self.min_ns)),
            ("max_ns", Value::from(self.max_ns)),
            ("p50_ns", Value::from(self.p50_ns)),
            ("p99_ns", Value::from(self.p99_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn find(name: &str) -> Option<SpanSummary> {
        crate::snapshot().spans.into_iter().find(|s| s.name == name)
    }

    fn record_ns(name: &str, ns: u64) {
        crate::registry().histogram_ms(name, &[]).record_ns(ns);
    }

    #[test]
    fn span_guard_records_once_per_scope() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        for _ in 0..3 {
            let _s = crate::span!("test.span.thrice");
        }
        let s = find("test.span.thrice").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.total_ns >= s.min_ns);
        assert!(s.max_ns >= s.min_ns);
        crate::disable();
    }

    #[test]
    fn direct_recording_aggregates_exactly() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        for ns in [10_000, 20_000, 30_000, 40_000, 1_000_003] {
            record_ns("test.span.exact", ns);
        }
        let s = find("test.span.exact").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.total_ns, 1_100_003);
        assert_eq!(s.min_ns, 10_000);
        assert_eq!(s.max_ns, 1_000_003);
        let p50_err = (s.p50_ns as f64 - 30_000.0).abs() / 30_000.0;
        assert!(p50_err < 0.2, "p50 {} within a bucket of 30 µs", s.p50_ns);
        assert_eq!(s.p99_ns, 1_000_003, "the top bucket clamps to the max");
        crate::disable();
    }

    #[test]
    fn percentiles_track_a_long_uniform_ramp() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        // 20 480 samples from 0 to ~20 ms: p50 lands near the middle.
        let n = 20_480u64;
        for i in 0..n {
            record_ns("test.span.ramp", i * 1_000);
        }
        let s = find("test.span.ramp").unwrap();
        assert_eq!(s.count, n);
        let mid = (n * 1_000) as f64 / 2.0;
        assert!(
            (s.p50_ns as f64 - mid).abs() < mid * 0.25,
            "p50 {} should approximate {}",
            s.p50_ns,
            mid
        );
        crate::disable();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        {
            let _s = crate::span!("test.span.disabled");
        }
        record_ns("test.span.disabled", 5);
        assert!(find("test.span.disabled").is_none());
    }

    #[test]
    fn threads_aggregate_into_one_registry() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        record_ns("test.span.threads", 7_000);
                    }
                });
            }
        });
        let s = find("test.span.threads").unwrap();
        assert_eq!(s.count, 400);
        assert_eq!(s.total_ns, 2_800_000);
        crate::disable();
    }
}

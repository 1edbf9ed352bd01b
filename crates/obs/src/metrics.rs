//! Typed counters for pipeline-stage accounting.
//!
//! Counters are monotonically increasing u64s keyed by static names
//! (`rx.bands.segmented`, `tx.packets.data`) in the global registry
//! ([`crate::registry`]). Each [`crate::counter!`] call site resolves its
//! handle once and caches it in a `static`, so a recording is one atomic
//! add and the seed sweep's worker threads accumulate into one view
//! without a lock.

/// Increment a named counter: `counter!("rx.frames")` adds 1,
/// `counter!("rx.bands.segmented", n)` adds `n`. No-op when observability
/// is disabled: the switch is checked before the handle is resolved.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1)
    };
    ($name:literal, $n:expr) => {
        if $crate::is_enabled() {
            static HANDLE: ::std::sync::OnceLock<$crate::live::Counter> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().counter($name, &[]))
                .add($n as u64);
        }
    };
}

/// One counter's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSummary {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSummary {
    /// Gauge name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use crate::test_lock;

    fn get(name: &str) -> u64 {
        crate::snapshot()
            .counters
            .into_iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        crate::counter!("test.metrics.b");
        crate::counter!("test.metrics.a", 41);
        crate::counter!("test.metrics.a");
        assert_eq!(get("test.metrics.a"), 42);
        assert_eq!(get("test.metrics.b"), 1);
        let names: Vec<String> = crate::snapshot()
            .counters
            .into_iter()
            .map(|c| c.name)
            .collect();
        let a = names.iter().position(|n| n == "test.metrics.a").unwrap();
        let b = names.iter().position(|n| n == "test.metrics.b").unwrap();
        assert!(a < b, "summaries sorted by name");
        crate::disable();
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _guard = test_lock::hold();
        crate::disable();
        crate::reset();
        crate::counter!("test.metrics.off", 5);
        assert_eq!(get("test.metrics.off"), 0);
    }

    #[test]
    fn counter_value_survives_snapshot() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        crate::counter!("test.metrics.persist", 9);
        let _ = crate::snapshot();
        assert_eq!(get("test.metrics.persist"), 9);
        crate::disable();
    }

    #[test]
    fn reset_keeps_cached_handles_live() {
        let _guard = test_lock::hold();
        crate::init(crate::ObsConfig::default());
        crate::reset();
        let bump = |n: u64| crate::counter!("test.metrics.cached", n);
        bump(3);
        crate::reset();
        assert_eq!(get("test.metrics.cached"), 0, "reset zeroes in place");
        // The same call site, its handle already cached, lands in the
        // zeroed cell the snapshot reads.
        bump(2);
        assert_eq!(get("test.metrics.cached"), 2);
        crate::disable();
    }
}

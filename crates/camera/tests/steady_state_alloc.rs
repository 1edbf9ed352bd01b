//! Steady-state capture performs no heap allocation: once the frame pool,
//! the vignette cache and the rig's column-run and region buffers are warm,
//! rendering a frame — of one emitter or of a multi-region scene, at either
//! precision — allocates nothing. A counting global allocator observes it
//! directly.

use colorbars_camera::{CameraRig, CaptureConfig, DeviceProfile, SceneRadiance};
use colorbars_channel::{BlurKernel, OpticalChannel};
use colorbars_color::Xyz;
use colorbars_led::{DriveLevels, LedEmitter, ScheduledColor, TriLed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn emitter(drive: DriveLevels) -> LedEmitter {
    LedEmitter::new(
        TriLed::typical(),
        200_000.0,
        &[ScheduledColor {
            drive,
            duration: 1.0,
        }],
    )
}

/// Three column spans, the middle one dark.
struct ThreeSpans {
    emitters: [LedEmitter; 3],
    channel: OpticalChannel,
}

impl SceneRadiance for ThreeSpans {
    fn region_count(&self) -> usize {
        3
    }
    fn region_of_column(&self, col: usize, width: usize) -> usize {
        (3 * col / width).min(2)
    }
    fn region_mean(&self, region: usize, t0: f64, t1: f64) -> Xyz {
        self.channel.received_mean(&self.emitters[region], t0, t1)
    }
    fn region_blur(&self, _region: usize) -> &BlurKernel {
        self.channel.blur()
    }
}

#[test]
fn warm_capture_allocates_nothing() {
    let single = emitter(DriveLevels::new(0.2, 0.3, 0.1));
    let scene = ThreeSpans {
        emitters: [
            emitter(DriveLevels::new(0.3, 0.1, 0.1)),
            emitter(DriveLevels::OFF),
            emitter(DriveLevels::new(0.1, 0.1, 0.3)),
        ],
        channel: OpticalChannel::paper_setup(),
    };
    let mut device = DeviceProfile::nexus5();
    device.rows = 256;
    for lane_f32 in [false, true] {
        let cfg = CaptureConfig {
            roi_width: 23,
            threads: 1,
            lane_f32,
            ..Default::default()
        };
        let mut rig = CameraRig::new(device.clone(), OpticalChannel::paper_setup(), cfg);
        // Warm-up: fill the pool, the vignette cache and the rig's buffers
        // for the widest scene the rig will render.
        for k in 0..2 {
            drop(rig.capture_frame_scene(&scene, k as f64 * 0.03));
            drop(rig.capture_frame(&single, k as f64 * 0.03));
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for k in 2..5 {
            drop(rig.capture_frame(&single, k as f64 * 0.03));
            drop(rig.capture_frame_scene(&scene, k as f64 * 0.03));
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocated, 0,
            "steady-state capture allocated {allocated} times (lane_f32={lane_f32})"
        );
    }
}

//! CIELAB color space and ΔE color difference metrics.
//!
//! The ColorBars receiver demodulates in CIELAB (paper Section 7): frames are
//! converted from RGB, the lightness channel `L` is discarded to remove
//! non-uniform brightness (vignetting), and received symbols are matched to
//! calibration references by Euclidean distance in the `(a, b)` plane — the
//! paper's ΔE metric with the classical just-noticeable-difference threshold
//! of 2.3.

use crate::xyz::Xyz;

/// The ΔE*ab value below which two colors are generally indistinguishable to
/// a human observer — the threshold the paper uses both for color matching in
/// demodulation and as the flicker-visibility criterion.
pub const JND_DELTA_E: f64 = 2.3;

/// A CIELAB color.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Lab {
    /// Lightness, `0` (black) to `100` (reference white).
    pub l: f64,
    /// Green(−) ↔ red(+) opponent axis.
    pub a: f64,
    /// Blue(−) ↔ yellow(+) opponent axis.
    pub b: f64,
}

impl Lab {
    /// Construct from components.
    pub const fn new(l: f64, a: f64, b: f64) -> Self {
        Lab { l, a, b }
    }

    /// Convert an XYZ color to Lab relative to `white` (normally
    /// [`Xyz::D65_WHITE`] scaled to the scene's reference luminance).
    ///
    /// The cube root is libm's `cbrt`; this is the reference that
    /// [`srgb_row_mean`] reproduces bit for bit on stored pixels.
    pub fn from_xyz(xyz: Xyz, white: Xyz) -> Lab {
        Lab::from_f(
            lab_f(safe_div(xyz.x, white.x)),
            lab_f(safe_div(xyz.y, white.y)),
            lab_f(safe_div(xyz.z, white.z)),
        )
    }

    /// Lab from the companded ratios `f(X/Xn)`, `f(Y/Yn)`, `f(Z/Zn)`.
    #[inline(always)]
    fn from_f(fx: f64, fy: f64, fz: f64) -> Lab {
        Lab {
            l: 116.0 * fy - 16.0,
            a: 500.0 * (fx - fy),
            b: 200.0 * (fy - fz),
        }
    }

    /// Convert back to XYZ relative to `white`.
    pub fn to_xyz(self, white: Xyz) -> Xyz {
        let fy = (self.l + 16.0) / 116.0;
        let fx = fy + self.a / 500.0;
        let fz = fy - self.b / 200.0;
        Xyz::new(
            white.x * lab_f_inv(fx),
            white.y * lab_f_inv(fy),
            white.z * lab_f_inv(fz),
        )
    }

    /// The chroma component pair `(a, b)` with lightness removed — the
    /// representation the receiver reduces every pixel to (Section 7 Step 1).
    pub fn ab(self) -> (f64, f64) {
        (self.a, self.b)
    }

    /// Euclidean distance in the `(a, b)` plane only (lightness ignored).
    ///
    /// This is the color-matching distance of the paper's demodulator: after
    /// dropping `L`, `ΔE = sqrt(Δa² + Δb²)`.
    pub fn delta_e_ab_plane(self, o: Lab) -> f64 {
        ((self.a - o.a).powi(2) + (self.b - o.b).powi(2)).sqrt()
    }
}

/// CIE76 color difference: Euclidean distance in full Lab space.
pub fn delta_e76(x: Lab, y: Lab) -> f64 {
    ((x.l - y.l).powi(2) + (x.a - y.a).powi(2) + (x.b - y.b).powi(2)).sqrt()
}

/// CIE94 color difference (graphic-arts weights), a perceptually more uniform
/// refinement of CIE76. Provided for comparison experiments; the paper itself
/// uses CIE76.
pub fn delta_e94(x: Lab, y: Lab) -> f64 {
    let dl = x.l - y.l;
    let c1 = (x.a * x.a + x.b * x.b).sqrt();
    let c2 = (y.a * y.a + y.b * y.b).sqrt();
    let dc = c1 - c2;
    let da = x.a - y.a;
    let db = x.b - y.b;
    let dh2 = (da * da + db * db - dc * dc).max(0.0);
    let sl = 1.0;
    let sc = 1.0 + 0.045 * c1;
    let sh = 1.0 + 0.015 * c1;
    ((dl / sl).powi(2) + (dc / sc).powi(2) + dh2 / (sh * sh)).sqrt()
}

/// CIEDE2000 color difference — the current CIE recommendation, correcting
/// CIE76's non-uniformity in the blue region and for saturated colors.
///
/// Provided for demodulation-metric studies (the paper uses CIE76 with the
/// 2.3 JND; ΔE2000 is the natural "what if" upgrade). Implementation
/// follows the standard formulation (Sharma, Wu & Dalal 2005) with unit
/// parametric factors kL = kC = kH = 1.
pub fn delta_e2000(x: Lab, y: Lab) -> f64 {
    let (l1, a1, b1) = (x.l, x.a, x.b);
    let (l2, a2, b2) = (y.l, y.a, y.b);

    let c1 = (a1 * a1 + b1 * b1).sqrt();
    let c2 = (a2 * a2 + b2 * b2).sqrt();
    let c_bar = 0.5 * (c1 + c2);
    let c7 = c_bar.powi(7);
    let g = 0.5 * (1.0 - (c7 / (c7 + 25.0f64.powi(7))).sqrt());

    let ap1 = (1.0 + g) * a1;
    let ap2 = (1.0 + g) * a2;
    let cp1 = (ap1 * ap1 + b1 * b1).sqrt();
    let cp2 = (ap2 * ap2 + b2 * b2).sqrt();

    let hp = |ap: f64, b: f64| -> f64 {
        if ap == 0.0 && b == 0.0 {
            0.0
        } else {
            let h = b.atan2(ap).to_degrees();
            if h < 0.0 {
                h + 360.0
            } else {
                h
            }
        }
    };
    let hp1 = hp(ap1, b1);
    let hp2 = hp(ap2, b2);

    let dl = l2 - l1;
    let dc = cp2 - cp1;
    let dhp = if cp1 * cp2 == 0.0 {
        0.0
    } else {
        let mut d = hp2 - hp1;
        if d > 180.0 {
            d -= 360.0;
        } else if d < -180.0 {
            d += 360.0;
        }
        d
    };
    let dh = 2.0 * (cp1 * cp2).sqrt() * (dhp.to_radians() / 2.0).sin();

    let l_bar = 0.5 * (l1 + l2);
    let cp_bar = 0.5 * (cp1 + cp2);
    let hp_bar = if cp1 * cp2 == 0.0 {
        hp1 + hp2
    } else {
        let sum = hp1 + hp2;
        let diff = (hp1 - hp2).abs();
        if diff <= 180.0 {
            0.5 * sum
        } else if sum < 360.0 {
            0.5 * (sum + 360.0)
        } else {
            0.5 * (sum - 360.0)
        }
    };

    let t = 1.0 - 0.17 * (hp_bar - 30.0).to_radians().cos()
        + 0.24 * (2.0 * hp_bar).to_radians().cos()
        + 0.32 * (3.0 * hp_bar + 6.0).to_radians().cos()
        - 0.20 * (4.0 * hp_bar - 63.0).to_radians().cos();

    let l50 = (l_bar - 50.0).powi(2);
    let sl = 1.0 + 0.015 * l50 / (20.0 + l50).sqrt();
    let sc = 1.0 + 0.045 * cp_bar;
    let sh = 1.0 + 0.015 * cp_bar * t;

    let d_theta = 30.0 * (-((hp_bar - 275.0) / 25.0).powi(2)).exp();
    let cp7 = cp_bar.powi(7);
    let rc = 2.0 * (cp7 / (cp7 + 25.0f64.powi(7))).sqrt();
    let rt = -rc * (2.0 * d_theta).to_radians().sin();

    let (fl, fc, fh) = (dl / sl, dc / sc, dh / sh);
    (fl * fl + fc * fc + fh * fh + rt * fc * fh).sqrt()
}

const DELTA: f64 = 6.0 / 29.0;
/// Where `lab_f` switches from its linear toe to the cube root.
const F_KNEE: f64 = DELTA * DELTA * DELTA;
/// Slope divisor of `lab_f`'s linear toe.
const F_TOE: f64 = 3.0 * DELTA * DELTA;

fn lab_f(t: f64) -> f64 {
    if t > F_KNEE {
        t.cbrt()
    } else {
        t / F_TOE + 4.0 / 29.0
    }
}

/// `∛t` for finite `t ≥ F_KNEE` from straight-line arithmetic that
/// vectorizes (libm's `cbrt` is an opaque call per lane), plus whether the
/// result might not be the nearest double.
///
/// A bit-trick guess (the high word divided by three and re-biased: ~5
/// good bits) is refined by two Halley steps (cubic convergence: ~15 then
/// ~47 bits) and one Newton step whose residual `y³ − t` is computed in
/// double-double with `mul_add` ([`cube_residual`]). The exact Newton
/// value `x = y − d` lies within ~2⁻⁴¹ ulp of `∛t` (the step squares the
/// ~2⁻⁴⁷ error, and `d` is accurate to a few roundings of itself), so
/// `s = RN(x)` is the nearest double to `∛t` unless `x` sits that close to
/// a rounding boundary. Fast2Sum gives `x = s + e` exactly, and nudging
/// `e` outward by 2⁻²⁰ of itself moves `x` across a boundary only when it
/// is within ~2⁻²¹ ulp of one — a million times wider than the error — so
/// `s` is flagged whenever it could be wrong, and otherwise is exact. (On
/// the receiver's 50 M distinct inputs the flag is raised 48 times.)
#[inline(always)]
fn cbrt_newton(t: f64) -> (f64, bool) {
    let hi = (t.to_bits() >> 32) as u32;
    let mut y = f64::from_bits(u64::from(hi / 3 + 715_094_163) << 32);
    for _ in 0..2 {
        let y3 = y * y * y;
        y *= (y3 + 2.0 * t) / (2.0 * y3 + t);
    }
    let d = cube_residual(y, t) / (3.0 * y * y);
    let s = y - d;
    let e = (y - s) - d;
    (s, e.mul_add(1.0 + 1.0 / 1_048_576.0, s) != s)
}

/// The double nearest to `∛t` given `y` within one ulp of it: `y` or its
/// neighbour on the far side of `∛t`, whichever has the smaller
/// `|y³ − t|`. This can only go wrong when `∛t` lies within about 2⁻⁵² ulp
/// of a midpoint between two doubles.
fn nearest_of_neighbours(y: f64, t: f64) -> f64 {
    let r = cube_residual(y, t);
    // t > 0, so y is a positive normal double and its bits are monotone.
    let bits = y.to_bits();
    let other = f64::from_bits(if r > 0.0 { bits - 1 } else { bits + 1 });
    if cube_residual(other, t).abs() < r.abs() {
        other
    } else {
        y
    }
}

/// `y³ − t`, with `y³` carried in double-double so the difference is
/// accurate to a rounding of itself when `y ≈ ∛t`.
#[inline(always)]
fn cube_residual(y: f64, t: f64) -> f64 {
    let y2 = y * y;
    let y2_lo = y.mul_add(y, -y2);
    let y3 = y2 * y;
    let y3_lo = y2.mul_add(y, -y3);
    (y3 - t) + y2_lo.mul_add(y, y3_lo)
}

/// Pixels the row kernel converts per pass: three `[f64; ROW_CHUNK]`
/// stacks of companded ratios (768 bytes).
const ROW_CHUNK: usize = 32;
/// The row kernel's vector block; divides [`ROW_CHUNK`].
const LANES: usize = 8;

/// The mean CIELAB value of a row of stored sRGB pixels: the receiver's
/// row reduction (paper Section 7, Steps 1–2).
///
/// Bit-identical to converting each pixel with
/// `Lab::from_xyz(SrgbToXyzLut::srgb().xyz_of(px), Xyz::D65_WHITE)`,
/// summing `L`, `a` and `b` in pixel order and dividing by the row length.
/// The arithmetic is the same operation for operation; only the cube root
/// is computed differently: in vectorizable arithmetic that returns the
/// double nearest to `∛t`, which is also what libm's `cbrt` returns on
/// every input a byte pixel can produce (a unit test walks all 2²⁴). The
/// kernel keeps no state and allocates nothing: pixels are converted in
/// 32-pixel chunks on the stack. An empty row has no mean (all components
/// NaN).
pub fn srgb_row_mean(row: &[[u8; 3]]) -> Lab {
    let (mut l, mut a, mut b) = (0.0, 0.0, 0.0);
    for_each_srgb_lab(row, |lab| {
        l += lab.l;
        a += lab.a;
        b += lab.b;
    });
    let n = row.len() as f64;
    Lab::new(l / n, a / n, b / n)
}

/// [`lab_f`] over the first `n` entries of `f`, in place, with the cube
/// root of [`cbrt_newton`] in place of libm's.
///
/// Work goes in whole blocks of [`LANES`], each one straight run of vector
/// instructions with no scalar remainder loop: entries past `n` are stale
/// but finite, and their results are never read. Both arms of `lab_f` are
/// computed and one is selected per lane. A block in which any root was
/// flagged as possibly not the nearest double settles its roots with
/// [`nearest_of_neighbours`] — a rare scalar pass.
#[inline(always)]
fn lab_f_blocks(f: &mut [f64; ROW_CHUNK], n: usize) {
    for block in f[..n.next_multiple_of(LANES)].chunks_exact_mut(LANES) {
        let ts: [f64; LANES] = (&*block).try_into().expect("a whole block");
        let mut near_tie = false;
        for (f, &t) in block.iter_mut().zip(&ts) {
            let (root, flagged) = cbrt_newton(t.max(F_KNEE));
            let toe = t / F_TOE + 4.0 / 29.0;
            near_tie |= flagged & (t > F_KNEE);
            *f = if t > F_KNEE { root } else { toe };
        }
        if near_tie {
            for (f, &t) in block.iter_mut().zip(&ts) {
                if t > F_KNEE {
                    *f = nearest_of_neighbours(*f, t);
                }
            }
        }
    }
}

/// Visit the Lab value of every pixel of `row`, in order.
///
/// Each chunk runs as separate loops (decode to white-relative XYZ, then
/// `lab_f` over X, over Y, over Z) so each channel's loop vectorizes on
/// its own; the visits come last, in pixel order.
#[inline(always)]
fn for_each_srgb_lab(row: &[[u8; 3]], mut visit: impl FnMut(Lab)) {
    let lut = crate::rgb::SrgbToXyzLut::srgb();
    let white = Xyz::D65_WHITE;
    let mut fx = [0.0f64; ROW_CHUNK];
    let mut fy = [0.0f64; ROW_CHUNK];
    let mut fz = [0.0f64; ROW_CHUNK];
    for chunk in row.chunks(ROW_CHUNK) {
        let n = chunk.len();
        for (i, &px) in chunk.iter().enumerate() {
            let xyz = lut.xyz_of(px);
            fx[i] = safe_div(xyz.x, white.x);
            fy[i] = safe_div(xyz.y, white.y);
            fz[i] = safe_div(xyz.z, white.z);
        }
        lab_f_blocks(&mut fx, n);
        lab_f_blocks(&mut fy, n);
        lab_f_blocks(&mut fz, n);
        for i in 0..n {
            visit(Lab::from_f(fx[i], fy[i], fz[i]));
        }
    }
}

fn lab_f_inv(t: f64) -> f64 {
    if t > DELTA {
        t * t * t
    } else {
        F_TOE * (t - 4.0 / 29.0)
    }
}

fn safe_div(n: f64, d: f64) -> f64 {
    if d.abs() < 1e-12 {
        0.0
    } else {
        n / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the row kernel must reproduce bit for bit.
    fn reference_lab(px: [u8; 3]) -> Lab {
        Lab::from_xyz(crate::rgb::SrgbToXyzLut::srgb().xyz_of(px), Xyz::D65_WHITE)
    }

    fn assert_same_bits(got: Lab, want: Lab, what: &dyn std::fmt::Debug) {
        assert_eq!(got.l.to_bits(), want.l.to_bits(), "L of {what:?}");
        assert_eq!(got.a.to_bits(), want.a.to_bits(), "a of {what:?}");
        assert_eq!(got.b.to_bits(), want.b.to_bits(), "b of {what:?}");
    }

    #[test]
    fn row_kernel_matches_from_xyz_on_every_byte_triple() {
        // All 2²⁴ pixels, 65 536 to a row so every lane of every chunk
        // runs: this covers every cube-root input the receiver can see.
        let mut row = vec![[0u8; 3]; 1 << 16];
        let mut flagged = 0;
        for r in 0..=255u8 {
            for (i, px) in row.iter_mut().enumerate() {
                *px = [r, (i >> 8) as u8, i as u8];
            }
            let mut i = 0;
            for_each_srgb_lab(&row, |lab| {
                assert_same_bits(lab, reference_lab(row[i]), &row[i]);
                i += 1;
            });
            assert_eq!(i, row.len());
            flagged += row
                .iter()
                .flat_map(|&px| {
                    let xyz = crate::rgb::SrgbToXyzLut::srgb().xyz_of(px);
                    let w = Xyz::D65_WHITE;
                    [
                        safe_div(xyz.x, w.x),
                        safe_div(xyz.y, w.y),
                        safe_div(xyz.z, w.z),
                    ]
                })
                .filter(|&t| t > F_KNEE && cbrt_newton(t).1)
                .count();
        }
        // The rare neighbour-pick pass ran, and agreed with libm, too.
        assert!(flagged > 0, "no root was flagged for the neighbour pick");
    }

    #[test]
    fn row_mean_of_uniform_rows() {
        // Black sits on the linear toe (t = 0), saturated white at t = 1;
        // an empty row has no mean. Chunking and summation order are
        // pinned against the per-pixel reference in `row_signal`'s tests.
        for width in [1, 33] {
            let black = srgb_row_mean(&vec![[0, 0, 0]; width]);
            assert_eq!((black.l, black.a, black.b), (0.0, 0.0, 0.0));
            let white = srgb_row_mean(&vec![[255, 255, 255]; width]);
            assert!((white.l - 100.0).abs() < 1e-6, "{white:?}");
        }
        let one = srgb_row_mean(&[[255, 255, 255]]);
        assert_same_bits(one, reference_lab([255, 255, 255]), &"white");
        assert!(srgb_row_mean(&[]).l.is_nan());
    }

    #[test]
    fn lab_f_blocks_is_lab_f_beyond_the_byte_domain() {
        // A log-spaced sweep over [10⁻⁴, 8]: the toe, the knee, and cube
        // roots past t = 1, in whole chunks and with a ragged tail.
        let (lo, hi) = (1e-4f64.ln(), 8f64.ln());
        let ts: Vec<f64> = (0..=100_000)
            .map(|i| (lo + (hi - lo) * i as f64 / 100_000.0).exp())
            .chain([F_KNEE, F_KNEE.next_up(), 0.125, 1.0, 8.0])
            .collect();
        for chunk in ts.chunks(ROW_CHUNK - 3) {
            let mut f = [0.0; ROW_CHUNK];
            f[..chunk.len()].copy_from_slice(chunk);
            lab_f_blocks(&mut f, chunk.len());
            for (&got, &t) in f.iter().zip(chunk) {
                assert_eq!(got.to_bits(), lab_f(t).to_bits(), "{t:e}");
            }
        }
    }

    #[test]
    fn the_neighbour_pick_settles_on_the_nearest_double() {
        for i in 0..10_000 {
            let t = F_KNEE + (1.5 - F_KNEE) * i as f64 / 10_000.0;
            let root = t.cbrt();
            for y in [root.next_down(), root, root.next_up()] {
                assert_eq!(nearest_of_neighbours(y, t), root, "{t:e} from {y:e}");
            }
        }
    }

    #[test]
    fn white_maps_to_l100_a0_b0() {
        let lab = Lab::from_xyz(Xyz::D65_WHITE, Xyz::D65_WHITE);
        assert!((lab.l - 100.0).abs() < 1e-9);
        assert!(lab.a.abs() < 1e-9);
        assert!(lab.b.abs() < 1e-9);
    }

    #[test]
    fn black_maps_to_l0() {
        let lab = Lab::from_xyz(Xyz::BLACK, Xyz::D65_WHITE);
        assert!(lab.l.abs() < 1e-9);
    }

    #[test]
    fn xyz_round_trip() {
        let samples = [
            Xyz::new(0.2, 0.3, 0.4),
            Xyz::new(0.01, 0.005, 0.02),
            Xyz::new(0.9, 0.95, 1.0),
        ];
        for xyz in samples {
            let lab = Lab::from_xyz(xyz, Xyz::D65_WHITE);
            let back = lab.to_xyz(Xyz::D65_WHITE);
            assert!(back.to_vec3().max_abs_diff(xyz.to_vec3()) < 1e-9, "{xyz:?}");
        }
    }

    #[test]
    fn lightness_change_does_not_move_ab_much_for_same_chromaticity() {
        // The whole point of converting to Lab and dropping L (Section 7):
        // the same chromaticity at different brightness keeps most of its
        // difference in the L channel. Lab is not perfectly
        // luminance-invariant (the cube-root compressions of a and b scale
        // with luminance too), but discarding L must remove the majority of
        // a vignetting-sized (±30%) brightness variation.
        let c = crate::Chromaticity::new(0.45, 0.40);
        let dim = Lab::from_xyz(c.with_luminance(0.42), Xyz::D65_WHITE);
        let bright = Lab::from_xyz(c.with_luminance(0.6), Xyz::D65_WHITE);
        let full = delta_e76(dim, bright);
        let ab_only = dim.delta_e_ab_plane(bright);
        assert!(
            ab_only < 0.5 * full,
            "ab-plane distance {ab_only} vs full {full}"
        );
    }

    #[test]
    fn delta_e76_is_a_metric_on_samples() {
        let a = Lab::new(50.0, 10.0, -10.0);
        let b = Lab::new(55.0, -5.0, 20.0);
        let c = Lab::new(40.0, 0.0, 0.0);
        assert_eq!(delta_e76(a, a), 0.0);
        assert!((delta_e76(a, b) - delta_e76(b, a)).abs() < 1e-12);
        assert!(delta_e76(a, c) <= delta_e76(a, b) + delta_e76(b, c) + 1e-12);
    }

    #[test]
    fn delta_e94_close_to_e76_near_neutral() {
        let a = Lab::new(50.0, 1.0, -1.0);
        let b = Lab::new(52.0, -1.0, 1.5);
        let e76 = delta_e76(a, b);
        let e94 = delta_e94(a, b);
        assert!((e76 - e94).abs() < 0.25 * e76);
    }

    #[test]
    fn delta_e94_compresses_chroma_differences() {
        // For highly saturated colors, CIE94 down-weights chroma difference.
        let a = Lab::new(50.0, 80.0, 0.0);
        let b = Lab::new(50.0, 90.0, 0.0);
        assert!(delta_e94(a, b) < delta_e76(a, b));
    }

    #[test]
    fn delta_e2000_basics() {
        let a = Lab::new(50.0, 10.0, -10.0);
        let b = Lab::new(55.0, -5.0, 20.0);
        // Identity and symmetry.
        assert_eq!(delta_e2000(a, a), 0.0);
        assert!((delta_e2000(a, b) - delta_e2000(b, a)).abs() < 1e-9);
        // Small near-neutral differences agree with CIE76 within ~30%.
        let p = Lab::new(50.0, 1.0, 1.0);
        let q = Lab::new(51.0, 1.5, 0.5);
        let e76 = delta_e76(p, q);
        let e00 = delta_e2000(p, q);
        assert!((e00 - e76).abs() < 0.3 * e76, "e00 {e00} vs e76 {e76}");
    }

    #[test]
    fn delta_e2000_sharma_test_pair() {
        // Pair 1 of the Sharma–Wu–Dalal CIEDE2000 test data set.
        let a = Lab::new(50.0, 2.6772, -79.7751);
        let b = Lab::new(50.0, 0.0, -82.7485);
        let e = delta_e2000(a, b);
        assert!((e - 2.0425).abs() < 0.01, "got {e}");
    }

    #[test]
    fn delta_e2000_compresses_saturated_differences() {
        // Like CIE94, chroma differences between saturated colors count
        // for less than the same Euclidean step near neutral.
        let sat_a = Lab::new(50.0, 80.0, 0.0);
        let sat_b = Lab::new(50.0, 90.0, 0.0);
        let neu_a = Lab::new(50.0, 0.0, 0.0);
        let neu_b = Lab::new(50.0, 10.0, 0.0);
        assert!(delta_e2000(sat_a, sat_b) < delta_e2000(neu_a, neu_b));
    }

    #[test]
    fn f_and_inverse_are_mutual() {
        for i in 0..=100 {
            let t = i as f64 / 100.0;
            assert!((lab_f_inv(lab_f(t)) - t).abs() < 1e-12);
        }
    }
}

//! Differential oracle for the row-run raster placement.
//!
//! `oracle_place` is the original per-cell implementation of
//! `RasterPlacement::place`: for every offset of the sweep it tests every
//! grid cell that could intersect the wafer and collects the sites. It
//! lives here only as a reference. The library's `count` and `place`
//! must agree with it exactly on seeded random wafers and dies: the same
//! count, and the same sites in the same order, bit for bit.

use maly_units::Centimeters;
use maly_wafer_geom::{raster::RasterPlacement, DieDimensions, DieSite, Wafer};

fn oracle_place(offset_steps: u32, wafer: &Wafer, die: DieDimensions) -> Vec<DieSite> {
    let pitch_x = die.width().value() + wafer.saw_street_width_cm();
    let pitch_y = die.height().value() + wafer.saw_street_width_cm();

    let mut best: Option<Vec<DieSite>> = None;
    for ix in 0..offset_steps {
        for iy in 0..offset_steps {
            let dx = pitch_x * f64::from(ix) / f64::from(offset_steps);
            let dy = pitch_y * f64::from(iy) / f64::from(offset_steps);
            let sites = place_with_offset(wafer, die, pitch_x, pitch_y, dx, dy);
            if best.as_ref().is_none_or(|b| sites.len() > b.len()) {
                best = Some(sites);
            }
        }
    }
    best.unwrap_or_default()
}

/// Enumerates complete die sites for one fixed grid offset.
fn place_with_offset(
    wafer: &Wafer,
    die: DieDimensions,
    pitch_x: f64,
    pitch_y: f64,
    dx: f64,
    dy: f64,
) -> Vec<DieSite> {
    let r = wafer.usable_radius().value();
    let w = die.width().value();
    let h = die.height().value();

    // Grid cell (i, j) holds a die whose lower-left corner is at
    // (dx + i·pitch_x, dy + j·pitch_y) relative to the wafer center.
    // Enumerate all cells that could possibly intersect the wafer.
    let i_min = ((-r - dx) / pitch_x).floor() as i64 - 1;
    let i_max = ((r - dx) / pitch_x).ceil() as i64 + 1;
    let j_min = ((-r - dy) / pitch_y).floor() as i64 - 1;
    let j_max = ((r - dy) / pitch_y).ceil() as i64 + 1;

    let mut sites = Vec::new();
    for j in j_min..=j_max {
        for i in i_min..=i_max {
            let x0 = dx + i as f64 * pitch_x;
            let y0 = dy + j as f64 * pitch_y;
            // Inside the circle, and above the flat chord if one exists
            // (the die's bottom edge is its lowest point).
            let above_flat = wafer.flat_distance().is_none_or(|d| y0 >= -d.value());
            if above_flat && rectangle_inside_circle(x0, y0, w, h, r) {
                sites.push((i, j, x0 + w / 2.0, y0 + h / 2.0));
            }
        }
    }

    // Normalize grid indices so the smallest occupied row/column is zero.
    let min_i = sites.iter().map(|s| s.0).min().unwrap_or(0);
    let min_j = sites.iter().map(|s| s.1).min().unwrap_or(0);
    sites
        .into_iter()
        .map(|(i, j, cx, cy)| DieSite {
            column: u32::try_from(i - min_i).expect("normalized index is non-negative"),
            row: u32::try_from(j - min_j).expect("normalized index is non-negative"),
            center_x: cx,
            center_y: cy,
        })
        .collect()
}

/// True when the axis-aligned rectangle with lower-left corner `(x0, y0)`
/// and size `w × h` lies entirely inside the circle of radius `r` centered
/// at the origin. For a convex region it suffices to test the corners; the
/// farthest corner dominates.
fn rectangle_inside_circle(x0: f64, y0: f64, w: f64, h: f64, r: f64) -> bool {
    let far_x = x0.abs().max((x0 + w).abs());
    let far_y = y0.abs().max((y0 + h).abs());
    far_x * far_x + far_y * far_y <= r * r
}

/// xorshift64* stream: reproducible without any dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`: small dies are as likely per decade as
    /// large ones.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn cm(v: f64) -> Centimeters {
    Centimeters::new(v).unwrap()
}

/// A random 6″ or 8″ wafer, optionally with saw street, edge exclusion
/// and a primary flat.
fn random_wafer(rng: &mut Rng) -> Wafer {
    let mut wafer = if rng.below(2) == 0 {
        Wafer::six_inch()
    } else {
        Wafer::eight_inch()
    };
    if rng.below(2) == 0 {
        wafer = wafer.saw_street(cm(0.005 + 0.2 * rng.unit()));
    }
    if rng.below(3) == 0 {
        wafer = wafer.edge_exclusion(cm(0.05 + 0.6 * rng.unit()));
    }
    if rng.below(3) == 0 {
        let radius = wafer.radius().value();
        wafer = wafer.primary_flat(cm(radius * (0.8 + 0.19 * rng.unit())));
    }
    wafer
}

fn assert_same_sites(got: &[DieSite], want: &[DieSite], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: site count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.column == w.column
                && g.row == w.row
                && g.center_x.to_bits() == w.center_x.to_bits()
                && g.center_y.to_bits() == w.center_y.to_bits(),
            "{what}: site {k} is {g:?}, oracle {w:?}"
        );
    }
}

fn check(steps: u32, wafer: &Wafer, die: DieDimensions) {
    let what = format!("steps {steps}, wafer {wafer:?}, die {die:?}");
    let want = oracle_place(steps, wafer, die);
    let placement = RasterPlacement::new(steps);
    let map = placement.place(wafer, die);
    let count = placement.count(wafer, die);
    assert_eq!(count.value() as usize, want.len(), "{what}: count");
    assert_eq!(map.count(), count, "{what}: place().count()");
    assert_same_sites(map.sites(), &want, &what);
}

/// Random rectangular dies from 0.02 to 8 cm a side on random wafers.
/// The offset sweep size is drawn so that offsets run from 0 to just
/// below the pitch (`(steps − 1)/steps`); tiny dies get a single offset
/// to keep the per-cell oracle fast.
#[test]
fn count_and_place_match_the_per_cell_scan() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..300 {
        let wafer = random_wafer(&mut rng);
        let die = DieDimensions::new(
            cm(rng.log_uniform(0.02, 8.0)),
            cm(rng.log_uniform(0.02, 8.0)),
        );
        let cells =
            (2.0 * wafer.radius().value()).powi(2) / (die.width().value() * die.height().value());
        let steps = if cells > 20_000.0 {
            1
        } else {
            [1, 2, 3, 8, 13][rng.below(5) as usize]
        };
        check(steps, &wafer, die);
    }
}

/// Fixed shapes that stress the run ends: dies whose pitch divides the
/// diameter, dies wider than the wafer, a die exactly as wide as the
/// usable diameter, and a sweep fine enough that its last offset sits
/// within 1% of the pitch.
#[test]
fn edge_shapes_match_the_per_cell_scan() {
    let wafers = [
        Wafer::six_inch(),
        Wafer::eight_inch().saw_street(cm(0.01)),
        Wafer::six_inch().primary_flat(cm(6.5)),
        Wafer::six_inch().edge_exclusion(cm(0.5)),
    ];
    let sides = [0.5, 1.0, 1.5, 2.5, 3.0, 7.5, 7.0, 14.0, 15.0, 20.0];
    for wafer in &wafers {
        for &a in &sides {
            for &b in &[0.5, 1.0, 3.0, 7.5] {
                let die = DieDimensions::new(cm(a), cm(b));
                check(1, wafer, die);
                check(8, wafer, die);
            }
        }
        check(101, wafer, DieDimensions::new(cm(2.3), cm(1.7)));
    }
}

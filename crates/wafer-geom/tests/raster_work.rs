//! `raster.rows_searched` counts the grid rows whose column run the
//! offset sweep searched. It runs in a test binary of its own so no
//! other test moves the process-global counter between the reads.

use maly_units::Centimeters;
use maly_wafer_geom::{raster::RasterPlacement, DieDimensions, Wafer};

fn rows_searched() -> u64 {
    maly_obs::counters_snapshot()
        .iter()
        .find(|c| c.name == "raster.rows_searched")
        .map_or(0, |c| c.value)
}

#[test]
fn an_8x8_sweep_searches_1208_rows_for_a_1cm_die() {
    // Row range per offset: j from floor((−R − dy)/p) − 1 to
    // ceil((R − dy)/p) + 1 with R = 7.5, p = 1 and dy = k/8. That is 19
    // rows for every k but k = 4 (dy = 0.5, 18 rows): 151 per column
    // offset, 1208 over the 8 column offsets.
    let wafer = Wafer::six_inch();
    let die = DieDimensions::square(Centimeters::new(1.0).unwrap());
    let placement = RasterPlacement::default();

    let before = rows_searched();
    let count = placement.count(&wafer, die);
    assert_eq!(rows_searched() - before, 1208);

    // `place` sweeps the same offsets, then builds only the winner.
    let before = rows_searched();
    let map = placement.place(&wafer, die);
    assert_eq!(rows_searched() - before, 1208);
    assert_eq!(map.count(), count);

    // A single offset is one row range: j = −9..=9.
    let before = rows_searched();
    let _ = RasterPlacement::new(1).count(&wafer, die);
    assert_eq!(rows_searched() - before, 19);
}

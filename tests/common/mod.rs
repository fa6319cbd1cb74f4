//! Helpers shared by several integration-test files.

use sbr_repro::core::best_map::MapContext;
use sbr_repro::core::{regression, xcorr, Interval};

/// Test-only reference for `BestMap` under the SSE metric: the fall-back
/// seed, then one scalar [`xcorr::dot`] per shift, folded in ascending
/// shift order with the strict `<` (earliest shift wins ties). The blocked
/// sweep in `MapContext::best_map` must match it bit for bit.
pub fn naive_best_map(c: &MapContext<'_>, interval: &mut Interval) {
    let (start, len) = (interval.start, interval.length);
    let shiftable = len <= c.max_shift_len && len <= c.x.len();
    if c.allow_linear_fallback || !shiftable {
        c.fallback_fit(interval);
    } else {
        interval.err = f64::INFINITY;
    }
    if !shiftable {
        return;
    }
    let yw = &c.y[start..start + len];
    for shift in 0..=c.x.len() - len {
        let f = regression::fit_sse_with_stats(
            len,
            c.x_stats.window_sum(shift, len),
            c.x_stats.window_sum_sq(shift, len),
            c.y_stats.window_sum(start, len),
            c.y_stats.window_sum_sq(start, len),
            xcorr::dot(&c.x[shift..shift + len], yw),
        );
        if f.err < interval.err {
            interval.shift = shift as i64;
            interval.a = f.a;
            interval.b = f.b;
            interval.err = f.err;
        }
    }
}

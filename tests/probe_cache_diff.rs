//! Differential suite for the `Search` probe cache: the cached and legacy
//! probe paths must produce **byte-identical** transmission streams across
//! error metrics, thread counts, and the exhaustive
//! search — the cache is a pure evaluation-order optimization, never a
//! semantic change. Plus a probe-complexity test pinning the tentpole
//! claim: cached exhaustive search pays at most one full
//! `GetIntervals`-equivalent of base-prefix fit work, where the legacy
//! path pays one per probe.

use sbr_repro::core::base_signal::BaseSignal;
use sbr_repro::core::search::SearchContext;
use sbr_repro::core::{codec, ErrorMetric, Frame, MultiSeries, SbrConfig, SbrEncoder};
use sbr_repro::obs::{MetricsRecorder, Recorder as _, Snapshot};
use std::sync::Arc;

/// A patterned multi-chunk stream: affine images of a few repeating
/// wiggles, so `GetBase` finds real candidates and `Search` inserts some —
/// the base signal evolves across transmissions and the probe dictionaries
/// are non-trivial.
fn stream_chunks(n_chunks: usize, n_signals: usize, m: usize) -> Vec<Vec<Vec<f64>>> {
    (0..n_chunks)
        .map(|c| {
            (0..n_signals)
                .map(|s| {
                    (0..m)
                        .map(|i| {
                            let t = (i + c * m) as f64;
                            let pattern = (t * 0.9 + s as f64 * 2.1).sin() * 4.0
                                + (t * 0.23).cos() * 2.0
                                + ((i * 7 + s) % 5) as f64;
                            pattern * (1.0 + 0.1 * c as f64) + c as f64 - s as f64
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Encode the stream under `config`, returning one wire frame per
/// transmission.
fn encode_stream(chunks: &[Vec<Vec<f64>>], config: SbrConfig) -> Vec<Vec<u8>> {
    let n = chunks[0].len();
    let m = chunks[0][0].len();
    let mut enc = SbrEncoder::new(n, m, config).expect("valid config");
    chunks
        .iter()
        .map(|rows| codec::encode_v2(&Frame::data(0, enc.encode(rows).expect("encode"))).to_vec())
        .collect()
}

fn assert_streams_identical(chunks: &[Vec<Vec<f64>>], config: SbrConfig, label: &str) {
    let cached = encode_stream(chunks, config.clone().with_probe_cache(true));
    let legacy = encode_stream(chunks, config.with_probe_cache(false));
    assert_eq!(cached.len(), legacy.len());
    for (t, (a, b)) in cached.iter().zip(&legacy).enumerate() {
        assert_eq!(
            a, b,
            "[{label}] transmission {t}: cached and legacy frames differ"
        );
    }
}

#[test]
fn byte_identical_across_metrics_and_threads() {
    let chunks = stream_chunks(5, 2, 64);
    for metric in [
        ErrorMetric::Sse,
        ErrorMetric::relative(),
        ErrorMetric::MaxAbs,
    ] {
        for threads in [1usize, 4] {
            let config = SbrConfig::new(72, 64)
                .with_metric(metric)
                .with_threads(threads);
            assert_streams_identical(&chunks, config, &format!("{metric:?}/t{threads}"));
        }
    }
}

#[test]
fn byte_identical_on_exhaustive_search() {
    let chunks = stream_chunks(4, 2, 64);
    for threads in [1usize, 4] {
        let mut config = SbrConfig::new(80, 80).with_threads(threads);
        config.exhaustive_search = true;
        assert_streams_identical(&chunks, config, &format!("exhaustive/t{threads}"));
    }
}

#[test]
fn byte_identical_without_fallback_and_with_error_target() {
    let chunks = stream_chunks(3, 2, 64);
    let no_fallback = SbrConfig::new(72, 64).without_fallback();
    assert_streams_identical(&chunks, no_fallback, "no-fallback");
    let mut targeted = SbrConfig::new(96, 64);
    targeted.error_target = Some(50.0);
    assert_streams_identical(&chunks, targeted, "error-target");
}

/// Drive one `Search` (no encoder around it, so the counters are not
/// polluted by `GetBase` or the final `GetIntervals`) and snapshot its
/// metrics.
fn run_search(
    base: &BaseSignal,
    cands: &[Vec<f64>],
    data: &MultiSeries,
    w: usize,
    config: SbrConfig,
) -> (usize, usize, Snapshot) {
    let rec = Arc::new(MetricsRecorder::new());
    let config = config.with_recorder(rec.clone());
    let mut s = SearchContext::new(base, cands, data, w, &config);
    let ins = s.run();
    (ins, s.probes(), rec.snapshot())
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

#[test]
fn cached_exhaustive_search_does_one_getintervals_of_base_fit_work() {
    // A non-empty base plus ranked candidates, searched exhaustively with
    // one thread so the accounting is exact.
    let w = 8;
    let data = {
        let row: Vec<f64> = (0..192)
            .map(|i| {
                let t = i as f64;
                (t * 1.1).sin() * 4.0 + (t * 0.31).cos() * 2.0 + ((i * 5) % 7) as f64
            })
            .collect();
        MultiSeries::from_rows(&[row]).unwrap()
    };
    let mut base = BaseSignal::new(w);
    for slot in 0..3 {
        let vals: Vec<f64> = (0..w)
            .map(|i| ((slot * w + i) as f64 * 0.7).sin() * 3.0)
            .collect();
        base.apply_insert(slot, &vals, 0).unwrap();
    }
    let cands = sbr_repro::core::get_base::get_base(&data, w, 10, ErrorMetric::Sse);
    assert!(cands.len() >= 4, "need a real candidate set");

    let mut config = SbrConfig::new(240, 800).with_w(w).with_threads(1);
    config.exhaustive_search = true;

    let (ins_cached, probes, cached) = run_search(
        &base,
        &cands,
        &data,
        w,
        config.clone().with_probe_cache(true),
    );
    let (ins_legacy, _, legacy) = run_search(
        &base,
        &cands,
        &data,
        w,
        config.clone().with_probe_cache(false),
    );
    assert_eq!(ins_cached, ins_legacy, "same insertion count either way");
    assert!(probes > cands.len(), "exhaustive search probed every count");

    // The cached search never runs a full-dictionary sweep: all its fit
    // work is region-restricted.
    let cached_full = counter(&cached, "sbr_core.best_map.direct_sweeps");
    assert_eq!(
        cached_full, 0,
        "cached probes must not re-sweep the dictionary"
    );

    // Base-prefix fit work: at most one sweep per distinct (start, len) —
    // i.e. at most one full GetIntervals-equivalent across ALL probes,
    // where the legacy path pays one sweep per interval per probe.
    let base_sweeps = counter(&cached, "sbr_core.best_map.base_direct_sweeps");
    let entries = counter(&cached, "sbr_core.probe_cache.misses");
    assert!(
        base_sweeps <= entries,
        "base prefix swept {base_sweeps} times for {entries} cache entries"
    );
    let legacy_full = counter(&legacy, "sbr_core.best_map.direct_sweeps");
    assert!(
        legacy_full >= 2 * base_sweeps,
        "sharing must beat per-probe re-fitting: legacy {legacy_full} full sweeps \
         vs cached {base_sweeps} base-region sweeps"
    );
    // Each candidate region is swept at most once per entry.
    let cand_sweeps = counter(&cached, "sbr_core.best_map.cand_direct_sweeps");
    assert!(
        cand_sweeps <= entries * cands.len() as u64,
        "{cand_sweeps} candidate sweeps exceeds one region pass per candidate \
         per entry ({entries} × {})",
        cands.len()
    );
    // And the cache actually got re-used: hits are fits answered without
    // any new sweeping.
    assert!(
        counter(&cached, "sbr_core.probe_cache.hits") > 0,
        "exhaustive probing must hit the cache"
    );
}

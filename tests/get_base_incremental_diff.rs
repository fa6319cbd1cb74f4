//! Differential suite for the incremental `GetBase` fit cache: the cached
//! and legacy matrix paths must produce **byte-identical** transmission
//! streams across error metrics and thread counts — the memo is a pure
//! evaluation-order optimization, never a semantic change. Plus
//! counter-based tests pinning the reuse the tentpole claims: repeated
//! window content must be carried across batches (fresh fits only for
//! genuinely new pairs).

use sbr_repro::core::{codec, ErrorMetric, Frame, SbrConfig, SbrEncoder};
use sbr_repro::obs::{MetricsRecorder, Recorder as _, Snapshot};
use std::sync::Arc;

/// A patterned multi-chunk stream: affine images of a few repeating
/// wiggles, so `GetBase` finds real candidates, plus per-chunk drift so the
/// dictionary keeps evolving across transmissions.
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
    let cached = encode_stream(chunks, config.clone().with_fit_cache(true));
    let legacy = encode_stream(chunks, config.with_fit_cache(false));
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
fn byte_identical_with_low_memory_builder() {
    // The low-memory builder's cached path shares the full-matrix memo; it
    // must still match its own legacy (per-step re-fitting) output.
    let chunks = stream_chunks(4, 2, 64);
    for threads in [1usize, 4] {
        let n = chunks[0].len();
        let m = chunks[0][0].len();
        let encode_with = |fit_cache: bool| -> Vec<Vec<u8>> {
            let config = SbrConfig::new(72, 64)
                .with_threads(threads)
                .with_fit_cache(fit_cache);
            let mut enc =
                SbrEncoder::with_builder(n, m, config, Box::new(sbr_repro::core::LowMemoryGetBase))
                    .expect("valid config");
            chunks
                .iter()
                .map(|rows| {
                    codec::encode_v2(&Frame::data(0, enc.encode(rows).expect("encode"))).to_vec()
                })
                .collect()
        };
        let cached = encode_with(true);
        let legacy = encode_with(false);
        for (t, (a, b)) in cached.iter().zip(&legacy).enumerate() {
            assert_eq!(
                a, b,
                "[low-memory/t{threads}] transmission {t}: cached and legacy frames differ"
            );
        }
    }
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Encode and return the metrics snapshot alongside the frames.
fn encode_with_metrics(chunks: &[Vec<Vec<f64>>], config: SbrConfig) -> (Vec<Vec<u8>>, Snapshot) {
    let rec = Arc::new(MetricsRecorder::new());
    let frames = encode_stream(chunks, config.with_recorder(rec.clone()));
    (frames, rec.snapshot())
}

#[test]
fn repeated_batches_are_served_from_the_carry_over() {
    // The same batch encoded twice in a row: every window of batch 2 was
    // interned in batch 1, so the second matrix build must fit nothing
    // fresh — misses stop growing after the first batch.
    let one = stream_chunks(1, 2, 64).remove(0);
    let chunks = vec![one.clone(), one];
    let (_, snap) = encode_with_metrics(&chunks, SbrConfig::new(72, 64).with_threads(1));
    let hits = counter(&snap, "sbr_core.get_base.fit_cache.hits");
    let misses = counter(&snap, "sbr_core.get_base.fit_cache.misses");
    assert!(hits > 0, "memo must be read");
    // K = 2 signals × 1 window-per-signal... with m=64 and W=⌊√128⌋=11,
    // K = 2·⌊64/11⌋ = 10: one batch's off-diagonal cells are K²−K = 90.
    // Two batches of fresh content would be 180 misses; carry-over must
    // halve that exactly.
    assert_eq!(
        misses, 90,
        "identical second batch must re-fit nothing (one batch's worth of misses only)"
    );
    let bytes = snap
        .gauge("sbr_core.get_base.fit_cache.bytes")
        .unwrap_or(0.0);
    assert!(bytes > 0.0, "footprint gauge must be reported");
}

#[test]
fn legacy_path_reports_no_fit_cache_traffic() {
    let chunks = stream_chunks(2, 2, 64);
    let (_, snap) = encode_with_metrics(&chunks, SbrConfig::new(72, 64).without_fit_cache());
    assert_eq!(counter(&snap, "sbr_core.get_base.fit_cache.hits"), 0);
    assert_eq!(counter(&snap, "sbr_core.get_base.fit_cache.misses"), 0);
}

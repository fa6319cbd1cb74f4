//! Concurrency: one `BaseStation` shared by many receiver threads (the
//! reason its logs sit behind `parking_lot::Mutex`), with queries running
//! while ingest continues.

mod common;

use std::sync::Arc;

use sbr_repro::core::{codec, Frame, SbrConfig, SbrEncoder};
use sbr_repro::sensor_net::BaseStation;

fn sensor_frames(sensor: u64, chunks: usize) -> Vec<bytes::Bytes> {
    let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(64, 48)).unwrap();
    (0..chunks)
        .map(|c| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| {
                            ((i + c * 64) as f64 * 0.21 + sensor as f64 + r as f64).sin() * 6.0
                        })
                        .collect()
                })
                .collect();
            codec::encode_v2(&Frame::data(0, enc.encode(&rows).unwrap()))
        })
        .collect()
}

#[test]
fn parallel_ingest_from_many_sensors() {
    let station = Arc::new(BaseStation::new());
    let n_sensors = 8;
    let chunks = 12;
    std::thread::scope(|scope| {
        for s in 0..n_sensors {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for f in sensor_frames(s as u64, chunks) {
                    station.receive(s + 1, f).unwrap();
                }
            });
        }
    });
    assert_eq!(station.sensors().len(), n_sensors);
    for s in 1..=n_sensors {
        assert_eq!(station.chunk_count(s), chunks);
        let rec = station.reconstruct_chunks(s, 0, chunks).unwrap();
        assert_eq!(rec.len(), chunks);
    }
}

#[test]
fn queries_concurrent_with_ingest() {
    let station = Arc::new(BaseStation::with_checkpoint_interval(3));
    // Pre-load sensor 1 so queries always have data.
    for f in sensor_frames(1, 10) {
        station.receive(1, f).unwrap();
    }
    std::thread::scope(|scope| {
        // Writer: sensor 2 streams in.
        {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for f in sensor_frames(2, 20) {
                    station.receive(2, f).unwrap();
                }
            });
        }
        // Readers: hammer sensor 1 with historical queries meanwhile.
        for _ in 0..3 {
            let station = Arc::clone(&station);
            scope.spawn(move || {
                for _ in 0..30 {
                    let agg = station.aggregate_range(1, 0, 100, 500).unwrap();
                    assert_eq!(agg.count, 400);
                    assert!(agg.min <= agg.avg && agg.avg <= agg.max);
                    let chunks = station.reconstruct_chunks(1, 4, 7).unwrap();
                    assert_eq!(chunks.len(), 3);
                }
            });
        }
    });
    assert_eq!(station.chunk_count(2), 20);
}

#[test]
fn per_sensor_streams_are_independent() {
    // A bad frame from one sensor must not disturb another's stream.
    let station = BaseStation::new();
    let a = sensor_frames(1, 3);
    let b = sensor_frames(2, 3);
    station.receive(1, a[0].clone()).unwrap();
    station.receive(2, b[0].clone()).unwrap();
    assert!(station.receive(1, a[2].clone()).is_err()); // gap on sensor 1
    station.receive(2, b[1].clone()).unwrap(); // sensor 2 unaffected
    station.receive(1, a[1].clone()).unwrap(); // sensor 1 recovers
    station.receive(1, a[2].clone()).unwrap();
    assert_eq!(station.chunk_count(1), 3);
    assert_eq!(station.chunk_count(2), 2);
}

/// Round `round` of an evolving 2×256 batch sequence.
fn evolving_batch(round: usize) -> Vec<Vec<f64>> {
    (0..2)
        .map(|r| {
            (0..256)
                .map(|i| {
                    ((i % 32) as f64 * 0.7 + r as f64).sin() * 5.0
                        + ((i + round * 19) as f64 * 0.23).cos() * (round + 1) as f64
                })
                .collect()
        })
        .collect()
}

/// Encode a few evolving batches and return the exact transmitted bytes.
fn stream_bytes(config: SbrConfig) -> Vec<Vec<u8>> {
    let mut enc = SbrEncoder::new(2, 256, config).unwrap();
    (0..4)
        .map(|round| {
            codec::encode_v2(&Frame::data(0, enc.encode(&evolving_batch(round)).unwrap())).to_vec()
        })
        .collect()
}

fn fanouts(rec: &sbr_repro::obs::MetricsRecorder) -> u64 {
    use sbr_repro::obs::Recorder as _;
    rec.snapshot().counter("sbr_core.par.fanouts").unwrap_or(0)
}

#[test]
fn thread_count_never_changes_the_transmissions() {
    // The fan-out shards work by index and reduces in index order, so the
    // byte stream a sensor emits must be identical for every worker count.
    use sbr_repro::obs::MetricsRecorder;
    let reference = stream_bytes(SbrConfig::new(200, 200).with_threads(1));
    for threads in [2usize, 8] {
        let rec = Arc::new(MetricsRecorder::new());
        let other = stream_bytes(
            SbrConfig::new(200, 200)
                .with_threads(threads)
                .with_recorder(rec.clone()),
        );
        assert_eq!(
            reference, other,
            "num_threads = {threads} changed the output"
        );
        // Without a fan-out the comparison above would be serial vs serial.
        assert!(
            fanouts(&rec) > 0,
            "num_threads = {threads} never fanned out"
        );
    }
}

#[test]
fn get_intervals_never_fans_out() {
    // GetIntervals is the fine grain: its fits run on the calling thread
    // whatever the thread count, so fan-outs never nest inside a probe.
    use sbr_repro::core::get_intervals::get_intervals;
    use sbr_repro::core::MultiSeries;
    use sbr_repro::obs::{MetricsRecorder, Recorder as _};
    let rows: Vec<Vec<f64>> = (0..4)
        .map(|r| {
            (0..256)
                .map(|i| ((i % 29) as f64 * 0.6 + r as f64).sin() * 4.0 + (i as f64 * 0.05).cos())
                .collect()
        })
        .collect();
    let data = MultiSeries::from_rows(&rows).unwrap();
    let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.6).sin() * 4.0).collect();
    let rec = Arc::new(MetricsRecorder::new());
    let config = SbrConfig::new(400, 400)
        .with_threads(8)
        .with_recorder(rec.clone());
    let approx = get_intervals(&x, &data, 400, 16, &config).unwrap();
    assert_eq!(approx.intervals.len(), 100, "the whole budget was split");
    assert!(
        rec.snapshot()
            .counter("sbr_core.best_map.calls")
            .is_some_and(|c| c >= 100),
        "recorder saw no BestMap activity"
    );
    assert_eq!(fanouts(&rec), 0, "GetIntervals fanned out");
}

#[test]
fn one_encode_fans_out_at_most_once_per_search_level() {
    // Threads are spawned at the coarse grain only: once for the GetBase
    // matrix and at most once per Search recursion level (the probe
    // prefetch). Search over `n` candidates recurses ceil(log2 n) + 1 levels.
    use sbr_repro::obs::MetricsRecorder;
    let rec = Arc::new(MetricsRecorder::new());
    let config = SbrConfig::new(200, 200)
        .with_threads(8)
        .with_recorder(rec.clone());
    let mut enc = SbrEncoder::new(2, 256, config.clone()).unwrap();
    let max_ins = config.max_ins(enc.w());
    let levels = (max_ins as f64).log2().ceil() as u64 + 1;
    for round in 0..4 {
        let before = fanouts(&rec);
        enc.encode(&evolving_batch(round)).unwrap();
        let spent = fanouts(&rec) - before;
        assert!(spent > 0, "round {round}: encode never fanned out");
        assert!(
            spent <= levels + 1,
            "round {round}: {spent} fan-outs exceed {levels} Search levels + 1 GetBase build"
        );
    }
}

#[test]
fn live_recorder_never_changes_the_transmissions() {
    // Instrumentation is observation only: attaching a live MetricsRecorder
    // must leave the byte stream untouched while still collecting counts.
    use sbr_repro::obs::{MetricsRecorder, Recorder as _};
    let reference = stream_bytes(SbrConfig::new(200, 200));
    let rec = Arc::new(MetricsRecorder::new());
    let instrumented = stream_bytes(SbrConfig::new(200, 200).with_recorder(rec.clone()));
    assert_eq!(
        reference, instrumented,
        "attaching a recorder changed the output"
    );
    let snap = rec.snapshot();
    assert!(
        snap.counter("sbr_core.best_map.calls").unwrap_or(0) > 0,
        "recorder saw no BestMap activity"
    );
    assert!(
        snap.histogram("sbr_core.sbr.encode_ns")
            .is_some_and(|h| h.count == 4),
        "expected one encode_ns sample per round"
    );
}

#[test]
fn transmissions_match_a_naive_reference_sweep() {
    // Every interval the encoder ships, at any worker count, is the fit a
    // naive sweep picks: GetIntervals over the transmission's own
    // X_new = base ∥ updates, with each BestMap replaced by one scalar dot
    // per shift folded in ascending shift order.
    use sbr_repro::core::best_map::MapContext;
    use sbr_repro::core::get_intervals::get_intervals_with;
    use sbr_repro::core::{Decoder, FitOracle, Interval, MultiSeries};

    struct Naive<'a>(MapContext<'a>);
    impl FitOracle for Naive<'_> {
        fn fit(&self, interval: &mut Interval) {
            common::naive_best_map(&self.0, interval);
        }
    }

    for threads in [1usize, 4] {
        let config = SbrConfig::new(200, 200).with_threads(threads);
        let mut enc = SbrEncoder::new(2, 256, config.clone()).unwrap();
        let mut dec = Decoder::new();
        let mut mapped = 0;
        for round in 0..4 {
            let data = MultiSeries::from_rows(&evolving_batch(round)).unwrap();
            let tx = enc.encode_series(&data).unwrap();
            let x_new = dec.peek_x_new(&tx).unwrap();
            let w = tx.w as usize;
            let budget = config.total_band - tx.base_updates.len() * (w + 1);
            let naive = Naive(MapContext::new(&x_new, data.flat(), &config, w));
            let want = get_intervals_with(&naive, &data, budget, &config).unwrap();
            assert_eq!(tx.intervals.len(), want.intervals.len(), "round {round}");
            for (got, want) in tx.intervals.iter().zip(&want.intervals) {
                let want = want.record();
                assert_eq!(
                    (got.start, got.shift, got.a.to_bits(), got.b.to_bits()),
                    (want.start, want.shift, want.a.to_bits(), want.b.to_bits()),
                    "t{threads} round {round}: encoder and naive sweep disagree"
                );
            }
            mapped += tx.intervals.iter().filter(|r| r.shift >= 0).count();
            dec.decode(&tx).unwrap();
        }
        assert!(mapped > 0, "no interval used the base signal");
    }
}

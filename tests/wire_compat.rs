//! Wire-format stability: the byte layout of the codec is a compatibility
//! contract between deployed sensors and base stations. These golden tests
//! pin the exact bytes of known transmissions so accidental format changes
//! fail loudly instead of corrupting fleets in the field.
//!
//! Every writer emits v2. The v1 layout is read-only: its golden bytes
//! below are a read pin (`codec::decode_any` must keep parsing them), and
//! the v1 bytes the other compat tests feed in come from [`v1::frame`].

mod v1;

use bytes::Bytes;
use sbr_repro::core::interval::IntervalRecord;
use sbr_repro::core::transmission::{BaseUpdate, Frame, FrameKind, Transmission};
use sbr_repro::core::{codec, wire_profile, ErrorMetric, SbrConfig, SbrEncoder, SbrError};
use sbr_repro::sensor_net::BaseStation;

fn golden_tx() -> Transmission {
    Transmission {
        seq: 7,
        n_signals: 2,
        samples_per_signal: 4,
        w: 2,
        base_updates: vec![BaseUpdate {
            slot: 1,
            values: vec![1.5, -2.0],
        }],
        intervals: vec![
            IntervalRecord {
                start: 0,
                shift: -1,
                a: 0.5,
                b: 3.0,
            },
            IntervalRecord {
                start: 4,
                shift: 0,
                a: 1.0,
                b: 0.0,
            },
        ],
    }
}

#[test]
fn codec_bytes_are_pinned() {
    // The v1 golden, spelled out byte for byte. Header: magic, seq, n, m,
    // w, nu, ni.
    let mut expect: Vec<u8> = Vec::new();
    expect.extend(0x5342_5231u32.to_le_bytes()); // "SBR1"
    expect.extend(7u64.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    expect.extend(4u32.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    expect.extend(1u32.to_le_bytes());
    expect.extend(2u32.to_le_bytes());
    // Base update.
    expect.extend(1u64.to_le_bytes());
    expect.extend(1.5f64.to_le_bytes());
    expect.extend((-2.0f64).to_le_bytes());
    // Interval records.
    expect.extend(0u64.to_le_bytes());
    expect.extend((-1i64).to_le_bytes());
    expect.extend(0.5f64.to_le_bytes());
    expect.extend(3.0f64.to_le_bytes());
    expect.extend(4u64.to_le_bytes());
    expect.extend(0i64.to_le_bytes());
    expect.extend(1.0f64.to_le_bytes());
    expect.extend(0.0f64.to_le_bytes());
    // Read pin: the golden bytes decode as an epoch-0 data frame ...
    let frame = codec::decode_any(&mut &expect[..]).expect("v1 golden must decode");
    assert_eq!(frame, Frame::data(0, golden_tx()));
    // ... and the test helper every other v1 test uses emits exactly them.
    assert_eq!(v1::frame(&golden_tx()), expect, "v1 helper drifted");
}

#[test]
fn codec_size_formula_is_pinned() {
    let tx = golden_tx();
    // v2 data frame: 41-byte header + (8 + 8·W) per update + 32 per
    // interval + 4-byte CRC.
    let frame = Frame::data(0, tx.clone());
    assert_eq!(codec::encoded_len_v2(&frame), 41 + (8 + 16) + 2 * 32 + 4);
    assert_eq!(
        codec::encode_v2(&frame).len(),
        codec::encoded_len_v2(&frame)
    );
    // A v1 frame is 13 bytes shorter: no kind, epoch, snapshot count or CRC.
    assert_eq!(v1::frame(&tx).len(), codec::encoded_len_v2(&frame) - 13);
}

#[test]
fn profile_framing_is_pinned() {
    let tx = golden_tx();
    for (profile, id) in [
        (wire_profile::Profile::F64, 0u8),
        (wire_profile::Profile::F32, 1),
        (wire_profile::Profile::Q16, 2),
    ] {
        let frame = wire_profile::encode(&tx, profile);
        assert_eq!(&frame[..4], 0x5342_5250u32.to_le_bytes()); // "SBRP"
        assert_eq!(frame[4], id, "profile id changed for {profile:?}");
    }
}

#[test]
fn crc32_known_answer_is_pinned() {
    // The classic IEEE 802.3 check value: CRC-32 of "123456789".
    assert_eq!(codec::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(codec::crc32(b""), 0);
}

#[test]
fn v2_bytes_are_pinned() {
    // A resync frame (epoch 3, one-slot snapshot) around the same golden
    // transmission: the v2 layout is a compatibility contract too.
    let frame = Frame::resync(3, vec![0.25, -4.0], golden_tx());
    let bytes = codec::encode_v2(&frame);
    let mut expect: Vec<u8> = Vec::new();
    expect.extend(0x5342_5232u32.to_le_bytes()); // "SBR2"
    expect.push(1u8); // kind: resync
    expect.extend(3u32.to_le_bytes()); // epoch
    expect.extend(7u64.to_le_bytes()); // seq
    expect.extend(2u32.to_le_bytes()); // n
    expect.extend(4u32.to_le_bytes()); // m
    expect.extend(2u32.to_le_bytes()); // w
    expect.extend(1u32.to_le_bytes()); // snapshot slots
    expect.extend(1u32.to_le_bytes()); // updates
    expect.extend(2u32.to_le_bytes()); // intervals
                                       // Snapshot (1 slot × w values).
    expect.extend(0.25f64.to_le_bytes());
    expect.extend((-4.0f64).to_le_bytes());
    // Base update.
    expect.extend(1u64.to_le_bytes());
    expect.extend(1.5f64.to_le_bytes());
    expect.extend((-2.0f64).to_le_bytes());
    // Interval records.
    expect.extend(0u64.to_le_bytes());
    expect.extend((-1i64).to_le_bytes());
    expect.extend(0.5f64.to_le_bytes());
    expect.extend(3.0f64.to_le_bytes());
    expect.extend(4u64.to_le_bytes());
    expect.extend(0i64.to_le_bytes());
    expect.extend(1.0f64.to_le_bytes());
    expect.extend(0.0f64.to_le_bytes());
    // CRC-32 trailer over everything above.
    let crc = codec::crc32(&expect);
    expect.extend(crc.to_le_bytes());
    assert_eq!(bytes.as_ref(), expect.as_slice(), "v2 layout changed!");
    // Size formula: 41-byte header + 8·W per snapshot slot
    // + (8 + 8·W) per update + 32 per interval + 4-byte CRC.
    assert_eq!(bytes.len(), 41 + 16 + (8 + 16) + 2 * 32 + 4);
    assert_eq!(bytes.len(), codec::encoded_len_v2(&frame));
    // And it round-trips.
    assert_eq!(codec::decode_v2(&mut bytes.clone()).unwrap(), frame);
}

#[test]
fn v2_data_frames_are_pinned() {
    // A data frame is the same envelope with kind 0, no snapshot.
    let frame = Frame::data(9, golden_tx());
    let bytes = codec::encode_v2(&frame);
    assert_eq!(&bytes[..4], 0x5342_5232u32.to_le_bytes());
    assert_eq!(bytes[4], 0, "data kind byte");
    assert_eq!(&bytes[5..9], 9u32.to_le_bytes());
    let ns = u32::from_le_bytes(bytes[29..33].try_into().unwrap());
    assert_eq!(ns, 0, "data frames carry no snapshot");
    let crc = codec::crc32(&bytes[..bytes.len() - 4]);
    assert_eq!(&bytes[bytes.len() - 4..], crc.to_le_bytes());
    assert_eq!(codec::decode_any(&mut bytes.clone()).unwrap(), frame);
}

#[test]
fn decode_any_wraps_v1_frames_as_epoch_zero_data() {
    // A station that speaks v2 must still ingest v1 fleet traffic: the
    // compat path wraps it in the trivial envelope.
    let v1 = v1::frame(&golden_tx());
    let frame = codec::decode_any(&mut &v1[..]).expect("v1 via decode_any");
    assert_eq!(frame, Frame::data(0, golden_tx()));
}

#[test]
fn v1_truncation_and_zero_dimensions_are_rejected() {
    let v1 = v1::frame(&golden_tx());
    for cut in 0..v1.len() {
        assert!(
            codec::decode_any(&mut &v1[..cut]).is_err(),
            "v1 cut at {cut} must fail"
        );
    }
    // n, m and w sit at bytes 12, 16 and 20 of the v1 header.
    for at in [12, 16, 20] {
        let mut zeroed = v1.clone();
        zeroed[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = codec::decode_any(&mut &zeroed[..]).unwrap_err();
        assert!(
            matches!(&err, SbrError::Corrupt(m) if m.contains("zero dimension")),
            "{err}"
        );
    }
}

#[test]
fn mixed_version_frames_parse_back_to_back() {
    // decode_any consumes exactly one frame of either version, so a log
    // that crossed the v1 → v2 upgrade replays in order.
    let resync = Frame::resync(3, vec![0.25, -4.0], golden_tx());
    let data = Frame::data(4, golden_tx());
    let mut stream = v1::frame(&golden_tx());
    stream.extend_from_slice(&codec::encode_v2(&resync));
    stream.extend_from_slice(&codec::encode_v2(&data));
    let mut buf = &stream[..];
    assert_eq!(
        codec::decode_any(&mut buf).unwrap(),
        Frame::data(0, golden_tx())
    );
    assert_eq!(codec::decode_any(&mut buf).unwrap(), resync);
    assert_eq!(codec::decode_any(&mut buf).unwrap(), data);
    assert!(buf.is_empty());
}

#[test]
fn v1_frames_survive_a_station_restart_byte_for_byte() {
    // A persistent station fed v1 traffic keeps the original v1 bytes in
    // its store, and after a restart reconstructs exactly what the same
    // transmissions sent as v2 reconstruct.
    let dir = std::env::temp_dir().join(format!("sbr-wire-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut enc = SbrEncoder::new(2, 64, SbrConfig::new(48, 48)).expect("config");
    let txs: Vec<Transmission> = (0..12)
        .map(|c| {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..64)
                        .map(|i| ((i + c * 64) as f64 * 0.17 + r as f64).sin() * 4.0)
                        .collect()
                })
                .collect();
            enc.encode(&rows).expect("encode")
        })
        .collect();
    let v1_frames: Vec<Bytes> = txs.iter().map(|tx| Bytes::from(v1::frame(tx))).collect();
    {
        // Small segments: the restart resumes from a checkpoint and
        // replays only the tail, so both recovery paths see v1 bytes.
        let station = BaseStation::with_persistence(&dir).with_segment_size(1024);
        for f in &v1_frames {
            station.receive(3, f.clone()).expect("v1 ingest");
        }
    }
    let v2_station = BaseStation::new();
    for tx in &txs {
        let frame = codec::encode_v2(&Frame::data(0, tx.clone()));
        v2_station.receive(3, frame).expect("v2 ingest");
    }

    let loaded = BaseStation::load(&dir).expect("restart");
    assert!(
        loaded.cold_chunks(3) > 0,
        "restart must resume from a checkpoint"
    );
    assert_eq!(loaded.raw_frames(3), v1_frames, "v1 frames stay v1");
    assert!(loaded
        .frames(3)
        .expect("parse")
        .iter()
        .all(|f| f.kind == FrameKind::Data && f.epoch == 0));
    let n = txs.len();
    assert_eq!(
        loaded.reconstruct_chunks(3, 0, n).expect("v1 reconstruct"),
        v2_station
            .reconstruct_chunks(3, 0, n)
            .expect("v2 reconstruct")
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn old_frames_still_decode() {
    // A frame produced by (what is defined to be) version 1 of the format,
    // spelled out byte-for-byte. If this stops decoding, deployed logs
    // become unreadable.
    let mut raw: Vec<u8> = Vec::new();
    raw.extend(0x5342_5231u32.to_le_bytes());
    raw.extend(0u64.to_le_bytes()); // seq
    raw.extend(1u32.to_le_bytes()); // n
    raw.extend(2u32.to_le_bytes()); // m
    raw.extend(1u32.to_le_bytes()); // w
    raw.extend(0u32.to_le_bytes()); // updates
    raw.extend(1u32.to_le_bytes()); // intervals
    raw.extend(0u64.to_le_bytes()); // start
    raw.extend((-1i64).to_le_bytes()); // shift
    raw.extend(2.0f64.to_le_bytes()); // a
    raw.extend(5.0f64.to_le_bytes()); // b
    let frame = codec::decode_any(&mut &raw[..]).expect("v1 frame must decode");
    assert_eq!((frame.kind, frame.epoch), (FrameKind::Data, 0));
    let tx = frame.tx;
    assert_eq!(tx.intervals.len(), 1);
    assert_eq!(tx.intervals[0].b, 5.0);
    // And it reconstructs: ŷ = 2i + 5 over 2 samples.
    let rec = sbr_repro::core::Decoder::new().decode(&tx).unwrap();
    assert_eq!(rec, vec![vec![5.0, 7.0]]);
}

/// CRC-32 of the v2 data frames the encoder emits for a fixed-seed stock
/// stream (6 tickers × 2048 samples in 512-sample batches, a 512-value base
/// signal, `W` = 64), concatenated with each frame's own CRC trailer
/// dropped: a message followed by its CRC always leaves the register in
/// the same residue state, so hashing whole frames would hide every byte
/// but the last frame's.
fn encoded_stream_crc(config: SbrConfig) -> u32 {
    let chunks = sbr_repro::datasets::stock(11, 6, 2048).chunk(512);
    let mut enc = SbrEncoder::new(6, 512, config.with_w(64)).expect("valid config");
    let mut stream: Vec<u8> = Vec::new();
    for rows in &chunks {
        let frame = codec::encode_v2(&Frame::data(0, enc.encode(rows).expect("encode")));
        stream.extend_from_slice(&frame[..frame.len() - 4]);
    }
    codec::crc32(&stream)
}

#[test]
fn encoder_stream_is_pinned() {
    // The differential suites compare two paths inside one build; this pins
    // the encoder's output across builds, so a change to BestMap, Search or
    // GetBase that moves a single bit of any stream fails here.
    let cases = [
        ("sse 10%", SbrConfig::new(307, 512), 0x4844_d608u32),
        ("sse 20%", SbrConfig::new(614, 512), 0x1ea6_0886),
        (
            "relative 20%",
            SbrConfig::new(614, 512).with_metric(ErrorMetric::relative()),
            0xefb6_6b04,
        ),
        (
            "max-abs 20%",
            SbrConfig::new(614, 512).with_metric(ErrorMetric::MaxAbs),
            0xfb98_5714,
        ),
        (
            "no fallback 20%",
            SbrConfig::new(614, 512).without_fallback(),
            0x15c4_e38f,
        ),
    ];
    for (label, config, expect) in cases {
        let crc = encoded_stream_crc(config);
        assert_eq!(
            crc, expect,
            "[{label}] encoder output changed: crc {crc:#010x}"
        );
    }
}

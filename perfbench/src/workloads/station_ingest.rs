//! `station_ingest`: many small sensors behind a lossy link, so ingest,
//! storage and ARQ do the work while reads sit beside writes.
//!
//! 64 sensors × 2 stock signals × M = 64, 32 chunks each, encoded in
//! set-up (left in the loop, encoding is ~95 % of the wall). The timed
//! phase pushes the frames through `LossyLink` (loss 0.1) and a seeded
//! end-to-end channel that drops, duplicates and reorders; each sensor
//! runs go-back-N with a window of 4, rewinding to the station's
//! cumulative ACK (`next_seq`). The station persists every frame with the
//! default segment size, and a burst of recent-window aggregates runs
//! about every 10 accepted frames. Each pass draws fresh loss patterns
//! and query ranges (see `round_seed`).
//!
//! The segments are not made small enough to seal within a pass: on a
//! shared virtual disk one checkpoint fsync costs as much as 100–400
//! frame ingests and its latency drifts from minute to minute, so seals
//! would make every figure here a measure of the disk's neighbours.
//! `encode_bound` seals several segments a pass instead.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{codec, Frame, SbrConfig, SbrEncoder};
use sensor_net::{BaseStation, FaultPlan, LossyLink, Receipt};

use crate::pipeline::{
    audit, fresh_dir, layer, recent_range, restarts, round_seed, sub_seed, Answer, Meter, OneHop,
    PassStats, Quality, Rng,
};

const SENSORS: usize = 64;
const SIGNALS: usize = 2;
const M: usize = 64;
const CHUNKS: usize = 32;
const BAND: usize = SIGNALS * M / 5;
const M_BASE: usize = M / 2;
const LOSS: f64 = 0.1;
const HOP_ATTEMPTS: u32 = 4;
const WINDOW: usize = 4;
/// Accepted frames between query bursts, and queries per burst.
const BURST_EVERY: u64 = 10;
const BURST: usize = 8;
/// Go-back-N rounds after which an undelivered chunk counts as failed.
const MAX_ROUNDS: usize = 10_000;
/// Station restarts at the end of a pass: one is enough, as a run makes
/// over a hundred passes.
const RESTARTS: usize = 1;

/// Inputs: ground truth and pre-encoded v2 frames per sensor.
pub struct StationIngest {
    truth: Vec<Vec<Vec<Vec<f64>>>>,
    frames: Vec<Vec<Bytes>>,
    seed: u64,
    dir: PathBuf,
    /// Flip one byte of this `(sensor, chunk)` frame on every
    /// transmission (the tampered-frame test).
    tamper: Option<(usize, usize)>,
}

fn config() -> SbrConfig {
    SbrConfig::new(BAND, M_BASE)
}

impl StationIngest {
    /// Set-up with `sensors` sensors instead of 64 (for tests).
    pub(crate) fn setup_scaled(seed: u64, work: &Path, sensors: usize) -> Result<Self, String> {
        let mut truth = Vec::with_capacity(sensors);
        let mut frames = Vec::with_capacity(sensors);
        for s in 0..sensors {
            let chunks =
                sbr_datasets::stock(sub_seed(seed, s as u64), SIGNALS, M * CHUNKS).chunk(M);
            let mut enc = SbrEncoder::new(SIGNALS, M, config()).map_err(|e| e.to_string())?;
            let mut fs = Vec::with_capacity(CHUNKS);
            for rows in &chunks {
                let tx = enc.encode(rows).map_err(|e| e.to_string())?;
                fs.push(codec::encode_v2(&Frame::data(0, tx)));
            }
            truth.push(chunks);
            frames.push(fs);
        }
        Ok(StationIngest {
            truth,
            frames,
            seed,
            dir: work.join("store"),
            tamper: None,
        })
    }
}

/// Hand one arrival to the station; stamp the chunk it completes.
fn deliver(
    meter: &mut Meter,
    station: &BaseStation,
    s: usize,
    arrival: Bytes,
    accepted_at: &mut [Option<Instant>],
    stats: &mut PassStats,
) {
    let seq = codec::peek_v2_identity(&arrival).map(|(_, _, seq)| seq);
    let (receipt, _) = meter.time(layer::STATION, || station.receive_frame(s, arrival));
    if let Some(err) = stats.counts.receipt(&receipt) {
        stats.fail(format!("sensor {s}: {err}"));
    }
    if receipt == Ok(Receipt::Accepted) {
        let slot = seq.and_then(|q| accepted_at.get_mut(usize::try_from(q).ok()?));
        if let Some(slot) = slot {
            *slot = Some(Instant::now());
        }
    }
}

impl crate::Workload for StationIngest {
    fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        Self::setup_scaled(seed, work, SENSORS)
    }

    fn threads(&self) -> usize {
        config().resolved_threads()
    }

    fn pass(&mut self, meter: &mut Meter, round: usize) -> Result<PassStats, String> {
        fresh_dir(&self.dir)?;
        let sensors = self.frames.len();
        let mut stats = PassStats::default();
        let seed = round_seed(self.seed, round);
        let mut rng = Rng::new(seed, 0x51);
        let mut link = LossyLink::new(LOSS, HOP_ATTEMPTS, sub_seed(seed, 0x52));
        // One end-to-end channel per sensor, so a held frame is released
        // into its own sensor's stream.
        let mut channels: Vec<FaultPlan> = (0..sensors)
            .map(|s| {
                FaultPlan::new(sub_seed(seed, 0x1000 + s as u64))
                    .with_drop(0.05)
                    .with_dup(0.05)
                    .with_reorder(0.05)
            })
            .collect();
        let mut energy = OneHop::default();
        let mut answers = Vec::new();
        // Per sensor: the cumulative ACK, and each chunk's first send.
        let mut acked = vec![0usize; sensors];
        let mut first_tx: Vec<Vec<Option<Instant>>> = vec![vec![None; CHUNKS]; sensors];
        let mut accepted_at: Vec<Vec<Option<Instant>>> = vec![vec![None; CHUNKS]; sensors];
        let mut next_burst = BURST_EVERY;
        stats.attempted += (sensors * CHUNKS) as u64;
        let rec = meter.recorder();

        let mut station = BaseStation::with_persistence(&self.dir);
        if let Some(r) = &rec {
            station = station.with_recorder(r.as_ref());
        }
        // Every sensor's first chunk arrives before the timed phase: the
        // pass measures a station already serving these sensors, not the
        // directory and file creation of first contact, whose latency on
        // a shared disk would set the tail.
        for (s, frames) in self.frames.iter().enumerate() {
            energy.attempt(frames[0].len());
            energy.ack();
            match station.receive_frame(s, frames[0].clone()) {
                Ok(Receipt::Accepted) => acked[s] = 1,
                other => stats.fail(format!("sensor {s} chunk 0: {other:?}")),
            }
        }

        meter.begin();
        let mut rounds = 0;
        while acked.iter().any(|&a| a < CHUNKS) && rounds < MAX_ROUNDS {
            rounds += 1;
            for s in 0..sensors {
                let window = self.frames[s].iter().zip(&mut first_tx[s]).enumerate();
                for (c, (frame, sent)) in window.skip(acked[s]).take(WINDOW) {
                    let mut frame = frame.clone();
                    if self.tamper == Some((s, c)) {
                        let mut bytes = frame.to_vec();
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x40;
                        frame = Bytes::from(bytes);
                    }
                    sent.get_or_insert_with(Instant::now);
                    stats.counts.frames_sent += 1;
                    let (hop, _) = meter.time(layer::LINK, || link.hop());
                    stats.counts.link_frames += 1;
                    stats.counts.link_attempts += u64::from(hop.attempts);
                    for _ in 0..hop.attempts {
                        energy.attempt(frame.len());
                    }
                    if !hop.delivered {
                        stats.counts.link_gave_up += 1;
                        continue;
                    }
                    energy.ack();
                    for arrival in channels[s].channel(&frame) {
                        deliver(meter, &station, s, arrival, &mut accepted_at[s], &mut stats);
                    }
                }
                // Cumulative ACK: go back to the first frame not applied.
                acked[s] = (station.next_seq(s) as usize).min(CHUNKS);
                while stats.counts.accepted >= next_burst {
                    next_burst += BURST_EVERY;
                    for _ in 0..BURST {
                        let q = rng.below(sensors);
                        let total = acked[q] * M;
                        if total == 0 {
                            continue;
                        }
                        let signal = rng.below(SIGNALS);
                        let (t0, t1) = recent_range(&mut rng, total, 2 * M);
                        stats.attempted += 1;
                        let (agg, d) =
                            meter.time(layer::QUERY, || station.aggregate_range(q, signal, t0, t1));
                        stats.query_ns.push(d);
                        match agg {
                            Ok(agg) if rng.below(8) == 0 => answers.push(Answer {
                                node: q,
                                signal,
                                t0,
                                t1,
                                agg,
                            }),
                            Ok(_) => {}
                            Err(e) => stats.fail(format!("aggregate_range({q}, {signal}): {e}")),
                        }
                    }
                }
            }
        }
        // Frames a channel still holds arrive late, as duplicates.
        for (s, channel) in channels.iter_mut().enumerate() {
            for arrival in channel.drain() {
                deliver(meter, &station, s, arrival, &mut accepted_at[s], &mut stats);
            }
        }
        drop(station);
        let restarted = restarts(meter, &self.dir, RESTARTS, &mut stats);
        meter.end();

        for s in 0..sensors {
            if acked[s] < CHUNKS {
                stats.fail(format!(
                    "sensor {s}: {} chunks never delivered",
                    CHUNKS - acked[s]
                ));
            }
            for (sent, done) in first_tx[s].iter().zip(&accepted_at[s]) {
                if let (Some(a), Some(b)) = (sent, done) {
                    stats
                        .chunk_ns
                        .push(u64::try_from(b.duration_since(*a).as_nanos()).unwrap_or(u64::MAX));
                }
            }
            stats.samples += (acked[s].saturating_sub(1) * SIGNALS * M) as u64;
        }
        let Some(station) = restarted else {
            return Ok(stats);
        };
        let sent: Vec<(usize, Vec<Bytes>)> = self
            .frames
            .iter()
            .zip(&acked)
            .enumerate()
            .map(|(s, (f, &n))| (s, f[..n].to_vec()))
            .collect();
        let wire_bytes = audit(&station, &self.dir, &sent, &answers, &mut stats);
        if round == 0 {
            let mut q = Quality {
                wire_bytes,
                disk_bytes: stats.counts.disk_bytes,
                ..Quality::default()
            };
            for (s, truth) in self.truth.iter().enumerate() {
                q.raw_samples += (acked[s] * SIGNALS * M) as u64;
                energy.buffered(acked[s] * SIGNALS * M);
                match station.reconstruct_chunks(s, 0, acked[s]) {
                    Ok(chunks) => {
                        for (rec, rows) in chunks.iter().zip(truth) {
                            q.score(rows, rec);
                        }
                    }
                    Err(e) => stats.fail(format!("sensor {s}: reconstruct_chunks: {e}")),
                }
            }
            q.energy = energy.total();
            stats.quality = Some(q);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload as _;

    #[test]
    fn clean_run_delivers_everything_and_passes_the_oracles() {
        let work = crate::test_dir("ingest-clean");
        let mut w = StationIngest::setup_scaled(5, &work, 3).unwrap();
        let stats = w.pass(&mut Meter::untraced(), 0).unwrap();
        assert!(stats.failures.is_empty(), "{:?}", stats.failures);
        assert_eq!(
            stats.chunk_ns.len(),
            3 * (CHUNKS - 1),
            "chunk 0 arrives before the timed phase"
        );
        assert!(
            stats.counts.gaps + stats.counts.duplicates > 0,
            "the channel misbehaved"
        );
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn a_tampered_frame_makes_failed_frac_positive() {
        let work = crate::test_dir("ingest-tampered");
        let mut w = StationIngest::setup_scaled(5, &work, 3).unwrap();
        w.tamper = Some((1, 7));
        let stats = w.pass(&mut Meter::untraced(), 0).unwrap();
        // The CRC rejects the flipped byte on every retransmission, so
        // chunk 7 of sensor 1 and everything after it never arrive.
        assert!(stats.counts.corrupt > 0);
        let failed_frac = stats.failures.len() as f64 / stats.attempted as f64;
        assert!(failed_frac > 0.0);
        assert!(
            stats.failures.iter().any(|f| f.contains("never delivered")),
            "{:?}",
            stats.failures
        );
        let _ = std::fs::remove_dir_all(&work);
    }
}

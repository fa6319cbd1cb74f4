//! `sim_line`: the network simulator, the only workload that runs
//! `network`, `topology` and `energy`.
//!
//! `Network::simulate` with `Strategy::SbrArq` over a 400-node line
//! (399 sensors), 2 stock signals × 256 samples per sensor, batch 64,
//! per-hop loss 0.1 and a seeded end-to-end channel that drops and
//! duplicates. After the run the dashboard asks each sensor for four
//! aggregates over its newest data, and the station restarts from a store
//! holding the same frames. The simulated station keeps its logs in
//! memory and the store is written in set-up: otherwise a quarter of the
//! chunks would each pay a directory and file creation, and the chunk
//! latency tail would measure the disk. About half of `simulate` is
//! topology and energy charging rather than encoding; the traced run
//! isolates that share with a `Strategy::Raw` control over the same
//! topology. Each pass draws fresh loss patterns and query ranges (see
//! `round_seed`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{codec, Frame, SbrConfig, SbrEncoder};
use sbr_obs::{EventKind, Recorder as _, Snapshot, Timeline};
use sensor_net::{
    BaseStation, EnergyModel, FaultPlan, LossyLink, Network, Receipt, Strategy, Topology,
};

use crate::pipeline::{
    audit, fresh_dir, layer, ns, recent_range, restarts, round_seed, sub_seed, Answer, Meter,
    PassStats, Quality, Rng,
};

const NODES: usize = 400;
const SIGNALS: usize = 2;
const LEN: usize = 256;
const BATCH: usize = 64;
const BAND: usize = SIGNALS * BATCH / 5;
const M_BASE: usize = BATCH / 2;
const LOSS: f64 = 0.1;
const HOP_ATTEMPTS: u32 = 8;
/// Aggregates asked of each sensor after the run.
const QUERIES: usize = 4;
/// Lifecycle events kept per pass: every event of every frame fits.
const TIMELINE_CAPACITY: usize = 1 << 18;
/// Station restarts at the end of a pass.
const RESTARTS: usize = 5;

/// Inputs: per-sensor feeds (`node − 1 → signal → sample`), the frames
/// each sensor must deliver, and a store holding them.
pub struct SimLine {
    feeds: Vec<Vec<Vec<f64>>>,
    topology: Topology,
    seed: u64,
    /// `(node, frames)`: what an encoder run outside the simulator makes
    /// of each feed — the station must log exactly these.
    expected: Vec<(usize, Vec<Bytes>)>,
    dir: PathBuf,
}

fn config() -> SbrConfig {
    SbrConfig::new(BAND, M_BASE)
}

impl SimLine {
    fn network(&self, seed: u64) -> Network {
        let mut net = Network::new(self.topology.clone(), EnergyModel::default());
        net.set_link(LossyLink::new(LOSS, HOP_ATTEMPTS, sub_seed(seed, 0x5A)));
        net
    }
}

/// `(calls, total ns)` a histogram gained between two snapshots.
fn grown(before: &Snapshot, after: &Snapshot, name: &str) -> (u64, u64) {
    let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

impl crate::Workload for SimLine {
    fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        let feeds: Vec<Vec<Vec<f64>>> = (1..NODES)
            .map(|n| sbr_datasets::stock(sub_seed(seed, n as u64), SIGNALS, LEN).signals)
            .collect();
        let mut expected = Vec::with_capacity(feeds.len());
        for (i, feed) in feeds.iter().enumerate() {
            let mut enc = SbrEncoder::new(SIGNALS, BATCH, config()).map_err(|e| e.to_string())?;
            let mut frames = Vec::with_capacity(LEN / BATCH);
            for c in 0..LEN / BATCH {
                let rows: Vec<Vec<f64>> = feed
                    .iter()
                    .map(|r| r[c * BATCH..(c + 1) * BATCH].to_vec())
                    .collect();
                let tx = enc.encode(&rows).map_err(|e| e.to_string())?;
                frames.push(codec::encode_v2(&Frame::data(0, tx)));
            }
            expected.push((i + 1, frames));
        }
        let dir = work.join("store");
        fresh_dir(&dir)?;
        let station = BaseStation::with_persistence(&dir);
        for (node, frames) in &expected {
            for f in frames {
                match station.receive_frame(*node, f.clone()) {
                    Ok(Receipt::Accepted) => {}
                    other => return Err(format!("store fill, sensor {node}: {other:?}")),
                }
            }
        }
        drop(station);
        // Warm-up: a short run over the first few sensors' feeds.
        let mut warm = Network::new(Topology::line(5, 1.0), EnergyModel::default());
        warm.simulate(&feeds[..4], BATCH, &Strategy::SbrArq(config()))
            .map_err(|e| e.to_string())?;
        Ok(SimLine {
            feeds,
            topology: Topology::line(NODES, 1.0),
            seed,
            expected,
            dir,
        })
    }

    fn threads(&self) -> usize {
        config().resolved_threads()
    }

    fn pass(&mut self, meter: &mut Meter, round: usize) -> Result<PassStats, String> {
        let mut stats = PassStats::default();
        let seed = round_seed(self.seed, round);
        let mut rng = Rng::new(seed, 0x5B);
        let mut answers = Vec::new();
        let timeline = Timeline::live(TIMELINE_CAPACITY);
        let rec = meter.recorder();
        let mut net = self.network(seed);
        net.set_fault_plan(
            FaultPlan::new(sub_seed(seed, 0x5C))
                .with_drop(0.05)
                .with_dup(0.05),
        );
        net.set_timeline(timeline.clone());
        if let Some(r) = &rec {
            net.set_recorder(r.clone());
        }
        let before = rec.as_ref().map(|r| r.snapshot());
        let strategy = Strategy::SbrArq(config());
        let sensors = self.feeds.len();
        stats.attempted += (sensors * (LEN / BATCH)) as u64;

        meter.begin();
        let (report, _) = meter.time(layer::NETWORK, || {
            net.simulate(&self.feeds, BATCH, &strategy)
        });
        if let (Some(r), Some(before)) = (&rec, &before) {
            let after = r.snapshot();
            let (enc_calls, enc_ns) = grown(before, &after, "sbr_core.sbr.encode_ns");
            let (codec_calls, codec_ns) = grown(before, &after, "sbr_core.codec.encode_ns");
            let (st_calls, st_ns) = grown(before, &after, "sensor_net.station.decode_batch_ns");
            meter.program_children(&[
                (layer::SBR, enc_calls, enc_ns),
                (layer::CODEC, codec_calls, codec_ns),
                (layer::STATION, st_calls, st_ns),
            ]);
        }
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                meter.end();
                stats.fail(format!("simulate: {e}"));
                return Ok(stats);
            }
        };
        for node in 1..=sensors {
            let total = net.station().chunk_count(node) * BATCH;
            if total == 0 {
                continue;
            }
            for q in 0..QUERIES {
                let signal = q % SIGNALS;
                let (t0, t1) = recent_range(&mut rng, total, 2 * BATCH);
                stats.attempted += 1;
                let (agg, d) = meter.time(layer::QUERY, || {
                    net.station().aggregate_range(node, signal, t0, t1)
                });
                stats.query_ns.push(d);
                match agg {
                    Ok(agg) if q == 0 && node % 16 == 1 => answers.push(Answer {
                        node,
                        signal,
                        t0,
                        t1,
                        agg,
                    }),
                    Ok(_) => {}
                    Err(e) => stats.fail(format!("aggregate_range({node}, {signal}): {e}")),
                }
            }
        }
        let restarted = restarts(meter, &self.dir, RESTARTS, &mut stats);
        meter.end();

        // Chunk latency: from the frame's `encoded` event to the station
        // decoding it.
        let mut encoded: HashMap<_, u64> = HashMap::new();
        let mut decoded: HashMap<_, u64> = HashMap::new();
        for ev in timeline.events() {
            match ev.kind {
                EventKind::Encoded => {
                    encoded.entry(ev.frame).or_insert(ev.ts_ns);
                }
                EventKind::Decoded => {
                    decoded.entry(ev.frame).or_insert(ev.ts_ns);
                }
                _ => {}
            }
        }
        if timeline.dropped_events() > 0 {
            stats.fail("timeline overflowed: chunk latencies incomplete");
        }
        for (id, t1) in &decoded {
            if let Some(t0) = encoded.get(id) {
                stats.chunk_ns.push(t1.saturating_sub(*t0));
            }
        }
        let recovery = report.recovery.unwrap_or_default();
        if recovery.chunks_delivered != recovery.chunks_flushed {
            stats.fail(format!(
                "{} of {} flushed chunks never delivered",
                recovery.chunks_flushed - recovery.chunks_delivered,
                recovery.chunks_flushed
            ));
        }
        stats.samples = (recovery.chunks_delivered * SIGNALS * BATCH) as u64;
        stats.counts.codec_bytes_out = self
            .expected
            .iter()
            .flat_map(|(_, frames)| frames)
            .map(|f| f.len() as u64)
            .sum();
        stats.counts.net_hop_attempts = report.hop_attempts;
        stats.counts.net_frames_sent = recovery.frames_sent;
        stats.counts.net_acks_sent = recovery.acks_sent;
        stats.counts.frames_sent = recovery.frames_sent;
        stats.counts.accepted = recovery.frames_delivered - recovery.resyncs;
        stats.counts.resynced = recovery.resyncs;
        stats.counts.duplicates = recovery.duplicates_discarded;
        stats.counts.gaps = recovery.gaps_detected;
        stats.counts.corrupt = recovery.corrupt_rejected;
        if rec.is_some() {
            // The routing-only control, outside the timed phase.
            let mut control = self.network(seed);
            let t0 = Instant::now();
            control
                .simulate(&self.feeds, BATCH, &Strategy::Raw)
                .map_err(|e| e.to_string())?;
            stats.counts.route_ns = ns(t0);
        }

        for (node, frames) in &self.expected {
            let loaded = restarted.as_ref().map_or(0, |st| st.chunk_count(*node));
            if loaded != frames.len() {
                stats.fail(format!(
                    "sensor {node}: restarted station holds {loaded} chunks"
                ));
            }
        }
        let wire_bytes = audit(
            net.station(),
            &self.dir,
            &self.expected,
            &answers,
            &mut stats,
        );
        if round == 0 {
            let truth_ss = self.feeds.iter().flatten().flatten().map(|v| v * v).sum();
            stats.quality = Some(Quality {
                raw_samples: report.raw_values as u64,
                wire_bytes,
                disk_bytes: stats.counts.disk_bytes,
                sse: report.sse,
                truth_ss,
                energy: report.total_energy(),
            });
        }
        Ok(stats)
    }
}

//! `history_dashboard`: a restarted station answering a dashboard's query
//! mix over a long history, so the query engine, decoder and recovery do
//! the work.
//!
//! Set-up fills a persistent store with 16 sensors × 4 stock signals ×
//! M = 256 × 128 chunks (10 % `TotalBand`). Each pass restarts the
//! station on a fresh copy of that store and runs a fixed, seeded mix:
//! 94 % `aggregate_range` drawn from 6000 distinct plans per sensor —
//! more than the 4096-entry plan cache holds — with start points leaning
//! toward recent data, 5 % raw `reconstruct_signal_range` reads spread
//! over the whole history (the first on each sensor hydrates its cold
//! history from disk), and 1 % ingests of the sensor's next frame, in a
//! seeded order.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use sbr_core::{codec, Decoder, Frame, SbrConfig, SbrEncoder};
use sensor_net::{BaseStation, Receipt};

use crate::pipeline::{
    audit, copy_tree, fresh_dir, layer, ns, restarts, sub_seed, Answer, Meter, OneHop, PassStats,
    Quality, Rng,
};

const SENSORS: usize = 16;
const SIGNALS: usize = 4;
const M: usize = 256;
const FILL: usize = 128;
/// Frames per sensor held back from the fill for the mix's ingests.
const EXTRA: usize = 24;
const BAND: usize = SIGNALS * M / 10;
const M_BASE: usize = 256;
/// Distinct aggregate plans per sensor (the plan cache holds 4096).
const PLANS: usize = 6000;
/// Operations per pass.
const OPS: usize = 20_000;
/// Ingests per pass (1 % of the operations; at most `EXTRA` per sensor).
const INGESTS: usize = OPS / 100;
/// Raw reads per pass (5 % of the operations).
const RAWS: usize = OPS / 20;
const _: () = assert!(INGESTS <= SENSORS * EXTRA);
/// Station restarts at the start of a pass.
const RESTARTS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Op {
    Agg {
        node: usize,
        plan: usize,
    },
    Raw {
        node: usize,
        signal: usize,
        t0: usize,
        t1: usize,
    },
    Ingest {
        node: usize,
    },
}

/// Inputs: truth and frames per sensor, the filled store, the plan pools
/// and the op schedule.
pub struct HistoryDashboard {
    truth: Vec<Vec<Vec<Vec<f64>>>>,
    frames: Vec<Vec<Bytes>>,
    plans: Vec<Vec<(usize, usize, usize)>>,
    ops: Vec<Op>,
    golden: PathBuf,
    dir: PathBuf,
    /// Energy of delivering the filled history over one hop.
    fill_energy: OneHop,
    /// Reconstruction of every frame by an independent decoder, built on
    /// the first raw-read check.
    mirror: Option<Vec<Vec<Vec<Vec<f64>>>>>,
}

fn config() -> SbrConfig {
    SbrConfig::new(BAND, M_BASE)
}

/// A plan over the filled history: a window of up to 32 chunks (a
/// dashboard panel's time span), ending at a point that leans toward the
/// newest data (cubic skew).
fn plan(rng: &mut Rng, total: usize) -> (usize, usize, usize) {
    let signal = rng.below(SIGNALS);
    let back = (total as f64 * rng.unit().powi(3)) as usize;
    let t1 = total - back.min(total - 1);
    let len = 1 + rng.below((32 * M).min(t1));
    (signal, t1 - len, t1)
}

impl crate::Workload for HistoryDashboard {
    fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        let mut truth = Vec::with_capacity(SENSORS);
        let mut frames = Vec::with_capacity(SENSORS);
        for s in 0..SENSORS {
            let chunks =
                sbr_datasets::stock(sub_seed(seed, s as u64), SIGNALS, M * (FILL + EXTRA)).chunk(M);
            let mut enc = SbrEncoder::new(SIGNALS, M, config()).map_err(|e| e.to_string())?;
            let mut fs = Vec::with_capacity(chunks.len());
            for rows in &chunks {
                let tx = enc.encode(rows).map_err(|e| e.to_string())?;
                fs.push(codec::encode_v2(&Frame::data(0, tx)));
            }
            truth.push(chunks);
            frames.push(fs);
        }
        let golden = work.join("golden");
        fresh_dir(&golden)?;
        let mut fill_energy = OneHop::default();
        {
            let station = BaseStation::with_persistence(&golden);
            for c in 0..FILL {
                for (s, fs) in frames.iter().enumerate() {
                    fill_energy.buffered(SIGNALS * M);
                    fill_energy.attempt(fs[c].len());
                    fill_energy.ack();
                    match station.receive_frame(s, fs[c].clone()) {
                        Ok(Receipt::Accepted) => {}
                        other => return Err(format!("fill sensor {s} chunk {c}: {other:?}")),
                    }
                }
            }
        }
        let mut rng = Rng::new(seed, 0xD0);
        let plans: Vec<Vec<_>> = (0..SENSORS)
            .map(|_| {
                let mut seen = HashSet::new();
                let mut pool = Vec::with_capacity(PLANS);
                while pool.len() < PLANS {
                    let p = plan(&mut rng, FILL * M);
                    if seen.insert(p) {
                        pool.push(p);
                    }
                }
                pool
            })
            .collect();
        // The mix's shares are exact and only the order is drawn. Shares
        // drawn per operation would make the number of ingests and raw
        // reads in a pass, and `samples_per_s` with it, move with the seed.
        enum Kind {
            Ingest,
            Raw,
            Agg,
        }
        let mut kinds: Vec<Kind> = (0..OPS)
            .map(|i| {
                if i < INGESTS {
                    Kind::Ingest
                } else if i < INGESTS + RAWS {
                    Kind::Raw
                } else {
                    Kind::Agg
                }
            })
            .collect();
        for i in (1..OPS).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        let mut next_ingest = 0usize;
        let ops = kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Ingest => {
                    let node = next_ingest;
                    next_ingest = (next_ingest + 1) % SENSORS;
                    Op::Ingest { node }
                }
                Kind::Raw => {
                    let node = rng.below(SENSORS);
                    let t0 = rng.below(FILL * M - M);
                    Op::Raw {
                        node,
                        signal: rng.below(SIGNALS),
                        t0,
                        t1: t0 + 1 + rng.below(M),
                    }
                }
                Kind::Agg => {
                    // Popular plans first: a quadratic skew over the pool.
                    let plan = (PLANS as f64 * rng.unit().powi(2)) as usize;
                    Op::Agg {
                        node: rng.below(SENSORS),
                        plan: plan.min(PLANS - 1),
                    }
                }
            })
            .collect();
        // Warm-up: one restart and one query, outside any pass.
        let warm = BaseStation::load(&golden).map_err(|e| e.to_string())?;
        let (signal, t0, t1) = plans[0][0];
        warm.aggregate_range(0, signal, t0, t1)
            .map_err(|e| e.to_string())?;
        Ok(HistoryDashboard {
            truth,
            frames,
            plans,
            ops,
            golden,
            dir: work.join("store"),
            fill_energy,
            mirror: None,
        })
    }

    fn threads(&self) -> usize {
        config().resolved_threads()
    }

    fn pass(&mut self, meter: &mut Meter, round: usize) -> Result<PassStats, String> {
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
        }
        copy_tree(&self.golden, &self.dir)?;
        let mut stats = PassStats::default();
        let mut answers = Vec::new();
        let mut raws = Vec::new();
        let mut logged = vec![FILL; SENSORS];

        meter.begin();
        let restarted = restarts(meter, &self.dir, RESTARTS, &mut stats);
        let Some(station) = restarted else {
            meter.end();
            return Ok(stats);
        };
        for (i, op) in self.ops.iter().enumerate() {
            stats.attempted += 1;
            match *op {
                Op::Agg { node, plan } => {
                    let (signal, t0, t1) = self.plans[node][plan];
                    let lane = if station.cold_chunks(node) > t0 / M {
                        layer::STORAGE
                    } else {
                        layer::QUERY
                    };
                    let (agg, d) =
                        meter.time(lane, || station.aggregate_range(node, signal, t0, t1));
                    stats.query_ns.push(d);
                    if lane == layer::STORAGE {
                        stats.counts.hydrate_ns += d;
                    }
                    match agg {
                        Ok(agg) if i % 64 == 0 => answers.push(Answer {
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
                Op::Raw {
                    node,
                    signal,
                    t0,
                    t1,
                } => {
                    let lane = if station.cold_chunks(node) > 0 {
                        layer::STORAGE
                    } else {
                        layer::DECODER
                    };
                    let (values, d) = meter.time(lane, || {
                        station.reconstruct_signal_range(node, signal, t0, t1)
                    });
                    stats.query_ns.push(d);
                    if lane == layer::STORAGE {
                        stats.counts.hydrate_ns += d;
                    }
                    match values {
                        Ok(v) if i % 8 == 0 => raws.push((node, signal, t0, v)),
                        Ok(_) => {}
                        Err(e) => stats.fail(format!(
                            "reconstruct_signal_range({node}, {signal}, {t0}, {t1}): {e}"
                        )),
                    }
                }
                Op::Ingest { node } => {
                    let frame = self.frames[node][logged[node]].clone();
                    let ready = Instant::now();
                    let (receipt, _) =
                        meter.time(layer::STATION, || station.receive_frame(node, frame));
                    let d = ns(ready);
                    if let Some(err) = stats.counts.receipt(&receipt) {
                        stats.fail(format!("sensor {node}: {err}"));
                    } else if receipt == Ok(Receipt::Accepted) {
                        stats.chunk_ns.push(d);
                        stats.samples += (SIGNALS * M) as u64;
                        logged[node] += 1;
                    } else {
                        stats.fail(format!("sensor {node}: receipt {receipt:?}"));
                    }
                }
            }
        }
        meter.end();

        let sent: Vec<(usize, Vec<Bytes>)> = self
            .frames
            .iter()
            .zip(&logged)
            .enumerate()
            .map(|(s, (f, &n))| (s, f[..n].to_vec()))
            .collect();
        let wire_bytes = audit(&station, &self.dir, &sent, &answers, &mut stats);
        let mirror = match &self.mirror {
            Some(m) => m,
            None => {
                let mut all = Vec::with_capacity(SENSORS);
                for fs in &self.frames {
                    let mut dec = Decoder::new();
                    let mut chunks = Vec::with_capacity(fs.len());
                    for f in fs {
                        let frame = codec::decode_v2(&mut f.clone()).map_err(|e| e.to_string())?;
                        chunks.push(dec.decode_frame(&frame).map_err(|e| e.to_string())?);
                    }
                    all.push(chunks);
                }
                self.mirror.insert(all)
            }
        };
        for (node, signal, t0, values) in raws {
            let expect: Vec<f64> = (t0..t0 + values.len())
                .map(|t| mirror[node][t / M][signal][t % M])
                .collect();
            if expect
                .iter()
                .zip(&values)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                stats.fail(format!(
                    "sensor {node} signal {signal} raw read at {t0} differs"
                ));
            }
        }
        if round == 0 {
            let mut energy = self.fill_energy.total();
            let mut q = Quality {
                wire_bytes,
                disk_bytes: stats.counts.disk_bytes,
                ..Quality::default()
            };
            for (s, n) in logged.iter().enumerate() {
                q.raw_samples += (n * SIGNALS * M) as u64;
                let mut hop = OneHop::default();
                for f in &self.frames[s][FILL..*n] {
                    hop.buffered(SIGNALS * M);
                    hop.attempt(f.len());
                    hop.ack();
                }
                energy += hop.total();
                match station.reconstruct_chunks(s, 0, *n) {
                    Ok(chunks) => {
                        for (rec, rows) in chunks.iter().zip(&self.truth[s]) {
                            q.score(rows, rec);
                        }
                    }
                    Err(e) => stats.fail(format!("sensor {s}: reconstruct_chunks: {e}")),
                }
            }
            q.energy = energy;
            stats.quality = Some(q);
        }
        Ok(stats)
    }
}

//! What every workload shares: the meter that times calls into the
//! layers, the per-pass tally, the one-hop energy ledger, the seeded
//! generator and the oracles.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sbr_core::SbrError;
use sbr_obs::MetricsRecorder;
use sensor_net::base_station::RangeAggregate;
use sensor_net::{storage, BaseStation, EnergyLedger, EnergyModel, Receipt};

use crate::trace::{Span, Tracer};

/// Layer names: the repository modules a timed call lands in.
pub mod layer {
    /// `SbrEncoder::encode` (GetBase, Search, GetIntervals, `par`).
    pub const SBR: &str = "sbr_core.sbr";
    /// `codec::encode_v2` (v2 framing).
    pub const CODEC: &str = "sbr_core.codec";
    /// `LossyLink::hop` (per-hop stop-and-wait).
    pub const LINK: &str = "sensor_net.link";
    /// `BaseStation::receive_frame` (CRC decode, tracker, chunk index,
    /// and the segment append it performs).
    pub const STATION: &str = "sensor_net.base_station";
    /// `BaseStation::load`, and reads that hydrate cold history.
    pub const STORAGE: &str = "sensor_net.storage";
    /// `BaseStation::aggregate_range` on indexed history.
    pub const QUERY: &str = "sbr_core.query";
    /// `BaseStation::reconstruct_signal_range` on warm history.
    pub const DECODER: &str = "sbr_core.decoder";
    /// `Network::simulate`, less the encoder, codec and station time the
    /// program measures inside it (topology, energy, ARQ rounds).
    pub const NETWORK: &str = "sensor_net.network";
}

/// Name of the root span covering a pass's timed phase.
pub const ROOT: &str = "pipeline";

/// Times calls into the layers. Untraced, it only reads the clock around
/// each call; traced, it also records a span per call and hands out a
/// live metrics recorder for the program's own counters.
#[derive(Debug)]
pub struct Meter {
    tracer: Option<Tracer>,
    recorder: Option<Arc<MetricsRecorder>>,
    root: Option<usize>,
    last: Option<usize>,
    phase: Option<(Instant, Option<u64>)>,
    wall_ns: u64,
    steal_ns: Option<u64>,
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run, summed over CPUs (the `steal` column of
/// `/proc/stat`, in nanoseconds); `None` where it cannot be read.
pub fn host_steal_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
    Some(ticks * 10_000_000)
}

impl Meter {
    /// An untraced meter.
    pub fn untraced() -> Self {
        Meter {
            tracer: None,
            recorder: None,
            root: None,
            last: None,
            phase: None,
            wall_ns: 0,
            steal_ns: Some(0),
        }
    }

    /// A traced meter whose program counters go to `recorder`.
    pub fn traced(recorder: Arc<MetricsRecorder>) -> Self {
        Meter {
            tracer: Some(Tracer::default()),
            recorder: Some(recorder),
            ..Meter::untraced()
        }
    }

    /// The recorder to attach to encoders, stations and networks (traced
    /// passes only).
    pub fn recorder(&self) -> Option<Arc<MetricsRecorder>> {
        self.recorder.clone()
    }

    /// Start the timed phase.
    pub fn begin(&mut self) {
        self.root = self.tracer.as_mut().map(|t| t.open(ROOT));
        self.phase = Some((Instant::now(), host_steal_ns()));
    }

    /// End the timed phase.
    pub fn end(&mut self) {
        if let Some((t0, steal0)) = self.phase.take() {
            self.wall_ns += ns(t0);
            self.steal_ns = match (self.steal_ns, steal0, host_steal_ns()) {
                (Some(acc), Some(a), Some(b)) => Some(acc + b.saturating_sub(a)),
                _ => None,
            };
        }
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), self.root.take()) {
            t.close(root);
        }
    }

    /// Wall of the timed phase, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// CPU steal during the timed phase (see [`host_steal_ns`]).
    pub fn steal_ns(&self) -> Option<u64> {
        self.steal_ns
    }

    /// Run one call into `layer`; returns its result and duration.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self.tracer.as_mut().map(|t| t.open(layer));
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let d = ns(t0);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.close(id);
        }
        self.last = span;
        (out, d)
    }

    /// Attribute time the program measured inside the last timed call to
    /// the layers that spent it: `(layer, calls, total ns)` each.
    pub fn program_children(&mut self, children: &[(&'static str, u64, u64)]) {
        if let (Some(t), Some(parent)) = (self.tracer.as_mut(), self.last) {
            for &(layer, calls, total_ns) in children {
                t.child(parent, layer, calls, total_ns);
            }
        }
    }

    /// The recorded spans (empty when untraced).
    pub fn spans(&self) -> &[Span] {
        self.tracer.as_ref().map_or(&[], Tracer::spans)
    }
}

/// Nanoseconds since `t0`.
pub fn ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Deterministic outputs of one pass over one of the workload's inputs.
/// They depend on the seed and the input only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Raw sensor samples the station holds.
    pub raw_samples: u64,
    /// Bytes of the v2 frames carrying them (one copy per chunk).
    pub wire_bytes: u64,
    /// Bytes of the station's stores: segments plus checkpoints.
    pub disk_bytes: u64,
    /// Sum of squared reconstruction errors against ground truth.
    pub sse: f64,
    /// Sum of squares of the ground truth: `sse` relative to it gives the
    /// RMSE relative to the truth's RMS, which does not scale with the
    /// seed's price level.
    pub truth_ss: f64,
    /// Energy spent delivering the samples (the energy model's units).
    pub energy: f64,
}

impl Quality {
    /// Field-wise sum: the outputs of several distinct inputs together.
    pub fn plus(&self, o: &Quality) -> Quality {
        Quality {
            raw_samples: self.raw_samples + o.raw_samples,
            wire_bytes: self.wire_bytes + o.wire_bytes,
            disk_bytes: self.disk_bytes + o.disk_bytes,
            sse: self.sse + o.sse,
            truth_ss: self.truth_ss + o.truth_ss,
            energy: self.energy + o.energy,
        }
    }

    /// Score one reconstructed chunk (`signal → sample`) against the truth.
    pub fn score(&mut self, truth: &[Vec<f64>], rec: &[Vec<f64>]) {
        for (t, r) in truth.iter().zip(rec) {
            self.sse += t.iter().zip(r).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
            self.truth_ss += t.iter().map(|a| a * a).sum::<f64>();
        }
    }
}

/// Counts the benchmark observes at the calls it makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Bytes `codec::encode_v2` produced.
    pub codec_bytes_out: u64,
    /// `LossyLink::hop` calls (one per frame transmission).
    pub link_frames: u64,
    /// Attempts those hops made.
    pub link_attempts: u64,
    /// Hops that exhausted their attempts.
    pub link_gave_up: u64,
    /// End-to-end frame transmissions (retransmissions included).
    pub frames_sent: u64,
    /// Station receipts by kind.
    pub accepted: u64,
    /// Duplicates the station discarded.
    pub duplicates: u64,
    /// Resyncs the station accepted.
    pub resynced: u64,
    /// Frames rejected for a missing predecessor.
    pub gaps: u64,
    /// Frames rejected as corrupt.
    pub corrupt: u64,
    /// Per-hop attempts inside `Network::simulate`.
    pub net_hop_attempts: u64,
    /// End-to-end frame transmissions inside `Network::simulate`.
    pub net_frames_sent: u64,
    /// Cumulative ACK rounds inside `Network::simulate`.
    pub net_acks_sent: u64,
    /// Time of the calls that hydrated cold history from disk.
    pub hydrate_ns: u64,
    /// Wall of the `Strategy::Raw` control run (traced `sim_line` only).
    pub route_ns: u64,
    /// Checkpoint files in the stores at the end of the pass.
    pub checkpoints: u64,
    /// Frame payload bytes the stores hold.
    pub payload_bytes: u64,
    /// Bytes the stores occupy.
    pub disk_bytes: u64,
}

impl Counts {
    /// Fold one `receive_frame` outcome in. Gaps, duplicates and corrupt
    /// frames are protocol traffic the sender repairs; any other error is
    /// returned for the caller to count as a failure.
    pub fn receipt(&mut self, r: &Result<Receipt, SbrError>) -> Option<String> {
        match r {
            Ok(Receipt::Accepted) => self.accepted += 1,
            Ok(Receipt::Duplicate) => self.duplicates += 1,
            Ok(Receipt::Resynced) => self.resynced += 1,
            Err(SbrError::Gap { .. }) => self.gaps += 1,
            Err(SbrError::Corrupt(_)) => self.corrupt += 1,
            Err(e) => return Some(format!("receive_frame: {e}")),
        }
        None
    }

    /// Add another pass's counts.
    pub fn add(&mut self, o: &Counts) {
        self.codec_bytes_out += o.codec_bytes_out;
        self.link_frames += o.link_frames;
        self.link_attempts += o.link_attempts;
        self.link_gave_up += o.link_gave_up;
        self.frames_sent += o.frames_sent;
        self.accepted += o.accepted;
        self.duplicates += o.duplicates;
        self.resynced += o.resynced;
        self.gaps += o.gaps;
        self.corrupt += o.corrupt;
        self.net_hop_attempts += o.net_hop_attempts;
        self.net_frames_sent += o.net_frames_sent;
        self.net_acks_sent += o.net_acks_sent;
        self.hydrate_ns += o.hydrate_ns;
        self.route_ns += o.route_ns;
        self.checkpoints += o.checkpoints;
        self.payload_bytes += o.payload_bytes;
        self.disk_bytes += o.disk_bytes;
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Raw samples made durable at the station in the timed phase.
    pub samples: u64,
    /// Per-chunk latency, ready-to-send to receipt.
    pub chunk_ns: Vec<u64>,
    /// Per-query latency.
    pub query_ns: Vec<u64>,
    /// Per-restart `BaseStation::load` latency.
    pub recover_ns: Vec<u64>,
    /// Operations attempted (chunks, queries, restarts).
    pub attempted: u64,
    /// One line per failed operation or oracle mismatch.
    pub failures: Vec<String>,
    /// Deterministic outputs (first pass over each distinct input only).
    pub quality: Option<Quality>,
    /// Counts seen at the timed calls.
    pub counts: Counts,
}

impl PassStats {
    /// Record a failure.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// The radio energy of a single sensor-to-station hop, charged with the
/// network simulator's [`EnergyModel`]: the sensor pays CPU per buffered
/// value and transmit per attempt, the station pays receive per attempt,
/// and each delivered hop costs a one-value ACK in both directions.
/// Values are counted as the simulator counts them: wire bytes / 8.
#[derive(Debug, Default)]
pub struct OneHop {
    model: EnergyModel,
    sensor: EnergyLedger,
    station: EnergyLedger,
}

impl OneHop {
    /// `values` raw values buffered and compressed.
    pub fn buffered(&mut self, values: usize) {
        self.sensor.charge_cpu(&self.model, values);
    }

    /// One transmission attempt of a `frame_bytes`-byte frame.
    pub fn attempt(&mut self, frame_bytes: usize) {
        let v = frame_bytes.div_ceil(8);
        self.sensor.charge_tx(&self.model, v);
        self.station.charge_rx(&self.model, v);
    }

    /// The hop-level ACK of a delivered frame.
    pub fn ack(&mut self) {
        self.station.charge_tx(&self.model, 1);
        self.sensor.charge_rx(&self.model, 1);
    }

    /// Energy spent so far.
    pub fn total(&self) -> f64 {
        self.sensor.total() + self.station.total()
    }
}

/// SplitMix64: the benchmark's seeded generator for schedules and
/// channel faults.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// A seed for one input stream of the workload, derived from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// The seed of pass `round`'s faults and query ranges: passes draw fresh
/// loss patterns and ranges, so a run averages over many of them instead
/// of repeating the one a seed drew.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    sub_seed(seed, 0x1_0000_0000 + round as u64)
}

/// A query range inside the last `window` of `total` logged samples,
/// ending in the newer half of that window.
pub fn recent_range(rng: &mut Rng, total: usize, window: usize) -> (usize, usize) {
    let window = window.min(total).max(1);
    let lo = total - window;
    let t1 = total - rng.below(window / 2 + 1).min(window - 1);
    let len = 1 + rng.below(t1 - lo);
    (t1 - len, t1)
}

/// Replace `dir` with an empty directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Copy the tree under `src` to `dst` (which must not exist).
pub fn copy_tree(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("create {}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("read {}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", src.display()))?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Bytes of every file under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Oracle: the station logged exactly the frames the sensor sent, byte
/// for byte and in order.
fn check_frames(node: usize, sent: &[Bytes], logged: &[Bytes], stats: &mut PassStats) {
    if logged.len() != sent.len() {
        stats.fail(format!(
            "sensor {node}: station logged {} frames, {} were sent",
            logged.len(),
            sent.len()
        ));
    }
    for (i, (a, b)) in sent.iter().zip(logged).enumerate() {
        if a != b {
            stats.fail(format!(
                "sensor {node}: logged frame {i} differs from the frame sent"
            ));
        }
    }
}

/// Oracle: a full read-only audit of a sensor's store is clean and holds
/// `records` records; returns the store's checkpoint count and payload.
fn check_store(dir: &Path, node: usize, records: u64, stats: &mut PassStats) -> (u64, u64) {
    match storage::verify(dir, node) {
        Ok(r) if r.records == records && r.truncated_tail == 0 => {
            (u64::from(r.checkpoints), r.payload_bytes)
        }
        Ok(r) => {
            stats.fail(format!(
                "sensor {node}: store holds {} records ({} torn bytes), expected {records}",
                r.records, r.truncated_tail
            ));
            (u64::from(r.checkpoints), r.payload_bytes)
        }
        Err(e) => {
            stats.fail(format!("sensor {node}: storage::verify: {e}"));
            (0, 0)
        }
    }
}

/// Oracle: a compressed-domain answer agrees with decode-then-scan —
/// count, min and max exactly, sum and average within 1e-9 relative (the
/// two sum in different orders).
fn agg_agrees(fast: &RangeAggregate, slow: &RangeAggregate) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    fast.count == slow.count
        && fast.min.to_bits() == slow.min.to_bits()
        && fast.max.to_bits() == slow.max.to_bits()
        && close(fast.sum, slow.sum)
        && close(fast.avg, slow.avg)
}

/// Restart the station over `dir` `times` times (each a timed
/// `BaseStation::load`, attributed to storage) and keep the last one.
/// The caller drops the live station first.
pub fn restarts(
    meter: &mut Meter,
    dir: &Path,
    times: usize,
    stats: &mut PassStats,
) -> Option<BaseStation> {
    let rec = meter.recorder();
    let mut station = None;
    for _ in 0..times {
        stats.attempted += 1;
        drop(station.take());
        let (loaded, d) = meter.time(layer::STORAGE, || match &rec {
            Some(r) => BaseStation::load_with_recorder(dir, r.as_ref()),
            None => BaseStation::load(dir),
        });
        match loaded {
            Ok(st) => {
                stats.recover_ns.push(d);
                station = Some(st);
            }
            Err(e) => stats.fail(format!("BaseStation::load: {e}")),
        }
    }
    station
}

/// A compressed-domain answer kept for the decode oracle.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Sensor queried.
    pub node: usize,
    /// Signal queried.
    pub signal: usize,
    /// Range start.
    pub t0: usize,
    /// Range end (exclusive).
    pub t1: usize,
    /// What `aggregate_range` returned.
    pub agg: RangeAggregate,
}

/// The oracles every station workload runs after its timed phase:
/// each sensor's logged frames equal the frames sent, each store audits
/// clean, and each sampled answer matches decode-then-scan. Also fills
/// the store counts and returns the wire bytes of the frames sent.
pub fn audit(
    station: &BaseStation,
    dir: &Path,
    sent: &[(usize, Vec<Bytes>)],
    answers: &[Answer],
    stats: &mut PassStats,
) -> u64 {
    let mut wire = 0u64;
    for (node, frames) in sent {
        check_frames(*node, frames, &station.raw_frames(*node), stats);
        let (checkpoints, payload) = check_store(dir, *node, frames.len() as u64, stats);
        stats.counts.checkpoints += checkpoints;
        stats.counts.payload_bytes += payload;
        wire += frames.iter().map(|f| f.len() as u64).sum::<u64>();
    }
    for a in answers {
        match station.aggregate_range_decode(a.node, a.signal, a.t0, a.t1) {
            Ok(slow) if agg_agrees(&a.agg, &slow) => {}
            Ok(slow) => stats.fail(format!(
                "sensor {} signal {} [{}, {}): {:?} vs decode {slow:?}",
                a.node, a.signal, a.t0, a.t1, a.agg
            )),
            Err(e) => stats.fail(format!("aggregate_range_decode: {e}")),
        }
    }
    stats.counts.disk_bytes = tree_bytes(dir);
    wire
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_ranges_stay_inside_the_log_and_lean_recent() {
        let mut rng = Rng::new(7, 1);
        for _ in 0..10_000 {
            let (t0, t1) = recent_range(&mut rng, 1000, 128);
            assert!(t0 < t1 && t1 <= 1000 && t0 >= 1000 - 128, "[{t0}, {t1})");
        }
        let (t0, t1) = recent_range(&mut rng, 3, 128);
        assert!(t0 < t1 && t1 <= 3);
    }

    #[test]
    fn meter_attributes_program_children_to_the_last_call() {
        let mut m = Meter::traced(Arc::new(MetricsRecorder::new()));
        m.begin();
        let ((), d) = m.time(layer::NETWORK, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        m.program_children(&[(layer::SBR, 3, d / 2)]);
        m.end();
        let spans = m.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].layer, ROOT);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            (spans[2].layer, spans[2].parent, spans[2].calls),
            (layer::SBR, Some(1), 3)
        );
        assert!(m.wall_ns() >= d);
    }
}

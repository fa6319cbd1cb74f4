//! The repository benchmark: the SBR sensor→station pipeline, end to end
//! and layer by layer.
//!
//! ```text
//! sbr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up builds the workload's inputs from the seed (three times; the
//! median is `setup_s`). Then closed-loop passes over those inputs run
//! until `--seconds` have gone by: each pass resets its state untimed,
//! runs the timed phase — only calls into the program's public functions
//! are timed — and checks every output against an oracle untimed. With
//! `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` untraced and traced passes alternate and the result
//! carries each layer's self time and counters, plus the tracing overhead.
//! The last line of standard output is the JSON result; the exit code is
//! nonzero when any operation failed or any oracle disagreed.

mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbr_obs::{MetricsRecorder, Recorder as _, Snapshot};

use pipeline::{layer, Counts, Meter, PassStats, Quality};

/// A benchmark workload: seeded inputs plus one closed-loop pass.
pub trait Workload: Sized {
    /// Build every input the timed phase needs from `seed`, under `work`.
    fn setup(seed: u64, work: &Path) -> Result<Self, String>;
    /// Resolved `num_threads` of the encoders the workload runs.
    fn threads(&self) -> usize;
    /// Untraced passes a run makes however long they take: one per
    /// distinct input, so the deterministic outputs cover all of them.
    fn min_passes(&self) -> usize {
        1
    }
    /// One pass: reset untimed, run the timed phase through `meter`, check
    /// the oracles untimed. `round` counts passes (traced and untraced
    /// passes of one round share their inputs); the first pass over each
    /// distinct input also computes the deterministic outputs.
    fn pass(&mut self, meter: &mut Meter, round: usize) -> Result<PassStats, String>;
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "encode_bound",
    "station_ingest",
    "history_dashboard",
    "sim_line",
];

/// Set-ups per run: at least `SETUP_REPS.0`, more until `SETUP_SECONDS`
/// have gone by, at most `SETUP_REPS.1`; `setup_s` is their median, so a
/// cheap set-up is sampled often enough to be steady.
const SETUP_REPS: (usize, usize) = (3, 25);
const SETUP_SECONDS: f64 = 1.0;

/// Share of `--seconds` whose passes only warm the process up: caches,
/// allocator and page cache settle, and the first passes ran up to 1.5×
/// slower than later ones. Their outputs are still checked.
const WARMUP_SHARE: f64 = 0.1;

/// Steal share of a pass's CPU capacity below which the pass always
/// counts. Passes the host stole more from count only when they are at
/// or below the run's median steal share: on a shared host the
/// hypervisor sometimes took up to 80 % of the CPUs for minutes, and a
/// pass it took them from measures the neighbours, not the program.
const QUIET_STEAL: f64 = 0.02;

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("chunk_ms_p50", "ms"),
    ("chunk_ms_tail", "ms"),
    ("queries_per_s", "queries/s"),
    ("query_us_p50", "us"),
    ("query_us_p99", "us"),
    ("recover_ms", "ms"),
    ("wire_bytes_per_sample", "B/sample"),
    ("disk_bytes_per_sample", "B/sample"),
    ("nrmse", "ratio"),
    ("energy_per_sample", "energy/sample"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`). Counts and
/// times are per pass.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sbr_core.sbr.calls", "count"),
    ("sbr_core.sbr.busy_ms", "ms"),
    ("sbr_core.sbr.us_p50", "us"),
    ("sbr_core.sbr.us_tail", "us"),
    ("sbr_core.par.fanouts", "count"),
    ("sbr_core.par.items_per_fanout", "count"),
    ("sbr_core.probe_cache.hit_ratio", "ratio"),
    ("sbr_core.get_base.fit_cache.hit_ratio", "ratio"),
    ("sbr_core.search.probes", "count"),
    ("sbr_core.base_signal.inserted", "count"),
    ("sbr_core.base_signal.evicted", "count"),
    ("sbr_core.codec.calls", "count"),
    ("sbr_core.codec.busy_ms", "ms"),
    ("sbr_core.codec.bytes_out", "B"),
    ("sensor_net.link.attempts", "count"),
    ("sensor_net.link.attempts_per_frame", "ratio"),
    ("sensor_net.link.gave_up", "count"),
    ("sensor_net.link.busy_ms", "ms"),
    ("sensor_net.base_station.calls", "count"),
    ("sensor_net.base_station.busy_ms", "ms"),
    ("sensor_net.base_station.us_p50", "us"),
    ("sensor_net.base_station.us_tail", "us"),
    ("sensor_net.base_station.accepted", "count"),
    ("sensor_net.base_station.duplicates", "count"),
    ("sensor_net.base_station.resynced", "count"),
    ("sensor_net.base_station.gaps", "count"),
    ("sensor_net.base_station.corrupt", "count"),
    ("sensor_net.arq.delivered_per_sent", "ratio"),
    ("sensor_net.storage.busy_ms", "ms"),
    ("sensor_net.storage.segments_sealed", "count"),
    ("sensor_net.storage.checkpoints", "count"),
    ("sensor_net.storage.write_amp", "ratio"),
    ("sensor_net.storage.load_ms", "ms"),
    ("sensor_net.storage.replayed_records", "count"),
    ("sensor_net.storage.hydrate_ms", "ms"),
    ("sbr_core.query.calls", "count"),
    ("sbr_core.query.busy_ms", "ms"),
    ("sbr_core.query.us_p50", "us"),
    ("sbr_core.query.us_p99", "us"),
    ("sbr_core.query.plan_cache.hit_ratio", "ratio"),
    ("sbr_core.query.intervals_folded_per_query", "count"),
    ("sbr_core.decoder.calls", "count"),
    ("sbr_core.decoder.busy_ms", "ms"),
    ("sbr_core.decoder.us_tail", "us"),
    ("sensor_net.network.busy_ms", "ms"),
    ("sensor_net.network.hop_attempts", "count"),
    ("sensor_net.network.frames_sent", "count"),
    ("sensor_net.network.acks_sent", "count"),
    ("sensor_net.network.route_ms", "ms"),
    ("pipeline.wall_ms", "ms"),
    ("pipeline.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One finished pass.
struct Pass {
    stats: PassStats,
    wall_ns: u64,
    spans: Vec<trace::Span>,
    /// Started within the warm-up share of the run.
    warmup: bool,
    /// CPU steal during the timed phase, as a share of the CPUs' time.
    steal: Option<f64>,
}

/// Everything a run measured.
struct Run {
    setup_s: Vec<f64>,
    threads: usize,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    snapshot: Snapshot,
    measured_s: f64,
    /// `VmHWM` after set-up and the first pass, in KiB: the workload's
    /// peak, before the benchmark's own sample buffers grow with the
    /// number of passes.
    peak_rss_kb: u64,
}

fn run<W: Workload>(args: &Args, work: &Path) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    while setup_s.len() < SETUP_REPS.0
        || (setup_s.len() < SETUP_REPS.1 && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(args.seed, work)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.ok_or("no set-up ran")?;
    let recorder = Arc::new(MetricsRecorder::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let warmup = budget.mul_f64(WARMUP_SHARE);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut peak_rss_kb = 0;
    for i in 0.. {
        let warm = i == 0 || start.elapsed() < warmup;
        let tracing = args.trace && i % 2 == 1;
        let mut meter = if tracing {
            Meter::traced(recorder.clone())
        } else {
            Meter::untraced()
        };
        let stats = w.pass(&mut meter, if args.trace { i / 2 } else { i })?;
        let pass = Pass {
            stats,
            wall_ns: meter.wall_ns(),
            spans: meter.spans().to_vec(),
            warmup: warm,
            steal: meter
                .steal_ns()
                .map(|st| st as f64 / (meter.wall_ns().max(1) as f64 * cpus as f64)),
        };
        if i == 0 {
            peak_rss_kb = peak_rss_kb_now();
        }
        if tracing {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let enough = if args.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= w.min_passes() && untraced.iter().any(|p: &Pass| !p.warmup)
        };
        if start.elapsed() >= budget && enough {
            break;
        }
    }
    Ok(Run {
        setup_s,
        threads: w.threads(),
        untraced,
        traced,
        snapshot: recorder.snapshot(),
        measured_s: start.elapsed().as_secs_f64(),
        peak_rss_kb,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The passes whose timings count: past the warm-up, and not among those
/// the host stole the most CPU from (see [`QUIET_STEAL`]).
fn quiet_passes(run: &Run) -> Vec<&Pass> {
    let timed: Vec<&Pass> = run.untraced.iter().filter(|p| !p.warmup).collect();
    let shares: Vec<f64> = timed.iter().filter_map(|p| p.steal).collect();
    let limit = stats::median(&shares).unwrap_or(0.0).max(QUIET_STEAL);
    timed
        .into_iter()
        .filter(|p| p.steal.is_none_or(|s| s <= limit))
        .collect()
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64, String)> {
    let quiet = quiet_passes(run);
    let passes = &quiet;
    // Throughput is the median over passes of each pass's rate, so a
    // pass slowed by a noisy neighbour does not move it.
    let rate = |f: fn(&PassStats) -> f64| {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| f(&p.stats) / (p.wall_ns as f64 / 1e9))
            .collect();
        stats::median(&rates).unwrap_or(0.0)
    };
    let all = |f: fn(&PassStats) -> &Vec<u64>, scale: f64| {
        stats::sorted(
            passes
                .iter()
                .flat_map(|p| f(&p.stats))
                .map(|&v| v as f64 / scale)
                .collect(),
        )
    };
    let chunk = all(|s| &s.chunk_ns, 1e6);
    let query = all(|s| &s.query_ns, 1e3);
    let recover = all(|s| &s.recover_ns, 1e6);
    let q = run
        .untraced
        .iter()
        .filter_map(|p| p.stats.quality)
        .fold(Quality::default(), |a, b| a.plus(&b));
    let per_sample = |v: f64| v / (q.raw_samples.max(1)) as f64;
    let (tail_p, tail) = stats::tail(&chunk).unwrap_or((0.0, 0.0));
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(0.0);
    let note = |n: usize| format!("{n} samples");
    let warm = run.untraced.iter().filter(|p| p.warmup).count();
    let passes_note = format!(
        "median over {} passes; {warm} warm-up, {} dropped for CPU steal",
        passes.len(),
        run.untraced.len() - warm - passes.len()
    );
    vec![
        (
            "setup_s",
            stats::median(&run.setup_s).unwrap_or(0.0),
            format!("median of {} set-ups", run.setup_s.len()),
        ),
        (
            "samples_per_s",
            rate(|s| s.samples as f64),
            passes_note.clone(),
        ),
        ("chunk_ms_p50", pct(&chunk, 50.0), note(chunk.len())),
        (
            "chunk_ms_tail",
            tail,
            format!("p{tail_p} of {} samples", chunk.len()),
        ),
        (
            "queries_per_s",
            rate(|s| s.query_ns.len() as f64),
            passes_note,
        ),
        ("query_us_p50", pct(&query, 50.0), note(query.len())),
        ("query_us_p99", pct(&query, 99.0), note(query.len())),
        (
            "recover_ms",
            stats::median(&recover).unwrap_or(0.0),
            format!("median of {} restarts", recover.len()),
        ),
        (
            "wire_bytes_per_sample",
            per_sample(q.wire_bytes as f64),
            format!("{} raw samples", q.raw_samples),
        ),
        (
            "disk_bytes_per_sample",
            per_sample(q.disk_bytes as f64),
            "segments + checkpoints".into(),
        ),
        (
            "nrmse",
            (q.sse / q.truth_ss).sqrt(),
            format!(
                "rmse {}, relative to the truth's rms",
                per_sample(q.sse).sqrt()
            ),
        ),
        (
            "energy_per_sample",
            per_sample(q.energy),
            "energy model units".into(),
        ),
        (
            "peak_rss_mb",
            run.peak_rss_kb as f64 / 1024.0,
            "VmHWM after the first pass".into(),
        ),
    ]
}

/// Per-layer totals over the traced passes.
#[derive(Default)]
struct LayerSums {
    calls: u64,
    self_ns: u64,
    /// Durations (µs) of single timed calls.
    us: Vec<f64>,
}

fn per_layer(run: &Run) -> Vec<(&'static str, f64, String)> {
    let n = run.traced.len().max(1) as f64;
    let mut sums: std::collections::BTreeMap<&str, LayerSums> = Default::default();
    let (mut wall_ns, mut root_self_ns) = (0u64, 0u64);
    let mut counts = Counts::default();
    let mut loads = Vec::new();
    for pass in &run.traced {
        let self_ns = trace::self_times(&pass.spans);
        for (span, own) in pass.spans.iter().zip(self_ns) {
            if span.layer == pipeline::ROOT {
                wall_ns += span.dur_ns();
                root_self_ns += own;
                continue;
            }
            let e = sums.entry(span.layer).or_default();
            e.calls += span.calls;
            e.self_ns += own;
            if span.calls == 1 {
                e.us.push(span.dur_ns() as f64 / 1e3);
            }
        }
        counts.add(&pass.stats.counts);
        loads.extend(pass.stats.recover_ns.iter().map(|&v| ms(v)));
    }
    for s in sums.values_mut() {
        s.us = stats::sorted(std::mem::take(&mut s.us));
    }
    let snap = &run.snapshot;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hit = |name: &str| {
        ratio(
            c(&format!("{name}.hits")),
            c(&format!("{name}.hits")) + c(&format!("{name}.misses")),
        )
    };
    let get = |l: &str| sums.get(l);
    let calls = |l: &str| get(l).map_or(0.0, |s| s.calls as f64) / n;
    let busy = |l: &str| get(l).map_or(0.0, |s| ms(s.self_ns)) / n;
    // Quantiles from single timed calls, or — for calls the program
    // timed itself inside `simulate` — from its own histogram.
    let quantile = |l: &str, hist: Option<&str>, tail: bool, p: f64| -> f64 {
        let us = get(l).map_or(&[][..], |s| &s.us[..]);
        if !us.is_empty() {
            return if tail {
                stats::tail(us).map_or(0.0, |t| t.1)
            } else {
                stats::percentile(us, p).unwrap_or(0.0)
            };
        }
        let Some(h) = hist.and_then(|h| snap.histogram(h)) else {
            return 0.0;
        };
        let p = if tail {
            stats::tail_percentile(h.count as usize)
        } else {
            p
        };
        h.quantile(p / 100.0) as f64 / 1e3
    };
    let sbr_hist = Some("sbr_core.sbr.encode_ns");
    let st_hist = Some("sensor_net.station.decode_batch_ns");
    let fanouts = c("sbr_core.par.fanouts");
    let items = snap
        .histogram("sbr_core.par.worker_items")
        .map_or(0.0, |h| h.sum as f64);
    let plan_queries = c("sbr_core.query.plan_cache.hits") + c("sbr_core.query.plan_cache.misses");
    let layer_sum: f64 = sums.values().map(|s| ms(s.self_ns)).sum::<f64>() / n;
    let traced_wall = stats::median(
        &run.traced
            .iter()
            .map(|p| p.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    let untraced_wall = stats::median(
        &run.untraced
            .iter()
            .map(|p| p.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    let overhead = match (traced_wall, untraced_wall) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    let per = |v: u64| v as f64 / n;
    vec![
        ("sbr_core.sbr.calls", calls(layer::SBR), String::new()),
        ("sbr_core.sbr.busy_ms", busy(layer::SBR), String::new()),
        (
            "sbr_core.sbr.us_p50",
            quantile(layer::SBR, sbr_hist, false, 50.0),
            String::new(),
        ),
        (
            "sbr_core.sbr.us_tail",
            quantile(layer::SBR, sbr_hist, true, 0.0),
            String::new(),
        ),
        ("sbr_core.par.fanouts", fanouts / n, String::new()),
        (
            "sbr_core.par.items_per_fanout",
            ratio(items, fanouts),
            String::new(),
        ),
        (
            "sbr_core.probe_cache.hit_ratio",
            hit("sbr_core.probe_cache"),
            String::new(),
        ),
        (
            "sbr_core.get_base.fit_cache.hit_ratio",
            hit("sbr_core.get_base.fit_cache"),
            String::new(),
        ),
        (
            "sbr_core.search.probes",
            c("sbr_core.search.probes") / n,
            String::new(),
        ),
        (
            "sbr_core.base_signal.inserted",
            c("sbr_core.base_signal.inserted") / n,
            String::new(),
        ),
        (
            "sbr_core.base_signal.evicted",
            c("sbr_core.base_signal.evicted") / n,
            String::new(),
        ),
        ("sbr_core.codec.calls", calls(layer::CODEC), String::new()),
        ("sbr_core.codec.busy_ms", busy(layer::CODEC), String::new()),
        (
            "sbr_core.codec.bytes_out",
            per(counts.codec_bytes_out),
            String::new(),
        ),
        (
            "sensor_net.link.attempts",
            per(counts.link_attempts),
            String::new(),
        ),
        (
            "sensor_net.link.attempts_per_frame",
            ratio(counts.link_attempts as f64, counts.link_frames as f64),
            String::new(),
        ),
        (
            "sensor_net.link.gave_up",
            per(counts.link_gave_up),
            String::new(),
        ),
        ("sensor_net.link.busy_ms", busy(layer::LINK), String::new()),
        (
            "sensor_net.base_station.calls",
            calls(layer::STATION),
            String::new(),
        ),
        (
            "sensor_net.base_station.busy_ms",
            busy(layer::STATION),
            String::new(),
        ),
        (
            "sensor_net.base_station.us_p50",
            quantile(layer::STATION, st_hist, false, 50.0),
            String::new(),
        ),
        (
            "sensor_net.base_station.us_tail",
            quantile(layer::STATION, st_hist, true, 0.0),
            String::new(),
        ),
        (
            "sensor_net.base_station.accepted",
            per(counts.accepted),
            String::new(),
        ),
        (
            "sensor_net.base_station.duplicates",
            per(counts.duplicates),
            String::new(),
        ),
        (
            "sensor_net.base_station.resynced",
            per(counts.resynced),
            String::new(),
        ),
        (
            "sensor_net.base_station.gaps",
            per(counts.gaps),
            String::new(),
        ),
        (
            "sensor_net.base_station.corrupt",
            per(counts.corrupt),
            String::new(),
        ),
        (
            "sensor_net.arq.delivered_per_sent",
            ratio(
                (counts.accepted + counts.resynced) as f64,
                counts.frames_sent as f64,
            ),
            String::new(),
        ),
        (
            "sensor_net.storage.busy_ms",
            busy(layer::STORAGE),
            String::new(),
        ),
        (
            "sensor_net.storage.segments_sealed",
            c("sensor_net.storage.segments.sealed") / n,
            String::new(),
        ),
        (
            "sensor_net.storage.checkpoints",
            per(counts.checkpoints),
            String::new(),
        ),
        (
            "sensor_net.storage.write_amp",
            ratio(counts.disk_bytes as f64, counts.payload_bytes as f64),
            String::new(),
        ),
        (
            "sensor_net.storage.load_ms",
            stats::median(&loads).unwrap_or(0.0),
            String::new(),
        ),
        (
            "sensor_net.storage.replayed_records",
            c("sensor_net.storage.segments.replayed_records") / n,
            String::new(),
        ),
        (
            "sensor_net.storage.hydrate_ms",
            ms(counts.hydrate_ns) / n,
            String::new(),
        ),
        ("sbr_core.query.calls", calls(layer::QUERY), String::new()),
        ("sbr_core.query.busy_ms", busy(layer::QUERY), String::new()),
        (
            "sbr_core.query.us_p50",
            quantile(layer::QUERY, None, false, 50.0),
            String::new(),
        ),
        (
            "sbr_core.query.us_p99",
            quantile(layer::QUERY, None, false, 99.0),
            String::new(),
        ),
        (
            "sbr_core.query.plan_cache.hit_ratio",
            hit("sbr_core.query.plan_cache"),
            String::new(),
        ),
        (
            "sbr_core.query.intervals_folded_per_query",
            ratio(c("sbr_core.query.intervals_folded"), plan_queries),
            String::new(),
        ),
        (
            "sbr_core.decoder.calls",
            calls(layer::DECODER),
            String::new(),
        ),
        (
            "sbr_core.decoder.busy_ms",
            busy(layer::DECODER),
            String::new(),
        ),
        (
            "sbr_core.decoder.us_tail",
            quantile(layer::DECODER, None, true, 0.0),
            String::new(),
        ),
        (
            "sensor_net.network.busy_ms",
            busy(layer::NETWORK),
            String::new(),
        ),
        (
            "sensor_net.network.hop_attempts",
            per(counts.net_hop_attempts),
            String::new(),
        ),
        (
            "sensor_net.network.frames_sent",
            per(counts.net_frames_sent),
            String::new(),
        ),
        (
            "sensor_net.network.acks_sent",
            per(counts.net_acks_sent),
            String::new(),
        ),
        (
            "sensor_net.network.route_ms",
            ms(counts.route_ns) / n,
            String::new(),
        ),
        (
            "pipeline.wall_ms",
            ms(wall_ns) / n,
            format!("layers {layer_sum:.3} ms + unattributed"),
        ),
        (
            "pipeline.unattributed_ms",
            ms(root_self_ns) / n,
            String::new(),
        ),
        ("trace.overhead_frac", overhead, String::new()),
    ]
}

/// `VmHWM` of this process, in KiB (0 where `/proc` is unavailable).
fn peak_rss_kb_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Render a number for JSON: all its digits, never NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sbr-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work: PathBuf =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = pipeline::fresh_dir(&work) {
        eprintln!("sbr-perfbench: {e}");
        std::process::exit(2);
    }
    let fs = filesystem(&work);
    let result = match args.workload.as_str() {
        "encode_bound" => run::<workloads::encode_bound::EncodeBound>(&args, &work),
        "station_ingest" => run::<workloads::station_ingest::StationIngest>(&args, &work),
        "history_dashboard" => run::<workloads::history_dashboard::HistoryDashboard>(&args, &work),
        _ => run::<workloads::sim_line::SimLine>(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sbr-perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };

    let all = run.untraced.iter().chain(&run.traced);
    let attempted: u64 = all.clone().map(|p| p.stats.attempted).sum::<u64>().max(1);
    let failures: Vec<&String> = all.flat_map(|p| &p.stats.failures).collect();
    let failed = (failures.len() as u64).min(attempted);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host {{\"available_parallelism\": {}, \"num_threads\": {}, \"store_fs\": \"{fs}\", \
         \"store_flush\": \"checkpoints sync_all; segment appends flush the BufWriter without fsync\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        run.threads,
    );
    let walls = |ps: &[Pass]| {
        ps.iter()
            .map(|p| format!("{:.1}", ms(p.wall_ns)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "passes {} untraced + {} traced in {:.2} s; timed walls ms: untraced [{}] traced [{}]",
        run.untraced.len(),
        run.traced.len(),
        run.measured_s,
        walls(&run.untraced),
        walls(&run.traced)
    );
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }
    println!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    let (catalogue, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, per_layer(&run))
    } else {
        (&END_TO_END, end_to_end(&run))
    };
    let mut json = Vec::new();
    for ((name, unit), (vname, value, note)) in catalogue.iter().zip(&values) {
        assert_eq!(name, vname, "metric order");
        println!(
            "metric {name} {} {unit}{}",
            num(*value),
            if note.is_empty() {
                String::new()
            } else {
                format!(" ({note})")
            }
        );
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// A temporary directory for one test.
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbr-perfbench-{name}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics and workloads this
    /// binary reports, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = sbr_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn layer_self_times_and_unattributed_add_up_to_the_traced_wall() {
        let work = test_dir("layers-add-up");
        let mut w = workloads::station_ingest::StationIngest::setup_scaled(3, &work, 4).unwrap();
        let rec = Arc::new(MetricsRecorder::new());
        let mut meter = Meter::traced(rec.clone());
        let stats = w.pass(&mut meter, 0).unwrap();
        let _ = std::fs::remove_dir_all(&work);
        assert!(stats.failures.is_empty(), "{:?}", stats.failures);
        let run = Run {
            setup_s: vec![0.0],
            threads: 1,
            untraced: Vec::new(),
            traced: vec![Pass {
                stats,
                wall_ns: meter.wall_ns(),
                spans: meter.spans().to_vec(),
                warmup: false,
                steal: None,
            }],
            snapshot: rec.snapshot(),
            measured_s: 0.0,
            peak_rss_kb: 0,
        };
        let m: std::collections::BTreeMap<&str, f64> = per_layer(&run)
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        let busy: f64 = m
            .iter()
            .filter(|(k, _)| k.ends_with(".busy_ms"))
            .map(|(_, v)| v)
            .sum();
        let wall = m["pipeline.wall_ms"];
        assert!(wall > 0.0);
        assert!((busy + m["pipeline.unattributed_ms"] - wall).abs() < 1e-9 * wall.max(1.0));
        for layer in [
            "sensor_net.link",
            "sensor_net.base_station",
            "sensor_net.storage",
            "sbr_core.query",
        ] {
            assert!(
                m[format!("{layer}.busy_ms").as_str()] > 0.0,
                "{layer} did no work"
            );
        }
        assert_eq!(m["sbr_core.sbr.busy_ms"], 0.0, "encoding is in set-up");
    }

    #[test]
    fn passes_the_host_stole_most_from_do_not_count() {
        let pass = |warmup: bool, steal: Option<f64>| Pass {
            stats: PassStats::default(),
            wall_ns: 1,
            spans: Vec::new(),
            warmup,
            steal,
        };
        let run = |passes: Vec<Pass>| Run {
            setup_s: vec![0.0],
            threads: 1,
            untraced: passes,
            traced: Vec::new(),
            snapshot: Snapshot::default(),
            measured_s: 0.0,
            peak_rss_kb: 0,
        };
        let kept =
            |r: &Run| -> Vec<Option<f64>> { quiet_passes(r).iter().map(|p| p.steal).collect() };
        // Quiet runs keep every pass past the warm-up.
        let calm = run(vec![
            pass(true, Some(0.9)),
            pass(false, Some(0.0)),
            pass(false, Some(0.015)),
        ]);
        assert_eq!(kept(&calm), vec![Some(0.0), Some(0.015)]);
        // A stormy run keeps the passes at or below its median steal.
        let storm = run(vec![
            pass(false, Some(0.5)),
            pass(false, Some(0.0)),
            pass(false, Some(0.9)),
            pass(false, Some(0.01)),
            pass(false, None),
        ]);
        assert_eq!(kept(&storm), vec![Some(0.0), Some(0.01), None]);
        let all_stolen = run(vec![
            pass(false, Some(0.5)),
            pass(false, Some(0.6)),
            pass(false, Some(0.7)),
        ]);
        assert_eq!(kept(&all_stolen), vec![Some(0.5), Some(0.6)]);
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload sim_line --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(a("--workload nope --seed 1 --seconds 1").is_err());
        assert!(a("--workload sim_line").is_err());
        assert!(
            a("--workload sim_line --seed 1").is_err(),
            "--seconds is required"
        );
        assert!(a("--workload sim_line --seed 1 --seconds 1 --trace 2").is_err());
        assert!(a("--workload sim_line --seed 1 --seconds -1").is_err());
    }
}

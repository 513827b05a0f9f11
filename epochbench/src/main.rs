//! The repository benchmark: epoch time-to-detection of the DCS system
//! on two workloads, with a verdict oracle and a traced per-layer run.
//!
//! ```text
//! dcs-epochbench --workload <aligned_paper|unaligned_packets|socket_lossy>
//!                --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! dcs-epochbench --list-metrics
//! ```
//!
//! `--trace 0` sets up five times (reporting the median set-up time),
//! then runs a closed loop of epochs for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` runs the same epochs twice — untraced,
//! then traced from a fresh set-up — fails if any verdict fingerprint
//! differs between the two, and reports the per-layer metrics of the
//! traced pass. On `aligned_paper` the traced run also delivers the
//! first epochs again over lossy localhost UDP (the `socket_lossy`
//! path); the wire layers' metrics come from that pass, and it fails if
//! any of its verdicts differs from the in-memory one. `socket_lossy`
//! itself is not a benchmark workload (its latency follows the host's
//! scheduling, see README.md) but can still be run by hand.
//! The last stdout line is the JSON result; the full result, per-epoch
//! verdict fingerprints and spans go to `.bench_out/`.

mod oracle;
mod stats;
mod trace;
mod workload;

use oracle::{score, Score};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Bench, EpochRecord, Kind};

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("detect_latency_ms_p50", "ms"),
    ("detect_latency_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by `--trace 1`.
const PER_LAYER: [(&str, &str); 59] = [
    ("bench.gen_ms", "ms"),
    ("collect_mpps", "Mpkt/s"),
    ("collect.observe_ns_per_pkt", "ns"),
    ("collect.packets", "count"),
    ("collect.aligned_fill_at_close", "share"),
    ("collect.unaligned_fill_at_close", "share"),
    ("collect.observe_ns_per_pkt_oc48", "ns"),
    ("monitor.finish_ms", "ms"),
    ("monitor.encode_ms", "ms"),
    ("monitor.bundle_bytes", "bytes"),
    ("transport.chunk_ms", "ms"),
    ("transport.chunks", "count"),
    ("session.offer_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("session.retransmits", "count"),
    ("session.duplicate_chunks", "count"),
    ("session.corrupt_chunks", "count"),
    ("session.late_chunks", "count"),
    ("net.deliver_ms", "ms"),
    ("net.monitor_frames_sent", "count"),
    ("net.center_frames_sent", "count"),
    ("net.center_frames_received", "count"),
    ("net.resend_bursts", "count"),
    ("net.impaired.drop", "count"),
    ("net.impaired.duplicate", "count"),
    ("net.impaired.reorder", "count"),
    ("net.impaired.corrupt", "count"),
    ("net.kernel_drops", "count"),
    ("net.send_stalls", "count"),
    ("net.unknown_peer", "count"),
    ("send_amplification", "ratio"),
    ("center.analyze_ms", "ms"),
    ("center.ingest_ms", "ms"),
    ("center.fuse_ms", "ms"),
    ("center.sketch_fuse_ms", "ms"),
    ("center.screen_ms", "ms"),
    ("center.core_find_ms", "ms"),
    ("center.sweep_ms", "ms"),
    ("center.terminate_ms", "ms"),
    ("center.stack_rows_ms", "ms"),
    ("center.prescreen_ms", "ms"),
    ("center.graph_build_ms", "ms"),
    ("center.er_test_ms", "ms"),
    ("center.peel_ms", "ms"),
    ("center.search_pairs_scanned", "count"),
    ("center.search_pairs_pruned", "count"),
    ("center.search_candidates", "count"),
    ("center.sketch_seed_columns", "count"),
    ("center.witness_cols", "count"),
    ("center.pairs_exact", "count"),
    ("center.pairs_screened", "count"),
    ("center.prescreen_hit_ratio", "share"),
    ("center.graph_groups_changed_ratio", "share"),
    ("false_alarm_rate", "share"),
    ("miss_rate", "share"),
    ("epoch_fail_rate", "share"),
    ("bitmap.kernel", "kernel_id"),
    ("parallel.threads", "count"),
    ("parallel.shards", "count"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed epochs per pass: the tail rule needs eleven samples, and
/// from twenty on the tail percentile is at least the median.
const MIN_EPOCHS: usize = 20;
/// Epochs of the socket pass in `aligned_paper`'s traced run (1–12:
/// six planted, six clean).
const SOCKET_EPOCHS: usize = 12;
/// The paper's OC-48 collection rate (Section V-A).
const PAPER_MPPS: f64 = 2.4;
/// Epochs during which the hypervisor stole more than this share of
/// the machine's CPU time do not time the program; they still count for
/// the oracle and the failure rate.
const STOLEN_MAX: f64 = 0.05;
/// A pass stops at `seconds · STOLEN_CAP` even if steal kept it short of
/// `MIN_EPOCHS` unstolen epochs.
const STOLEN_CAP: f64 = 1.25;
/// `/proc/stat` clock ticks per second (`USER_HZ`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        return Ok(None);
    }
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |flag: &str| -> Result<f64, String> {
        need(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Some(Args {
        kind,
        seed: need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        commit: get("--commit").unwrap_or_else(|| "unknown".to_string()),
    }))
}

fn list_metrics() -> String {
    let list = |ms: &[(&str, &str)]| {
        ms.iter()
            .map(|(n, u)| format!("{{\"name\":\"{n}\",\"unit\":\"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

/// A pass of timed epochs on one set-up.
struct Pass {
    cold: EpochRecord,
    epochs: Vec<EpochRecord>,
}

/// Sets up afresh and runs the cold epoch 0. Returns the bench, the
/// cold epoch and the set-up time (build + cold epoch − generation).
fn setup(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<(Bench, EpochRecord, f64), String> {
    let t0 = Instant::now();
    let mut bench = Bench::build(kind, seed)?;
    let cold = bench.run_epoch(0, tr);
    let wall = t0.elapsed().as_nanos() as u64;
    if let Some(f) = &cold.failure {
        return Err(format!("cold epoch failed: {f}"));
    }
    let secs = wall.saturating_sub(cold.gen_ns) as f64 / 1e9;
    Ok((bench, cold, secs))
}

/// CPU time the hypervisor stole from this machine so far, in clock
/// ticks summed over CPUs (`steal` of the `cpu` line of `/proc/stat`).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// Closed loop: epoch e+1 is generated only after epoch e's verdict.
/// Runs until `seconds` have passed and `MIN_EPOCHS` unstolen epochs are
/// done — after `seconds · STOLEN_CAP`, `MIN_EPOCHS` epochs of any kind
/// suffice — or exactly `exact` epochs when given.
fn timed_epochs(
    bench: &mut Bench,
    tr: &mut Tracer,
    seconds: f64,
    exact: Option<usize>,
) -> Vec<EpochRecord> {
    let t0 = Instant::now();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut out: Vec<EpochRecord> = Vec::new();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let done = match exact {
            Some(n) => out.len() >= n,
            None => {
                let unstolen = out.iter().filter(|r| r.stolen_share <= STOLEN_MAX).count();
                (unstolen >= MIN_EPOCHS && elapsed >= seconds)
                    || (out.len() >= MIN_EPOCHS && elapsed >= seconds * STOLEN_CAP)
            }
        };
        if done {
            return out;
        }
        let (s0, e0) = (steal_ticks(), Instant::now());
        let mut rec = bench.run_epoch(out.len() as u64 + 1, tr);
        if let (Some(a), Some(b)) = (s0, steal_ticks()) {
            let available = e0.elapsed().as_secs_f64() * CLOCK_TICKS_PER_S * cpus;
            rec.stolen_share = b.saturating_sub(a) as f64 / available.max(1.0);
        }
        out.push(rec);
    }
}

fn completed(recs: &[EpochRecord]) -> impl Iterator<Item = &EpochRecord> {
    recs.iter().filter(|r| r.verdict.is_some())
}

/// The completed epochs that time the program: those during which the
/// hypervisor stole at most `STOLEN_MAX` of the machine's CPU time. When
/// fewer than eleven qualify (steal all run long), every completed epoch.
fn timed(recs: &[EpochRecord]) -> Vec<&EpochRecord> {
    let unstolen: Vec<_> = completed(recs)
        .filter(|r| r.stolen_share <= STOLEN_MAX)
        .collect();
    if unstolen.len() > stats::TAIL_BEYOND {
        unstolen
    } else {
        completed(recs).collect()
    }
}

fn med(recs: &[EpochRecord], f: impl Fn(&EpochRecord) -> f64) -> f64 {
    stats::median(&timed(recs).into_iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn scores(recs: &[EpochRecord]) -> Vec<(bool, Score)> {
    completed(recs)
        .map(|r| {
            let v = r.verdict.as_ref().expect("completed epochs have verdicts");
            (r.plant.is_some(), score(r.plant.as_ref(), v))
        })
        .collect()
}

/// (false alarm rate, miss rate, fail rate) of a pass.
fn rates(recs: &[EpochRecord]) -> (f64, f64, f64) {
    let s = scores(recs);
    let share = |hit: usize, of: usize| if of == 0 { 0.0 } else { hit as f64 / of as f64 };
    let clean = s.iter().filter(|(p, _)| !p).count();
    let planted = s.len() - clean;
    let false_alarms = s.iter().filter(|(_, x)| x.false_alarm).count();
    let misses = s.iter().filter(|(_, x)| x.miss).count();
    let failed = recs.iter().filter(|r| r.failure.is_some()).count();
    (
        share(false_alarms, clean),
        share(misses, planted),
        share(failed, recs.len()),
    )
}

fn latencies_ms(recs: &[EpochRecord]) -> Vec<f64> {
    timed(recs)
        .iter()
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect()
}

fn collect_mpps(recs: &[EpochRecord]) -> Option<f64> {
    recs.iter().any(|r| r.packets > 0).then(|| {
        med(recs, |r| {
            r.packets as f64 / r.observe_ns.max(1) as f64 * 1e3
        })
    })
}

fn send_amplification(recs: &[EpochRecord]) -> f64 {
    let done: Vec<_> = completed(recs).collect();
    let sent: u64 = done.iter().map(|r| r.frames_sent).sum();
    let unique: u64 = done.iter().map(|r| r.chunks).sum();
    sent as f64 / unique.max(1) as f64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer values of the traced pass `recs`. The session
/// counters, the `net` layer and `send_amplification` come from `wire`,
/// the records of the pass that delivered over the socket (`recs`
/// itself where delivery stayed in memory or the workload is the
/// socket one).
fn per_layer(recs: &[EpochRecord], wire: &[EpochRecord], bench: &Bench, oc48_ns: f64) -> Vec<f64> {
    let (false_alarm, miss, fail) = rates(recs);
    let m = |f: &dyn Fn(&EpochRecord) -> f64| med(recs, f);
    let w = |f: &dyn Fn(&EpochRecord) -> f64| med(wire, f);
    let stage = |i: usize| m(&|r| ms(r.center.stage_ns[i]));
    let compute = bench.center().config().compute;
    let socket = wire.iter().any(|r| r.net.monitor_frames_sent > 0);
    let out = vec![
        m(&|r| ms(r.gen_ns)),
        collect_mpps(recs).unwrap_or(0.0),
        m(&|r| {
            if r.packets == 0 {
                0.0
            } else {
                r.observe_ns as f64 / r.packets as f64
            }
        }),
        m(&|r| r.packets as f64),
        m(&|r| r.aligned_fill),
        m(&|r| r.unaligned_fill),
        oc48_ns,
        m(&|r| ms(r.finish_ns)),
        m(&|r| ms(r.encode_ns)),
        m(&|r| r.bundle_bytes),
        m(&|r| ms(r.chunk_ns)),
        m(&|r| r.chunks as f64),
        m(&|r| ms(r.offer_ns)),
        m(&|r| ms(r.finalize_ns)),
        w(&|r| r.transport.retransmits as f64),
        w(&|r| r.transport.duplicate_chunks as f64),
        w(&|r| r.transport.corrupt_chunks as f64),
        w(&|r| r.transport.late_chunks as f64),
        if socket {
            w(&|r| ms(r.deliver_ns))
        } else {
            0.0
        },
        w(&|r| r.net.monitor_frames_sent as f64),
        w(&|r| r.net.center_frames_sent as f64),
        w(&|r| r.net.center_frames_received as f64),
        w(&|r| r.net.resend_bursts as f64),
        w(&|r| r.net.impaired[0] as f64),
        w(&|r| r.net.impaired[1] as f64),
        w(&|r| r.net.impaired[2] as f64),
        w(&|r| r.net.impaired[3] as f64),
        w(&|r| {
            r.net
                .monitor_frames_sent
                .saturating_sub(r.net.center_frames_received) as f64
        }),
        w(&|r| r.net.send_stalls as f64),
        w(&|r| r.net.unknown_peer as f64),
        send_amplification(wire),
        m(&|r| ms(r.analyze_ns)),
        m(&|r| ms(r.analyze_ns.saturating_sub(r.center.stage_ns.iter().sum()))),
        stage(0),
        stage(1),
        stage(2),
        stage(3),
        stage(4),
        stage(5),
        stage(6),
        stage(7),
        stage(8),
        stage(9),
        stage(10),
        m(&|r| r.center.search_pairs_scanned as f64),
        m(&|r| r.center.search_pairs_pruned as f64),
        m(&|r| r.center.search_candidates as f64),
        m(&|r| r.center.sketch_seed_columns as f64),
        m(&|r| r.verdict.as_ref().map_or(0, |v| v.witness.len()) as f64),
        m(&|r| r.center.pairs_exact as f64),
        m(&|r| r.center.pairs_screened as f64),
        m(&|r| {
            let (s, e) = (r.center.pairs_screened, r.center.pairs_exact);
            if s + e == 0 {
                0.0
            } else {
                s as f64 / (s + e) as f64
            }
        }),
        m(&|r| r.center.graph_groups_changed as f64 / bench.total_groups() as f64),
        false_alarm,
        miss,
        fail,
        dcs_bitmap::active_kernel() as u8 as f64,
        compute.effective_threads() as f64,
        compute.effective_shards() as f64,
    ];
    assert_eq!(out.len(), PER_LAYER.len(), "one value per per-layer metric");
    out
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let body: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((n, u), v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, bench: &Bench, epochs: usize) -> String {
    let compute = bench.center().config().compute;
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{}\",\"bitmap_kernel\":\"{}\",\"parallel_threads\":{},\
         \"parallel_shards\":{},\"workload\":\"{}\",\"seed\":{},\"epochs\":{epochs},\
         \"commit\":\"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model().replace('"', "'"),
        dcs_bitmap::active_kernel().name(),
        compute.effective_threads(),
        compute.effective_shards(),
        args.kind.name(),
        args.seed,
        args.commit.replace('"', "'"),
    )
}

/// Per-epoch verdict lines: epoch, plant, score, fingerprint.
fn verdict_lines(recs: &[EpochRecord]) -> String {
    let mut out = String::new();
    for r in recs {
        let plant = r.plant.as_ref().map_or("null".to_string(), |p| {
            format!(
                "{{\"routers\":{:?},\"columns\":{:?},\"groups\":{:?}}}",
                p.routers, p.columns, p.groups
            )
        });
        let (fingerprint, scored) = match &r.verdict {
            Some(v) => {
                let s = score(r.plant.as_ref(), v);
                (
                    v.fingerprint(),
                    format!(
                        "{{\"fired\":{},\"false_alarm\":{},\"miss\":{},\"routers_named\":{},\
                         \"columns_hit\":{},\"groups_hit\":{}}}",
                        s.fired,
                        s.false_alarm,
                        s.miss,
                        s.routers_named,
                        s.columns_hit,
                        s.groups_hit
                    ),
                )
            }
            None => ("null".to_string(), "null".to_string()),
        };
        let failure = r.failure.as_ref().map_or("null".to_string(), |f| {
            format!("\"{}\"", f.replace('"', "'"))
        });
        let _ = writeln!(
            out,
            "{{\"epoch\":{},\"plant\":{plant},\"score\":{scored},\"verdict\":{fingerprint},\
             \"failure\":{failure},\"intact\":{}}}",
            r.epoch, r.intact
        );
    }
    out
}

/// Per-epoch waterfall of a traced pass: latency, monitor, delivery,
/// analysis and the eleven centre stages, in ms.
fn waterfall(recs: &[EpochRecord]) -> String {
    let rows: Vec<String> = recs
        .iter()
        .map(|r| {
            let stages: Vec<String> = workload::stages()
                .iter()
                .zip(r.center.stage_ns)
                .map(|(s, ns)| format!("\"{}\":{}", s.name(), ms(ns)))
                .collect();
            format!(
                "{{\"epoch\":{},\"latency_ms\":{},\"monitor_ms\":{},\"deliver_ms\":{},\
                 \"analyze_ms\":{},\"stages_ms\":{{{}}}}}",
                r.epoch,
                ms(r.latency_ns),
                ms(r.finish_ns + r.encode_ns + r.chunk_ns),
                ms(r.collector_new_ns + r.deliver_ns),
                ms(r.analyze_ns),
                stages.join(",")
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn fingerprints(cold: &EpochRecord, recs: &[EpochRecord]) -> Vec<Option<String>> {
    std::iter::once(cold)
        .chain(recs)
        .map(|r| r.verdict.as_ref().map(oracle::Verdict::fingerprint))
        .collect()
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: String,
}

fn write_out(name: &str, body: &str) {
    let dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), body))
    {
        eprintln!("warning: could not write .bench_out/{name}: {e}");
    }
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut colds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (bench, cold, secs) = setup(args.kind, args.seed, &mut tr)?;
        setups.push(secs);
        colds.push(cold.verdict.as_ref().map(oracle::Verdict::fingerprint));
        last = Some((bench, cold));
    }
    let (mut bench, cold) = last.expect("at least one set-up");
    let deterministic = colds.windows(2).all(|w| w[0] == w[1]);
    let pass = Pass {
        epochs: timed_epochs(&mut bench, &mut tr, args.seconds, None),
        cold,
    };
    let recs = &pass.epochs;
    let lat = latencies_ms(recs);
    let p50 = stats::median(&lat).ok_or("no epoch completed")?;
    let tail = stats::tail(&lat).ok_or("fewer than eleven completed epochs")?;
    let (false_alarm, miss, fail) = rates(recs);
    let amplification = send_amplification(recs);
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let rss = workload::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
    let mpps = collect_mpps(recs);
    let intact = completed(recs).all(|r| r.intact) && pass.cold.intact;
    let failed = recs.iter().filter(|r| r.failure.is_some()).count();

    let stolen = completed(recs).count() - timed(recs).len();
    println!(
        "workload {} seed {} epochs {} (untraced; {stolen} not timed: hypervisor steal > {STOLEN_MAX})",
        args.kind.name(),
        args.seed,
        recs.len()
    );
    println!("  detect_latency_ms_p50   {p50:.3} ms");
    println!(
        "  detect_latency_ms_tail  {:.3} ms  (p{:.1} of {} epochs, {} beyond)",
        tail.value,
        tail.percentile,
        tail.samples,
        stats::TAIL_BEYOND
    );
    match mpps {
        Some(v) => println!(
            "  collect_mpps            {v:.4} Mpkt/s per core  (paper OC-48: {PAPER_MPPS})"
        ),
        None => println!("  collect_mpps            n/a (no packet collection in this workload)"),
    }
    println!("  send_amplification      {amplification:.4} ratio");
    println!("  false_alarm_rate        {false_alarm:.4} share");
    println!("  miss_rate               {miss:.4} share");
    println!("  epoch_fail_rate         {fail:.4} share");
    println!("  setup_s                 {setup_s:.4} s  (median of {SETUP_REPS})");
    println!("  peak_rss_mib            {rss:.1} MiB");
    if !intact {
        println!("  ERROR: a delivered bundle differs from the one its monitor encoded");
    }
    if !deterministic {
        println!("  ERROR: the cold epoch's verdict differs between set-ups");
    }

    println!("  provenance {}", provenance(args, &bench, recs.len()));
    let values = [p50, tail.value, setup_s, rss];
    let metrics = metrics_json(&END_TO_END, &values);
    let result = format!(
        "{{\"provenance\":{},\"trace\":false,\"end_to_end\":{metrics},\
         \"collect_mpps\":{},\"paper_mpps\":{PAPER_MPPS},\"send_amplification\":{},\"false_alarm_rate\":{},\
         \"miss_rate\":{},\"epoch_fail_rate\":{},\"tail_percentile\":{},\"tail_samples\":{},\
         \"setup_s_samples\":{:?},\"latency_ms\":{:?},\"stolen_epochs\":{stolen},\"intact\":{intact},\
         \"deterministic\":{deterministic}}}\n",
        provenance(args, &bench, recs.len()),
        mpps.map_or("null".to_string(), num),
        num(amplification),
        num(false_alarm),
        num(miss),
        num(fail),
        num(tail.percentile),
        tail.samples,
        setups,
        lat,
    );
    let stem = format!("{}-seed{}-trace0", args.kind.name(), args.seed);
    write_out(&format!("{stem}.json"), &result);
    write_out(
        &format!("{stem}.verdicts.jsonl"),
        &verdict_lines(&[std::slice::from_ref(&pass.cold), recs].concat()),
    );
    Ok(Outcome {
        correct: intact && deterministic,
        attempted: recs.len(),
        failed,
        metrics,
    })
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    // Pass A, untraced.
    let mut off = Tracer::new(false);
    let (mut bench_a, cold_a, _) = setup(args.kind, args.seed, &mut off)?;
    let a = Pass {
        epochs: timed_epochs(&mut bench_a, &mut off, args.seconds / 2.0, None),
        cold: cold_a,
    };
    drop(bench_a);
    // Pass B, traced, over the same epochs from a fresh set-up.
    let mut on = Tracer::new(true);
    let (mut bench_b, cold_b, _) = setup(args.kind, args.seed, &mut on)?;
    let b = Pass {
        epochs: timed_epochs(&mut bench_b, &mut on, 0.0, Some(a.epochs.len())),
        cold: cold_b,
    };
    let oc48_ns = match args.kind {
        Kind::UnalignedPackets => workload::observe_ns_per_pkt_oc48(args.seed),
        Kind::AlignedPaper | Kind::SocketLossy => 0.0,
    };
    // Pass C (aligned_paper only): the first epochs of pass B again, from
    // a fresh set-up that delivers them over lossy localhost UDP.
    let c = match args.kind {
        Kind::AlignedPaper => {
            let mut off = Tracer::new(false);
            let (mut bench_c, cold_c, _) = setup(Kind::SocketLossy, args.seed, &mut off)?;
            let n = SOCKET_EPOCHS.min(b.epochs.len());
            Some(Pass {
                epochs: timed_epochs(&mut bench_c, &mut off, 0.0, Some(n)),
                cold: cold_c,
            })
        }
        Kind::UnalignedPackets | Kind::SocketLossy => None,
    };
    let wire = c.as_ref().map_or(&b.epochs[..], |c| &c.epochs[..]);

    let fa = fingerprints(&a.cold, &a.epochs);
    let fb = fingerprints(&b.cold, &b.epochs);
    let mismatched: Vec<usize> = (0..fa.len()).filter(|&i| fa[i] != fb[i]).collect();
    // The socket pass must reach the in-memory verdicts of its epochs.
    let wire_mismatched: Vec<usize> = c.as_ref().map_or_else(Vec::new, |c| {
        let fc = fingerprints(&c.cold, &c.epochs);
        (0..fc.len()).filter(|&i| fc[i] != fb[i]).collect()
    });
    let p50_a = stats::median(&latencies_ms(&a.epochs)).ok_or("no untraced epoch completed")?;
    let p50_b = stats::median(&latencies_ms(&b.epochs)).ok_or("no traced epoch completed")?;
    let attributed = med(&b.epochs, EpochRecord::attributed_share);
    let intact = completed(&b.epochs).all(|r| r.intact)
        && completed(&a.epochs).all(|r| r.intact)
        && c.as_ref()
            .is_none_or(|c| c.cold.intact && completed(&c.epochs).all(|r| r.intact));
    let values = per_layer(&b.epochs, wire, &bench_b, oc48_ns);
    let failed = b.epochs.iter().filter(|r| r.failure.is_some()).count();

    println!(
        "workload {} seed {} epochs {} (traced, after {} untraced)",
        args.kind.name(),
        args.seed,
        b.epochs.len(),
        a.epochs.len()
    );
    for ((n, u), v) in PER_LAYER.iter().zip(&values) {
        println!("  {n:<36} {v:>14.4} {u}");
    }
    println!(
        "  attributed share of detect_latency_ms_p50: {:.4}",
        attributed
    );
    println!(
        "  tracing overhead: {:.3} ms (traced p50 {p50_b:.3} − untraced p50 {p50_a:.3})",
        p50_b - p50_a
    );
    if args.kind == Kind::UnalignedPackets {
        println!(
            "  paper-width collection: {oc48_ns:.1} ns/pkt = {:.4} Mpkt/s (paper OC-48: {PAPER_MPPS})",
            1e3 / oc48_ns
        );
    }
    if let Some(c) = &c {
        println!(
            "  socket pass: {} epochs over lossy localhost UDP, p50 latency {:.3} ms, \
             send_amplification {:.4}, verdicts as in memory: {}",
            c.epochs.len(),
            stats::median(&latencies_ms(&c.epochs)).unwrap_or(f64::NAN),
            send_amplification(&c.epochs),
            wire_mismatched.is_empty()
        );
    }
    println!(
        "  provenance {}",
        provenance(args, &bench_b, b.epochs.len())
    );
    if !mismatched.is_empty() {
        println!(
            "  ERROR: verdict fingerprints differ traced vs untraced at epochs {mismatched:?}"
        );
    }
    if !wire_mismatched.is_empty() {
        println!(
            "  ERROR: verdict fingerprints differ socket vs in-memory at epochs {wire_mismatched:?}"
        );
    }
    if !intact {
        println!("  ERROR: a delivered bundle differs from the one its monitor encoded");
    }

    let metrics = metrics_json(&PER_LAYER, &values);
    let result = format!(
        "{{\"provenance\":{},\"trace\":true,\"per_layer\":{metrics},\
         \"attributed_share_p50\":{},\"tracing_overhead_ms\":{},\"untraced_p50_ms\":{},\
         \"traced_p50_ms\":{},\"untraced_latency_ms\":{:?},\"traced_latency_ms\":{:?},\
         \"fingerprint_mismatches\":{:?},\"socket_latency_ms\":{:?},\
         \"socket_fingerprint_mismatches\":{:?},\"intact\":{intact},\"waterfall\":{}}}\n",
        provenance(args, &bench_b, b.epochs.len()),
        num(attributed),
        num(p50_b - p50_a),
        num(p50_a),
        num(p50_b),
        latencies_ms(&a.epochs),
        latencies_ms(&b.epochs),
        mismatched,
        c.as_ref()
            .map_or_else(Vec::new, |c| latencies_ms(&c.epochs)),
        wire_mismatched,
        waterfall(&b.epochs),
    );
    let stem = format!("{}-seed{}-trace1", args.kind.name(), args.seed);
    write_out(&format!("{stem}.json"), &result);
    write_out(
        &format!("{stem}.verdicts.jsonl"),
        &verdict_lines(&[std::slice::from_ref(&b.cold), &b.epochs].concat()),
    );
    let spans = std::path::Path::new(".bench_out").join(format!("{stem}.spans.jsonl"));
    if let Err(e) = on.write_jsonl(&spans) {
        eprintln!("warning: could not write {}: {e}", spans.display());
    }
    Ok(Outcome {
        correct: intact && mismatched.is_empty() && wire_mismatched.is_empty(),
        attempted: b.epochs.len(),
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", list_metrics());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok(o) => {
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                o.correct, o.attempted, o.failed, o.metrics
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

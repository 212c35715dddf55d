//! `daybench`: the daemon-day benchmark.
//!
//! ```text
//! daybench --workload NAME --seed N --seconds S --trace 0|1
//! daybench compare A_DIR B_DIR
//! ```
//!
//! A run drives `tm_daemon::Daemon::run_live` over generated shard days
//! for about `S` seconds while an open-loop client queries
//! `serve_live`, checks every output (see [`gate`]), prints each metric
//! by name and unit, and ends with one JSON result line. With
//! `--trace 1` it then replays the day through the public call at each
//! layer boundary with spans (see [`layers`]) and reports per-layer
//! metrics instead of end-to-end ones. The same executable is the
//! socket transport's shard worker (`--connect ADDR --token T`).

mod compare;
mod gate;
mod layers;
mod loadgen;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use serde::Value;
use tm_daemon::{
    build_feeds, ChaosPlan, Daemon, DaemonReport, LiveBus, LiveView, TransportEventKind,
};

use crate::loadgen::{Accounting, Record, Verb};
use crate::metrics::{Values, END_TO_END};
use crate::trace::Tracer;
use crate::workload::Workload;

/// Rounds in one generated day (288 five-minute intervals).
const TICKS: usize = 288;

/// Set-up-only days run after the timed days, for `setup_s` samples.
const SETUP_PROBES: usize = 7;

/// Recorded facts the benchmark reads: reference MREs, pinned threads.
const NOTES: &str = include_str!("../notes.json");

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn note(path: &[&str]) -> Result<Value, String> {
    let mut v: Value =
        serde_json::from_str(NOTES).map_err(|e| format!("notes.json does not parse: {e}"))?;
    for key in path {
        v = v
            .field(key)
            .map_err(|_| format!("notes.json lacks {}", path.join(".")))?
            .clone();
    }
    Ok(v)
}

fn note_f64(path: &[&str]) -> Result<f64, String> {
    match note(path)? {
        Value::F64(x) => Ok(x),
        Value::I64(x) => Ok(x as f64),
        other => Err(format!(
            "notes.json {}: not a number: {other:?}",
            path.join(".")
        )),
    }
}

/// Cores available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything the untraced days produced.
struct Days {
    first: DaemonReport,
    count: usize,
    /// Bus epoch before each day's first publish.
    day_starts: Vec<u64>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    ticks_per_s: Vec<f64>,
    /// Round times (gaps between consecutive round publishes), ms.
    round_ms: Vec<f64>,
    /// Per timed round: solve time summed over shards and methods, ms.
    round_solve_ms: Vec<f64>,
    records: Vec<Record>,
    /// `VmHWM` once the first day has ended, so it does not depend on
    /// how many days fitted in the run.
    peak_rss_mb: f64,
    nondeterministic_days: usize,
}

/// Solve time of tick `k` summed over every shard and method, ms.
fn solve_ms(report: &DaemonReport, k: usize) -> f64 {
    report
        .shards
        .iter()
        .filter_map(|s| s.ticks.get(k)?.as_ref())
        .map(|t| t.solve_ns.iter().sum::<u64>() as f64 / 1e6)
        .sum()
}

/// Set-up times of `n` probe days: the workload's daemon with every
/// shard's worker killed at tick 1 and no restart budget, so each shard
/// is quarantined after the first round and the rest of the day is
/// skipped. Up to the first publish a probe day is an ordinary day:
/// dataset generation, the collection run over the whole day, the feed
/// split, worker spawn and handshake, and the first round.
fn setup_probes(w: &Workload, n: usize) -> Result<Vec<f64>, String> {
    let mut config = w.config.clone();
    config.max_restarts = 0;
    config.chaos = (0..w.shards.len()).fold(ChaosPlan::none(), |plan, s| plan.with_kill(s, 1));
    let daemon = Daemon::new(w.shards.clone(), config).map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let bus = LiveBus::new();
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    bus.wait_past(0, Duration::from_secs(150))
                        .map(|_| Instant::now())
                });
                let called = Instant::now();
                let outcome = daemon.run_live(0..TICKS, &bus);
                if outcome.is_err() {
                    bus.publish(LiveView::initial()); // wake the reader
                }
                let first_publish = reader.join().expect("probe reader panicked");
                let report = outcome.map_err(|e| format!("set-up probe: {e}"))?;
                let first_publish = first_publish.ok_or("set-up probe published nothing")?;
                if report.shards.iter().any(|s| s.ticks[0].is_none()) {
                    return Err("set-up probe lost its first round".into());
                }
                Ok((first_publish - called).as_secs_f64())
            })
        })
        .collect()
}

/// Drive whole days back to back for about `seconds`, with the
/// generator querying and a reader timing every publish.
fn run_days(w: &Workload, seed: u64, seconds: f64) -> Result<Days, String> {
    let daemon = Daemon::new(w.shards.clone(), w.config.clone()).map_err(|e| e.to_string())?;
    let bus = LiveBus::new();
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop_client = AtomicBool::new(false);
    let stop_reader = AtomicBool::new(false);
    let client_started: OnceLock<Instant> = OnceLock::new();
    let n_shards = w.shards.len();

    std::thread::scope(|scope| {
        let server = scope.spawn(|| tm_daemon::serve_live(&bus, listener));
        // One reader, blocked in `wait_past`, stamps every epoch.
        let reader = scope.spawn(|| {
            let mut seen = 0u64;
            let mut stamps: Vec<(u64, Instant)> = Vec::new();
            while !stop_reader.load(Ordering::Acquire) {
                if let Some(view) = bus.wait_past(seen, Duration::from_millis(20)) {
                    seen = view.epoch;
                    stamps.push((seen, Instant::now()));
                }
            }
            stamps
        });
        // The load generator starts once there is something to query.
        let client = scope.spawn(|| {
            while bus.epoch() == 0 {
                if stop_client.load(Ordering::Acquire) {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            client_started.get_or_init(Instant::now);
            loadgen::run_client(addr, &bus, workload::QUERIES, seed, &stop_client).map(Some)
        });

        let run_start = Instant::now();
        let mut peak = f64::NAN;
        let mut first: Option<DaemonReport> = None;
        let mut days: Vec<(u64, Instant, Instant)> = Vec::new();
        let mut solve: Vec<Vec<f64>> = Vec::new();
        let mut nondeterministic = 0usize;
        let mut failure: Option<String> = None;
        loop {
            let base = bus.epoch();
            let called = Instant::now();
            let report = match daemon.run_live(0..TICKS, &bus) {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(format!("daemon day failed: {e}"));
                    break;
                }
            };
            days.push((base, called, Instant::now()));
            solve.push((0..TICKS).map(|k| solve_ms(&report, k)).collect());
            match &first {
                None => {
                    peak = peak_rss_mb();
                    first = Some(report);
                }
                Some(f) => nondeterministic += usize::from(!gate::same_day(f, &report)),
            }
            // Start another day only if it should end in time, unless
            // the client has not yet had time for p99's answers.
            let elapsed = run_start.elapsed().as_secs_f64();
            let queried = client_started
                .get()
                .map_or(0.0, |t| t.elapsed().as_secs_f64());
            if elapsed + elapsed / days.len() as f64 > seconds
                && queried >= workload::min_query_span()
            {
                break;
            }
        }
        stop_client.store(true, Ordering::Release);
        let records = client.join().expect("client thread panicked");
        if !matches!(records, Ok(Some(_))) {
            // The client never ran (or died): stop the server directly.
            if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                use std::io::Write;
                let _ = writeln!(s, "{{\"cmd\":\"shutdown\"}}");
            }
        }
        let served = server.join().expect("server thread panicked");
        stop_reader.store(true, Ordering::Release);
        let stamps = reader.join().expect("reader thread panicked");
        if let Some(failure) = failure {
            return Err(failure);
        }
        served.map_err(|e| format!("query server: {e}"))?;
        let records = records
            .map_err(|e| format!("query client: {e}"))?
            .ok_or("query client never started")?;
        let first = first.ok_or("no day completed")?;

        // Stamps are in epoch order; an epoch the reader slept through
        // has none, and the rounds around it go untimed.
        let at = |epoch: u64| {
            stamps
                .binary_search_by_key(&epoch, |(e, _)| *e)
                .ok()
                .map(|i| stamps[i].1)
        };
        let mut out = Days {
            first,
            count: days.len(),
            day_starts: days.iter().map(|(base, _, _)| *base).collect(),
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            ticks_per_s: Vec::new(),
            round_ms: Vec::new(),
            round_solve_ms: Vec::new(),
            records,
            peak_rss_mb: peak,
            nondeterministic_days: nondeterministic,
        };
        for ((base, called, ended), solve) in days.iter().zip(&solve) {
            out.wall_s.push((*ended - *called).as_secs_f64());
            // Publish r (1-based) follows round r; publish TICKS + 1 is
            // the final one after the drain.
            let round = |r: usize| at(base + r as u64);
            if let Some(first_publish) = round(1) {
                out.setup_s.push((first_publish - *called).as_secs_f64());
            }
            if let (Some(a), Some(b)) = (round(1), round(TICKS)) {
                let shard_ticks = (n_shards * (TICKS - 1)) as f64;
                out.ticks_per_s.push(shard_ticks / (b - a).as_secs_f64());
            }
            for r in 2..=TICKS {
                if let (Some(a), Some(b)) = (round(r - 1), round(r)) {
                    let ms = (b - a).as_secs_f64() * 1e3;
                    out.round_ms.push(ms);
                    out.round_solve_ms.push(solve[r - 1]);
                }
            }
        }
        Ok(out)
    })
}

/// Requests for the protocol probes: up to 256 of the generator's own
/// `estimate` requests, plus 64 each of `stats`, `health` and `whatif`.
fn probe_requests(records: &[Record], w: &Workload) -> Vec<(Verb, String)> {
    let mut out: Vec<(Verb, String)> = records
        .iter()
        .filter_map(|r| Some((r.verb, r.request.clone()?)))
        .take(256)
        .collect();
    let shard = &w.shards[0].name;
    let method = w.config.methods[0].label();
    for _ in 0..64 {
        out.push((Verb::Stats, "{\"cmd\":\"stats\"}".into()));
        out.push((Verb::Health, "{\"cmd\":\"health\"}".into()));
        out.push((
            Verb::Whatif,
            format!("{{\"cmd\":\"whatif\",\"shard\":\"{shard}\",\"method\":\"{method}\",\"scale\":1.1}}"),
        ));
    }
    out
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    values: Values,
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let w = workload::build(&opts.workload, opts.seed, &exe).ok_or_else(|| {
        format!(
            "unknown workload `{}` (known: {})",
            opts.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let reference_mre = note_f64(&["workloads", w.name, "reference_day_mre"])?;
    println!(
        "daybench {} seed {} ({} shards, {} methods, {} rounds/day, nproc {}, TM_PAR_THREADS {})",
        w.name,
        opts.seed,
        w.shards.len(),
        w.config.methods.len(),
        TICKS,
        nproc(),
        std::env::var("TM_PAR_THREADS").unwrap_or_default(),
    );

    let mut days = run_days(&w, opts.seed, opts.seconds)?;
    days.setup_s.extend(setup_probes(&w, SETUP_PROBES)?);
    let acc: Accounting = loadgen::account(&days.records, workload::QUERY_DEADLINE);
    let mut failures: Vec<String> = Vec::new();
    if days.nondeterministic_days > 0 {
        failures.push(format!(
            "{} days differ from the first day over the same feed",
            days.nondeterministic_days
        ));
    }

    let feeds = build_feeds(&w.shards, &w.config, 0..TICKS).map_err(|e| e.to_string())?;
    let reference = gate::reference_ticks(&feeds, &w.config.methods, w.config.mode)?;
    let check = gate::check_ticks(&days.first, &reference);
    failures.extend(check.failures.iter().take(20).cloned());
    failures.extend(
        gate::check_answers(&days.first, &days.records, &days.day_starts)
            .into_iter()
            .take(20),
    );
    let day_mre = gate::day_mre(&days.first, &w.config.methods);
    failures.extend(gate::check_mre(day_mre, reference_mre, 1e-4));

    let mut values = Values::default();
    let mut tracer = Tracer::new();
    if opts.trace {
        let requests = probe_requests(&days.records, &w);
        let replay = layers::replay(&w, TICKS, &days.first, &requests, &mut tracer)?;
        let day_wall = stats::median(&days.wall_s).expect("at least one day");
        layers::layer_metrics(
            &w,
            tracer.spans(),
            &replay,
            &days.first,
            day_wall,
            &mut values,
        );
    }

    let attempted = check.shard_ticks * days.count + acc.attempted;
    let failed = (check.lost + check.fault_free_errs) * days.count + acc.failed();

    // End-to-end metrics.
    let rounds = days.round_ms.len();
    let queries = acc.latency_us.len();
    for (p, n, what) in [(0.95, rounds, "round"), (0.99, queries, "query")] {
        if !stats::supported(n, p) {
            failures.push(format!(
                "{n} {what} samples cannot support a p{} (needs {} beyond it)",
                p * 100.0,
                stats::MIN_BEYOND
            ));
        }
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(f64::NAN);
    values.set("setup_s", med(&days.setup_s), "s");
    values.set("ticks_per_s", med(&days.ticks_per_s), "1/s");
    values.set("tick_p50_ms", med(&days.round_ms), "ms");
    values.set("tick_p95_ms", pct(&days.round_ms, 0.95), "ms");
    values.set("query_p50_us", med(&acc.latency_us), "us");
    values.set("query_p99_us", pct(&acc.latency_us, 0.99), "us");
    values.set("day_mre", day_mre, "1");
    values.set(
        "ok_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "1",
    );
    values.set("peak_rss_mb", days.peak_rss_mb, "MB");

    // Layer facts read off the untraced day itself.
    let report = &days.first;
    let ticks = report.shards.iter().flat_map(|s| s.ticks.iter().flatten());
    let degradations: Vec<_> = ticks.filter_map(|t| t.degradation.as_ref()).collect();
    let count = |n: usize| n as f64;
    values.set(
        "collect.lost_polls",
        count(report.shards.first().map_or(0, |s| s.lost_polls)),
        "count",
    );
    values.set("stream.degraded_ticks", count(degradations.len()), "count");
    values.set(
        "stream.masked_rows",
        count(degradations.iter().map(|d| d.masked_rows.len()).sum()),
        "count",
    );
    values.set(
        "stream.imputed_rows",
        count(degradations.iter().map(|d| d.imputed_rows.len()).sum()),
        "count",
    );
    values.set(
        "stream.quarantines",
        count(
            degradations
                .iter()
                .flat_map(|d| &d.methods)
                .filter(|m| m.quarantine.is_some())
                .count(),
        ),
        "count",
    );
    let events = report.shards.iter().flat_map(|s| &s.transport_events);
    let (mut reconnects, mut resends) = (0usize, 0usize);
    for e in events {
        match e.kind {
            TransportEventKind::Reconnect { .. } => reconnects += 1,
            TransportEventKind::Resend => resends += 1,
            _ => {}
        }
    }
    values.set("transport.reconnects", count(reconnects), "count");
    values.set("transport.resends", count(resends), "count");
    values.set("restarts", count(report.total_restarts()), "count");
    let overhead: Vec<f64> = days
        .round_ms
        .iter()
        .zip(&days.round_solve_ms)
        .map(|(wall, solve)| wall - solve)
        .collect();
    values.set("coordinator.overhead_ms", med(&overhead), "ms");
    values.set(
        "coordinator.overlap",
        days.round_solve_ms.iter().sum::<f64>() / days.round_ms.iter().sum::<f64>(),
        "ratio",
    );
    let handler_us = |verb: Verb| values.get(&format!("protocol.{}.us", verb.name()));
    let io: Vec<f64> = days
        .records
        .iter()
        .zip(&acc.service_us)
        .filter_map(|(r, service)| Some(service - handler_us(r.verb)?))
        .collect();
    values.set("protocol.io_us", med(&io), "us");
    values.set("client.late_ms", pct(&acc.late_ms, 0.99), "ms");

    println!(
        "{} days: day wall median {:.3} s; {} rounds timed, {} queries at {}/s (deadline {} ms): {} errors, {} late",
        days.count,
        med(&days.wall_s),
        rounds,
        queries,
        workload::QUERIES.rate_per_s,
        workload::QUERY_DEADLINE.as_millis(),
        acc.errors,
        acc.deadline_misses,
    );
    let mut setups = days.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    println!("day walls: {:.3?} s", days.wall_s);
    println!(
        "{} set-ups ({} probe days): {:.3?} s",
        setups.len(),
        SETUP_PROBES,
        setups
    );
    println!(
        "fail_ratio {:e} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    if opts.trace {
        let path = std::path::Path::new(".daybench");
        let file = path.join(format!("trace-{}-{}.jsonl", w.name, opts.seed));
        if std::fs::create_dir_all(path).is_ok() && std::fs::write(&file, tracer.to_jsonl()).is_ok()
        {
            println!("spans written to {}", file.display());
        }
    }
    for f in &failures {
        eprintln!("GATE: {f}");
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        values,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--connect") => {
            std::process::exit(tm_daemon::transport::socket::worker_main(&args));
        }
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        _ => {}
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("daybench: {e}");
            eprintln!("usage: daybench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // Pin the solver pool before any solver runs; shard worker
    // processes inherit it.
    match note_f64(&["pinned_threads"]) {
        Ok(n) => std::env::set_var("TM_PAR_THREADS", format!("{n}")),
        Err(e) => {
            eprintln!("daybench: {e}");
            std::process::exit(2);
        }
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("daybench: {e}");
            std::process::exit(1);
        }
    };
    let names: Vec<(String, &str)> = if opts.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    for (name, unit) in &names {
        let value = outcome.values.get(name).unwrap_or(f64::NAN);
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &names,
            &outcome.values
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

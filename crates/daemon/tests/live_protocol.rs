//! Live serving end to end: a protocol client polling an in-flight run
//! gets answers that are bit-identical to the post-run answers, the new
//! `stats`/`whatif` verbs work, unknown verbs echo the menu, telemetry
//! counters reconcile with the final report, and a checked-in TOML
//! config drives the same runs.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use tm_core::measure::{LoadFaultPlan, LoadOutage};
use tm_core::Method;
use tm_daemon::protocol::{MAX_CLIENTS, MAX_REQUEST_BYTES};
use tm_daemon::telemetry::LiveBus;
use tm_daemon::{
    handle_line, handle_line_view, parse_daemon_toml, ChaosPlan, Daemon, DaemonConfig, ShardSpec,
};
use tm_traffic::DatasetSpec;

const TICKS: usize = 10;

fn methods() -> Vec<Method> {
    ["gravity", "entropy:lambda=1e3"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect()
}

fn config() -> DaemonConfig {
    let mut config = DaemonConfig::new(methods());
    config.heartbeat_timeout = Duration::from_millis(500);
    config.checkpoint_every = 4;
    config.restart_backoff = Duration::from_millis(5);
    config
}

fn shards() -> Vec<ShardSpec> {
    vec![
        ShardSpec::new("east", DatasetSpec::tiny(), 11),
        ShardSpec::new("west", DatasetSpec::tiny(), 12),
    ]
}

const STATUS: &str = r#"{"cmd":"status"}"#;
const SHUTDOWN: &str = r#"{"cmd":"shutdown"}"#;

/// Bind a loopback listener and run `serve` on it in the background.
fn spawn_server(
    serve: impl FnOnce(TcpListener) -> std::io::Result<()> + Send + 'static,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    (addr, std::thread::spawn(move || serve(listener)))
}

/// A protocol client whose reads give up after 10 s.
fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// Send `request` and its newline in one write, then read one answer.
fn ask(client: &mut BufReader<TcpStream>, request: &str) -> String {
    let mut line = format!("{request}\n");
    client.get_mut().write_all(line.as_bytes()).unwrap();
    line.clear();
    client.read_line(&mut line).unwrap();
    line
}

/// Whether the server has closed `client`'s connection: the next read
/// ends the stream (or reports a reset) instead of timing out.
fn closed_by_server(client: &mut BufReader<TcpStream>) -> bool {
    match client.read(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
}

fn f64_of(value: &Value, field: &str) -> f64 {
    match value.field(field) {
        Ok(Value::F64(x)) => *x,
        Ok(Value::I64(x)) => *x as f64,
        Ok(Value::U64(x)) => *x as f64,
        other => panic!("field `{field}`: {other:?}"),
    }
}

fn u64_of(value: &Value, field: &str) -> u64 {
    match value.field(field) {
        Ok(Value::U64(x)) => *x,
        Ok(Value::I64(x)) if *x >= 0 => *x as u64,
        other => panic!("field `{field}`: {other:?}"),
    }
}

#[test]
fn unknown_verbs_echo_the_verb_and_the_menu() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..2).unwrap();

    let response = handle_line(&report, r#"{"cmd":"frobnicate"}"#);
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(
        response.contains("unknown cmd `frobnicate`"),
        "must echo the offending verb: {response}"
    );
    for verb in [
        "status", "health", "estimate", "stats", "whatif", "shutdown",
    ] {
        assert!(
            response.contains(verb),
            "menu must list `{verb}`: {response}"
        );
    }
    // A request with no cmd at all gets the same menu.
    let response = handle_line(&report, r#"{"shard":"east"}"#);
    assert!(
        response.contains("missing string field `cmd`"),
        "{response}"
    );
    assert!(response.contains("whatif"), "{response}");
}

/// The tentpole guarantee: poll the live bus while the day streams
/// (with chaos restarts in the mix), ask for every estimate as soon as
/// its tick is published, and compare each answer bit for bit with the
/// post-run answer to the identical request.
#[test]
fn mid_run_answers_are_bit_identical_to_post_run() {
    let chaos = ChaosPlan::none().with_kill(0, 5).with_hang(1, 3);
    let daemon = Daemon::new(shards(), config().with_chaos(chaos)).unwrap();
    let bus = Arc::new(LiveBus::new());
    let bus_for_run = Arc::clone(&bus);
    let runner = std::thread::spawn(move || daemon.run_live(0..TICKS, &bus_for_run));

    let labels: Vec<String> = methods().iter().map(|m| m.label()).collect();
    let mut seen_epoch = 0u64;
    let mut last_uptime = 0usize;
    let mut queried: HashSet<(String, usize)> = HashSet::new();
    // (request, live response) pairs captured mid-run.
    let mut recorded: Vec<(String, String)> = Vec::new();
    let mut polled_while_running = false;

    loop {
        let Some(view) = bus.wait_past(seen_epoch, Duration::from_secs(60)) else {
            panic!("bus stalled at epoch {seen_epoch}");
        };
        assert!(view.epoch > seen_epoch, "epoch must advance");
        assert!(view.uptime_ticks >= last_uptime, "uptime must not regress");
        seen_epoch = view.epoch;
        last_uptime = view.uptime_ticks;
        if view.running {
            polled_while_running = true;
            // A status answered mid-run reports streaming mode.
            let status = handle_line_view(&view, r#"{"cmd":"status"}"#);
            assert!(status.contains(r#""mode":"streaming-warm""#), "{status}");
        }
        for shard in &view.shards {
            for (tick, slot) in shard.ticks.iter().enumerate() {
                if slot.is_none() || !queried.insert((shard.name.clone(), tick)) {
                    continue;
                }
                for label in &labels {
                    let request = format!(
                        r#"{{"cmd":"estimate","shard":"{}","tick":{tick},"method":"{label}"}}"#,
                        shard.name
                    );
                    let response = handle_line_view(&view, &request);
                    assert!(response.contains(r#""ok":true"#), "{request} => {response}");
                    recorded.push((request, response));
                }
            }
        }
        // Stats must answer without error at any point in the run.
        let stats = handle_line_view(&view, r#"{"cmd":"stats"}"#);
        assert!(stats.contains(r#""ok":true"#), "{stats}");
        if !view.running {
            break;
        }
    }

    let report = runner.join().expect("runner").expect("run succeeds");
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 2);
    assert!(polled_while_running, "the poller must overlap the run");
    assert_eq!(
        queried.len(),
        2 * TICKS,
        "every tick of both shards must have been answered live"
    );
    for (request, live) in &recorded {
        let post = handle_line(&report, request);
        assert_eq!(live, &post, "mid-run answer diverged for {request}");
    }
}

#[test]
fn telemetry_counters_reconcile_with_the_final_report() {
    let fault = LoadFaultPlan {
        seed: 3,
        missing_probability: 0.0,
        outages: vec![LoadOutage {
            link: 2,
            from: 4,
            ticks: 2,
        }],
        corrupt: vec![],
    };
    let roster = vec![
        ShardSpec::new("east", DatasetSpec::tiny(), 11).with_fault_plan(fault),
        ShardSpec::new("west", DatasetSpec::tiny(), 12),
    ];
    let chaos = ChaosPlan::none().with_kill(0, 5).with_hang(1, 7);
    let daemon = Daemon::new(roster, config().with_chaos(chaos)).unwrap();
    let report = daemon.run(0..TICKS).unwrap();
    assert!(report.all_completed());

    // Counters are counted on first acceptance only, so despite the
    // replayed ticks after each restart they must reconcile EXACTLY
    // with the aggregates of the final report.
    let totals = report.telemetry.total_counters();
    let completed: usize = report.shards.iter().map(|s| s.completed_ticks()).sum();
    let degraded: usize = report.shards.iter().map(|s| s.degraded_ticks()).sum();
    let (mut imputed, mut masked) = (0u64, 0u64);
    for shard in &report.shards {
        for tick in shard.ticks.iter().flatten() {
            if let Some(d) = &tick.degradation {
                imputed += d.imputed_rows.len() as u64;
                masked += d.masked_rows.len() as u64;
            }
        }
    }
    assert_eq!(totals.ticks, completed as u64);
    assert_eq!(totals.degraded_ticks, degraded as u64);
    assert!(totals.degraded_ticks >= 2, "the outage must surface");
    assert_eq!(totals.imputed_rows, imputed);
    assert_eq!(totals.masked_rows, masked);
    assert_eq!(totals.restarts, report.total_restarts() as u64);
    assert!(
        totals.checkpoints >= 2,
        "checkpoint cadence 4 over 10 ticks"
    );

    // Histogram populations line up with real work heard by the
    // supervisor: every accepted tick plus every replayed tick records
    // one sample per method — abandoned zombie epochs record nothing,
    // so the population is exact, not a lower bound.
    for shard in &report.shards {
        let telemetry = report.telemetry.shard(&shard.name).expect("telemetry");
        let replayed: usize = shard.restarts.iter().map(|r| r.replayed).sum();
        let samples = (shard.completed_ticks() + replayed) as u64;
        for (label, hist) in &telemetry.solve {
            assert_eq!(hist.count(), samples, "shard {} method {label}", shard.name);
        }
        assert_eq!(telemetry.queue_delay.count(), samples);
    }

    // The stats verb serves the same numbers.
    let stats = parse(&handle_line(&report, r#"{"cmd":"stats"}"#));
    let counters = stats.field("counters").expect("counters");
    assert_eq!(u64_of(counters, "ticks"), totals.ticks);
    assert_eq!(u64_of(counters, "restarts"), totals.restarts);
    assert_eq!(u64_of(counters, "checkpoints"), totals.checkpoints);
    let text = handle_line(&report, r#"{"cmd":"stats","format":"text"}"#);
    assert!(text.contains("global solve walls"), "{text}");
    let filtered = handle_line(&report, r#"{"cmd":"stats","shard":"nope"}"#);
    assert!(filtered.contains(r#""ok":false"#), "{filtered}");
}

#[test]
fn whatif_projects_link_loads_without_touching_state() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..6).unwrap();

    // Identity scenario: nothing changes.
    let id = parse(&handle_line(
        &report,
        r#"{"cmd":"whatif","shard":"east","method":"gravity"}"#,
    ));
    assert_eq!(u64_of(&id, "tick"), 5, "defaults to the latest tick");
    assert_eq!(
        f64_of(&id, "total_mbps_before").to_bits(),
        f64_of(&id, "total_mbps_after").to_bits()
    );
    assert_eq!(
        f64_of(&id, "max_link_mbps_before").to_bits(),
        f64_of(&id, "max_link_mbps_after").to_bits()
    );
    assert_eq!(u64_of(&id, "overloaded_links"), 0);

    // Routing is linear: doubling demand doubles every link load.
    let doubled = parse(&handle_line(
        &report,
        r#"{"cmd":"whatif","shard":"east","method":"gravity","tick":5,"scale":2.0}"#,
    ));
    let before = f64_of(&doubled, "max_link_mbps_before");
    let after = f64_of(&doubled, "max_link_mbps_after");
    assert!(
        (after - 2.0 * before).abs() <= 1e-9 * before.max(1.0),
        "{before} -> {after}"
    );

    // A targeted delta moves exactly the requested volume.
    let delta = parse(&handle_line(
        &report,
        r#"{"cmd":"whatif","shard":"east","method":"gravity","deltas":[{"pair":0,"mbps":250.0}]}"#,
    ));
    let moved = f64_of(&delta, "total_mbps_after") - f64_of(&delta, "total_mbps_before");
    assert!((moved - 250.0).abs() < 1e-6, "moved {moved}");
    assert_eq!(u64_of(&delta, "deltas_applied"), 1);

    // Error paths name the offending piece.
    for (bad, needle) in [
        (r#"{"cmd":"whatif","method":"gravity"}"#, "shard"),
        (r#"{"cmd":"whatif","shard":"east"}"#, "method"),
        (
            r#"{"cmd":"whatif","shard":"east","method":"gravity","scale":-1.0}"#,
            "scale",
        ),
        (
            r#"{"cmd":"whatif","shard":"east","method":"gravity","deltas":[{"pair":99999,"mbps":1.0}]}"#,
            "out of range",
        ),
    ] {
        let response = handle_line(&report, bad);
        assert!(response.contains(r#""ok":false"#), "{bad} => {response}");
        assert!(response.contains(needle), "{bad} => {response}");
    }
}

#[test]
fn status_reports_progress_uptime_and_mode() {
    let mut config = config();
    config.max_restarts = 0;
    let chaos = ChaosPlan::none().with_kill(0, 6);
    let daemon = Daemon::new(shards(), config.with_chaos(chaos)).unwrap();
    let report = daemon.run(0..TICKS).unwrap();

    let status = parse(&handle_line(&report, r#"{"cmd":"status"}"#));
    assert_eq!(u64_of(&status, "uptime_ticks"), TICKS as u64);
    assert_eq!(
        status.field("mode").unwrap(),
        &Value::Str("finished-warm".into())
    );
    let shards_value = status.field("shards").unwrap().as_seq().unwrap();
    let east = &shards_value[0];
    let progress = east.field("progress").unwrap();
    assert_eq!(u64_of(progress, "done"), 6, "quarantined at tick 6");
    assert_eq!(u64_of(progress, "total"), TICKS as u64);
    let west = &shards_value[1];
    assert_eq!(
        u64_of(west.field("progress").unwrap(), "done"),
        TICKS as u64
    );
    // PR 7 fields survive for old parsers.
    for field in [
        "ticks",
        "labels",
        "total_restarts",
        "completed_ticks",
        "lost_ticks",
        "degraded_ticks",
    ] {
        let line = handle_line(&report, r#"{"cmd":"status"}"#);
        assert!(line.contains(field), "missing `{field}`: {line}");
    }
    // An estimate for a quarantine-lost tick says so.
    let lost = handle_line(
        &report,
        r#"{"cmd":"estimate","shard":"east","tick":8,"method":"gravity"}"#,
    );
    assert!(lost.contains("lost to quarantine"), "{lost}");
}

#[test]
fn toml_config_drives_the_same_run() {
    let text = r#"
[daemon]
methods = ["gravity", "entropy:lambda=1e3"]
ticks = 10
heartbeat_timeout_ms = 500
checkpoint_every = 4
restart_backoff_ms = 5

[[shard]]
name = "east"
topology = "tiny"
seed = 11

[[shard]]
name = "west"
topology = "tiny"
seed = 12

[[chaos]]
shard = 0
tick = 5
kind = "kill"
"#;
    let parsed = parse_daemon_toml(text).expect("config parses");
    assert_eq!(parsed.tick_range(), 0..10);
    let daemon = Daemon::new(parsed.shards, parsed.config).unwrap();
    let report = daemon.run(parsed.ticks.map(|t| 0..t).unwrap()).unwrap();
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 1);

    // The declarative run answers queries exactly like the programmatic
    // one from `mid_run_answers_are_bit_identical_to_post_run`'s setup.
    let programmatic = Daemon::new(
        shards(),
        config().with_chaos(ChaosPlan::none().with_kill(0, 5)),
    )
    .unwrap()
    .run(0..10)
    .unwrap();
    for request in [
        r#"{"cmd":"estimate","shard":"east","tick":7,"method":"gravity"}"#,
        r#"{"cmd":"estimate","shard":"west","tick":3,"method":"entropy(1e3)"}"#,
    ] {
        assert_eq!(
            handle_line(&report, request),
            handle_line(&programmatic, request)
        );
    }
}

/// A connected-but-silent client must not wedge the serve loop: the
/// next client is served while it sits there, and the per-connection
/// read deadline eventually drops it.
#[test]
fn silent_client_cannot_wedge_the_serve_loop() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..2).unwrap();

    let deadline = Duration::from_millis(200);
    let (addr, server) =
        spawn_server(move |listener| tm_daemon::serve_deadline(&report, listener, deadline));

    // First client connects and says nothing.
    let silent = TcpStream::connect(addr).unwrap();

    // Second client connects after it and must still get answers.
    let mut client = connect(addr);
    let start = Instant::now();
    let line = ask(&mut client, STATUS);
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "second client waited {:?} behind a silent one",
        start.elapsed()
    );

    let line = ask(&mut client, SHUTDOWN);
    assert!(line.contains(r#""bye":true"#), "{line}");
    drop(silent);
    server.join().unwrap().unwrap();
}

/// The same deadline protects the live server mid-run.
#[test]
fn live_serve_applies_the_read_deadline() {
    let bus = Arc::new(LiveBus::new());
    let server_bus = Arc::clone(&bus);
    let deadline = Duration::from_millis(150);
    let (addr, server) = spawn_server(move |listener| {
        tm_daemon::serve_live_deadline(&server_bus, listener, deadline)
    });

    let mut silent = connect(addr);
    let mut client = connect(addr);
    let line = ask(&mut client, STATUS);
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(
        closed_by_server(&mut silent),
        "the deadline drops the silent client"
    );

    // `client` may have hit the same deadline by now; ask on a fresh one.
    let line = ask(&mut connect(addr), SHUTDOWN);
    assert!(line.contains(r#""bye":true"#), "{line}");
    server.join().unwrap().unwrap();
}

/// A closed-loop client sends each request only after the previous
/// answer arrived, so any per-answer transport stall (an answer's tail
/// held back until the client's delayed ACK) multiplies by the request
/// count. 200 estimates must take well under a delayed-ACK timer each,
/// from a finished report and from a live bus alike.
#[test]
fn closed_loop_requests_are_answered_without_transport_stalls() {
    const REQUEST: &str = r#"{"cmd":"estimate","shard":"east","tick":1,"method":"gravity"}"#;
    let daemon = Daemon::new(shards(), config()).unwrap();
    let bus = Arc::new(LiveBus::new());
    let report = daemon.run_live(0..2, &bus).unwrap();
    let expected = handle_line(&report, REQUEST);
    assert!(expected.contains(r#""ok":true"#), "{expected}");

    let closed_loop = |addr: SocketAddr| {
        let mut client = connect(addr);
        let start = Instant::now();
        for _ in 0..200 {
            assert_eq!(ask(&mut client, REQUEST).trim_end(), expected);
        }
        let elapsed = start.elapsed();
        assert!(ask(&mut client, SHUTDOWN).contains(r#""bye":true"#));
        elapsed
    };

    let (addr, server) = spawn_server(move |listener| tm_daemon::serve(&report, listener));
    let finished = closed_loop(addr);
    server.join().unwrap().unwrap();

    let (addr, server) = spawn_server(move |listener| tm_daemon::serve_live(&bus, listener));
    let live = closed_loop(addr);
    server.join().unwrap().unwrap();

    for (server, elapsed) in [("serve", finished), ("serve_live", live)] {
        assert!(
            elapsed < Duration::from_secs(2),
            "{server}: 200 closed-loop estimates took {elapsed:?}"
        );
    }
}

/// A hog that holds a half-sent request open under the default 30 s
/// deadline does not delay a normal client, and is itself still served
/// once it finishes its line.
#[test]
fn a_hog_client_does_not_delay_a_normal_one() {
    let report = Daemon::new(shards(), config()).unwrap().run(0..2).unwrap();
    let (addr, server) = spawn_server(move |listener| tm_daemon::serve(&report, listener));

    // The hog connects first, so a one-at-a-time loop would serve it
    // first and wait out its deadline.
    let mut hog = connect(addr);
    hog.get_mut().write_all(br#"{"cmd":"sta"#).unwrap();

    let mut client = connect(addr);
    let start = Instant::now();
    let line = ask(&mut client, STATUS);
    let waited = start.elapsed();
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(
        waited < Duration::from_secs(1),
        "normal client waited {waited:?} behind a hog"
    );

    // The hog was never dropped: finishing its line gets it an answer.
    let line = ask(&mut hog, r#"tus"}"#);
    assert!(line.contains(r#""ok":true"#), "{line}");

    assert!(ask(&mut client, SHUTDOWN).contains(r#""bye":true"#));
    server.join().unwrap().unwrap();
}

/// A request line of exactly `MAX_REQUEST_BYTES` is served; one byte
/// more without a newline gets one typed error and a closed connection.
/// Bytes that are not UTF-8 are a bad request, not a reason to close.
#[test]
fn an_over_long_request_line_gets_an_error_and_a_closed_connection() {
    let report = Daemon::new(shards(), config()).unwrap().run(0..2).unwrap();
    let (addr, server) = spawn_server(move |listener| tm_daemon::serve(&report, listener));

    let mut client = connect(addr);
    client.get_mut().write_all(b"\xff\xfe\n").unwrap();
    let mut line = String::new();
    client.read_line(&mut line).unwrap();
    assert!(line.contains("bad request"), "{line}");

    let padded = STATUS.to_string() + &" ".repeat(MAX_REQUEST_BYTES - STATUS.len());
    let line = ask(&mut client, &padded);
    assert!(line.contains(r#""ok":true"#), "a line at the cap is served");

    let over = vec![b' '; MAX_REQUEST_BYTES + 1];
    client.get_mut().write_all(&over).unwrap();
    let mut line = String::new();
    client.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":false"#), "{line}");
    assert!(
        line.contains(&format!("longer than {MAX_REQUEST_BYTES} bytes")),
        "{line}"
    );
    assert!(closed_by_server(&mut client), "the connection must close");

    assert!(ask(&mut connect(addr), SHUTDOWN).contains(r#""bye":true"#));
    server.join().unwrap().unwrap();
}

/// With `MAX_CLIENTS` connections open and served, one more gets a
/// single busy error line and is closed; the open ones keep working.
#[test]
fn connections_over_the_cap_are_refused_with_one_error_line() {
    let report = Daemon::new(shards(), config()).unwrap().run(0..2).unwrap();
    let (addr, server) = spawn_server(move |listener| tm_daemon::serve(&report, listener));

    // An answer on each proves every connection holds a slot.
    let mut held: Vec<BufReader<TcpStream>> = (0..MAX_CLIENTS).map(|_| connect(addr)).collect();
    for client in &mut held {
        assert!(ask(client, STATUS).contains(r#""ok":true"#));
    }

    let mut extra = connect(addr);
    let mut line = String::new();
    extra.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":false"#), "{line}");
    assert!(line.contains("busy"), "{line}");
    assert!(
        closed_by_server(&mut extra),
        "the refused connection must close"
    );

    assert!(ask(&mut held[0], SHUTDOWN).contains(r#""bye":true"#));
    server.join().unwrap().unwrap();
}

/// `shutdown` returns the serve loop at once, even while another client
/// is connected and silent under the default 30 s read deadline; that
/// client's connection is closed rather than waited out.
#[test]
fn shutdown_returns_promptly_while_a_silent_client_is_connected() {
    let report = Daemon::new(shards(), config()).unwrap().run(0..2).unwrap();
    let (addr, server) = spawn_server(move |listener| tm_daemon::serve(&report, listener));

    let mut silent = connect(addr);
    let mut client = connect(addr);
    // Both connections are being served once the second is answered
    // (the silent one was accepted first).
    assert!(ask(&mut client, STATUS).contains(r#""ok":true"#));

    let start = Instant::now();
    assert!(ask(&mut client, SHUTDOWN).contains(r#""bye":true"#));
    server.join().unwrap().unwrap();
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "serve returned {waited:?} after shutdown"
    );
    assert!(closed_by_server(&mut silent), "the silent client is closed");
}

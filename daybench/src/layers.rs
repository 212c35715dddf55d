//! The traced run's replay: the day's own feed driven again through
//! the public call at each layer boundary, with a span around every
//! call.
//!
//! Spans under the `day` root model the daemon day's work: feed build,
//! one full-roster engine per shard (as each shard worker runs) pushing
//! each interval, checkpoint serialization and — on the socket
//! transport — frame encode/decode. A push's time is split per method
//! with `StreamTick::solve_ns`; the rest of it is work the engine does
//! once per tick for all methods. Spans under the `probe` root time
//! calls that are not part of an uninterrupted day (dataset generation
//! on its own, checkpoint restore, protocol handlers) and are not
//! accounted against the day's wall.

use std::collections::BTreeMap;

use tm_core::checkpoint::EngineCheckpoint;
use tm_core::stream::StreamEngine;
use tm_daemon::transport::wire::{decode, encode, Frame};
use tm_daemon::{build_feeds, handle_line_view, DaemonReport, TransportConfig};
use tm_traffic::EvalDataset;

use crate::loadgen::Verb;
use crate::metrics::{method_key, Values};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::Workload;

/// What the replay measured besides its spans.
pub struct Replay {
    /// Per roster method: its solve time at every shard-tick, ns.
    pub solve_ns: Vec<Vec<u64>>,
    /// Bytes of `Tick` plus `TickDone` frames per round (0 on the
    /// thread transport, where no frame crosses a wire).
    pub wire_bytes_per_round: f64,
    /// Serialized checkpoint bytes per shard, median over checkpoints.
    pub checkpoint_bytes: f64,
    /// Mean answer bytes per protocol verb.
    pub answer_bytes: BTreeMap<Verb, f64>,
}

fn durations_us<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
}

/// Replay the day of `w` over `ticks` rounds with spans, beside the
/// finished untraced `day` (whose final view answers the protocol
/// probes).
pub fn replay(
    w: &Workload,
    ticks: usize,
    day: &DaemonReport,
    requests: &[(Verb, String)],
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let socket = matches!(w.config.transport, TransportConfig::Socket(_));
    let methods = &w.config.methods;
    let every = w.config.checkpoint_every;

    let mut solve_ns: Vec<Vec<u64>> = vec![Vec::new(); methods.len()];
    let mut wire_bytes = 0usize;
    let mut checkpoint_sizes: Vec<f64> = Vec::new();
    let last_checkpoints = tracer.span("day", None, |t| {
        let feeds = t
            .span("feed.build", None, |_| {
                build_feeds(&w.shards, &w.config, 0..ticks)
            })
            .map_err(|e| format!("feed build: {e}"))?;
        let mut engines: Vec<StreamEngine> = Vec::new();
        for feed in &feeds {
            let engine = t
                .span("stream.engine_build", None, |_| {
                    StreamEngine::for_dataset(&feed.dataset, methods, w.config.mode)
                })
                .map_err(|e| format!("engine build: {e}"))?;
            engines.push(engine);
        }
        let mut last_checkpoints: Vec<Option<String>> = vec![None; feeds.len()];
        for k in 0..ticks {
            let id = Some(k as u64);
            t.span("round", id, |t| -> Result<(), String> {
                for (s, (feed, engine)) in feeds.iter().zip(&mut engines).enumerate() {
                    let loads = &feed.dirty[k];
                    if socket {
                        let frame = Frame::Tick {
                            tick: k,
                            chaos: None,
                            loads: Box::new(loads.clone()),
                        };
                        let bytes = t.span("wire.Tick.encode", id, |_| encode(&frame));
                        wire_bytes += bytes.len();
                        t.span("wire.Tick.decode", id, |_| decode(&bytes))
                            .map_err(|e| format!("Tick frame: {e}"))?;
                    }
                    let tick = t
                        .span("stream.push", id, |_| engine.push_interval(loads.clone()))
                        .map_err(|e| format!("{}: tick {k}: {e}", feed.name))?;
                    for (samples, ns) in solve_ns.iter_mut().zip(&tick.solve_ns) {
                        samples.push(*ns);
                    }
                    if every > 0 && (k + 1) % every == 0 {
                        let json = t.span("checkpoint.save", id, |_| engine.checkpoint().to_json());
                        checkpoint_sizes.push(json.len() as f64);
                        last_checkpoints[s] = Some(json);
                    }
                    if socket {
                        let frame = Frame::TickDone {
                            tick: k,
                            result: Box::new(tick),
                        };
                        let bytes = t.span("wire.TickDone.encode", id, |_| encode(&frame));
                        wire_bytes += bytes.len();
                        t.span("wire.TickDone.decode", id, |_| decode(&bytes))
                            .map_err(|e| format!("TickDone frame: {e}"))?;
                    }
                }
                Ok(())
            })?;
        }
        Ok::<_, String>(last_checkpoints)
    })?;

    let mut answers: BTreeMap<Verb, (usize, usize)> = BTreeMap::new();
    tracer.span("probe", None, |t| -> Result<(), String> {
        for shard in &w.shards {
            t.span("traffic.generate", None, |_| {
                EvalDataset::generate(shard.spec.clone(), shard.seed)
            })
            .map_err(|e| format!("dataset: {e}"))?;
        }
        for (s, json) in last_checkpoints.iter().enumerate() {
            let Some(json) = json else { continue };
            let mut fresh =
                StreamEngine::for_dataset(&day.shards[s].dataset, methods, w.config.mode)
                    .map_err(|e| format!("engine build: {e}"))?;
            t.span("checkpoint.restore", None, |_| {
                EngineCheckpoint::from_json(json).and_then(|c| fresh.restore(&c))
            })
            .map_err(|e| format!("checkpoint restore: {e}"))?;
        }
        let view = day.live_view();
        for (verb, request) in requests {
            let answer = t.span(&format!("protocol.{}", verb.name()), None, |_| {
                handle_line_view(&view, request)
            });
            let entry = answers.entry(*verb).or_insert((0, 0));
            entry.0 += answer.len();
            entry.1 += 1;
        }
        Ok(())
    })?;

    Ok(Replay {
        solve_ns,
        wire_bytes_per_round: wire_bytes as f64 / ticks as f64,
        checkpoint_bytes: median(&checkpoint_sizes).unwrap_or(0.0),
        answer_bytes: answers
            .into_iter()
            .map(|(verb, (bytes, n))| (verb, bytes as f64 / n as f64))
            .collect(),
    })
}

/// Per-layer metrics from the replay's spans and measurements, and the
/// untraced `day` and its wall.
pub fn layer_metrics(
    w: &Workload,
    spans: &[Span],
    replay: &Replay,
    day: &DaemonReport,
    day_wall_s: f64,
    values: &mut Values,
) {
    let socket = matches!(w.config.transport, TransportConfig::Socket(_));
    let selfs = self_times(spans);
    let self_ms = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6;

    values.set("traffic.generate_ms", self_ms("traffic.generate"), "ms");
    values.set("feed.build_ms", self_ms("feed.build"), "ms");
    values.set(
        "stream.engine_build_ms",
        self_ms("stream.engine_build"),
        "ms",
    );
    // Methods the workload does not run read 0.
    let mut solve_ms = 0.0;
    for (label, key) in crate::metrics::METHOD_KEYS {
        let slot = w.config.methods.iter().position(|m| m.label() == label);
        let samples_us: Vec<f64> = slot.map_or(Vec::new(), |m| {
            replay.solve_ns[m]
                .iter()
                .map(|&ns| ns as f64 / 1e3)
                .collect()
        });
        let busy_ms = samples_us.iter().sum::<f64>() / 1e3;
        solve_ms += busy_ms;
        values.set(format!("stream.{key}.busy_ms"), busy_ms, "ms");
        values.set(
            format!("stream.{key}.p95_us"),
            percentile(&samples_us, 0.95).unwrap_or(0.0),
            "us",
        );
    }
    let shared_ms = self_ms("stream.push") - solve_ms;
    values.set("stream.shared_ms", shared_ms, "ms");
    let med = |name: &str| median(&durations_us(spans, name).collect::<Vec<_>>()).unwrap_or(0.0);
    values.set("checkpoint.save_us", med("checkpoint.save"), "us");
    values.set("checkpoint.restore_us", med("checkpoint.restore"), "us");
    values.set("checkpoint.bytes", replay.checkpoint_bytes, "bytes");
    for kind in ["Tick", "TickDone"] {
        values.set(
            format!("wire.{kind}.encode_us"),
            med(&format!("wire.{kind}.encode")),
            "us",
        );
        values.set(
            format!("wire.{kind}.decode_us"),
            med(&format!("wire.{kind}.decode")),
            "us",
        );
    }
    values.set("wire.bytes_per_round", replay.wire_bytes_per_round, "bytes");
    for verb in Verb::ALL {
        values.set(
            format!("protocol.{}.us", verb.name()),
            med(&format!("protocol.{}", verb.name())),
            "us",
        );
        values.set(
            format!("protocol.{}.bytes", verb.name()),
            replay.answer_bytes.get(&verb).copied().unwrap_or(0.0),
            "bytes",
        );
    }

    // Account the untraced day wall: layer self times plus a named
    // residual (spawn, dispatch, publish, drain, socket I/O).
    let mut explained = vec![
        "feed.build",
        "stream.engine_build",
        "stream.push",
        "checkpoint.save",
    ];
    if socket {
        explained.extend([
            "wire.Tick.encode",
            "wire.Tick.decode",
            "wire.TickDone.encode",
            "wire.TickDone.decode",
        ]);
    }
    let explained_ms: f64 = explained.iter().map(|n| self_ms(n)).sum();
    let wall_ms = day_wall_s * 1e3;
    let residual_ms = wall_ms - explained_ms;
    let harness_ms = self_ms("day") + self_ms("round");
    values.set("trace.overhead_pct", 100.0 * harness_ms / wall_ms, "%");
    values.set("trace.unexplained_pct", 100.0 * residual_ms / wall_ms, "%");

    println!("day accounting (untraced day wall {wall_ms:.1} ms):");
    for name in &explained {
        println!("  {:<32} {:>12.3} ms self", name, self_ms(name));
        if *name == "stream.push" {
            for (slot, m) in w.config.methods.iter().enumerate() {
                let key = method_key(&m.label()).unwrap_or("?");
                let busy = values.get(&format!("stream.{key}.busy_ms")).unwrap_or(0.0);
                let day_ns: u64 = day
                    .shards
                    .iter()
                    .flat_map(|s| s.ticks.iter().flatten())
                    .map(|t| t.solve_ns[slot])
                    .sum();
                println!(
                    "    {:<30} {:>12.3} ms solve (untraced day {:.3} ms)",
                    m.label(),
                    busy,
                    day_ns as f64 / 1e6
                );
            }
            println!(
                "    {:<30} {:>12.3} ms (caches, degradation checks)",
                "shared", shared_ms
            );
        }
    }
    println!("  {:<32} {:>12.3} ms", "layers, total", explained_ms);
    println!(
        "  {:<32} {:>12.3} ms (spawn, dispatch, publish, drain{})",
        "coordinator.residual",
        residual_ms,
        if socket { ", socket I/O" } else { "" }
    );
    if w.shards.len() > 1 && w.config.checkpoint_every > 0 {
        // A worker checkpoints after it has answered, while the
        // coordinator serves the next shard, so on a multi-shard day
        // the replay's serial checkpoint time is partly not on the
        // day's wall and the residual can read below zero.
        println!("  (checkpoint.save overlaps the next shard's tick in the daemon)");
    }
    println!(
        "  {:<32} {:>12.3} ms (replay {:.1} ms)",
        "trace harness",
        harness_ms,
        spans
            .iter()
            .find(|s| s.name == "day")
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
    );
}

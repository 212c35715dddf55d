//! Open-loop query generator: one TCP connection to `serve_live`,
//! requests sent on a fixed schedule whatever the server's speed.
//!
//! Query `i` is due at `start + i / rate`. The generator sends it as
//! soon as it can at or after that instant, so a stall delays every
//! later query, and each latency is measured from the due time, not
//! from the send. How late the generator itself ran (send minus due)
//! is kept apart, as `client.late_ms`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tm_daemon::LiveBus;

use crate::workload::{mix_seed, QueryMix};

/// Protocol verbs the generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// `estimate` on the newest completed tick.
    Estimate,
    /// `stats` over every shard.
    Stats,
    /// `health` over every shard.
    Health,
    /// `whatif` with a uniform 10% demand increase.
    Whatif,
}

impl Verb {
    /// Every verb, in report order.
    pub const ALL: [Verb; 4] = [Verb::Estimate, Verb::Stats, Verb::Health, Verb::Whatif];

    /// The protocol's name for the verb.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Estimate => "estimate",
            Verb::Stats => "stats",
            Verb::Health => "health",
            Verb::Whatif => "whatif",
        }
    }
}

/// One query as the generator saw it. Times are nanoseconds since the
/// schedule's start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Verb sent.
    pub verb: Verb,
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When it was written to the socket.
    pub sent_ns: u64,
    /// When its answer line was read back.
    pub done_ns: u64,
    /// Whether the answer was `"ok":true`.
    pub ok: bool,
    /// Request line (kept for `estimate` only, for the answer gate).
    pub request: Option<String>,
    /// FNV-1a hash of the answer line (for `estimate` only).
    pub answer_hash: u64,
    /// The answer line, when it was an error.
    pub error: Option<String>,
    /// Epoch of the view the request was built from.
    pub view_epoch: u64,
    /// Bus epoch when the answer was read back.
    pub done_epoch: u64,
}

/// What a run's records add up to.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Queries attempted.
    pub attempted: usize,
    /// Answers that were `"ok":false`.
    pub errors: usize,
    /// Answers later than the deadline, measured from the due time
    /// (an error answer is counted once, under `errors`).
    pub deadline_misses: usize,
    /// Latency from due time to answer, microseconds, per query.
    pub latency_us: Vec<f64>,
    /// Send-to-answer service time, microseconds, per query.
    pub service_us: Vec<f64>,
    /// Generator lateness (send minus due), milliseconds, per query.
    pub late_ms: Vec<f64>,
}

impl Accounting {
    /// Queries that failed: error answers plus deadline misses.
    pub fn failed(&self) -> usize {
        self.errors + self.deadline_misses
    }
}

/// Tally records against a deadline measured from each due time.
pub fn account(records: &[Record], deadline: Duration) -> Accounting {
    let deadline_ns = deadline.as_nanos() as u64;
    let mut acc = Accounting {
        attempted: records.len(),
        ..Accounting::default()
    };
    for r in records {
        let latency = r.done_ns.saturating_sub(r.due_ns);
        if !r.ok {
            acc.errors += 1;
        } else if latency > deadline_ns {
            acc.deadline_misses += 1;
        }
        acc.latency_us.push(latency as f64 / 1e3);
        acc.service_us
            .push(r.done_ns.saturating_sub(r.sent_ns) as f64 / 1e3);
        acc.late_ms
            .push(r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6);
    }
    acc
}

/// FNV-1a, 64 bit: a stable fingerprint of an answer line.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic verb/target choices from the bench seed.
struct Chooser {
    state: u64,
}

impl Chooser {
    fn next(&mut self, bound: u64) -> u64 {
        self.state = mix_seed(self.state, 3);
        self.state % bound.max(1)
    }

    fn verb(&mut self, mix: &QueryMix) -> Verb {
        let weights = [mix.estimate, mix.stats, mix.health, mix.whatif];
        let total: u32 = weights.iter().sum();
        let mut pick = self.next(total as u64) as u32;
        for (verb, w) in Verb::ALL.into_iter().zip(weights) {
            if pick < w {
                return verb;
            }
            pick -= w;
        }
        Verb::Estimate
    }
}

/// A request on the wire, waiting for its answer line.
struct Pending {
    verb: Verb,
    due_ns: u64,
    sent_ns: u64,
    view_epoch: u64,
    request: Option<String>,
}

/// Drive the open-loop schedule against `addr` until `stop` is set,
/// then send `shutdown` so the server returns. One thread writes each
/// request when it is due, without waiting for earlier answers; a
/// second reads the answers, which arrive in request order. `bus`
/// tells the generator which tick is newest, as a polling client would
/// learn from `status`.
pub fn run_client(
    addr: SocketAddr,
    bus: &LiveBus,
    mix: QueryMix,
    seed: u64,
    stop: &AtomicBool,
) -> std::io::Result<Vec<Record>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let start = Instant::now();
    let ns = move |t: Instant| t.duration_since(start).as_nanos() as u64;
    let (tx, rx) = std::sync::mpsc::channel::<Option<Pending>>();

    std::thread::scope(|scope| {
        let answers = scope.spawn(move || -> std::io::Result<Vec<Record>> {
            let mut records = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the query connection",
                    ));
                }
                let done_ns = ns(Instant::now());
                let done_epoch = bus.epoch();
                // The writer queues each request right after sending
                // it; `None` marks the shutdown request, answered last.
                let Ok(Some(p)) = rx.recv() else {
                    return Ok(records);
                };
                let answer = line.trim_end();
                let ok = answer.starts_with("{\"ok\":true");
                records.push(Record {
                    verb: p.verb,
                    due_ns: p.due_ns,
                    sent_ns: p.sent_ns,
                    done_ns,
                    ok,
                    request: p.request,
                    answer_hash: if p.verb == Verb::Estimate {
                        fnv1a(answer.as_bytes())
                    } else {
                        0
                    },
                    error: (!ok).then(|| answer.to_string()),
                    view_epoch: p.view_epoch,
                    done_epoch,
                });
            }
        });

        let mut chooser = Chooser { state: seed };
        let period = Duration::from_secs_f64(1.0 / mix.rate_per_s);
        let sent: std::io::Result<()> = (|| {
            for i in 0u32.. {
                let due = start + period * i;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let view = bus.load();
                let mut verb = chooser.verb(&mix);
                if verb == Verb::Estimate && !view.running {
                    // Between days the newest tick belongs to the day
                    // that just ended; the next day's first publish
                    // would race the answer. Ask for `stats` instead.
                    verb = Verb::Stats;
                }
                let shard = &view.shards[chooser.next(view.shards.len() as u64) as usize];
                let tick = view.uptime_ticks.saturating_sub(1);
                // Ask for a method the newest tick has an estimate for
                // (windowed methods have none while their window
                // fills); any method if none has.
                let solved: Vec<&String> = match shard.ticks.get(tick) {
                    Some(Some(t)) => view
                        .labels
                        .iter()
                        .zip(&t.estimates)
                        .filter(|(_, e)| matches!(e, Some(Ok(_))))
                        .map(|(l, _)| l)
                        .collect(),
                    _ => Vec::new(),
                };
                let pool: Vec<&String> = if solved.is_empty() {
                    view.labels.iter().collect()
                } else {
                    solved
                };
                let method = pool[chooser.next(pool.len() as u64) as usize];
                let shard = &shard.name;
                let request = match verb {
                    Verb::Estimate => format!(
                        "{{\"cmd\":\"estimate\",\"shard\":\"{shard}\",\"tick\":{tick},\"method\":\"{method}\"}}"
                    ),
                    Verb::Stats => "{\"cmd\":\"stats\"}".to_string(),
                    Verb::Health => "{\"cmd\":\"health\"}".to_string(),
                    Verb::Whatif => format!(
                        "{{\"cmd\":\"whatif\",\"shard\":\"{shard}\",\"method\":\"{method}\",\"scale\":1.1}}"
                    ),
                };
                let view_epoch = view.epoch;
                drop(view);
                let sent_ns = ns(Instant::now());
                writer.write_all(format!("{request}\n").as_bytes())?;
                let pending = Pending {
                    verb,
                    due_ns: ns(due),
                    sent_ns,
                    view_epoch,
                    request: (verb == Verb::Estimate).then_some(request),
                };
                if tx.send(Some(pending)).is_err() {
                    break; // the answer reader failed; its error wins
                }
            }
            Ok(())
        })();
        let shutdown = writer.write_all(b"{\"cmd\":\"shutdown\"}\n");
        let _ = tx.send(None);
        let records = answers.join().expect("answer reader panicked")?;
        sent?;
        shutdown?;
        Ok(records)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: u64, sent: u64, done: u64, ok: bool) -> Record {
        Record {
            verb: Verb::Estimate,
            due_ns: due,
            sent_ns: sent,
            done_ns: done,
            ok,
            request: None,
            answer_hash: 0,
            error: None,
            view_epoch: 0,
            done_epoch: 0,
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_separate() {
        let ms = 1_000_000;
        // A 30 ms stall on query 0 makes queries 1 and 2 late even
        // though the server answers them in 1 ms.
        let records = [
            rec(0, 0, 30 * ms, true),
            rec(10 * ms, 30 * ms, 31 * ms, true),
            rec(20 * ms, 31 * ms, 32 * ms, true),
            rec(40 * ms, 40 * ms, 41 * ms, true),
        ];
        let acc = account(&records, Duration::from_millis(25));
        assert_eq!(acc.attempted, 4);
        assert_eq!(acc.latency_us, vec![30_000.0, 21_000.0, 12_000.0, 1_000.0]);
        assert_eq!(acc.service_us, vec![30_000.0, 1_000.0, 1_000.0, 1_000.0]);
        assert_eq!(acc.late_ms, vec![0.0, 20.0, 11.0, 0.0]);
        // Only query 0 misses the 25 ms deadline from its due time.
        assert_eq!(acc.deadline_misses, 1);
        assert_eq!(acc.failed(), 1);
    }

    #[test]
    fn error_answers_fail_once_even_when_late() {
        let ms = 1_000_000;
        let records = [rec(0, 0, 50 * ms, false), rec(0, 0, ms, false)];
        let acc = account(&records, Duration::from_millis(25));
        assert_eq!(acc.errors, 2);
        assert_eq!(acc.deadline_misses, 0);
        assert_eq!(acc.failed(), 2);
    }

    #[test]
    fn the_mix_follows_its_weights() {
        let mix = QueryMix {
            rate_per_s: 1.0,
            estimate: 6,
            stats: 2,
            health: 2,
            whatif: 0,
        };
        let mut chooser = Chooser { state: 9 };
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[chooser.verb(&mix) as usize] += 1;
        }
        assert_eq!(counts[3], 0, "zero weight never chosen");
        assert!((5_700..6_300).contains(&counts[0]), "{counts:?}");
        assert!((1_700..2_300).contains(&counts[1]), "{counts:?}");
    }
}

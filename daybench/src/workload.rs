//! The three benchmark workloads: shard rosters, daemon configs and
//! the query schedule they share.
//!
//! The bench seed drives the query generator on every workload and the
//! collection seed of the two clean workloads, whose day MRE does not
//! depend on it. The shard datasets and `america-dirty`'s collection
//! and fault plans are fixed: a different fault realization moves the
//! day MRE by ~3e-4, more than the 1e-4 the MRE gate allows, so each
//! workload keeps one recorded reference day.

use std::time::Duration;

use tm_collect::{CollectionConfig, CounterMode, FaultPlan, FaultSpec};
use tm_core::measure::LoadFaultPlan;
use tm_core::Method;
use tm_daemon::{DaemonConfig, ShardSpec, SocketOptions, TransportConfig};
use tm_traffic::DatasetSpec;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["europe-solve", "wire-query", "america-dirty"];

/// The open-loop query mix: `estimate` on the newest tick, plus
/// `stats`, `health` and `whatif`, as integer weights.
#[derive(Debug, Clone, Copy)]
pub struct QueryMix {
    /// Queries per second the generator schedules.
    pub rate_per_s: f64,
    /// Weight of `estimate` queries.
    pub estimate: u32,
    /// Weight of `stats` queries.
    pub stats: u32,
    /// Weight of `health` queries.
    pub health: u32,
    /// Weight of `whatif` queries.
    pub whatif: u32,
}

/// One fully specified workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Shard roster handed to the daemon.
    pub shards: Vec<ShardSpec>,
    /// Daemon policy, transport and collection.
    pub config: DaemonConfig,
}

/// The open-loop query schedule of every workload.
///
/// Rate: `query_p99_us` needs at least 1000 answers (10 beyond the
/// 99th percentile), and the lower the rate, the less a stall of a few
/// milliseconds moves it (see below). A run stops starting days once
/// the next one would overrun `--seconds`, so its days span more than
/// half of `--seconds`, and the client, which starts at the first
/// publish, runs for that minus one set-up: at least ~10.8 s at
/// `--seconds 22`. 100/s is the least round rate that yields 1000
/// answers there. Should the client still have queried for less than
/// [`min_query_span`], the run adds a day.
///
/// Mix: mostly `estimate` on the newest tick, plus `stats`, `health`
/// and `whatif`. The 7:1:1:1 weights are an assumption, not taken from
/// any recorded client trace.
///
/// The server writes each answer in two pieces on a socket without
/// `TCP_NODELAY`, so an answer's second piece waits for the client's
/// next request to carry the delayed ACK, and `query_p50_us` tracks the
/// gap between requests (1/rate, 10 ms). The rate is therefore part
/// of the metric's definition and is the same in every run.
pub const QUERIES: QueryMix = QueryMix {
    rate_per_s: 100.0,
    estimate: 7,
    stats: 1,
    health: 1,
    whatif: 1,
};

/// Client time that yields p99's 1000 answers at the schedule's rate,
/// with a tenth to spare.
pub fn min_query_span() -> f64 {
    1.1 * 1000.0 / QUERIES.rate_per_s
}

/// A query answered later than this after its due time is a failed
/// operation.
pub const QUERY_DEADLINE: Duration = Duration::from_millis(250);

fn methods(specs: &[&str]) -> Vec<Method> {
    specs
        .iter()
        .map(|s| s.parse().expect("registry spec is valid"))
        .collect()
}

/// splitmix64, to derive independent sub-seeds from the bench seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Build a workload by name. `worker_bin` is the executable the
/// socket transport launches per shard.
pub fn build(name: &str, seed: u64, worker_bin: &std::path::Path) -> Option<Workload> {
    let heartbeat = Duration::from_secs(30);
    match name {
        "europe-solve" => {
            let mut config = DaemonConfig::new(methods(&[
                "gravity",
                "kruithof-full",
                "entropy:lambda=1e3",
                "bayes:prior=1e3",
                "fanout:window=10",
                "vardi:w=0.01,window=50",
                "wcb:engine=revised",
            ]));
            config.heartbeat_timeout = heartbeat;
            config.collection_seed = mix_seed(seed, 1);
            Some(Workload {
                name: NAMES[0],
                shards: europe_pair(),
                config,
            })
        }
        "wire-query" => {
            let mut config = DaemonConfig::new(methods(&[
                "gravity",
                "kruithof-marginals",
                "bayes:prior=1e3",
            ]))
            .with_transport(TransportConfig::Socket(SocketOptions {
                worker_bin: Some(worker_bin.to_path_buf()),
                connect_timeout: Duration::from_secs(60),
            }));
            config.heartbeat_timeout = heartbeat;
            config.checkpoint_every = 8;
            config.collection_seed = mix_seed(seed, 1);
            Some(Workload {
                name: NAMES[1],
                shards: europe_pair(),
                config,
            })
        }
        "america-dirty" => {
            let mut config =
                DaemonConfig::new(methods(&["entropy:lambda=1e3", "vardi:w=0.01,window=50"]));
            config.heartbeat_timeout = heartbeat;
            config.collection = dirty_collection();
            config.collection_seed = AMERICA_COLLECTION_SEED;
            let spec = DatasetSpec::america();
            let n_links = AMERICA_LINKS;
            let shard = ShardSpec::new("us0", spec, AMERICA_SEED)
                .with_fault_plan(LoadFaultPlan::canonical(n_links, AMERICA_SEED + 10));
            Some(Workload {
                name: NAMES[2],
                shards: vec![shard],
                config,
            })
        }
        _ => None,
    }
}

const EUROPE_SEEDS: [u64; 2] = [42, 43];
const AMERICA_SEED: u64 = 42;
const AMERICA_COLLECTION_SEED: u64 = 7;
const AMERICA_LINKS: usize = 284;

fn europe_pair() -> Vec<ShardSpec> {
    EUROPE_SEEDS
        .iter()
        .enumerate()
        .map(|(i, &s)| ShardSpec::new(format!("eu{i}"), DatasetSpec::europe(), s))
        .collect()
}

/// Dirty SNMP: response jitter, 32-bit counters that wrap, 1% poll
/// loss with the backup poller, and the collection fault schedule.
fn dirty_collection() -> CollectionConfig {
    CollectionConfig {
        jitter_max_s: 5.0,
        loss_probability: 0.01,
        counter_mode: CounterMode::Counter32,
        fault_plan: Some(FaultPlan {
            seed: 11,
            faults: vec![
                FaultSpec::MissingPolls { probability: 0.002 },
                FaultSpec::CounterWrap { lsp: 3, at: 40 },
                FaultSpec::CounterReset { lsp: 17, at: 120 },
            ],
        }),
        ..CollectionConfig::default()
    }
}

//! The correctness gate every run passes before it reports.
//!
//! A run is refused when a shard-tick was lost, when a daemon estimate
//! is not bit-identical to an in-process `StreamEngine` over the same
//! feed, when a mid-run `estimate` answer differs from the post-run
//! answer to the same request, or when the day's MRE is off the
//! workload's recorded reference.

use std::collections::BTreeMap;

use tm_core::metrics::{mean_relative_error, CoverageThreshold};
use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_daemon::{handle_line_view, DaemonReport, ShardFeed};

use crate::loadgen::{fnv1a, Record};

/// Drive every shard's feed through one in-process `StreamEngine`
/// over the full method roster, as a shard worker does, one thread per
/// shard. Returns each shard's ticks.
pub fn reference_ticks(
    feeds: &[ShardFeed],
    methods: &[Method],
    mode: StreamMode,
) -> Result<Vec<Vec<StreamTick>>, String> {
    std::thread::scope(|scope| {
        let shards: Vec<_> = feeds
            .iter()
            .map(|feed| {
                scope.spawn(move || {
                    let mut engine = StreamEngine::for_dataset(&feed.dataset, methods, mode)
                        .map_err(|e| format!("reference engine for `{}`: {e}", feed.name))?;
                    feed.dirty
                        .iter()
                        .map(|loads| {
                            engine
                                .push_interval(loads.clone())
                                .map_err(|e| format!("reference tick on `{}`: {e}", feed.name))
                        })
                        .collect()
                })
            })
            .collect();
        shards
            .into_iter()
            .map(|s| s.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Whether two estimate slots are the same outcome, bit for bit.
fn same_slot(
    a: &Option<tm_core::Result<tm_core::Estimate>>,
    b: &Option<tm_core::Result<tm_core::Estimate>>,
) -> bool {
    match (a, b) {
        (Some(Ok(a)), Some(Ok(b))) => {
            a.demands.len() == b.demands.len()
                && a.demands
                    .iter()
                    .zip(&b.demands)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Some(Err(_)), Some(Err(_))) | (None, None) => true,
        _ => false,
    }
}

/// Tick-level findings of one daemon day against per-shard references
/// (`reference[s]` is shard `s`'s in-process ticks).
#[derive(Debug, Default)]
pub struct TickCheck {
    /// Gate failures (lost ticks, estimates that differ).
    pub failures: Vec<String>,
    /// Shard-ticks the day should have produced.
    pub shard_ticks: usize,
    /// Shard-ticks without a result.
    pub lost: usize,
    /// `Err` estimates on ticks the reference solved without any
    /// degradation.
    pub fault_free_errs: usize,
}

/// Compare every shard-tick of `report` with its reference.
pub fn check_ticks(report: &DaemonReport, reference: &[Vec<StreamTick>]) -> TickCheck {
    let mut check = TickCheck::default();
    for (shard, want) in report.shards.iter().zip(reference) {
        check.shard_ticks += want.len();
        if shard.ticks.len() != want.len() {
            check.failures.push(format!(
                "{}: {} ticks reported, {} expected",
                shard.name,
                shard.ticks.len(),
                want.len()
            ));
        }
        for (k, want_tick) in want.iter().enumerate() {
            let Some(Some(got)) = shard.ticks.get(k) else {
                check.lost += 1;
                check
                    .failures
                    .push(format!("{}: tick {k} lost", shard.name));
                continue;
            };
            let fault_free = want_tick.degradation.is_none();
            for (slot, (g, w)) in got.estimates.iter().zip(&want_tick.estimates).enumerate() {
                if fault_free && matches!(g, Some(Err(_))) {
                    check.fault_free_errs += 1;
                }
                if !same_slot(g, w) {
                    check.failures.push(format!(
                        "{}: tick {k} method {}: estimate differs from the in-process engine",
                        shard.name, report.labels[slot]
                    ));
                }
            }
            if got.estimates.len() != want_tick.estimates.len() {
                check.failures.push(format!(
                    "{}: tick {k}: {} estimate slots, {} expected",
                    shard.name,
                    got.estimates.len(),
                    want_tick.estimates.len()
                ));
            }
        }
    }
    check
}

/// Every slot of `a` and `b` bit-identical (two days over one feed).
pub fn same_day(a: &DaemonReport, b: &DaemonReport) -> bool {
    a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.ticks.len() == y.ticks.len()
                && x.ticks.iter().zip(&y.ticks).all(|(s, t)| match (s, t) {
                    (Some(s), Some(t)) => {
                        s.estimates.len() == t.estimates.len()
                            && s.estimates
                                .iter()
                                .zip(&t.estimates)
                                .all(|(p, q)| same_slot(p, q))
                    }
                    (None, None) => true,
                    _ => false,
                })
        })
}

/// Compare every mid-run `estimate` answer, error answers included,
/// with the post-run answer to the same request (the answer
/// `handle_line` gives, computed over the report's final view once
/// rather than rebuilt per request).
///
/// One error is exempt: "not delivered yet" when a day started between
/// the view the request was built from and the answer (`day_starts`
/// holds the bus epoch before each day's first publish). The server
/// then rightly answered from the new day, which has not reached the
/// tick yet.
pub fn check_answers(report: &DaemonReport, records: &[Record], day_starts: &[u64]) -> Vec<String> {
    let view = report.live_view();
    let mut post: BTreeMap<&str, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    for r in records {
        let Some(request) = r.request.as_deref() else {
            continue;
        };
        let next_day_raced = r
            .error
            .as_deref()
            .is_some_and(|e| e.contains("not delivered yet"))
            && day_starts
                .iter()
                .any(|&start| r.view_epoch <= start && start < r.done_epoch);
        if next_day_raced {
            continue;
        }
        let want = *post
            .entry(request)
            .or_insert_with(|| fnv1a(handle_line_view(&view, request).as_bytes()));
        if want != r.answer_hash {
            let error = r
                .error
                .as_deref()
                .map_or(String::new(), |e| format!(" ({e})"));
            failures.push(format!(
                "mid-run answer to {request}{error} differs from the post-run answer"
            ));
        }
    }
    failures
}

/// Day-mean MRE (paper Eq. 8, demands carrying 90% of the traffic) of
/// every served estimate against truth. Windowed methods are judged
/// against the window's mean demand, as in the paper's Table 2.
pub fn day_mre(report: &DaemonReport, methods: &[Method]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for shard in &report.shards {
        let d = &shard.dataset;
        for (k, tick) in shard.ticks.iter().enumerate() {
            let Some(tick) = tick else { continue };
            for (m, slot) in methods.iter().zip(&tick.estimates) {
                let Some(Ok(est)) = slot else { continue };
                let truth = match m.window() {
                    None => d.demands_at(k).expect("tick inside the day").to_vec(),
                    Some(w) => {
                        let len = w.min(k + 1);
                        d.series
                            .window_mean(k + 1 - len, len)
                            .expect("window inside the day")
                    }
                };
                sum += mean_relative_error(&truth, &est.demands, CoverageThreshold::Share(0.9))
                    .expect("estimate aligned with truth");
                count += 1;
            }
        }
    }
    sum / count.max(1) as f64
}

/// The MRE gate: `got` within `tolerance` (relative) of `reference`.
pub fn check_mre(got: f64, reference: f64, tolerance: f64) -> Option<String> {
    ((got - reference).abs() > tolerance * reference.abs()).then(|| {
        format!("day MRE {got:.9} is more than {tolerance:e} off the recorded {reference:.9}")
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tm_daemon::{build_feeds, Daemon, DaemonConfig, ShardSpec};
    use tm_traffic::DatasetSpec;

    use super::*;

    fn day() -> (DaemonReport, Vec<Vec<StreamTick>>, Vec<Method>) {
        let methods: Vec<Method> = ["gravity", "entropy:lambda=1e3"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let shards = vec![
            ShardSpec::new("a", DatasetSpec::tiny(), 11),
            ShardSpec::new("b", DatasetSpec::tiny(), 12),
        ];
        let config = DaemonConfig::new(methods.clone());
        let report = Daemon::new(shards.clone(), config.clone())
            .unwrap()
            .run(0..12)
            .unwrap();
        let feeds = build_feeds(&shards, &config, 0..12).unwrap();
        let reference = reference_ticks(&feeds, &methods, StreamMode::Warm).unwrap();
        (report, reference, methods)
    }

    #[test]
    fn an_untouched_day_passes() {
        let (report, reference, methods) = day();
        let check = check_ticks(&report, &reference);
        assert!(check.failures.is_empty(), "{:?}", check.failures);
        assert_eq!(check.shard_ticks, 24);
        assert_eq!(check.lost, 0);
        assert!(same_day(&report, &report));
        let mre = day_mre(&report, &methods);
        assert!(mre > 0.0 && mre.is_finite());
        assert!(check_mre(mre, mre * (1.0 + 5e-5), 1e-4).is_none());
        assert!(check_mre(mre, mre * 1.01, 1e-4).is_some());
    }

    #[test]
    fn a_corrupted_estimate_fails_the_gate() {
        let (mut report, reference, _) = day();
        let slot = &mut report.shards[1].ticks[5];
        let mut tick = (**slot.as_ref().unwrap()).clone();
        if let Some(Ok(est)) = &mut tick.estimates[1] {
            // One ulp on one demand.
            est.demands[3] = f64::from_bits(est.demands[3].to_bits() + 1);
        }
        *slot = Some(Arc::new(tick));
        let check = check_ticks(&report, &reference);
        assert_eq!(check.failures.len(), 1, "{:?}", check.failures);
        assert!(check.failures[0].contains("tick 5"));
        assert_eq!(check.lost, 0);
    }

    #[test]
    fn a_lost_tick_fails_the_gate() {
        let (mut report, reference, _) = day();
        report.shards[0].ticks[7] = None;
        let check = check_ticks(&report, &reference);
        assert_eq!(check.lost, 1);
        assert_eq!(check.failures, vec!["a: tick 7 lost".to_string()]);
    }

    fn record(request: &str, answer: &str, view_epoch: u64, done_epoch: u64) -> Record {
        let ok = answer.starts_with("{\"ok\":true");
        Record {
            verb: crate::loadgen::Verb::Estimate,
            due_ns: 0,
            sent_ns: 0,
            done_ns: 0,
            ok,
            request: Some(request.to_string()),
            answer_hash: fnv1a(answer.as_bytes()),
            error: (!ok).then(|| answer.to_string()),
            view_epoch,
            done_epoch,
        }
    }

    const REQUEST: &str =
        "{\"cmd\":\"estimate\",\"shard\":\"a\",\"tick\":4,\"method\":\"gravity\"}";

    #[test]
    fn a_changed_answer_fails_the_answer_gate() {
        let (report, _, _) = day();
        let answer = tm_daemon::handle_line(&report, REQUEST);
        let good = record(REQUEST, &answer, 5, 6);
        assert!(check_answers(&report, &[good], &[0]).is_empty());
        let bad = record(REQUEST, &answer.replace('4', "5"), 5, 6);
        assert_eq!(check_answers(&report, &[bad], &[0]).len(), 1);
    }

    #[test]
    fn a_mid_run_error_answer_fails_the_answer_gate() {
        let (report, _, _) = day();
        let error = "{\"ok\":false,\"error\":\"tick 4 not delivered yet on shard `a`\"}";
        // Same day from view to answer: the tick was complete, so the
        // error is wrong.
        let failures = check_answers(&report, &[record(REQUEST, error, 5, 6)], &[0]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("not delivered yet"));
        // A day started (epoch 5 was its base) between the view and
        // the answer: the new day has not reached tick 4 yet.
        assert!(check_answers(&report, &[record(REQUEST, error, 5, 8)], &[0, 5]).is_empty());
        // Any other error fails even across a day boundary.
        let other = "{\"ok\":false,\"error\":\"unknown method `gravity`\"}";
        assert_eq!(
            check_answers(&report, &[record(REQUEST, other, 5, 8)], &[0, 5]).len(),
            1
        );
    }
}

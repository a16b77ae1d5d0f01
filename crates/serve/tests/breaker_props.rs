//! Property tests for the per-peer circuit breaker: the guarantees the
//! degraded cluster path leans on.
//!
//! 1. **Determinism** — breaker state after any interleaved sequence of
//!    probe outcomes is a pure function of that sequence. Pinned by an
//!    independently-written reference model stepped in lockstep and by
//!    structural equality of twin breakers (no hidden clock, no
//!    randomness: `PeerBreaker` derives `Eq`).
//! 2. **Bounded probe cost** — once a peer is dead, at most
//!    `failure_threshold` probes pay full price before the trip, and
//!    from then on only one probe in every `probe_interval` attempts is
//!    admitted. This is the "steady-state misses never wait on a dead
//!    peer's connect timeout" acceptance bound.
//! 3. **Exact transitions** — Closed → Open on the K-th *consecutive*
//!    failure (a success resets the run), Open → HalfOpen after exactly
//!    M skipped attempts, HalfOpen → Closed on success / back to Open
//!    on failure.
//!
//! 4. **The engine is the model** — [`FillEngine::fill`], the one fill
//!    path `serve` and the in-process harness share, drives each peer's
//!    breaker exactly as the model says, keeps its hint queue bounded,
//!    duplicate-free and ordered across a failed replay, and trips on
//!    lost replies from live peers.
//!
//! The plain `#[test]`s walk a deterministic seeded grid; the
//! `proptest!` cases add random sequences on top (the vendored
//! `proptest` is a small real runner, see `vendor/README.md`).

use clipcache_core::PolicyKind;
use clipcache_media::{paper, ClipId};
use clipcache_serve::{
    BreakerState, CacheService, ClusterHarness, FaultKind, FaultPlan, FillEngine, FillStats,
    PeerBreaker, PeerFaults, PeerLink, ServiceConfig, BREAKER_FAILURE_THRESHOLD,
    BREAKER_PROBE_INTERVAL, HANDOFF_QUEUE_LIMIT,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// An independently-written model of the breaker spec. Deliberately a
/// different shape from the implementation (state-carried counters
/// instead of struct fields) so a shared bug is unlikely to hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Closed { fails: u32 },
    Open { skipped: u64 },
    // No HalfOpen variant on purpose: under the drive discipline the
    // admitted probe's outcome resolves HalfOpen within the same step,
    // so the model never *rests* there.
}

impl Model {
    /// Drive one probe attempt with outcome `ok` (only consulted if the
    /// model admits the probe). Returns whether the probe was admitted.
    fn step(&mut self, ok: bool, threshold: u32, interval: u64) -> bool {
        match *self {
            Model::Closed { fails } => {
                *self = if ok {
                    Model::Closed { fails: 0 }
                } else if fails + 1 >= threshold {
                    Model::Open { skipped: 0 }
                } else {
                    Model::Closed { fails: fails + 1 }
                };
                true
            }
            Model::Open { skipped } => {
                if skipped + 1 >= interval {
                    // The admitted probe IS the HalfOpen probe: its
                    // outcome resolves the state immediately.
                    *self = if ok {
                        Model::Closed { fails: 0 }
                    } else {
                        Model::Open { skipped: 0 }
                    };
                    true
                } else {
                    *self = Model::Open {
                        skipped: skipped + 1,
                    };
                    false
                }
            }
        }
    }

    fn state(&self) -> BreakerState {
        match self {
            Model::Closed { .. } => BreakerState::Closed,
            Model::Open { .. } => BreakerState::Open,
        }
    }
}

/// Drive `breaker` through one attempt: admit, then record iff admitted
/// (the usage discipline the cluster paths follow). Returns admitted.
fn drive(breaker: &mut PeerBreaker, ok: bool) -> bool {
    let admitted = breaker.admit();
    if admitted {
        breaker.record(ok);
    }
    admitted
}

/// Check breaker-vs-model lockstep over an outcome sequence, returning
/// the number of admitted probes.
fn check_against_model(outcomes: &[bool], threshold: u32, interval: u64) -> u64 {
    let mut breaker = PeerBreaker::new(threshold, interval);
    let mut model = Model::Closed { fails: 0 };
    let mut admitted = 0u64;
    for (i, &ok) in outcomes.iter().enumerate() {
        let b = drive(&mut breaker, ok);
        let m = model.step(ok, threshold, interval);
        assert_eq!(b, m, "admit diverged from model at attempt {i}");
        if b {
            admitted += 1;
        }
        // After a full drive the implementation never rests in
        // HalfOpen either: record() always resolves it.
        assert_eq!(
            breaker.state(),
            model.state(),
            "state diverged from model after attempt {i}"
        );
    }
    admitted
}

/// A seedable outcome sequence for the deterministic grid (SplitMix64,
/// the repo's standard bit mixer).
fn outcome_sequence(seed: u64, len: usize, fail_num: u64, fail_den: u64) -> Vec<bool> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            z % fail_den >= fail_num // true = success
        })
        .collect()
}

#[test]
fn breaker_matches_the_reference_model_on_a_seeded_grid() {
    for &seed in &[0x5EED_2007u64, 42, 0xDEAD_BEEF] {
        for &(num, den) in &[(1u64, 2u64), (9, 10), (1, 10), (1, 1), (0, 1)] {
            let outcomes = outcome_sequence(seed, 512, num, den);
            for threshold in 1..=4u32 {
                for interval in 1..=9u64 {
                    check_against_model(&outcomes, threshold, interval);
                }
            }
        }
    }
}

#[test]
fn twin_breakers_fed_the_same_sequence_are_structurally_equal() {
    // The replay contract: breaker state is a pure function of the
    // outcome sequence, so two instances walked through it agree field
    // for field at every step — nothing inside reads a clock.
    let outcomes = outcome_sequence(0x0B5E_55ED, 256, 1, 3);
    let mut a = PeerBreaker::default();
    let mut b = PeerBreaker::default();
    for &ok in &outcomes {
        drive(&mut a, ok);
        drive(&mut b, ok);
        assert_eq!(a, b, "twin breakers diverged");
    }
    assert!(
        a.opens() > 0,
        "sequence should trip the breaker at least once"
    );
}

#[test]
fn consecutive_failures_trip_exactly_at_the_threshold() {
    let mut breaker = PeerBreaker::default();
    // A success anywhere in the run resets it: threshold-1 failures,
    // one success, threshold-1 failures stays Closed throughout.
    for _ in 0..2 {
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            drive(&mut breaker, false);
            assert_eq!(breaker.state(), BreakerState::Closed);
        }
        drive(&mut breaker, true);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
    // The K-th consecutive failure is the one that trips.
    for n in 1..=BREAKER_FAILURE_THRESHOLD {
        drive(&mut breaker, false);
        let expect = if n < BREAKER_FAILURE_THRESHOLD {
            BreakerState::Closed
        } else {
            BreakerState::Open
        };
        assert_eq!(breaker.state(), expect, "after failure {n}");
    }
    assert_eq!(breaker.opens(), 1);
}

#[test]
fn open_skips_exactly_probe_interval_attempts_then_half_opens() {
    let mut breaker = PeerBreaker::default();
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        drive(&mut breaker, false);
    }
    assert_eq!(breaker.state(), BreakerState::Open);
    // interval-1 refusals, without record (nothing was admitted)...
    for skip in 1..BREAKER_PROBE_INTERVAL {
        assert!(
            !breaker.admit(),
            "attempt {skip} while Open must be skipped"
        );
        assert_eq!(breaker.state(), BreakerState::Open);
    }
    // ...then the interval-th attempt is the HalfOpen probe, and its
    // outcome resolves the state: failure re-opens (and recounts the
    // interval from zero), success closes.
    assert!(breaker.admit());
    assert_eq!(breaker.state(), BreakerState::HalfOpen);
    breaker.record(false);
    assert_eq!(breaker.state(), BreakerState::Open);
    assert_eq!(breaker.opens(), 2);
    for _ in 1..BREAKER_PROBE_INTERVAL {
        assert!(!breaker.admit());
    }
    assert!(breaker.admit());
    breaker.record(true);
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert_eq!(breaker.opens(), 2);
}

#[test]
fn dead_peer_probe_cost_is_bounded_by_the_interval() {
    // The degraded-mode acceptance bound: against a peer that never
    // recovers, the trip costs `threshold` full-price probes and the
    // steady state costs one probe per `interval` attempts — every
    // other miss is served locally without waiting on the peer.
    let attempts = 10_000u64;
    let outcomes = vec![false; attempts as usize];
    let admitted =
        check_against_model(&outcomes, BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL);
    let bound = u64::from(BREAKER_FAILURE_THRESHOLD) + attempts / BREAKER_PROBE_INTERVAL + 1;
    assert!(
        admitted <= bound,
        "dead peer admitted {admitted} probes over {attempts} attempts (bound {bound})"
    );
    assert!(
        admitted >= attempts / BREAKER_PROBE_INTERVAL,
        "probes must keep flowing"
    );
}

/// A peer whose health is set per fill step: every `PEERGET` in the
/// step (the probe and any hint replays) gets the same outcome.
struct Health {
    up: bool,
    calls: u64,
}

impl PeerLink for Health {
    fn peer_get(&mut self, peer: usize, _clip: ClipId) -> Result<bool, ()> {
        assert_eq!(peer, 1, "only the one co-owner is ever contacted");
        self.calls += 1;
        if self.up {
            Ok(false)
        } else {
            Err(())
        }
    }
}

/// Step a two-node, R = 2 engine (one peer) through `outcomes` in
/// lockstep with the reference model; returns its final counters.
fn check_engine_against_model(outcomes: &[bool], threshold: u32, interval: u64) -> FillStats {
    let mut engine = FillEngine::new(0, 2, PeerBreaker::new(threshold, interval));
    let mut link = Health { up: true, calls: 0 };
    let mut model = Model::Closed { fails: 0 };
    let mut failed_probes = 0u64;
    for (i, &ok) in outcomes.iter().enumerate() {
        let before = engine.stats();
        link.up = ok;
        // One hot clip among a 300-clip cycle: long outages both
        // collapse repeated hints and overflow the queue bound.
        let clip = ClipId::new(if i % 4 == 0 { 1 } else { i as u32 % 300 + 2 });
        engine.fill(&mut link, &[0, 1], clip);
        let after = engine.stats();
        let admitted = model.step(ok, threshold, interval);
        assert_eq!(
            after.probes - before.probes,
            u64::from(admitted),
            "admit diverged from the model at attempt {i}"
        );
        assert_eq!(
            after.breaker_skipped - before.breaker_skipped,
            u64::from(!admitted)
        );
        assert_eq!(engine.breaker(1).state(), model.state(), "attempt {i}");
        if admitted && !ok {
            failed_probes += 1;
        }
        if admitted && ok {
            assert!(
                engine.hints(1).is_empty(),
                "a healthy peer drains its hints"
            );
        }
        let hints = engine.hints(1);
        assert!(hints.len() <= HANDOFF_QUEUE_LIMIT);
        let distinct: HashSet<&ClipId> = hints.iter().collect();
        assert_eq!(distinct.len(), hints.len(), "duplicate hint at attempt {i}");
    }
    let stats = engine.stats();
    assert_eq!(stats.errors, failed_probes, "every lost reply is one error");
    assert_eq!(stats.peer_hits, 0, "the scripted peer never holds a clip");
    assert_eq!(
        link.calls,
        stats.probes + stats.handoff_replayed,
        "every PEERGET is a probe or a replayed hint"
    );
    stats
}

#[test]
fn fill_engine_matches_the_reference_model_on_a_seeded_grid() {
    let mut total = FillStats::default();
    for &seed in &[0x5EED_2007u64, 42] {
        for &(num, den) in &[(1u64, 2u64), (9, 10), (1, 10)] {
            let outcomes = outcome_sequence(seed, 600, num, den);
            for threshold in 1..=4u32 {
                for interval in [1u64, 2, 8, 9] {
                    let s = check_engine_against_model(&outcomes, threshold, interval);
                    total.breaker_skipped += s.breaker_skipped;
                    total.handoff_queued += s.handoff_queued;
                    total.handoff_dropped += s.handoff_dropped;
                    total.handoff_replayed += s.handoff_replayed;
                }
            }
        }
    }
    // The grid reaches every hint-queue path, not just the happy one.
    assert!(
        total.handoff_queued < total.breaker_skipped,
        "no repeat collapsed"
    );
    assert!(total.handoff_dropped > 0, "the queue bound never bit");
    assert!(total.handoff_replayed > 0, "no hint was ever replayed");
}

/// A peer that answers from a script and logs which clips it was sent.
struct Scripted {
    replies: VecDeque<Result<bool, ()>>,
    sent: Vec<u32>,
}

impl PeerLink for Scripted {
    fn peer_get(&mut self, _peer: usize, clip: ClipId) -> Result<bool, ()> {
        self.sent.push(clip.get());
        self.replies.pop_front().expect("script ran out of replies")
    }
}

#[test]
fn failed_replay_keeps_the_rest_queued_in_order() {
    let owners = [0, 1];
    let mut engine = FillEngine::new(0, 2, PeerBreaker::default());
    let mut twin = PeerBreaker::default();
    let mut link = Scripted {
        replies: VecDeque::new(),
        sent: Vec::new(),
    };
    // Trip the breaker, then queue one hint per skipped attempt.
    for clip in 1..=BREAKER_FAILURE_THRESHOLD {
        link.replies.push_back(Err(()));
        engine.fill(&mut link, &owners, ClipId::new(clip));
        assert!(twin.admit());
        twin.record(false);
    }
    assert_eq!(engine.breaker(1).state(), BreakerState::Open);
    let queued: Vec<u32> = (10..10 + BREAKER_PROBE_INTERVAL as u32 - 1).collect();
    for &clip in &queued {
        engine.fill(&mut link, &owners, ClipId::new(clip));
        assert!(!twin.admit());
    }
    let hints = |engine: &FillEngine| engine.hints(1).iter().map(|c| c.get()).collect::<Vec<_>>();
    assert_eq!(hints(&engine), queued);

    // The HalfOpen probe succeeds; the replay delivers two hints and
    // loses the third reply.
    link.sent.clear();
    link.replies
        .extend([Ok(false), Ok(false), Ok(false), Err(())]);
    let before = engine.stats();
    engine.fill(&mut link, &owners, ClipId::new(99));
    assert!(twin.admit());
    twin.record(true);
    twin.record(false);
    let after = engine.stats();
    assert_eq!(link.sent, [99, queued[0], queued[1], queued[2]]);
    assert_eq!(
        hints(&engine),
        queued[2..],
        "un-replayed hints stay, in order"
    );
    assert_eq!(after.handoff_replayed - before.handoff_replayed, 2);
    assert_eq!(after.errors - before.errors, 1, "one lost reply, one error");
    assert_eq!(
        engine.breaker(1),
        &twin,
        "exactly one breaker failure after the HalfOpen success"
    );
    assert_eq!(engine.breaker(1).state(), BreakerState::Closed);

    // The next successful probe resumes the drain where it stopped.
    link.sent.clear();
    // One reply for the probe, one per hint still queued.
    let pending = queued.len() - 2;
    link.replies
        .extend(std::iter::repeat_n(Ok(true), 1 + pending));
    assert!(engine.fill(&mut link, &owners, ClipId::new(100)), "PHIT");
    let mut expected = vec![100];
    expected.extend_from_slice(&queued[2..]);
    assert_eq!(link.sent, expected);
    assert!(engine.hints(1).is_empty());
    assert!(link.replies.is_empty());
}

#[test]
fn lost_replies_trip_breakers_in_the_harness() {
    // No member ever dies, but most peer replies are lost: the breakers
    // record probe outcomes, not liveness, so they must trip.
    let repo = Arc::new(paper::variable_sized_repository_of(48));
    let services = (0..3)
        .map(|i| {
            let config = ServiceConfig::new(
                PolicyKind::Lru,
                1,
                repo.cache_capacity_for_ratio(0.25),
                7 + i,
            );
            Arc::new(CacheService::new(Arc::clone(&repo), config, None).expect("LRU builds"))
        })
        .collect();
    let mut harness = ClusterHarness::new(0xC1A5, 2, services);
    let plan = FaultPlan::with_kinds(0xD809, 0.8, &[FaultKind::DropBeforeSend]);
    harness.set_faults(Some(PeerFaults::new(plan).unwrap()));
    for round in 0..2_000u32 {
        harness.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
    }
    let stats = harness.stats();
    assert!(stats.fill.breaker_opens > 0, "{stats:?}");
    assert!(stats.fill.breaker_skipped > 0, "{stats:?}");
    assert_eq!(
        stats.fill.errors, stats.peer_drops,
        "with every member alive, each lost reply is exactly one error"
    );
    assert!(stats.conservation_ok(), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_breaker_is_a_pure_function_of_the_outcome_sequence(
        outcomes in proptest::collection::vec(any::<bool>(), 0..300),
        threshold in 1u32..6,
        interval in 1u64..12,
    ) {
        check_against_model(&outcomes, threshold, interval);
        // Replaying the identical sequence lands on the identical
        // struct — the determinism half, independent of the model.
        let mut first = PeerBreaker::new(threshold, interval);
        let mut second = PeerBreaker::new(threshold, interval);
        for &ok in &outcomes {
            drive(&mut first, ok);
        }
        for &ok in &outcomes {
            drive(&mut second, ok);
        }
        prop_assert_eq!(first, second);
    }

    #[test]
    fn prop_all_success_never_trips_and_all_failure_stays_bounded(
        len in 1usize..500,
        threshold in 1u32..6,
        interval in 1u64..12,
    ) {
        let mut healthy = PeerBreaker::new(threshold, interval);
        for _ in 0..len {
            prop_assert!(drive(&mut healthy, true), "healthy probes are always admitted");
        }
        prop_assert_eq!(healthy.state(), BreakerState::Closed);
        prop_assert_eq!(healthy.opens(), 0);

        let admitted = check_against_model(&vec![false; len], threshold, interval);
        let bound = u64::from(threshold) + len as u64 / interval + 1;
        prop_assert!(admitted <= bound, "admitted {} > bound {}", admitted, bound);
    }

    #[test]
    fn prop_fill_engine_steps_with_the_model(
        outcomes in proptest::collection::vec(any::<bool>(), 0..300),
        threshold in 1u32..6,
        interval in 1u64..12,
    ) {
        check_engine_against_model(&outcomes, threshold, interval);
    }
}

//! The chaos matrix: end-to-end resilience of the scan → signal →
//! detection chain under injected measurement faults.
//!
//! The contract under test, from the robustness work: reply loss at or
//! below 20% — plus duplication and reordering — must produce **zero false
//! outage events** on a healthy world, while a genuine scripted outage
//! inside the same fault window is **still detected**. Degraded rounds damp
//! detection; they must not blind it.

use ukraine_fbs::core::{CheckpointPolicy, DisagreementSummary, ShardRoundSummary};
use ukraine_fbs::netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, FaultIntensity, FaultPlan,
    FaultyTransport, FeedFault, FeedFaultIntensity, FeedFaultPlan, IbrConfig, Script,
    ScriptedEvent, ShardFault, ShardFaultKind, ShardFaultPlan, VantageSpec, Window, World,
    WorldConfig, WorldScale, WorldTransport,
};
use ukraine_fbs::prelude::*;
use ukraine_fbs::prober::{ScanConfig, Scanner, TargetSet};
use ukraine_fbs::signals::{IbrRoundStatus, SeasonalPredictor};
use ukraine_fbs::types::{FeedKind, FeedStatus, Oblast, Prefix, RoundQuality};

const ROUNDS: u32 = 600; // 50 days at 12 rounds/day
const FAULT_WINDOW: std::ops::Range<u32> = 100..500;

/// A deliberately quiet world: one regional AS, eight well-populated
/// blocks, no diurnal swing, no decay — so the only thing that can create
/// an outage event is a scripted event or an injected fault.
fn world(seed: u64, events: Vec<ScriptedEvent>) -> World {
    let asn = Asn(100);
    let blocks: Vec<BlockSpec> = (0..8u8)
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: asn,
            home: Oblast::Kherson,
            base_responders: 120,
            geo_population: 220,
            response_prob: 0.9,
            diurnal: false,
            power_backup: 1.0,
            annual_decay: 1.0,
        })
        .collect();
    let config = WorldConfig {
        seed,
        scale: WorldScale::Tiny,
        rounds: ROUNDS,
        ases: vec![AsSpec {
            asn,
            name: "chaos-test".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }],
        blocks,
    };
    let mut script = Script::new();
    for e in events {
        script.push(e);
    }
    World::new(config, script, vec![]).expect("valid config")
}

/// The acceptance-level fault mix: 20% reply loss plus duplication and
/// reordering, active over rounds 100..500.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "chaos-matrix",
            FAULT_WINDOW,
            FaultIntensity {
                reply_loss: 0.20,
                duplicate: 0.15,
                reorder: 0.20,
                reorder_jitter_ns: 5_000_000,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    }
}

fn campaign_config(plan: Option<FaultPlan>) -> CampaignConfig {
    let mut cfg = CampaignConfig::without_baseline();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg.fault_plan = plan;
    cfg
}

fn run(world: World, plan: Option<FaultPlan>) -> CampaignReport {
    Campaign::new(world, campaign_config(plan))
        .expect("valid config")
        .run()
        .expect("campaign run")
}

/// A BGP outage for the test AS, expressed in rounds.
fn scripted_outage(rounds: std::ops::Range<u32>) -> ScriptedEvent {
    ScriptedEvent {
        name: "scripted-outage".into(),
        target: EventTarget::As(Asn(100)),
        kind: EventKind::BgpOutage,
        start: Round(rounds.start).start(),
        end: Some(Round(rounds.end).start()),
    }
}

#[test]
fn injected_loss_causes_no_false_outages() {
    // Fault-free control: the quiet world must be genuinely quiet.
    let clean = run(world(11, vec![]), None);
    assert_eq!(
        clean.total_as_outages(),
        0,
        "control run must be event-free: {:?}",
        clean.as_events
    );
    assert_eq!(clean.degraded_rounds(), 0);

    // Same world, same seed, chaos applied: still no events.
    let noisy = run(world(11, vec![]), Some(chaos_plan()));
    assert_eq!(
        noisy.total_as_outages(),
        0,
        "injected loss fabricated outages: {:?}",
        noisy.as_events
    );
    // Regional detection is unchanged by the chaos. (Oblasts with no
    // blocks at all — everything but Kherson in this one-AS world — flag
    // BGP-zero in both runs; what matters is that the faults add nothing.)
    assert_eq!(
        noisy.region_events.keys().collect::<Vec<_>>(),
        clean.region_events.keys().collect::<Vec<_>>()
    );
    for (oblast, events) in &noisy.region_events {
        let control = &clean.region_events[oblast];
        assert_eq!(events.len(), control.len(), "{oblast:?}");
        for (x, y) in events.iter().zip(control) {
            assert_eq!(
                (x.start, x.end, x.signal),
                (y.start, y.end, y.signal),
                "{oblast:?}"
            );
        }
    }
    assert!(
        noisy.region_events_of(Oblast::Kherson).is_empty(),
        "the populated region must not false-fire"
    );

    // The fault window is visible in the quality ledger — degraded, never
    // unusable, and exactly where the plan put it.
    assert_eq!(
        noisy.degraded_rounds(),
        (FAULT_WINDOW.end - FAULT_WINDOW.start) as usize
    );
    for (r, q) in noisy.round_quality.iter().enumerate() {
        let expect = if FAULT_WINDOW.contains(&(r as u32)) {
            RoundQuality::Degraded
        } else {
            RoundQuality::Ok
        };
        assert_eq!(*q, expect, "round {r}");
    }
    assert_eq!(noisy.unusable_rounds(), 0);
    assert_eq!(noisy.quality_of(Round(0)), RoundQuality::Ok);
    assert_eq!(
        noisy.quality_of(Round(FAULT_WINDOW.start)),
        RoundQuality::Degraded
    );
}

#[test]
fn scripted_outage_survives_the_chaos() {
    // A real 3-day BGP outage in the middle of the fault window.
    let outage_rounds = 360u32..396;
    let report = run(
        world(11, vec![scripted_outage(outage_rounds.clone())]),
        Some(chaos_plan()),
    );
    let events = report
        .as_events
        .get(&Asn(100))
        .expect("the outage must still be detected under 20% loss");
    assert!(!events.is_empty());
    let hit = events
        .iter()
        .any(|e| e.start.0 < outage_rounds.end + 12 && e.end.0 + 12 > outage_rounds.start);
    assert!(
        hit,
        "no detected event overlaps the scripted outage: {events:?}"
    );
    // And nothing fires outside the outage's neighbourhood: detection under
    // damping is still precise, not just recall-preserving.
    for e in events {
        assert!(
            e.end.0 >= outage_rounds.start.saturating_sub(12)
                && e.start.0 <= outage_rounds.end + 12,
            "event far from the scripted outage: {e:?}"
        );
    }
}

#[test]
fn chaos_campaign_is_deterministic() {
    let go = || {
        run(
            world(23, vec![scripted_outage(360..396)]),
            Some(chaos_plan()),
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a.round_quality, b.round_quality);
    assert_eq!(a.total_as_outages(), b.total_as_outages());
    for (asn, events) in &a.as_events {
        let other = &b.as_events[asn];
        assert_eq!(events.len(), other.len());
        for (x, y) in events.iter().zip(other) {
            assert_eq!((x.start, x.end, x.signal), (y.start, y.end, y.signal));
        }
    }
}

#[test]
fn wire_path_faults_only_remove_responders() {
    // The same contract at the packet level: scanning the world through a
    // FaultyTransport yields a subset of the clean scan's responders, with
    // conserved accounting, and identical seeds reproduce it bit-for-bit.
    let w = world(7, vec![]);
    let targets = TargetSet::from_blocks(w.blocks().iter().map(|b| b.block).collect());
    let scanner = Scanner::new(ScanConfig {
        rate_pps: 1_000_000,
        ..ScanConfig::default()
    });
    let round = Round(200);
    let plan = chaos_plan();

    let (clean_obs, _) = scanner.scan_round(round, &targets, &mut WorldTransport::new(&w, round));

    let scan_faulty = || {
        let mut t =
            FaultyTransport::for_round(WorldTransport::new(&w, round), w.rng(), &plan, round);
        let (obs, stats) = scanner.scan_round(round, &targets, &mut t);
        (obs, stats, t.stats)
    };
    let (obs_a, stats_a, fstats_a) = scan_faulty();
    assert!(stats_a.is_conserved(), "{stats_a:?}");
    assert!(fstats_a.replies_dropped > 0, "the window must be active");
    for (i, block) in obs_a.blocks.iter().enumerate() {
        let kept = block
            .responders
            .intersection(&clean_obs.blocks[i].responders);
        assert_eq!(kept.count(), block.responders.count(), "phantom responders");
    }
    assert!(obs_a.total_responsive() < clean_obs.total_responsive());

    let (obs_b, stats_b, fstats_b) = scan_faulty();
    assert_eq!(obs_a, obs_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(fstats_a, fstats_b);
}

// ---------------------------------------------------------------------------
// Feed-fault rows: the BGP/geo/delegation feeds going dark or lossy must
// degrade per-signal detection, never fabricate outages.
// ---------------------------------------------------------------------------

/// Rounds during which the BGP mirror serves nothing at all.
const BGP_GAP: std::ops::Range<u32> = 200..260;

fn feed_config(feed_plan: FeedFaultPlan) -> CampaignConfig {
    let mut cfg = campaign_config(None);
    cfg.feed_plan = Some(feed_plan);
    cfg
}

fn bgp_dark_plan(rounds: std::ops::Range<u32>) -> FeedFaultPlan {
    FeedFaultPlan {
        windows: vec![Window::over_rounds(
            "bgp-mirror-dark",
            rounds,
            FeedFault {
                feed: FeedKind::Bgp,
                intensity: FeedFaultIntensity {
                    drop: 1.0,
                    ..FeedFaultIntensity::default()
                },
            },
        )],
    }
}

#[test]
fn missing_bgp_dump_opens_no_bgp_outages_and_is_ledgered() {
    // A real BGP outage sits entirely inside the dump gap: with no dump to
    // read, the collector must not open a BGP outage event — it carries
    // the last known routing state forward — while the scan-derived
    // signals (FBS, IPS) still catch the disruption.
    let outage = 212u32..248;
    let go = || {
        run_cfg(
            world(11, vec![scripted_outage(outage.clone())]),
            feed_config(bgp_dark_plan(BGP_GAP)),
        )
    };
    let report = go();

    let events = report
        .as_events
        .get(&Asn(100))
        .expect("FBS/IPS must still detect the outage");
    assert!(
        !events.iter().any(|e| e.signal == SignalKind::Bgp
            && e.start.0 >= BGP_GAP.start
            && e.start.0 < BGP_GAP.end),
        "a BGP outage event opened during the dump gap: {events:?}"
    );
    assert!(
        events.iter().any(|e| e.signal != SignalKind::Bgp
            && e.start.0 < outage.end + 12
            && e.end.0 + 12 > outage.start),
        "scan-derived signals must still catch the outage: {events:?}"
    );

    // The ledger records exactly the gap: Fresh before, Stale(age) with
    // ages counting up during, Fresh again after.
    let ledger = &report.feed_ledger;
    for r in 0..ROUNDS {
        let status = ledger.status_of(FeedKind::Bgp, Round(r)).expect("ledgered");
        if BGP_GAP.contains(&r) {
            assert_eq!(
                status,
                FeedStatus::Stale(r - BGP_GAP.start + 1),
                "round {r}"
            );
        } else {
            assert_eq!(status, FeedStatus::Fresh, "round {r}");
        }
    }
    let health = report.feed_health_of(FeedKind::Bgp).expect("health ledger");
    assert_eq!(health.stale_rounds, BGP_GAP.end - BGP_GAP.start);
    assert_eq!(health.longest_gap, BGP_GAP.end - BGP_GAP.start);
    assert_eq!(
        health.missing_rounds, 0,
        "the feed was delivered before the gap"
    );

    // Byte-identical determinism across two full runs.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn detection_resumes_exactly_after_the_feed_returns() {
    // An outage after the gap must be detected identically to a run whose
    // feeds never faltered: staleness suppresses, it does not linger.
    let outage = 360u32..396;
    let faulty = run_cfg(
        world(11, vec![scripted_outage(outage.clone())]),
        feed_config(bgp_dark_plan(BGP_GAP)),
    );
    let clean = run_cfg(
        world(11, vec![scripted_outage(outage.clone())]),
        feed_config(FeedFaultPlan::none()),
    );
    assert_eq!(
        format!("{:?}", faulty.as_events),
        format!("{:?}", clean.as_events),
        "post-gap detection must match the clean-feed run"
    );
    assert_eq!(
        format!("{:?}", faulty.region_events),
        format!("{:?}", clean.region_events)
    );
    // Sanity: the BGP leg of the outage is genuinely detected post-gap.
    let events = &faulty.as_events[&Asn(100)];
    assert!(
        events.iter().any(|e| e.signal == SignalKind::Bgp
            && e.start.0 < outage.end
            && e.end.0 > outage.start),
        "{events:?}"
    );
}

#[test]
fn feed_faulted_resume_is_byte_identical() {
    // Crash-resume lands in the middle of the dump gap: the restored
    // snapshot + journal replay must reconstruct feed ages, ledger and
    // carry-forward state exactly.
    let dir = std::env::temp_dir().join(format!("fbs-feed-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new(
        world(11, vec![scripted_outage(212..248)]),
        feed_config(bgp_dark_plan(BGP_GAP)),
    )
    .expect("valid config");
    let plain = campaign.run().expect("plain run");
    {
        let mut runner = campaign
            .runner_checkpointed(
                &dir,
                CheckpointPolicy {
                    snapshot_every: 96,
                    fsync: false,
                },
            )
            .expect("runner");
        for _ in 0..230 {
            runner.step_round().expect("step");
        }
        // Dropped mid-gap, mid-snapshot-interval: the crash point.
    }
    let resumed = campaign.resume(&dir).expect("resume");
    assert_eq!(format!("{plain:?}"), format!("{resumed:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_records_cause_no_spurious_outages() {
    // 5% of BGP dump records corrupted over the whole fault window. Small
    // dumps mean a single mangled line can push a delivery over the lossy
    // tolerance — rejected deliveries and quarantined records must both
    // resolve to carry-forward, never to an outage.
    let plan = FeedFaultPlan {
        windows: vec![Window::over_rounds(
            "bgp-rot",
            FAULT_WINDOW,
            FeedFault {
                feed: FeedKind::Bgp,
                intensity: FeedFaultIntensity {
                    corrupt_records: 0.05,
                    ..FeedFaultIntensity::default()
                },
            },
        )],
    };
    let go = || run_cfg(world(11, vec![]), feed_config(plan.clone()));
    let report = go();
    assert_eq!(
        report.total_as_outages(),
        0,
        "corrupted feed records fabricated outages: {:?}",
        report.as_events
    );
    assert!(
        report.region_events_of(Oblast::Kherson).is_empty(),
        "the populated region must not false-fire"
    );
    // The rot is visible in the quarantine ledger and the health summary.
    assert!(
        !report.feed_quarantines.is_empty(),
        "5% corruption over 400 rounds must quarantine something"
    );
    let health = report.feed_health_of(FeedKind::Bgp).expect("health");
    assert!(health.rejected_deliveries > 0 || health.fresh_rounds == ROUNDS);
    let rendered = report.feed_quarantine_report();
    assert!(
        rendered.contains("bgp"),
        "report names the feed: {rendered}"
    );
    // Determinism.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn stale_geo_month_freezes_classification() {
    // The geolocation mirror is dark for the second month's delivery. The
    // classifier must freeze on the previous snapshot — in this static
    // world that is indistinguishable from the pristine feed, so the whole
    // detection output matches the clean-feed run while the ledger shows
    // the stale month.
    let w = world(11, vec![]);
    let months = ukraine_fbs::core::classify::campaign_months(&w);
    assert!(
        months.len() >= 2,
        "600 rounds must span at least two months"
    );
    let due = w.month_rounds(months[1]).start;
    let plan = FeedFaultPlan {
        windows: vec![Window::over_rounds(
            "geo-mirror-dark",
            due..due + 1,
            FeedFault {
                feed: FeedKind::Geo,
                intensity: FeedFaultIntensity {
                    drop: 1.0,
                    ..FeedFaultIntensity::default()
                },
            },
        )],
    };
    let faulty = run_cfg(world(11, vec![]), feed_config(plan));
    let clean = run_cfg(world(11, vec![]), feed_config(FeedFaultPlan::none()));
    assert_eq!(
        format!("{:?}", faulty.as_events),
        format!("{:?}", clean.as_events)
    );
    assert_eq!(
        format!("{:?}", faulty.region_events),
        format!("{:?}", clean.region_events)
    );
    assert_eq!(faulty.total_as_outages(), 0);

    // The ledger marks the whole stale month, and recovery at the next
    // delivery (if the campaign reaches one).
    let ledger = &faulty.feed_ledger;
    for r in w.month_rounds(months[1]) {
        assert_eq!(
            ledger.status_of(FeedKind::Geo, Round(r)),
            Some(FeedStatus::Stale(1)),
            "round {r}"
        );
    }
    for r in w.month_rounds(months[0]) {
        assert_eq!(
            ledger.status_of(FeedKind::Geo, Round(r)),
            Some(FeedStatus::Fresh),
            "round {r}"
        );
    }
    let health = faulty.feed_health_of(FeedKind::Geo).expect("health");
    assert_eq!(health.fresh_rounds + health.stale_rounds, ROUNDS);
    assert!(health.stale_rounds > 0);
}

/// Runs a campaign with an explicit full config (feed rows need more than
/// a fault plan).
fn run_cfg(world: World, cfg: CampaignConfig) -> CampaignReport {
    Campaign::new(world, cfg)
        .expect("valid config")
        .run()
        .expect("campaign run")
}

// ---------------------------------------------------------------------------
// Vantage rows: quorum fusion must route around a vantage that goes
// completely dark mid-campaign, surface genuine per-path disagreement in
// the ledgers, and never let either fabricate an outage.
// ---------------------------------------------------------------------------

/// Rounds during which one vantage's path drops every reply.
const VANTAGE_DARK: std::ops::Range<u32> = 200..440;

/// 100% reply loss over [`VANTAGE_DARK`]: the vantage is `Unusable` for
/// the whole window and must be masked out of the quorum.
fn vantage_blackout_plan() -> FaultPlan {
    FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "vantage-dark",
            VANTAGE_DARK,
            FaultIntensity {
                reply_loss: 1.0,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    }
}

/// Two clean vantages plus one that blacks out mid-campaign.
fn roster_with_dark_vantage() -> Vec<VantageSpec> {
    vec![
        VantageSpec::new("kyiv"),
        VantageSpec::new("warsaw"),
        VantageSpec {
            fault_plan: Some(vantage_blackout_plan()),
            ..VantageSpec::new("frankfurt")
        },
    ]
}

fn vantage_config(vantages: Vec<VantageSpec>) -> CampaignConfig {
    let mut cfg = campaign_config(None);
    cfg.vantages = vantages;
    cfg
}

/// The quiet world plus one sparsely-populated block: a handful of true
/// responders that a lossy path can thin to zero while clean paths still
/// see them — the reachable-from-some-but-not-all signature.
fn world_with_thin_block(seed: u64) -> World {
    let asn = Asn(100);
    let mut blocks: Vec<BlockSpec> = (0..8u8)
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: asn,
            home: Oblast::Kherson,
            base_responders: 120,
            geo_population: 220,
            response_prob: 0.9,
            diurnal: false,
            power_backup: 1.0,
            annual_decay: 1.0,
        })
        .collect();
    blocks.push(BlockSpec {
        block: BlockId::from_octets(10, 0, 8),
        owner: asn,
        home: Oblast::Kherson,
        base_responders: 2,
        geo_population: 4,
        response_prob: 0.6,
        diurnal: false,
        power_backup: 1.0,
        annual_decay: 1.0,
    });
    let config = WorldConfig {
        seed,
        scale: WorldScale::Tiny,
        rounds: ROUNDS,
        ases: vec![AsSpec {
            asn,
            name: "chaos-test".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }],
        blocks,
    };
    World::new(config, Script::new(), vec![]).expect("valid config")
}

#[test]
fn dark_vantage_causes_no_false_outages_and_is_ledgered() {
    let go = || {
        run_cfg(
            world(11, vec![]),
            vantage_config(roster_with_dark_vantage()),
        )
    };
    let report = go();

    // The quorum routes around the dead path: no fabricated events.
    assert_eq!(
        report.total_as_outages(),
        0,
        "a dark vantage fabricated outages: {:?}",
        report.as_events
    );
    assert!(
        report.region_events_of(Oblast::Kherson).is_empty(),
        "the populated region must not false-fire"
    );

    // Graceful degradation: the headline round quality rides the two
    // surviving clean vantages, so the campaign never even degrades.
    assert_eq!(report.degraded_rounds(), 0);
    assert_eq!(report.unusable_rounds(), 0);

    // The ledger records the blackout exactly: Unusable precisely over the
    // dark window, zero responders collected while masked.
    let dark = report.vantage_ledger("frankfurt").expect("ledgered");
    assert_eq!(
        dark.unusable_rounds(),
        (VANTAGE_DARK.end - VANTAGE_DARK.start) as usize
    );
    for (r, q) in dark.quality.iter().enumerate() {
        let expect = if VANTAGE_DARK.contains(&(r as u32)) {
            RoundQuality::Unusable
        } else {
            RoundQuality::Ok
        };
        assert_eq!(*q, expect, "round {r}");
    }
    for (r, total) in dark.responsive_total.iter().enumerate() {
        assert_eq!(
            *total == 0,
            VANTAGE_DARK.contains(&(r as u32)),
            "round {r}: masked rounds collect nothing, live rounds something"
        );
    }
    assert!(
        dark.missing_rounds.is_empty(),
        "the campaign scanner itself never went offline"
    );

    // The surviving vantages sail through, and — the dark vantage being
    // masked rather than outvoted — nobody ever dissents.
    for name in ["kyiv", "warsaw"] {
        let ledger = report.vantage_ledger(name).expect("ledgered");
        assert_eq!(ledger.usable_rounds(), ROUNDS as usize, "{name}");
        assert_eq!(ledger.dissent_block_rounds, 0, "{name}");
    }
    assert_eq!(report.disagreement, DisagreementSummary::default());

    // Byte-identical determinism across two full runs.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn scripted_outage_survives_a_dark_vantage() {
    // A real 3-day BGP outage entirely inside the vantage blackout: the
    // two surviving vantages must still catch it.
    let outage_rounds = 360u32..396;
    let report = run_cfg(
        world(11, vec![scripted_outage(outage_rounds.clone())]),
        vantage_config(roster_with_dark_vantage()),
    );
    let events = report
        .as_events
        .get(&Asn(100))
        .expect("the outage must still be detected with one vantage dark");
    assert!(!events.is_empty());
    assert!(
        events
            .iter()
            .any(|e| e.start.0 < outage_rounds.end + 12 && e.end.0 + 12 > outage_rounds.start),
        "no detected event overlaps the scripted outage: {events:?}"
    );
    for e in events {
        assert!(
            e.end.0 >= outage_rounds.start.saturating_sub(12)
                && e.start.0 <= outage_rounds.end + 12,
            "event far from the scripted outage: {e:?}"
        );
    }
}

#[test]
fn two_of_three_quorum_surfaces_path_disagreement() {
    // One vantage behind steady 20% loss: on the thin block its path
    // sometimes delivers nothing while both clean paths still hear the
    // responders — a 2-of-3 reachable quorum with one dissenting vote.
    let roster = vec![
        VantageSpec::new("kyiv"),
        VantageSpec::new("warsaw"),
        VantageSpec {
            fault_plan: Some(FaultPlan::constant(FaultIntensity {
                reply_loss: 0.20,
                ..FaultIntensity::default()
            })),
            ..VantageSpec::new("lossy-path")
        },
    ];
    let go = || run_cfg(world_with_thin_block(11), vantage_config(roster.clone()));
    let report = go();

    // The quorum resolves every dispute toward the clean majority.
    assert_eq!(
        report.total_as_outages(),
        0,
        "path disagreement fabricated outages: {:?}",
        report.as_events
    );

    // The disagreement is real and it is counted: block-rounds reachable
    // from some vantages but not all, over a routed block.
    let d = report.disagreement;
    assert!(
        d.some_not_all_block_rounds > 0,
        "20% loss over 2 true responders must dissent sometimes: {d:?}"
    );
    assert!(d.rounds_with_disagreement > 0);
    assert!(u64::from(d.rounds_with_disagreement) <= d.some_not_all_block_rounds);
    // With two clean vantages in the majority the minority dark vote is
    // outvoted — reachability is never suppressed the other way round.
    assert_eq!(d.quorum_suppressed_block_rounds, 0);

    // Every dissent is the lossy path's: the per-vantage ledgers name the
    // culprit exactly.
    let lossy = report.vantage_ledger("lossy-path").expect("ledgered");
    assert_eq!(
        lossy.dissent_block_rounds, d.some_not_all_block_rounds,
        "each disputed block-round has exactly one dissenter"
    );
    assert_eq!(
        report.vantage_ledger("kyiv").unwrap().dissent_block_rounds,
        0
    );
    assert_eq!(
        report
            .vantage_ledger("warsaw")
            .unwrap()
            .dissent_block_rounds,
        0
    );

    // Best-of quality: two clean vantages keep the headline at Ok even
    // though the lossy path is degraded every round.
    assert_eq!(report.degraded_rounds(), 0);
    assert_eq!(lossy.degraded_rounds(), ROUNDS as usize);

    // Byte-identical determinism across two full runs.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

// ---------------------------------------------------------------------------
// Passive-signal rows: when *every* vantage goes dark at once the active
// side is completely blind, and the darknet's background radiation is the
// only listener left. It alone must carry a scripted outage — with zero
// false events, onset within one predictor window of ground truth, and an
// exact per-round ledger.
// ---------------------------------------------------------------------------

/// Three vantages that all black out over [`VANTAGE_DARK`]: no usable
/// active measurement exists for the whole window.
fn roster_all_dark() -> Vec<VantageSpec> {
    ["kyiv", "warsaw", "frankfurt"]
        .into_iter()
        .map(|name| VantageSpec {
            fault_plan: Some(vantage_blackout_plan()),
            ..VantageSpec::new(name)
        })
        .collect()
}

/// A vantage config with the passive background-radiation signal enabled.
fn ibr_config(vantages: Vec<VantageSpec>) -> CampaignConfig {
    let mut cfg = vantage_config(vantages);
    cfg.ibr = Some(IbrConfig::default());
    cfg
}

#[test]
fn all_vantages_dark_passive_signal_alone_carries_the_outage() {
    // A 3-day BGP outage entirely inside the blackout of *all three*
    // vantages: no active signal can see it.
    let outage_rounds = 300u32..340;
    let go = || {
        run_cfg(
            world(11, vec![scripted_outage(outage_rounds.clone())]),
            ibr_config(roster_all_dark()),
        )
    };
    let report = go();

    // The active side really was blind: every blackout round is Unusable,
    // detectors frozen, and no active outage event exists anywhere.
    assert_eq!(
        report.unusable_rounds(),
        (VANTAGE_DARK.end - VANTAGE_DARK.start) as usize
    );
    assert_eq!(
        report.total_as_outages(),
        0,
        "active detection fired while every vantage was dark: {:?}",
        report.as_events
    );

    // The passive signal alone carries the outage: exactly one IBR event,
    // and it is the scripted one — zero false positives.
    assert_eq!(report.total_ibr_outages(), 1);
    let ledger = report.ibr_ledger(Asn(100)).expect("per-AS ibr ledger");
    let event = ledger.events[0];
    assert!(
        event.start.0 >= outage_rounds.start,
        "passive event opened before the outage: {event:?}"
    );
    assert!(
        event.start.0 - outage_rounds.start <= SeasonalPredictor::DEFAULT_WARMUP,
        "onset more than one predictor window late: {event:?}"
    );
    // With radiation dropping to zero instantly, onset and recovery are in
    // fact exact in this deterministic world.
    assert_eq!(event.start, Round(outage_rounds.start));
    assert_eq!(event.end, Round(outage_rounds.end));
    assert_eq!(event.min_ratio, 0.0);
    for r in 0..ROUNDS {
        assert_eq!(
            ledger.in_outage(Round(r)),
            outage_rounds.contains(&r),
            "round {r}"
        );
    }

    // Ledgered exactly: one volume and one status per campaign round, all
    // observed (the *vantages* were dark, the darknet was not), and the
    // radiation is silent precisely over the scripted outage.
    assert_eq!(ledger.volume.len(), ROUNDS as usize);
    assert_eq!(ledger.status.len(), ROUNDS as usize);
    assert_eq!(ledger.observed_rounds(), ROUNDS as usize);
    assert_eq!(ledger.dark_rounds(), 0);
    for (r, v) in ledger.volume.iter().enumerate() {
        assert_eq!(
            *v == 0,
            outage_rounds.contains(&(r as u32)),
            "round {r}: radiation must vanish exactly over the outage"
        );
    }

    // Byte-identical determinism across two full runs.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn dark_darknet_freezes_instead_of_fabricating() {
    // The passive path's own outage mode: the collector fails for five
    // days over a healthy world. The predictor must freeze — collector
    // silence is never read as a country-wide outage — and the ledger
    // records the gap as Dark, not as zero-volume Observed.
    const DARKNET_DARK: std::ops::Range<u32> = 250..310;
    let mut cfg = campaign_config(None);
    cfg.ibr = Some(IbrConfig::with_dark_windows(vec![Window::over_rounds(
        "darknet-dark",
        DARKNET_DARK,
        (),
    )]));
    let go = || run_cfg(world(11, vec![]), cfg.clone());
    let report = go();

    assert_eq!(
        report.total_ibr_outages(),
        0,
        "collector silence was read as an outage: {:?}",
        report.ibr
    );
    assert_eq!(report.total_as_outages(), 0);
    let ledger = report.ibr_ledger(Asn(100)).expect("per-AS ibr ledger");
    assert_eq!(
        ledger.dark_rounds(),
        (DARKNET_DARK.end - DARKNET_DARK.start) as usize
    );
    assert_eq!(
        ledger.observed_rounds(),
        (ROUNDS - (DARKNET_DARK.end - DARKNET_DARK.start)) as usize
    );
    for r in 0..ROUNDS {
        let expect = if DARKNET_DARK.contains(&r) {
            IbrRoundStatus::Dark
        } else {
            IbrRoundStatus::Observed
        };
        assert_eq!(ledger.status[r as usize], expect, "round {r}");
        if DARKNET_DARK.contains(&r) {
            assert_eq!(ledger.volume[r as usize], 0, "round {r}");
        } else {
            assert!(ledger.volume[r as usize] > 0, "round {r}");
        }
    }

    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

// ---------------------------------------------------------------------------
// Shard-supervision rows: a shard that panics or blows its deadline
// mid-campaign must cost exactly its own blocks for exactly the faulted
// rounds — the round is downgraded, never the campaign; detection on the
// surviving shards continues; and the ledger pins every attempt.
// ---------------------------------------------------------------------------

/// Rounds during which the small shard's task panics on every attempt.
const SHARD_PANIC: std::ops::Range<u32> = 200..230;
/// Rounds during which the small shard stalls past its deadline.
const SHARD_STALL: std::ops::Range<u32> = 400..430;
/// Rounds during which the first attempt panics but a retry succeeds.
const SHARD_RETRY: std::ops::Range<u32> = 100..110;

/// A quiet two-shard world: the AS-aligned partitioner cuts at 64 blocks,
/// so 64 blocks of AS 100 followed by 8 blocks of AS 200 yield exactly two
/// shards — faults scripted against slot 1 cost only AS 200's blocks.
fn world_two_shards(seed: u64, events: Vec<ScriptedEvent>) -> World {
    let mut blocks: Vec<BlockSpec> = (0..64u8)
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: Asn(100),
            home: Oblast::Kherson,
            base_responders: 120,
            geo_population: 220,
            response_prob: 0.9,
            diurnal: false,
            power_backup: 1.0,
            annual_decay: 1.0,
        })
        .collect();
    blocks.extend((0..8u8).map(|c| BlockSpec {
        block: BlockId::from_octets(10, 2, c),
        owner: Asn(200),
        home: Oblast::Kherson,
        base_responders: 120,
        geo_population: 220,
        response_prob: 0.9,
        diurnal: false,
        power_backup: 1.0,
        annual_decay: 1.0,
    }));
    let ases = vec![
        AsSpec {
            asn: Asn(100),
            name: "shard-main".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks[..64]
                .iter()
                .map(|b| Prefix::from_block(b.block))
                .collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        },
        AsSpec {
            asn: Asn(200),
            name: "shard-tail".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks[64..]
                .iter()
                .map(|b| Prefix::from_block(b.block))
                .collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        },
    ];
    let config = WorldConfig {
        seed,
        scale: WorldScale::Tiny,
        rounds: ROUNDS,
        ases,
        blocks,
    };
    let mut script = Script::new();
    for e in events {
        script.push(e);
    }
    World::new(config, script, vec![]).expect("valid config")
}

/// The shard chaos mix against slot 1: a retried panic, a retry-exhausting
/// panic, and a deadline overrun (the stall dwarfs the 1 s virtual budget).
fn shard_chaos_plan() -> ShardFaultPlan {
    ShardFaultPlan {
        windows: vec![
            Window::over_rounds(
                "shard-retry",
                SHARD_RETRY,
                ShardFault::scripted(vec![1], 1, ShardFaultKind::Panic),
            ),
            Window::over_rounds(
                "shard-panic",
                SHARD_PANIC,
                ShardFault::scripted(vec![1], 3, ShardFaultKind::Panic),
            ),
            Window::over_rounds(
                "shard-stall",
                SHARD_STALL,
                ShardFault::scripted(
                    vec![1],
                    3,
                    ShardFaultKind::Stall {
                        extra_ns: 2_000_000_000,
                    },
                ),
            ),
        ],
    }
}

fn shard_config(plan: ShardFaultPlan) -> CampaignConfig {
    let mut cfg = campaign_config(None);
    cfg.shard_plan = Some(plan);
    cfg
}

#[test]
fn lost_shards_degrade_rounds_without_false_outages() {
    let go = || {
        run_cfg(
            world_two_shards(11, vec![]),
            shard_config(shard_chaos_plan()),
        )
    };
    let report = go();

    // Shard loss fabricates nothing: the lost blocks are *missing*, never
    // zero, so the quiet world stays event-free on both ASes.
    assert_eq!(
        report.total_as_outages(),
        0,
        "shard loss fabricated outages: {:?}",
        report.as_events
    );
    assert!(
        report.region_events_of(Oblast::Kherson).is_empty(),
        "the populated region must not false-fire"
    );

    // Graceful degradation, surgically scoped: exactly the rounds whose
    // shard was lost are Degraded — one live shard of two keeps the round
    // usable — and a retried-but-completed shard costs nothing at all.
    for (r, q) in report.round_quality.iter().enumerate() {
        let r = r as u32;
        let expect = if SHARD_PANIC.contains(&r) || SHARD_STALL.contains(&r) {
            RoundQuality::Degraded
        } else {
            RoundQuality::Ok
        };
        assert_eq!(*q, expect, "round {r}");
    }
    assert_eq!(report.unusable_rounds(), 0);

    // The supervision ledger pins every attempt exactly.
    let ledger = report.shard.as_ref().expect("supervised campaigns ledger");
    assert_eq!(ledger.shards, 2);
    assert_eq!(ledger.rounds.len(), ROUNDS as usize);
    assert_eq!(ledger.total_lost(), 60, "30 panic-lost + 30 stall-lost");
    assert_eq!(ledger.total_retried(), 10, "the retry window completes");
    assert_eq!(
        ledger.total_panicked(),
        100,
        "30 rounds x 3 + 10 rounds x 1"
    );
    assert_eq!(
        ledger.total_timed_out(),
        90,
        "30 rounds x 3 abandoned tries"
    );
    assert_eq!(ledger.rounds_with_loss(), 60);
    assert_eq!(ledger.wall_ns.len(), 2);
    for (r, s) in ledger.rounds.iter().enumerate() {
        let r = r as u32;
        let expect = if SHARD_RETRY.contains(&r) {
            // Slot 0 clean, slot 1 panicked once then completed on retry.
            ShardRoundSummary {
                round: Round(r),
                completed: 1,
                retried: 1,
                panicked: 1,
                timed_out: 0,
                lost: 0,
            }
        } else if SHARD_PANIC.contains(&r) {
            // Slot 1 panicked on all three attempts: lost.
            ShardRoundSummary {
                round: Round(r),
                completed: 1,
                retried: 0,
                panicked: 3,
                timed_out: 0,
                lost: 1,
            }
        } else if SHARD_STALL.contains(&r) {
            // Slot 1 billed past the deadline on all three attempts: lost.
            ShardRoundSummary {
                round: Round(r),
                completed: 1,
                retried: 0,
                panicked: 0,
                timed_out: 3,
                lost: 1,
            }
        } else {
            ShardRoundSummary {
                round: Round(r),
                completed: 2,
                retried: 0,
                panicked: 0,
                timed_out: 0,
                lost: 0,
            }
        };
        assert_eq!(*s, expect, "round {r}");
    }

    // Byte-identical determinism across two full runs.
    let again = go();
    assert_eq!(format!("{report:?}"), format!("{again:?}"));
}

#[test]
fn scripted_outage_survives_shard_loss() {
    // A real BGP outage on the *surviving* shard's AS, spanning the whole
    // panic-loss window: losing shard 1 must not blind detection on
    // shard 0's blocks.
    let outage_rounds = 190u32..250;
    let report = run_cfg(
        world_two_shards(11, vec![scripted_outage(outage_rounds.clone())]),
        shard_config(shard_chaos_plan()),
    );
    let events = report
        .as_events
        .get(&Asn(100))
        .expect("the outage must still be detected while shard 1 is lost");
    assert!(!events.is_empty());
    assert!(
        events
            .iter()
            .any(|e| e.start.0 < outage_rounds.end + 12 && e.end.0 + 12 > outage_rounds.start),
        "no detected event overlaps the scripted outage: {events:?}"
    );
    for e in events {
        assert!(
            e.end.0 >= outage_rounds.start.saturating_sub(12)
                && e.start.0 <= outage_rounds.end + 12,
            "event far from the scripted outage: {e:?}"
        );
    }
    // The lost shard's AS stays quiet: its blocks were missing, not dark.
    assert!(
        report
            .as_events
            .get(&Asn(200))
            .is_none_or(|events| events.is_empty()),
        "shard loss fabricated an outage on the lost shard's AS"
    );
}

#[test]
fn shard_faulted_resume_is_byte_identical() {
    // Crash-resume lands mid-panic-window, mid-snapshot-interval: replay
    // must consume the journaled shard outcomes — never re-run the pool —
    // and reconstruct the ledger, the lost-block masks and the downgraded
    // quality exactly.
    let dir = std::env::temp_dir().join(format!("fbs-shard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::new(
        world_two_shards(11, vec![scripted_outage(190..250)]),
        shard_config(shard_chaos_plan()),
    )
    .expect("valid config");
    let plain = campaign.run().expect("plain run");
    {
        let mut runner = campaign
            .runner_checkpointed(
                &dir,
                CheckpointPolicy {
                    snapshot_every: 96,
                    fsync: false,
                },
            )
            .expect("runner");
        for _ in 0..215 {
            runner.step_round().expect("step");
        }
        // Dropped mid-degraded-round territory: the crash point.
    }
    let resumed = campaign.resume(&dir).expect("resume");
    assert_eq!(format!("{plain:?}"), format!("{resumed:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_faults_never_touch_the_passive_signal() {
    // The IBR RNG domain is disjoint from the fault domains, and the
    // darknet does not ride the scan path: the chaos-matrix fault mix must
    // leave the passive ledgers bit-identical to a fault-free run.
    let mut with_faults = campaign_config(Some(chaos_plan()));
    with_faults.ibr = Some(IbrConfig::default());
    let mut quiet = campaign_config(None);
    quiet.ibr = Some(IbrConfig::default());
    let a = run_cfg(world(11, vec![]), with_faults);
    let b = run_cfg(world(11, vec![]), quiet);
    assert_eq!(format!("{:?}", a.ibr), format!("{:?}", b.ibr));
    assert_eq!(a.total_ibr_outages(), 0);
}

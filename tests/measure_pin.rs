//! Pins the measurement half of the round loop byte for byte.
//!
//! Every journaled `RoundRecord` is a pure function of `(seed, round,
//! block)`, so how the measure layer schedules its per-block work — one
//! truth query per consumer or one per block shared by every consumer —
//! must never reach the journal. These tests run two small-scale
//! checkpointed campaigns and pin the FNV-1a digest and byte length of
//! the `rounds.wal` each one writes:
//!
//! * the default single-vantage configuration;
//! * a three-vantage roster plus the darknet, with one vantage masked
//!   behind total loss, latency spikes on another, a dark collector, a
//!   scripted vantage-offline span overlapping it, and a shard plan — so
//!   the supervised executor also runs rounds that have no consumer at all.

use std::path::{Path, PathBuf};
use ukraine_fbs::core::checkpoint::JOURNAL_FILE;
use ukraine_fbs::core::CheckpointPolicy;
use ukraine_fbs::netsim::{
    EventKind, EventTarget, FaultIntensity, FaultPlan, IbrConfig, ScriptedEvent, ShardFault,
    ShardFaultKind, ShardFaultPlan, VantageSpec, Window, WorldScale,
};
use ukraine_fbs::prelude::*;

/// Long enough to cross the first month rollover (2022-04-01 falls at
/// round 349), so the campaign scans under two responder-pool sizes.
const ROUNDS: u32 = 372;

const SEED: u64 = 5;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fbs-measure-pin-{tag}-{}", std::process::id()))
}

/// Runs `campaign` checkpointed into `dir` and returns the journal's
/// `(digest, length)`.
fn journal_pin(campaign: &Campaign, dir: &Path) -> (u64, usize) {
    let _ = std::fs::remove_dir_all(dir);
    let policy = CheckpointPolicy {
        snapshot_every: 120,
        fsync: false,
    };
    let mut runner = campaign
        .runner_checkpointed(dir, policy)
        .expect("fresh checkpoint directory");
    runner.run_to_end().expect("campaign runs");
    drop(runner);
    let wal = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal written");
    let _ = std::fs::remove_dir_all(dir);
    (fnv1a(&wal), wal.len())
}

fn quiet_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::default();
    cfg.tracked.clear();
    cfg.rtt_tracked.clear();
    cfg
}

#[test]
fn single_vantage_journal_is_pinned() {
    let world = scenarios::ukraine_with_rounds(WorldScale::Small, SEED, ROUNDS)
        .into_world()
        .expect("valid scenario");
    let mut cfg = quiet_config();
    cfg.threads = 1;
    let campaign = Campaign::new(world, cfg).expect("valid config");
    assert_eq!(
        journal_pin(&campaign, &fresh_dir("single")),
        (0x3993d8d8feb105ef, 11_368_112),
        "single-vantage rounds.wal moved"
    );
}

#[test]
fn roster_darknet_supervised_journal_is_pinned() {
    let mut scenario = scenarios::ukraine_with_rounds(WorldScale::Small, SEED, ROUNDS);
    // Every vantage offline over rounds 60..96; the collector goes dark
    // over 84..120, so 84..96 carries no consumer at all.
    scenario.script.push(ScriptedEvent {
        name: "vantage-offline".into(),
        target: EventTarget::Country,
        kind: EventKind::VantageOutage,
        start: Round(60).start(),
        end: Some(Round(96).start()),
    });
    let world = scenario.into_world().expect("valid scenario");

    let blackout = FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "warsaw-dark",
            150..260,
            FaultIntensity {
                reply_loss: 1.0,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    };
    let spikes = FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "frankfurt-spikes",
            30..330,
            FaultIntensity {
                reply_loss: 0.1,
                latency_spike: 0.3,
                latency_spike_ns: 80_000_000,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    };
    let mut cfg = quiet_config();
    cfg.threads = 2;
    cfg.vantages = vec![
        VantageSpec::new("kyiv"),
        VantageSpec {
            fault_plan: Some(blackout),
            ..VantageSpec::new("warsaw")
        },
        VantageSpec {
            path_rtt_ns: 15_000_000,
            fault_plan: Some(spikes),
            ..VantageSpec::new("frankfurt")
        },
    ];
    cfg.ibr = Some(IbrConfig {
        dark_windows: vec![Window::over_rounds("collector-dark", 84..120, ())].into(),
        ..IbrConfig::default()
    });
    cfg.shard_plan = Some(ShardFaultPlan {
        windows: vec![
            Window::over_rounds(
                "shard-retry",
                200..212,
                ShardFault::scripted(vec![1], 1, ShardFaultKind::Panic),
            ),
            Window::over_rounds(
                "shard-lost",
                280..286,
                ShardFault::scripted(vec![2], 3, ShardFaultKind::Panic),
            ),
        ],
    });
    let campaign = Campaign::new(world, cfg).expect("valid config");
    assert_eq!(
        journal_pin(&campaign, &fresh_dir("roster")),
        (0x271dee1ad868148e, 28_583_600),
        "roster rounds.wal moved"
    );
}

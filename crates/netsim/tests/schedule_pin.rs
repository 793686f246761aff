//! Equivalence pin for the round-window fault schedules.
//!
//! A fixed set of overlapping plans — wire faults, feed faults, shard
//! faults and darknet outages — is evaluated on a grid of rounds 0..200,
//! shards 0..8, attempts 0..3 and every feed kind, and each answer is
//! pinned as a literal. Any change to window coverage, overlap combination
//! or the probabilistic shard draw moves a value here.

use fbs_netsim::{
    shards_domain, FaultIntensity, FaultPlan, FeedFault, FeedFaultIntensity, FeedFaultPlan,
    IbrConfig, Schedule, ShardFault, ShardFaultKind, ShardFaultPlan, Window, WorldRng,
};
use fbs_prober::QualityConfig;
use fbs_types::{FeedKind, Round, RoundQuality};

const ROUNDS: u32 = 200;
const SHARDS: u32 = 8;
const ATTEMPTS: u32 = 3;

/// Run-length encodes a per-round sequence as half-open `(start, end,
/// value)` runs.
fn runs<T: PartialEq>(values: impl IntoIterator<Item = T>) -> Vec<(u32, u32, T)> {
    let mut out: Vec<(u32, u32, T)> = Vec::new();
    for (r, v) in (0u32..).zip(values) {
        match out.last_mut() {
            Some(last) if last.2 == v => last.1 = r + 1,
            _ => out.push((r, r + 1, v)),
        }
    }
    out
}

fn wire_plan() -> FaultPlan {
    FaultPlan {
        baseline: FaultIntensity {
            probe_loss: 0.01,
            ..FaultIntensity::default()
        },
        windows: Schedule {
            windows: vec![
                Window::over_rounds(
                    "rough",
                    10..60,
                    FaultIntensity {
                        reply_loss: 0.3,
                        icmp_reply_budget: 80,
                        ..FaultIntensity::default()
                    },
                ),
                Window::over_rounds(
                    "worse",
                    40..90,
                    FaultIntensity {
                        reply_loss: 0.1,
                        corrupt: 0.2,
                        latency_spike: 0.05,
                        latency_spike_ns: 100_000_000,
                        icmp_reply_budget: 50,
                        ..FaultIntensity::default()
                    },
                ),
                Window::over_rounds(
                    "blackout",
                    150..160,
                    FaultIntensity {
                        reply_loss: 1.0,
                        ..FaultIntensity::default()
                    },
                ),
            ],
        },
    }
}

fn feed_plan() -> FeedFaultPlan {
    let window = |name, feed, rounds, intensity| {
        Window::over_rounds(name, rounds, FeedFault { feed, intensity })
    };
    FeedFaultPlan {
        windows: vec![
            window(
                "bgp-dark",
                FeedKind::Bgp,
                20..50,
                FeedFaultIntensity {
                    drop: 1.0,
                    ..FeedFaultIntensity::default()
                },
            ),
            window(
                "bgp-noisy",
                FeedKind::Bgp,
                30..80,
                FeedFaultIntensity {
                    corrupt_records: 0.05,
                    delay_attempts: 2,
                    ..FeedFaultIntensity::default()
                },
            ),
            window(
                "geo-late",
                FeedKind::Geo,
                100..150,
                FeedFaultIntensity {
                    truncate: 0.5,
                    delay_attempts: 3,
                    ..FeedFaultIntensity::default()
                },
            ),
        ],
    }
}

fn shard_plan() -> ShardFaultPlan {
    ShardFaultPlan {
        windows: vec![
            Window::over_rounds(
                "pin",
                50..51,
                ShardFault::scripted(vec![3], 1, ShardFaultKind::Panic),
            ),
            Window::over_rounds(
                "stall",
                120..126,
                ShardFault::scripted(
                    vec![0, 1],
                    2,
                    ShardFaultKind::Stall {
                        extra_ns: 9_000_000_000,
                    },
                ),
            ),
            Window::over_rounds(
                "jitter",
                0..ROUNDS,
                ShardFault {
                    shards: Vec::new(),
                    attempts: 2,
                    probability: 0.5,
                    kind: ShardFaultKind::Jitter { extra_ns: 7 },
                },
            ),
        ],
    }
}

fn ibr_config() -> IbrConfig {
    IbrConfig::with_dark_windows(vec![
        Window::over_rounds("collector-down", 30..60, ()),
        Window::over_rounds("collector-rebuild", 50..90, ()),
    ])
}

#[test]
fn wire_intensity_pin() {
    let plan = wire_plan();
    assert!(plan.validate().is_ok());
    assert!(!plan.is_null());
    let got = runs((0..ROUNDS).map(|r| plan.intensity_at(Round(r))));
    let base = FaultIntensity {
        probe_loss: 0.01,
        ..FaultIntensity::default()
    };
    let worse = FaultIntensity {
        latency_spike: 0.05,
        latency_spike_ns: 100_000_000,
        corrupt: 0.2,
        icmp_reply_budget: 50,
        ..base
    };
    let expected = vec![
        (0, 10, base),
        (
            10,
            40,
            FaultIntensity {
                reply_loss: 0.3,
                icmp_reply_budget: 80,
                ..base
            },
        ),
        // Overlap: the larger loss of "rough", the tighter budget of "worse".
        (
            40,
            60,
            FaultIntensity {
                reply_loss: 0.3,
                ..worse
            },
        ),
        (
            60,
            90,
            FaultIntensity {
                reply_loss: 0.1,
                ..worse
            },
        ),
        (90, 150, base),
        (
            150,
            160,
            FaultIntensity {
                reply_loss: 1.0,
                ..base
            },
        ),
        (160, 200, base),
    ];
    assert_eq!(got, expected);
}

#[test]
fn wire_quality_pin() {
    let plan = wire_plan();
    let q = QualityConfig::default();
    let got0 = runs((0..ROUNDS).map(|r| plan.quality_at(Round(r), 0, &q)));
    let got2 = runs((0..ROUNDS).map(|r| plan.quality_at(Round(r), 2, &q)));
    use RoundQuality::*;
    assert_eq!(
        got0,
        vec![
            (0, 10, Ok),
            (10, 90, Degraded),
            (90, 150, Ok),
            (150, 160, Unusable),
            (160, 200, Ok),
        ]
    );
    assert_eq!(
        got2,
        vec![
            (0, 40, Ok),
            (40, 60, Degraded),
            (60, 150, Ok),
            (150, 160, Unusable),
            (160, 200, Ok),
        ]
    );
}

#[test]
fn feed_intensity_pin() {
    let plan = feed_plan();
    assert!(plan.validate().is_ok());
    assert!(!plan.is_null());
    let got = |kind| runs((0..ROUNDS).map(|r| plan.intensity_at(kind, Round(r))));
    let clean = FeedFaultIntensity::default();
    let noisy = FeedFaultIntensity {
        corrupt_records: 0.05,
        delay_attempts: 2,
        ..clean
    };
    assert_eq!(
        got(FeedKind::Bgp),
        vec![
            (0, 20, clean),
            (20, 30, FeedFaultIntensity { drop: 1.0, ..clean }),
            (30, 50, FeedFaultIntensity { drop: 1.0, ..noisy }),
            (50, 80, noisy),
            (80, 200, clean),
        ]
    );
    assert_eq!(
        got(FeedKind::Geo),
        vec![
            (0, 100, clean),
            (
                100,
                150,
                FeedFaultIntensity {
                    truncate: 0.5,
                    delay_attempts: 3,
                    ..clean
                }
            ),
            (150, 200, clean),
        ]
    );
    assert_eq!(got(FeedKind::Delegations), vec![(0, 200, clean)]);
}

#[test]
fn shard_fault_pin() {
    let plan = shard_plan();
    assert!(plan.validate().is_ok());
    assert!(!plan.is_null());
    let rng = shards_domain(WorldRng::new(42));
    let cell = |r, shard, attempt| plan.fault_at(&rng, Round(r), shard, attempt);
    // Per-kind counts over the grid, plus an FNV-1a digest of every cell
    // in (round, shard, attempt) order.
    let mut counts = [0u32; 4];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..ROUNDS {
        for shard in 0..SHARDS {
            for attempt in 0..ATTEMPTS {
                let (code, extra) = match cell(r, shard, attempt) {
                    None => (0u8, 0u64),
                    Some(ShardFaultKind::Panic) => (1, 0),
                    Some(ShardFaultKind::Stall { extra_ns }) => (2, extra_ns),
                    Some(ShardFaultKind::Jitter { extra_ns }) => (3, extra_ns),
                };
                counts[code as usize] += 1;
                for byte in std::iter::once(code).chain(extra.to_le_bytes()) {
                    digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(counts, [3136, 1, 24, 1639]);
    assert_eq!(digest, 0xb04f_acb1_34fb_1c7c);
    let stall = Some(ShardFaultKind::Stall {
        extra_ns: 9_000_000_000,
    });
    let jitter = Some(ShardFaultKind::Jitter { extra_ns: 7 });
    // The pinpoint panic shadows the broad jitter window on its first
    // attempt only; its retry falls through to the jitter draw.
    assert_eq!(cell(50, 3, 0), Some(ShardFaultKind::Panic));
    assert_eq!(cell(50, 3, 1), jitter);
    assert_eq!(cell(50, 2, 0), None);
    assert_eq!(cell(120, 0, 0), stall);
    assert_eq!(cell(120, 1, 1), stall);
    assert_eq!(cell(120, 0, 2), None);
    assert_eq!(cell(126, 0, 0), jitter);
    assert_eq!(cell(10, 5, 2), None);
}

#[test]
fn ibr_dark_pin() {
    let cfg = ibr_config();
    assert!(cfg.validate().is_ok());
    let got = runs((0..ROUNDS).map(|r| cfg.dark_at(Round(r))));
    assert_eq!(got, vec![(0, 30, false), (30, 90, true), (90, 200, false)]);
}

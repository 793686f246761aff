//! Property tests for the world simulator: determinism, order
//! independence, and modifier correctness under arbitrary configurations.

use fbs_netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, FaultIntensity, FaultyTransport, Payload,
    Script, ScriptedEvent, World, WorldConfig, WorldRng, WorldScale,
};
use fbs_prober::scan::loopback::LoopbackTransport;
use fbs_prober::{ScanConfig, Scanner, TargetSet};
use fbs_types::{Asn, BlockId, Oblast, Prefix, Round, CAMPAIGN_START};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn world_from(seed: u64, n_blocks: u8, events: Vec<(u8, u8, u8)>) -> World {
    // events: (start_day, len_days, kind 0..3)
    let asn = Asn(100);
    let blocks: Vec<BlockSpec> = (0..n_blocks.max(1))
        .map(|c| BlockSpec {
            block: BlockId::from_octets(10, 0, c),
            owner: asn,
            home: Oblast::Kherson,
            base_responders: 30,
            geo_population: 200,
            response_prob: 0.85,
            diurnal: c % 3 == 0,
            power_backup: 0.4,
            annual_decay: 0.9,
        })
        .collect();
    let config = WorldConfig {
        seed,
        scale: WorldScale::Tiny,
        rounds: 1200,
        ases: vec![AsSpec {
            asn,
            name: "test".into(),
            profile: AsProfile::Regional,
            hq: Some(Oblast::Kherson),
            prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
            base_rtt_ns: 40_000_000,
            upstream: Asn(1),
        }],
        blocks,
    };
    let mut script = Script::new();
    for (start, len, kind) in events {
        let start_ts = CAMPAIGN_START.plus_seconds(start as i64 * 86_400);
        let end_ts = start_ts.plus_seconds((len as i64 + 1) * 86_400);
        let kind = match kind % 3 {
            0 => EventKind::BgpOutage,
            1 => EventKind::IpsScale(0.3),
            _ => EventKind::Reroute {
                via: Asn(12389),
                extra_rtt_ns: 50_000_000,
            },
        };
        script.push(ScriptedEvent {
            name: "prop".into(),
            target: EventTarget::As(Asn(100)),
            kind,
            start: start_ts,
            end: Some(end_ts),
        });
    }
    World::new(config, script, vec![]).expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truth queries are pure: any access order yields identical values.
    #[test]
    fn truth_is_order_independent(
        seed in any::<u64>(),
        n_blocks in 1u8..8,
        events in proptest::collection::vec((0u8..90, 0u8..10, 0u8..3), 0..6),
        probes in proptest::collection::vec((0u32..1200, 0u8..8), 1..20),
    ) {
        let w1 = world_from(seed, n_blocks, events.clone());
        let w2 = world_from(seed, n_blocks, events);
        // Query w1 forward and w2 in reverse order.
        let n = n_blocks.max(1) as usize;
        let forward: Vec<_> = probes
            .iter()
            .map(|(r, b)| w1.block_truth(Round(*r), (*b as usize) % n))
            .collect();
        let backward: Vec<_> = probes
            .iter()
            .rev()
            .map(|(r, b)| w2.block_truth(Round(*r), (*b as usize) % n))
            .collect();
        for (f, b) in forward.iter().zip(backward.iter().rev()) {
            prop_assert_eq!(f, b);
        }
    }

    /// BGP outage windows silence blocks exactly inside their rounds.
    #[test]
    fn bgp_event_boundaries_exact(start_day in 1u8..80, len_days in 0u8..10) {
        let w = world_from(7, 2, vec![(start_day, len_days, 0)]);
        let start_round = Round::first_at_or_after(
            CAMPAIGN_START.plus_seconds(start_day as i64 * 86_400),
        );
        let end_round = Round::first_at_or_after(
            CAMPAIGN_START.plus_seconds((start_day as i64 + len_days as i64 + 1) * 86_400),
        );
        prop_assert!(w.block_down(start_round, 0));
        prop_assert!(!w.block_down(Round(start_round.0 - 1), 0));
        if end_round.0 < 1200 {
            prop_assert!(w.block_down(Round(end_round.0 - 1), 0));
            prop_assert!(!w.block_down(end_round, 0));
        }
    }

    /// The responsive count never exceeds the pool, and unrouted rounds
    /// are exactly zero.
    #[test]
    fn responsive_bounded_by_pool(
        seed in any::<u64>(),
        events in proptest::collection::vec((0u8..90, 0u8..10, 0u8..3), 0..5),
        r in 0u32..1200,
    ) {
        let w = world_from(seed, 4, events);
        for bi in 0..4 {
            let t = w.block_truth(Round(r), bi);
            prop_assert!(t.responsive <= t.pool as u32);
            if !t.routed {
                prop_assert_eq!(t.responsive, 0);
            }
            prop_assert!(t.response_prob >= 0.0 && t.response_prob <= 1.0);
            let bm = w.block_bitmap(Round(r), bi);
            prop_assert!(bm.count() <= t.pool as u32);
        }
    }

    /// Reroutes only ever increase RTT, never reduce it.
    #[test]
    fn reroute_monotone_rtt(start_day in 1u8..60, len_days in 1u8..20, r in 0u32..1200) {
        let base = world_from(3, 2, vec![]);
        let rerouted = world_from(3, 2, vec![(start_day, len_days, 2)]);
        let a = base.rtt_ns(Round(r), 0);
        let b = rerouted.rtt_ns(Round(r), 0);
        prop_assert!(b >= a, "reroute lowered rtt: {} -> {}", a, b);
    }
}

// ---------------------------------------------------------------------------
// Fault-injection properties: any intensity, the scanner survives and the
// books balance.
// ---------------------------------------------------------------------------

fn fault_targets() -> TargetSet {
    TargetSet::from_prefixes(&["10.1.0.0/24".parse::<Prefix>().unwrap()])
}

fn fault_loopback(hosts: &std::collections::HashSet<u8>, rtt_ns: u64) -> LoopbackTransport {
    let mut lo = LoopbackTransport::new();
    for &h in hosts {
        lo.add_host(Ipv4Addr::new(10, 1, 0, h), rtt_ns);
    }
    lo
}

fn arb_intensity() -> impl Strategy<Value = FaultIntensity> {
    (
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.3),
        (0u64..5_000_000, 0u64..500_000_000, 0u32..64),
    )
        .prop_map(
            |(
                (probe_loss, reply_loss, duplicate),
                (reorder, latency_spike, corrupt),
                (reorder_jitter_ns, latency_spike_ns, icmp_reply_budget),
            )| FaultIntensity {
                probe_loss,
                reply_loss,
                duplicate,
                reorder,
                reorder_jitter_ns,
                latency_spike,
                latency_spike_ns,
                corrupt,
                // Keep unsolicited below the corruption knob: this strategy
                // is reused by properties that compare responder sets.
                unsolicited: corrupt,
                icmp_reply_budget,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the fault intensity, a scan round completes without
    /// panicking, its accounting is conserved, and every responder it
    /// reports is a host that actually exists.
    #[test]
    fn faulty_scan_never_panics_and_conserves(
        intensity in arb_intensity(),
        seed in any::<u64>(),
        retries in 0u32..3,
        hosts in proptest::collection::hash_set(any::<u8>(), 0..40),
    ) {
        intensity.validate().expect("strategy yields valid intensities");
        let mut faulty = FaultyTransport::new(
            fault_loopback(&hosts, 25_000_000),
            WorldRng::new(seed),
            Round(3),
            intensity,
        );
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            retries,
            ..ScanConfig::default()
        });
        let (obs, stats) = scanner.scan_round(Round(3), &fault_targets(), &mut faulty);
        prop_assert!(stats.is_conserved(), "{:?}", stats);
        prop_assert!(stats.valid <= stats.sent);
        prop_assert_eq!(obs.total_responsive(), stats.valid);
        for h in obs.blocks[0].responders.iter_hosts() {
            prop_assert!(hosts.contains(&h), "phantom responder {}", h);
        }
    }

    /// Faults only ever *remove* responders: the set observed through the
    /// faulty transport is a subset of the clean scan's responders.
    #[test]
    fn faults_never_add_responders(
        intensity in arb_intensity(),
        seed in any::<u64>(),
        hosts in proptest::collection::hash_set(any::<u8>(), 1..40),
    ) {
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            ..ScanConfig::default()
        });
        let t = fault_targets();
        let mut clean = fault_loopback(&hosts, 25_000_000);
        let (clean_obs, _) = scanner.scan_round(Round(3), &t, &mut clean);
        let mut faulty = FaultyTransport::new(
            fault_loopback(&hosts, 25_000_000),
            WorldRng::new(seed),
            Round(3),
            intensity,
        );
        let (noisy_obs, _) = scanner.scan_round(Round(3), &t, &mut faulty);
        let kept = noisy_obs.blocks[0]
            .responders
            .intersection(&clean_obs.blocks[0].responders);
        prop_assert_eq!(kept.count(), noisy_obs.blocks[0].responders.count());
    }

    /// The decorator is deterministic under arbitrary intensities: the same
    /// seed reproduces bit-identical observations and fault statistics.
    #[test]
    fn faulty_transport_deterministic(
        intensity in arb_intensity(),
        seed in any::<u64>(),
        hosts in proptest::collection::hash_set(any::<u8>(), 1..40),
    ) {
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            retries: 1,
            ..ScanConfig::default()
        });
        let t = fault_targets();
        let run = || {
            let mut faulty = FaultyTransport::new(
                fault_loopback(&hosts, 25_000_000),
                WorldRng::new(seed),
                Round(3),
                intensity,
            );
            let (obs, stats) = scanner.scan_round(Round(3), &t, &mut faulty);
            (obs, stats, faulty.stats)
        };
        let (obs_a, stats_a, fstats_a) = run();
        let (obs_b, stats_b, fstats_b) = run();
        prop_assert_eq!(obs_a, obs_b);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(fstats_a, fstats_b);
    }
}

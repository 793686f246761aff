//! The three campaign workloads and the round-kind classifier.

use fbs_core::{CampaignConfig, CheckpointPolicy};
use fbs_netsim::{IbrConfig, VantageSpec, World, WorldScale};
use fbs_types::Round;

/// A benchmarked campaign shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small world, default config, one thread, checkpointed with the
    /// default policy, crashed and resumed mid-run.
    SmallDurable,
    /// Paper-scale world, default config, one thread, in memory, across
    /// three month rollovers.
    PaperMemory,
    /// Small world, three-vantage roster plus IBR, two threads, in memory.
    SmallRoster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SmallDurable,
        Workload::PaperMemory,
        Workload::SmallRoster,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallDurable => "small-durable",
            Workload::PaperMemory => "paper-memory",
            Workload::SmallRoster => "small-roster",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> WorldScale {
        match self {
            Workload::PaperMemory => WorldScale::Paper,
            Workload::SmallDurable | Workload::SmallRoster => WorldScale::Small,
        }
    }

    /// Rounds per campaign. `paper-memory` needs 1,082 rounds to reach the
    /// third month rollover (2022-06-01). The small workloads cross three
    /// rollovers too: with 600 rounds, how much work a campaign holds
    /// depended on the seed's scenario by up to 30%.
    fn rounds(self) -> u32 {
        match self {
            Workload::SmallDurable => 1_200,
            Workload::PaperMemory => 1_100,
            Workload::SmallRoster => 1_200,
        }
    }

    /// The campaign configuration, with the worker count fixed here and
    /// never taken from the host.
    pub fn config(self) -> CampaignConfig {
        let mut cfg = CampaignConfig::default();
        match self {
            Workload::SmallDurable | Workload::PaperMemory => cfg.threads = 1,
            Workload::SmallRoster => {
                cfg.vantages = ["kyiv", "warsaw", "frankfurt"]
                    .into_iter()
                    .map(VantageSpec::new)
                    .collect();
                cfg.ibr = Some(IbrConfig::default());
                cfg.threads = 2.min(nproc());
            }
        }
        cfg
    }
}

/// The host's available parallelism, reported with every result.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one process of the benchmark runs: a workload with its scale and
/// round count, which the self-test shrinks.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub scale: WorldScale,
    pub rounds: u32,
    /// Checkpoint policy of the durable workload.
    pub policy: Option<CheckpointPolicy>,
    /// Completed rounds at which the durable workload drops its runner.
    pub crash_at: Option<u32>,
}

impl Plan {
    /// The plan of `workload`, optionally at another scale or length.
    pub fn new(
        workload: Workload,
        scale: Option<WorldScale>,
        rounds: Option<u32>,
    ) -> Result<Plan, String> {
        let rounds = rounds.unwrap_or(workload.rounds());
        let (policy, crash_at) = if workload == Workload::SmallDurable {
            let policy = CheckpointPolicy::default();
            let crash = crash_round(rounds, policy.snapshot_every).ok_or_else(|| {
                format!(
                    "{rounds} rounds leave no crash round after the first snapshot (every {})",
                    policy.snapshot_every
                )
            })?;
            (Some(policy), Some(crash))
        } else {
            (None, None)
        };
        Ok(Plan {
            workload,
            scale: scale.unwrap_or(workload.scale()),
            rounds,
            policy,
            crash_at,
        })
    }
}

/// The crash point of a durable run: half a snapshot interval past the
/// last snapshot before mid-run, so resume loads a snapshot *and* replays
/// journal records. `None` when the run is too short to hold one.
pub fn crash_round(rounds: u32, snapshot_every: u32) -> Option<u32> {
    if snapshot_every < 2 {
        return None;
    }
    let snapshots_before_mid = (rounds / 2) / snapshot_every;
    let crash = snapshots_before_mid.max(1) * snapshot_every + snapshot_every / 2;
    (crash < rounds).then_some(crash)
}

/// The cost class of one `step_round` call. Classes never overlap, so no
/// percentile mixes a snapshot round with an ordinary one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// Measure, merge, apply and (when durable) one WAL append + fsync.
    Ordinary,
    /// The first round of a campaign month: eligibility and baselines are
    /// recomputed for every block.
    Month,
    /// The round after which the checkpoint store writes a full snapshot
    /// (`completed % snapshot_every == 0`); takes precedence over `Month`.
    Snapshot,
}

impl RoundKind {
    /// The name used in trace spans and metric names.
    pub fn name(self) -> &'static str {
        match self {
            RoundKind::Ordinary => "ordinary",
            RoundKind::Month => "month",
            RoundKind::Snapshot => "snapshot",
        }
    }
}

/// Classifies every round of `world` from `World::month_index` and the
/// snapshot cadence (`None` for in-memory runs).
pub fn classify(world: &World, snapshot_every: Option<u32>) -> Vec<RoundKind> {
    (0..world.rounds())
        .map(|r| {
            let completed = r + 1;
            if snapshot_every.is_some_and(|n| n > 0 && completed.is_multiple_of(n)) {
                RoundKind::Snapshot
            } else if r == 0 || world.month_index(Round(r)) != world.month_index(Round(r - 1)) {
                RoundKind::Month
            } else {
                RoundKind::Ordinary
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_round_is_never_a_snapshot_boundary() {
        let every = CheckpointPolicy::default().snapshot_every;
        for w in Workload::ALL {
            let plan = Plan::new(w, None, None).unwrap();
            assert_eq!(plan.crash_at.is_some(), w == Workload::SmallDurable);
            if let Some(c) = plan.crash_at {
                assert!(
                    !c.is_multiple_of(every) && c > every && c < plan.rounds,
                    "{c}"
                );
            }
        }
        for rounds in [130, 300, 1_000, 6_000, 13_069] {
            let c = crash_round(rounds, every).unwrap();
            assert!(!c.is_multiple_of(every) && c < rounds, "{rounds}: {c}");
        }
        assert_eq!(crash_round(100, every), None);
    }

    #[test]
    fn every_workload_fixes_its_threads() {
        for w in Workload::ALL {
            let threads = w.config().threads;
            assert!(threads >= 1 && threads <= nproc().max(1));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::PaperMemory.config().threads, 1);
        assert_eq!(Workload::SmallDurable.config().threads, 1);
    }

    #[test]
    fn classifier_counts_match_month_index_and_cadence() {
        let world = fbs_scenarios::ukraine_with_rounds(WorldScale::Tiny, 3, 1_100)
            .into_world()
            .unwrap();
        let months: std::collections::BTreeSet<u32> =
            (0..1_100).map(|r| world.month_index(Round(r))).collect();
        let count = |kinds: &[RoundKind], k| kinds.iter().filter(|x| **x == k).count();

        let memory = classify(&world, None);
        assert!(months.len() >= 4, "1,100 rounds cross three rollovers");
        assert_eq!(count(&memory, RoundKind::Month), months.len());
        assert_eq!(count(&memory, RoundKind::Snapshot), 0);

        let durable = classify(&world, Some(84));
        let snapshots = count(&durable, RoundKind::Snapshot);
        assert_eq!(snapshots, 1_100 / 84);
        let month_on_snapshot = (0..1_100u32)
            .filter(|&r| memory[r as usize] == RoundKind::Month && (r + 1).is_multiple_of(84))
            .count();
        assert_eq!(
            count(&durable, RoundKind::Month),
            months.len() - month_on_snapshot
        );
        assert_eq!(
            count(&durable, RoundKind::Ordinary),
            1_100 - snapshots - count(&durable, RoundKind::Month)
        );
    }
}

//! Multi-vantage scanning: the same campaign measured from three vantage
//! points with independent path conditions, fused by quorum before
//! detection.
//!
//! One vantage is clean, one sits behind a congested path (steady 50%
//! reply loss and extra latency), and one blacks out completely for a
//! third of the campaign. The quorum masks the dead vantage, outvotes the
//! lossy one where their views differ, and the per-vantage ledgers plus
//! the disagreement summary show exactly what each path saw.
//!
//! ```sh
//! cargo run --release --example multi_vantage
//! ```

#![forbid(unsafe_code)]

use ukraine_fbs::core::dataset::vantage_disagreement_csv;
use ukraine_fbs::netsim::{FaultIntensity, FaultPlan, VantageSpec, Window};
use ukraine_fbs::prelude::*;

fn main() {
    let rounds = 300 * 12 / 10; // one month at 12 rounds/day keeps it quick
    let scenario = scenarios::ukraine_with_rounds(WorldScale::Tiny, 42, rounds);
    let world = scenario.into_world().expect("scenario is valid");
    println!(
        "world: {} ASes, {} /24 blocks, {} two-hour rounds",
        world.config().ases.len(),
        world.blocks().len(),
        world.rounds()
    );

    // The roster. Names key each vantage's independent fault-RNG domain,
    // so adding or reordering other vantages never changes one's draws.
    let dark_window = rounds / 3..2 * rounds / 3;
    let blackout = FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "frankfurt-dark",
            dark_window.clone(),
            FaultIntensity {
                reply_loss: 1.0,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    };
    let congested = FaultPlan::constant(FaultIntensity {
        reply_loss: 0.50,
        ..FaultIntensity::default()
    });
    let cfg = CampaignConfig::with_vantages(vec![
        VantageSpec::new("kyiv"),
        VantageSpec {
            path_rtt_ns: 25_000_000,
            fault_plan: Some(congested),
            ..VantageSpec::new("warsaw")
        },
        VantageSpec {
            fault_plan: Some(blackout),
            ..VantageSpec::new("frankfurt")
        },
    ]);
    println!(
        "roster: kyiv (clean), warsaw (50% loss, +25 ms path), frankfurt (dark rounds {}..{})\n",
        dark_window.start, dark_window.end
    );

    let campaign = Campaign::new(world, cfg).expect("valid config");
    let report = campaign.run().expect("campaign run");

    println!(
        "detected {} AS-level outage events across {} ASes",
        report.total_as_outages(),
        report.ases_with_outages()
    );

    // Per-vantage quality ledgers: the blackout is visible here even
    // though fusion routed detection around it.
    println!("\nvantage ledgers:");
    for v in &report.vantages {
        let snr = v
            .snr()
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<10} usable {:>4}  degraded {:>4}  unusable {:>4}  dissent block-rounds {:>6}  SNR {snr}",
            v.name,
            v.usable_rounds(),
            v.degraded_rounds(),
            v.unusable_rounds(),
            v.dissent_block_rounds,
        );
    }

    let d = &report.disagreement;
    println!(
        "\ndisagreement: {} rounds touched, {} block-rounds reachable-from-some-but-not-all, {} minority claims suppressed",
        d.rounds_with_disagreement, d.some_not_all_block_rounds, d.quorum_suppressed_block_rounds
    );

    // The CSV the campaign exports alongside the detection datasets.
    println!("\nvantage_disagreement.csv:");
    for line in vantage_disagreement_csv(&report).lines() {
        println!("  {line}");
    }
}

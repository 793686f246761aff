//! Passive degradation: when every vantage goes dark at once, the darknet
//! keeps detection alive.
//!
//! A quiet one-AS world carries a scripted 3-day BGP outage — but all
//! three scanning vantages black out for a 20-day window around it, so no
//! active measurement exists while the outage happens. The passive
//! background-radiation signal (Chocolatine-style: a seasonal-median
//! predictor over per-AS darknet volume) still catches it, with zero
//! false positives, and the per-round passive ledger exports as
//! `ibr_signal.csv`.
//!
//! ```sh
//! cargo run --release --example passive_degradation
//! ```

#![forbid(unsafe_code)]

use ukraine_fbs::core::dataset::ibr_signal_csv;
use ukraine_fbs::netsim::{
    AsProfile, AsSpec, BlockSpec, EventKind, EventTarget, FaultIntensity, FaultPlan, IbrConfig,
    Script, ScriptedEvent, VantageSpec, Window, World, WorldConfig, WorldScale,
};
use ukraine_fbs::prelude::*;
use ukraine_fbs::types::{Oblast, Prefix};

const ROUNDS: u32 = 600; // 50 days at 12 rounds/day
const VANTAGE_DARK: std::ops::Range<u32> = 200..440;
const OUTAGE: std::ops::Range<u32> = 300..340;

fn main() {
    // A deliberately quiet world: one regional AS, eight well-populated
    // blocks, no diurnal swing — the only disruption is the scripted one.
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
    let mut script = Script::new();
    script.push(ScriptedEvent {
        name: "cable-cut".into(),
        target: EventTarget::As(asn),
        kind: EventKind::BgpOutage,
        start: Round(OUTAGE.start).start(),
        end: Some(Round(OUTAGE.end).start()),
    });
    let world = World::new(
        WorldConfig {
            seed: 42,
            scale: WorldScale::Tiny,
            rounds: ROUNDS,
            ases: vec![AsSpec {
                asn,
                name: "passive-demo".into(),
                profile: AsProfile::Regional,
                hq: Some(Oblast::Kherson),
                prefixes: blocks.iter().map(|b| Prefix::from_block(b.block)).collect(),
                base_rtt_ns: 40_000_000,
                upstream: Asn(1),
            }],
            blocks,
        },
        script,
        vec![],
    )
    .expect("valid config");

    // Every vantage behind the same blackout: the active side is blind
    // over the whole window — including the scripted outage inside it.
    let blackout = FaultPlan {
        baseline: FaultIntensity::default(),
        windows: vec![Window::over_rounds(
            "all-vantages-dark",
            VANTAGE_DARK,
            FaultIntensity {
                reply_loss: 1.0,
                ..FaultIntensity::default()
            },
        )]
        .into(),
    };
    let mut cfg = CampaignConfig::with_vantages(
        ["kyiv", "warsaw", "frankfurt"]
            .into_iter()
            .map(|name| VantageSpec {
                fault_plan: Some(blackout.clone()),
                ..VantageSpec::new(name)
            })
            .collect(),
    );
    cfg.ibr = Some(IbrConfig::default());

    println!(
        "scripted outage: rounds {}..{}; all vantages dark: rounds {}..{}",
        OUTAGE.start, OUTAGE.end, VANTAGE_DARK.start, VANTAGE_DARK.end
    );
    let report = Campaign::new(world, cfg)
        .expect("valid config")
        .run()
        .expect("campaign run");

    println!(
        "\nactive side:  {} unusable rounds, {} AS-level outage events (blind through the blackout)",
        report.unusable_rounds(),
        report.total_as_outages(),
    );
    println!(
        "passive side: {} outage event(s) from the darknet alone:",
        report.total_ibr_outages()
    );
    for ledger in &report.ibr {
        for e in &ledger.events {
            println!(
                "  AS{}: rounds {}..{} ({} rounds, min volume/prediction ratio {:.3})",
                ledger.asn.0,
                e.start.0,
                e.end.0,
                e.rounds(),
                e.min_ratio
            );
        }
        let snr = ledger
            .snr()
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  AS{} ledger: {} observed rounds, {} dark, volume SNR {snr}",
            ledger.asn.0,
            ledger.observed_rounds(),
            ledger.dark_rounds()
        );
    }

    // The dataset the campaign exports alongside the active CSVs.
    let csv = ibr_signal_csv(&report);
    let path = std::path::Path::new("target/ibr_signal.csv");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, &csv) {
        Ok(()) => println!("\nwrote {}:", path.display()),
        Err(e) => println!("\ncould not write {}: {e}; contents:", path.display()),
    }
    for line in csv.lines() {
        println!("  {line}");
    }
}

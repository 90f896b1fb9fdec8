//! Quickstart: build the ARCHER2 facility, print its hardware and power
//! budget (Tables 1–2 of the paper), then simulate one week of production
//! and report the compute-cabinet power draw.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use archer2_repro::core::campaign::{Campaign, CampaignConfig};
use archer2_repro::core::experiment;
use archer2_repro::core::facility::Archer2Facility;
use archer2_repro::prelude::*;
use archer2_repro::workload::OperatingPoint;

fn main() {
    // --- Table 1: what the machine is -----------------------------------
    println!("=== ARCHER2 hardware summary (Table 1) ===");
    println!("{}", experiment::table1());
    println!();

    // --- Table 2: where the power goes -----------------------------------
    println!("=== Per-component power budget (Table 2) ===");
    println!("{}", experiment::table2(2022).render());

    // --- One simulated week of production -------------------------------
    // Scale 10 keeps the example fast; reported kilowatts are full-facility.
    let facility = experiment::scaled_facility(2022, 10);
    let scale_up = 5860.0 / facility.nodes() as f64;
    let start = SimTime::from_ymd(2022, 1, 10);
    let mut campaign = Campaign::new(
        facility,
        CampaignConfig::default(),
        start,
        OperatingPoint::ORIGINAL,
    );
    println!("simulating one week of production workload...");
    campaign.run_until(start + SimDuration::from_days(7));

    let power = campaign.power_series();
    let mean_kw = power.mean() * scale_up;
    let (started, _) = campaign.job_counts();
    println!();
    println!("=== One week of simulated production ===");
    println!("jobs started:                {started}");
    println!("utilisation:                 {:.1}%", campaign.utilisation() * 100.0);
    println!("mean compute-cabinet power:  {mean_kw:.0} kW (paper baseline: 3,220 kW)");
    println!(
        "energy used by compute cabinets: {:.0} MWh",
        power.integral_unit_hours() * scale_up / 1000.0
    );

    // --- And what the full facility looks like closed-form ---------------
    let full = Archer2Facility::new(2022);
    let loaded = full.loaded_budget(OperatingPoint::ORIGINAL);
    println!();
    println!(
        "closed-form fully-loaded facility: {:.0} kW ({:.0}% in compute nodes)",
        loaded.total_kw(),
        100.0 * loaded.nodes_kw / loaded.total_kw()
    );
}

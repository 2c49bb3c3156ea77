//! SSD lifetime under continuous DNN training (the paper's §7.7).
//!
//! Runs the Figure-11 workloads under DeepUM+, FlashNeuron and G10, measures
//! how many bytes each design writes to the flash per iteration, and feeds
//! the write rates into the drive-writes-per-day endurance model of the
//! Samsung Z-SSD.  The endurance rating already assumes the vendor's
//! write amplification, so the flash is not simulated below the bandwidth
//! channels the replay charges migrations on.
//!
//! Run with: `cargo run --release --example ssd_lifetime`

use g10::prelude::*;
use g10::ssd::EnduranceModel;

fn main() -> Result<(), SimError> {
    let config = SystemConfig::table2();
    let endurance = EnduranceModel::samsung_z_ssd();

    println!("SSD write traffic and projected lifetime (continuous training):\n");
    println!(
        "{:<12} {:<12} {:>16} {:>14} {:>12}",
        "model", "policy", "writes/iter (GB)", "write rate", "lifetime"
    );
    for model in [ModelKind::Bert, ModelKind::InceptionV3, ModelKind::SENet154] {
        let workload = Workload::new(model, model.eval_batch());
        let reports = Experiment::new(&workload).config(config).policies([
            PolicyKind::DeepUmPlus,
            PolicyKind::FlashNeuron,
            PolicyKind::G10Full,
        ])?;
        for report in &reports {
            let writes = report.ssd_write_bytes() as f64;
            let rate = writes / report.total_time.as_secs_f64();
            println!(
                "{:<12} {:<12} {:>16.1} {:>11.2} GB/s {:>9.1} yr",
                model.name(),
                report.policy,
                writes / 1e9,
                rate / 1e9,
                endurance.lifetime_years(rate),
            );
        }
        println!();
    }

    Ok(())
}

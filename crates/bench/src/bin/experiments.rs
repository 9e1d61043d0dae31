//! Experiment driver: regenerate any (or all) of the paper's tables
//! and figures.
//!
//! ```text
//! cargo run --release -p locktune-bench --bin experiments -- all
//! cargo run --release -p locktune-bench --bin experiments -- fig9 fig11
//! ```
//!
//! CSV series land in `results/<id>.csv`.

use std::path::PathBuf;
use std::process::ExitCode;

use locktune_bench::experiments::{self, EXPERIMENTS};
use locktune_bench::Report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reports: Vec<Result<Report, &str>> = if args.is_empty() || args.iter().any(|a| a == "all") {
        experiments::all().into_iter().map(Ok).collect()
    } else {
        args.iter()
            .map(|id| match EXPERIMENTS.iter().find(|(name, _)| name == id) {
                Some((_, run)) => Ok(run()),
                None => Err(id.as_str()),
            })
            .collect()
    };

    let out_dir = PathBuf::from("results");
    let mut failures = 0;
    for report in reports {
        let report = match report {
            Ok(report) => report,
            Err(id) => {
                eprintln!("unknown experiment: {id}");
                failures += 1;
                continue;
            }
        };
        print!("{}", report.render());
        if let Err(e) = report.write_csv(&out_dir) {
            eprintln!("  (csv write failed: {e})");
        } else if !report.series.is_empty() {
            println!("  -> results/{}.csv", report.id);
        }
        println!();
        if !report.all_pass() {
            failures += 1;
        }
    }
    if failures == 0 {
        println!("all experiments match the paper's shape");
        ExitCode::SUCCESS
    } else {
        println!("{failures} experiment(s) diverged from the paper — see DIFF lines above");
        ExitCode::from(1)
    }
}

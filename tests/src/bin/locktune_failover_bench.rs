//! Failover recovery bench: how fast does the cluster detect a dead
//! node, reassign its partition, and restore full service after the
//! node rejoins? Each trial is one [`failover::drill`] with two storm
//! workers; its three times are polled from the published epoch map
//! at millisecond granularity.
//!
//! Prints one CSV row per trial and a JSON summary (medians per node
//! count), and writes them to `--out-csv` / `--out-json` when given.
//! Nothing is written by default; the committed figures regenerate
//! with `--out-csv results/failover_recovery.csv --out-json
//! BENCH_failover.json` (EXPERIMENTS "Failover recovery").

use std::process::exit;
use std::time::Duration;

use locktune_cli::fail;
use locktune_cluster::SupervisorConfig;
use locktune_integration_tests::failover;
use locktune_metrics::percentile;
use locktune_service::txn::TxnOutcome;

const USAGE: &str = "usage: locktune-failover-bench [options]
  --nodes A,B,...        cluster sizes to bench (default 2,4)
  --trials N             trials per cluster size (default 5)
  --probe-interval-ms N  supervisor probe interval (default 25)
  --seed N               workload seed (default 42)
  --out-csv PATH         also write the per-trial rows to PATH
  --out-json PATH        also write the median summary to PATH";

locktune_cli::config! {
    Args {
        node_counts: Vec<usize> = vec![2, 4], list "--nodes";
        trials: u64 = 5, value "--trials";
        probe_interval_ms: u64 = 25, value "--probe-interval-ms";
        seed: u64 = 42, value "--seed";
        out_csv: Option<String> = None, opt "--out-csv";
        out_json: Option<String> = None, opt "--out-json";
    }
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    a.flags().help(USAGE).parse(args)?;
    if a.node_counts.iter().any(|&n| n < 2) {
        return Err("--nodes entries must be >= 2 (someone must survive)".into());
    }
    if a.trials == 0 {
        return Err("--trials must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = parse(std::env::args().skip(1))
        .unwrap_or_else(|e| fail("locktune-failover-bench", format!("{e}\n{USAGE}"), 2));
    let probe = Duration::from_millis(args.probe_interval_ms.max(1));
    let mut rows = String::from(
        "nodes,trial,detect_ms,reassign_ms,full_service_ms,final_epoch,\
         committed,committed_degraded,unavailable_items\n",
    );
    let mut summaries = Vec::new();
    for &n in &args.node_counts {
        let mut times = [vec![], vec![], vec![]];
        let mut degraded_total = 0;
        for trial in 0..args.trials {
            let r = failover::drill(n, 2, args.seed ^ (trial << 8), probe);
            let ms = [r.detect, r.reassign, r.full_service].map(|d| d.as_millis() as u64);
            let [detect, reassign, full] = ms;
            let (epoch, degraded, t) = (r.final_map.epoch, r.committed_degraded, &r.tally);
            let (committed, unavailable) = (t.get(TxnOutcome::Committed), t.unavailable_items);
            rows.push_str(&format!(
                "{n},{trial},{detect},{reassign},{full},{epoch},{committed},{degraded},{unavailable}\n"
            ));
            degraded_total += r.committed_degraded;
            times.iter_mut().zip(ms).for_each(|(xs, x)| xs.push(x));
        }
        if degraded_total == 0 {
            eprintln!("FAILED: {n} nodes: no degraded-mode commits across any trial");
            exit(1);
        }
        let [detect, reassign, full] = times.map(|mut xs| {
            xs.sort_unstable();
            percentile(&xs, 0.5).expect("trials > 0")
        });
        summaries.push(format!(
            "{{\"nodes\":{n},\"trials\":{},\"detect_ms_p50\":{detect},\
             \"reassign_ms_p50\":{reassign},\"full_service_ms_p50\":{full},\
             \"degraded_commits\":{degraded_total}}}",
            args.trials,
        ));
    }

    let sup = SupervisorConfig::default();
    let json = format!(
        "{{\"bench\":\"failover_recovery\",\"probe_interval_ms\":{},\
         \"suspect_after\":{},\"down_after\":{},\"seed\":{},\"clusters\":[{}]}}\n",
        args.probe_interval_ms,
        sup.suspect_after,
        sup.down_after,
        args.seed,
        summaries.join(",")
    );
    print!("{rows}{json}");
    for (path, body) in [(&args.out_csv, &rows), (&args.out_json, &json)] {
        let Some(path) = path else { continue };
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("write {path}: {e}");
            exit(1);
        }
        println!("wrote {path}");
    }
}

//! **Perf-smoke gate** for the scheduled perf workflow.
//!
//! Compares freshly measured metrics against the committed baseline
//! (`results/perf_baseline.json`) and exits non-zero when any metric
//! regressed by more than the tolerance (default 25%, override with
//! `PERF_SMOKE_TOLERANCE`, a fraction). Gated metrics:
//!
//! * the single-thread exp1 validation-phase and partition-generation
//!   times per dataset (`results/exp1_validation.json`);
//! * the serving layer's delete-wave maintenance time and p99 read latency
//!   during maintenance (`results/exp10_serving.json`).
//!
//! Fresh files are the unified `fastod.metrics.v1` [`MetricsSnapshot`]
//! JSON every `exp*` bin now emits — gate gauges keep their historical
//! bare names, and the snapshot's counters/histograms ride along for
//! context without being gated (only baseline keys are compared). Files in
//! the older flat `{"name": ms}` shape (like a not-yet-refreshed committed
//! baseline) still parse via the fallback in
//! [`fastod_bench::parse_metrics_json`].
//!
//! Absolute times are hardware-bound: the committed baseline must come from
//! the same runner class the weekly job uses. Refresh it by merging a green
//! run's `exp1_validation.json` + `exp10_serving.json` artifacts into
//! `results/perf_baseline.json` (either format works as a baseline).
//!
//! Usage: `perf_smoke [baseline.json] [fresh.json]...` — every baseline
//! metric must appear in the union of the fresh files (defaults to the
//! exp1 + exp10 paths above).
//!
//! [`MetricsSnapshot`]: fastod_obs::MetricsSnapshot

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .unwrap_or_else(|| "results/perf_baseline.json".to_string());
    let fresh_paths: Vec<String> = {
        let rest: Vec<String> = args.collect();
        if rest.is_empty() {
            vec![
                "results/exp1_validation.json".to_string(),
                "results/exp10_serving.json".to_string(),
            ]
        } else {
            rest
        }
    };
    let tolerance: f64 = std::env::var("PERF_SMOKE_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    let read = |path: &str| -> Option<Vec<(String, f64)>> {
        match std::fs::read_to_string(path) {
            Ok(text) => Some(fastod_bench::parse_metrics_json(&text)),
            Err(e) => {
                eprintln!("perf_smoke: cannot read {path}: {e}");
                None
            }
        }
    };
    let Some(baseline) = read(&baseline_path) else {
        return ExitCode::FAILURE;
    };
    let mut fresh: Vec<(String, f64)> = Vec::new();
    for path in &fresh_paths {
        match read(path) {
            Some(entries) => fresh.extend(entries),
            None => return ExitCode::FAILURE,
        }
    }
    if baseline.is_empty() || fresh.is_empty() {
        eprintln!("perf_smoke: empty baseline or fresh measurements");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut compared = 0;
    for (name, base_ms) in &baseline {
        let Some((_, fresh_ms)) = fresh.iter().find(|(n, _)| n == name) else {
            eprintln!("perf_smoke: metric {name} missing from fresh run — failing");
            failed = true;
            continue;
        };
        compared += 1;
        let ratio = fresh_ms / base_ms;
        let verdict = if *fresh_ms > base_ms * (1.0 + tolerance) {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "perf_smoke: {name}: baseline {base_ms:.1}ms, fresh {fresh_ms:.1}ms \
             ({ratio:.2}x) — {verdict}"
        );
    }
    if compared == 0 {
        eprintln!("perf_smoke: no overlapping metrics to compare");
        return ExitCode::FAILURE;
    }
    if failed {
        eprintln!(
            "perf_smoke: at least one metric regressed > {:.0}% against the baseline",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!("perf_smoke: all metrics within {:.0}% of baseline", tolerance * 100.0);
    ExitCode::SUCCESS
}

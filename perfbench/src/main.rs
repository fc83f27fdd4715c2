//! `perfbench`: the in-process side of the FASTOD benchmark. `run.py`
//! times the `fastod` binary itself and calls these commands for
//! everything that needs the library:
//!
//! ```text
//! perfbench gen <workload> <seed> <dir>       write the workload's CSV inputs
//! perfbench calib                             time the host-speed reference kernel
//! perfbench check <csv> <cover>               re-check every OD of a cover
//! perfbench trace <csv> <cover-out> <trace-out> <run-id>
//!                                             traced in-process one-shot run
//! perfbench serve <base> <pool> <seed> <loops> <trace-out|-> <run-id>
//!                                             the serve_mix traffic
//! ```
//!
//! Each command prints one JSON object on stdout and exits 1 on error.

mod calib;
mod gen;
mod oneshot;
mod report;
mod serve_mix;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn parse<T: std::str::FromStr>(arg: Option<&String>, what: &str) -> Result<T, String> {
    arg.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let io = |r: std::io::Result<()>| r.map_err(|e| format!("writing inputs: {e}"));
    match workload {
        "ingest_tall" => io(gen::write_tall(&dir.join("input.csv"), seed)),
        "flight_lattice" => io(gen::write_flight(&dir.join("input.csv"), seed)),
        "ncvoter_validate" => io(gen::write_ncvoter(&dir.join("input.csv"), seed)),
        "serve_mix" => io(gen::write_serve(
            &dir.join("base.csv"),
            &dir.join("pool.csv"),
            seed,
        )),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: &[String]) -> Result<Option<report::Report>, String> {
    let path = |i: usize| {
        args.get(i)
            .map(PathBuf::from)
            .ok_or("missing path argument")
    };
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = args.get(1).ok_or("missing workload")?;
            generate(workload, parse(args.get(2), "seed")?, &path(3)?)?;
            Ok(None)
        }
        Some("calib") => {
            let mut r = report::Report::default();
            r.num("host_factor", calib::host_factor());
            Ok(Some(r))
        }
        Some("check") => oneshot::check(&path(1)?, &path(2)?).map(Some),
        Some("trace") => oneshot::traced(
            &path(1)?,
            &path(2)?,
            &path(3)?,
            parse(args.get(4), "run id")?,
        )
        .map(Some),
        Some("serve") => {
            let seed = parse(args.get(3), "seed")?;
            let loops = parse(args.get(4), "loops")?;
            let trace_out = path(5)?;
            let trace_out = (trace_out.as_os_str() != "-").then_some(trace_out.as_path());
            let run_id = parse(args.get(6), "run id")?;
            serve_mix::run(&path(1)?, &path(2)?, seed, loops, trace_out, run_id).map(Some)
        }
        _ => {
            Err("usage: perfbench gen|calib|check|trace|serve ... (see the crate docs)".to_string())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            if let Some(report) = report {
                println!("{}", report.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The one-shot workloads' in-process side: re-checking every OD the
//! `fastod` binary printed, and the traced run of the same pipeline.

use crate::report::Report;
use crate::trace::Tracer;
use fastod::{DiscoveryConfig, Fastod};
use fastod_relation::csv::{read_csv_file_opts, CsvOptions};
use fastod_relation::{AttrSet, EncodedRelation, Schema};
use fastod_theory::repair::check_od;
use fastod_theory::CanonicalOd;
use std::path::Path;

fn load(csv: &Path) -> Result<EncodedRelation, String> {
    let rel = read_csv_file_opts(
        csv,
        CsvOptions {
            has_header: true,
            null_policy: None,
        },
    )
    .map_err(|e| format!("reading {}: {e}", csv.display()))?;
    Ok(rel.encode())
}

/// Parses one line of `fastod`'s cover output: `{a,b}: [] -> c` or
/// `{a}: b ~ c`.
fn parse_od(line: &str, schema: &Schema) -> Result<CanonicalOd, String> {
    let bad = || format!("unparseable cover line {line:?}");
    let attr = |name: &str| schema.attr_id(name.trim()).ok_or_else(bad);
    let (ctx, rhs) = line.split_once("}: ").ok_or_else(bad)?;
    let mut context = AttrSet::EMPTY;
    for name in ctx
        .strip_prefix('{')
        .ok_or_else(bad)?
        .split(',')
        .filter(|n| !n.is_empty())
    {
        context = context.with(attr(name)?);
    }
    match rhs.strip_prefix("[] -> ") {
        Some(c) => Ok(CanonicalOd::constancy(context, attr(c)?)),
        None => {
            let (a, b) = rhs.split_once(" ~ ").ok_or_else(bad)?;
            Ok(CanonicalOd::order_compat(context, attr(a)?, attr(b)?))
        }
    }
}

/// Checks every OD in `cover` against the encoded input.
pub fn check(csv: &Path, cover: &Path) -> Result<Report, String> {
    let enc = load(csv)?;
    let text = std::fs::read_to_string(cover).map_err(|e| format!("reading cover: {e}"))?;
    let (mut ods, mut violated) = (0u64, 0u64);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let od = parse_od(line, enc.schema())?;
        ods += 1;
        if !check_od(&enc, &od, 1).holds {
            violated += 1;
            eprintln!("cover member does not hold on the input: {line}");
        }
    }
    let mut report = Report::default();
    report.int("ods", ods);
    report.int("violated", violated);
    Ok(report)
}

/// The traced run: the same pipeline as `fastod FILE --threads 1`, driven
/// through the public calls with a span around each layer and the
/// program's `Obs` spans attached beneath discovery.
pub fn traced(
    csv: &Path,
    cover_out: &Path,
    trace_out: &Path,
    run: String,
) -> Result<Report, String> {
    let mut tr = Tracer::new(run);
    let root = tr.open("run");
    let opts = CsvOptions {
        has_header: true,
        null_policy: None,
    };
    let rel = tr
        .time("relation.parse", || read_csv_file_opts(csv, opts))
        .map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let enc = tr.time("relation.encode", || rel.encode());
    let tap = tr.tap();
    let discover = tr.open("core.discover");
    let result = Fastod::new(
        DiscoveryConfig::default()
            .with_threads(1)
            .with_obs(tap.obs.clone()),
    )
    .try_discover(&enc)
    .map_err(|e| format!("discovery failed: {e}"))?;
    tr.import(&tap);
    tr.close(discover);
    let names = enc.schema().names();
    tr.time("theory.output", || {
        let mut out = String::new();
        for od in result.ods.sorted() {
            out.push_str(&od.display(names));
            out.push('\n');
        }
        std::fs::write(cover_out, out)
    })
    .map_err(|e| format!("writing cover: {e}"))?;
    tr.close(root);
    tr.write_jsonl(trace_out)
        .map_err(|e| format!("writing trace: {e}"))?;

    let layers = tr.layer_self_s();
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let wall = tr.dur_s(root);
    let stats = &result.stats;
    let sum =
        |f: fn(&fastod::LevelStats) -> usize| stats.levels.iter().map(f).sum::<usize>() as u64;
    let parse_s = layer("relation.parse");
    let bytes = std::fs::metadata(csv).map_err(|e| e.to_string())?.len();
    let mut r = Report::default();
    r.num("traced_wall_s", wall);
    r.num("trace.coverage", layers.values().sum::<f64>() / wall);
    r.num("relation.parse_s", parse_s);
    r.num("relation.encode_s", layer("relation.encode"));
    r.num("relation.parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
    r.num("relation.encoded_mb", enc.memory_bytes() as f64 / 1e6);
    r.num("core.level1_s", layer("core.level1"));
    r.num("core.candidates_s", layer("core.candidates"));
    r.num("core.validate_s", layer("core.validate"));
    r.num("core.generate_s", layer("core.generate"));
    r.num("core.discover_s", tr.dur_s(discover));
    r.num("theory.output_s", layer("theory.output"));
    // Every node above level 1 is built as the product of two parents.
    let level1_nodes = stats.levels.first().map_or(0, |l| l.nodes) as u64;
    r.int("partition.products", sum(|l| l.nodes) - level1_nodes);
    r.int("core.nodes", sum(|l| l.nodes));
    r.int("core.pruned_nodes", sum(|l| l.pruned_nodes));
    r.int("core.fd_checks", sum(|l| l.fd_checks));
    r.int("core.fd_checks_key_pruned", sum(|l| l.fd_checks_key_pruned));
    r.int("core.swap_checks", sum(|l| l.swap_checks));
    r.int("core.ods", result.ods.len() as u64);
    for (layer, s) in &layers {
        r.num(&format!("self.{layer}"), *s);
    }
    Ok(r)
}

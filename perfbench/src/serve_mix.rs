//! The `serve_mix` workload: a `Server` session over a flight-like base
//! table, one closed-loop writer (append, delete, update per round, no
//! think time) and one closed-loop reader (a snapshot load plus one cover
//! query, 500 µs think time).

use crate::gen::Rng;
use crate::report::Report;
use crate::trace::Tracer;
use fastod::{DiscoveryConfig, Fastod};
use fastod_incremental::{BatchCounters, BatchReport};
use fastod_obs::Obs;
use fastod_relation::csv::{read_csv_file_opts, CsvOptions};
use fastod_relation::{AttrSet, Relation};
use fastod_serve::{RecoveryPolicy, ServeConfig, Server, Session};
use fastod_theory::CanonicalOd;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const APPEND_ROWS: usize = 200;
const DELETE_ROWS: usize = 100;
const UPDATE_ROWS: usize = 50;
const THINK: Duration = Duration::from_micros(500);
/// Each of append/delete/update runs once per round: 100 samples leave ten
/// beyond every p90.
const ROUNDS: usize = 100;
/// Rounds between two host-speed readings (see `calib`): about 2.5 s of
/// writer time on a quiet 2-vCPU host.
const SEGMENT_ROUNDS: usize = 25;
/// Set-ups before each writer loop; `setup_s` is the median of all.
const SETUP_REPS: usize = 8;
/// Seeded query specs the reader cycles through.
const QUERIES: usize = 64;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Append,
    Delete,
    Update,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Append => "append",
            Op::Delete => "delete",
            Op::Update => "update",
        }
    }
}

fn read(path: &Path) -> Result<Relation, String> {
    read_csv_file_opts(
        path,
        CsvOptions {
            has_header: true,
            null_policy: None,
        },
    )
    .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Reads the host factor (see `calib`) in a child process, so that the
/// kernel's memory stays out of this process's peak RSS.
fn host_factor() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .arg("calib")
        .output()
        .map_err(|e| format!("perfbench calib: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .strip_prefix("{\"host_factor\":")
        .and_then(|v| v.strip_suffix('}'))
        .and_then(|v| v.parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("perfbench calib printed {text:?}"))
}

/// This process's peak resident set size in MB (`VmHWM`), which leaves out
/// its children.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Nearest-rank percentile with the number of samples above it, or an
/// error when fewer than ten samples lie beyond it.
fn percentile(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    let beyond = v.len().saturating_sub(rank);
    if beyond < 10 {
        return Err(format!(
            "{what}: p{} over {} samples has {beyond} beyond it (needs 10)",
            q * 100.0,
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What the reader thread saw.
#[derive(Default)]
struct Reads {
    total_us: Vec<f64>,
    load_ns: Vec<f64>,
    query_us: Vec<f64>,
    epoch_regressions: u64,
}

fn reader(session: &Session, stop: &AtomicBool, seed: u64, n_attrs: usize) -> Reads {
    let mut rng = Rng::new(seed, 6);
    let mut pick = |n: usize| rng.below(n as u64) as usize;
    let specs: Vec<Vec<usize>> = (0..QUERIES)
        .map(|_| (0..2 + pick(3)).map(|_| pick(n_attrs)).collect())
        .collect();
    let ods: Vec<CanonicalOd> = (0..QUERIES)
        .map(|_| {
            let mut ctx = AttrSet::EMPTY;
            for _ in 0..pick(3) {
                ctx = ctx.with(pick(n_attrs));
            }
            match pick(2) {
                0 => CanonicalOd::constancy(ctx, pick(n_attrs)),
                _ => CanonicalOd::order_compat(ctx, pick(n_attrs), pick(n_attrs)),
            }
        })
        .collect();
    let mut out = Reads::default();
    let mut last_epoch = 0;
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(THINK);
        let t0 = Instant::now();
        let (epoch, snap) = session.read();
        let t1 = Instant::now();
        let answer = if i.is_multiple_of(2) {
            snap.simplify_order_by(&specs[(i / 2) % QUERIES]).len()
        } else {
            usize::from(snap.holds(&ods[(i / 2) % QUERIES]))
        };
        let t2 = Instant::now();
        std::hint::black_box(answer);
        if epoch < last_epoch {
            out.epoch_regressions += 1;
        }
        last_epoch = epoch;
        out.load_ns.push((t1 - t0).as_nanos() as f64);
        out.query_us.push((t2 - t1).as_secs_f64() * 1e6);
        out.total_us.push((t2 - t0).as_secs_f64() * 1e6);
        i += 1;
    }
    out
}

/// One mutation's outcome as the writer client saw it.
struct Done {
    op: Op,
    latency_ms: f64,
    report: BatchReport,
}

/// Failures, each counted once and described.
#[derive(Default)]
struct Failures {
    count: u64,
    messages: Vec<String>,
}

impl Failures {
    fn add(&mut self, n: u64, message: String) {
        self.count += n;
        self.messages.push(message);
    }
}

/// The writer's view of one loop: mutation outcomes, the wall time of each
/// segment of `SEGMENT_ROUNDS` rounds with the host factors read around
/// it, and the live rows as indices into `base ++ pool`.
struct Loop {
    segments_s: Vec<f64>,
    host: Vec<f64>,
    done: Vec<Done>,
    survivors: Vec<usize>,
    reads: Reads,
}

impl Loop {
    fn wall_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }

    /// The loop's wall time at reference host speed: each segment divided
    /// by the mean of the host factors read just before and after it.
    fn scaled_wall_s(&self) -> f64 {
        let factors = self.host.windows(2).map(|f| (f[0] + f[1]) / 2.0);
        self.segments_s
            .iter()
            .zip(factors)
            .map(|(s, f)| s / f)
            .sum()
    }
}

/// Runs the rounds against `session` beside one reader thread, pausing
/// the writer between segments to read the host factor; `host` is the
/// reading taken just before. Deletes and updates pick their victims among
/// the rows the client knows are live.
fn writer_loop(
    session: &Session,
    batches: &[(Relation, Relation)],
    n_base: usize,
    seed: u64,
    host: f64,
    tr: &mut Tracer,
    fail: &mut Failures,
) -> Result<Loop, String> {
    let per_round = APPEND_ROWS + UPDATE_ROWS;
    // Physical row id -> row of base ++ pool, and the live physical ids.
    let mut phys: Vec<usize> = (0..n_base).collect();
    let mut live: Vec<usize> = (0..n_base).collect();
    let mut rng = Rng::new(seed, 5);
    let mut take_victims = |live: &mut Vec<usize>, n: usize| -> Vec<usize> {
        (0..n)
            .map(|_| live.swap_remove(rng.below(live.len() as u64) as usize))
            .collect()
    };
    let n_attrs = session.schema().n_attrs();
    let stop = AtomicBool::new(false);
    let mut done = Vec::new();
    let (mut segments_s, mut host) = (Vec::new(), vec![host]);
    let (reads, outcome) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(session, &stop, seed, n_attrs));
        let span = tr.open("run");
        let mut start = Instant::now();
        let mut segment = |start: &mut Instant| -> Result<(), String> {
            segments_s.push(start.elapsed().as_secs_f64());
            host.push(host_factor()?);
            *start = Instant::now();
            Ok(())
        };
        let mut outcome = Ok(());
        for (r, (append, update)) in batches.iter().enumerate() {
            if r > 0 && r % SEGMENT_ROUNDS == 0 {
                outcome = segment(&mut start);
                if outcome.is_err() {
                    break;
                }
            }
            let pool_row = n_base + r * per_round;
            let victims = take_victims(&mut live, DELETE_ROWS);
            let upd_victims = take_victims(&mut live, UPDATE_ROWS);
            for op in [Op::Append, Op::Delete, Op::Update] {
                let op_span = tr.open(&format!("serve.{}", op.name()));
                let t = Instant::now();
                let outcome = match op {
                    Op::Append => session.push_batch(append),
                    Op::Delete => session.delete_rows(&victims),
                    Op::Update => session.update_rows(&upd_victims, update),
                };
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                tr.close(op_span);
                match outcome {
                    Ok(report) => {
                        let (first, n) = match op {
                            Op::Append => (pool_row, APPEND_ROWS),
                            Op::Update => (pool_row + APPEND_ROWS, UPDATE_ROWS),
                            Op::Delete => (0, 0),
                        };
                        live.extend(phys.len()..phys.len() + n);
                        phys.extend(first..first + n);
                        done.push(Done {
                            op,
                            latency_ms,
                            report,
                        });
                    }
                    Err(e) => fail.add(1, format!("{} in round {r}: {e}", op.name())),
                }
            }
        }
        if outcome.is_ok() {
            outcome = segment(&mut start);
        }
        tr.close(span);
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread panicked"), outcome)
    });
    outcome?;
    if reads.epoch_regressions > 0 {
        fail.add(
            reads.epoch_regressions,
            format!(
                "{} reads saw an older epoch than before",
                reads.epoch_regressions
            ),
        );
    }
    let mut survivors: Vec<usize> = live.iter().map(|&id| phys[id]).collect();
    survivors.sort_unstable();
    Ok(Loop {
        segments_s,
        host,
        done,
        survivors,
        reads,
    })
}

/// Runs `loops` writer loops, each over a fresh session; `wall_s` is their
/// median.
pub fn run(
    base: &Path,
    pool: &Path,
    seed: u64,
    loops: usize,
    trace_out: Option<&Path>,
    run: String,
) -> Result<Report, String> {
    let pool = read(pool)?;
    let mut tr = Tracer::new(run);
    let tap = tr.tap();
    let obs = if trace_out.is_some() {
        tap.obs.clone()
    } else {
        Obs::disabled()
    };
    let config = ServeConfig {
        discovery: DiscoveryConfig::default().with_threads(1).with_obs(obs),
        total_partition_budget: None,
        recovery: RecoveryPolicy::disabled(),
    };

    let base_rel = read(base)?;
    // Every batch is cut before the clock starts.
    let per_round = APPEND_ROWS + UPDATE_ROWS;
    if pool.n_rows() < ROUNDS * per_round {
        return Err(format!(
            "pool has {} rows, {} rounds need {}",
            pool.n_rows(),
            ROUNDS,
            ROUNDS * per_round
        ));
    }
    let cut = |lo: usize, n: usize| pool.select_rows(&(lo..lo + n).collect::<Vec<_>>());
    let batches: Vec<(Relation, Relation)> = (0..ROUNDS)
        .map(|r| {
            (
                cut(r * per_round, APPEND_ROWS),
                cut(r * per_round + APPEND_ROWS, UPDATE_ROWS),
            )
        })
        .collect();
    let mut universe = base_rel.clone();
    universe
        .extend(&pool)
        .map_err(|e| format!("base and pool schemas differ: {e}"))?;

    // Each loop replays the same rounds on a freshly opened session. Before
    // it, the set-up: load the base CSV, open the session (encode plus
    // initial discovery) and read its first published snapshot, repeated
    // between two host-speed readings.
    let mut fail = Failures::default();
    let mut runs = Vec::new();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut cover_ods = 0;
    let mut host = host_factor()?;
    for _ in 0..loops.max(1) {
        let mut times = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let rel = read(base)?;
            let session = Server::new(config.clone())
                .open("mix", &rel)
                .map_err(|e| format!("open: {e}"))?;
            std::hint::black_box(session.read());
            times.push(t.elapsed().as_secs_f64());
        }
        let after = host_factor()?;
        setup_s.extend(times.iter().map(|t| t * 2.0 / (host + after)));
        raw_setup_s.extend(times);
        host = after;

        let server = Server::new(config.clone());
        let session = server
            .open("mix", &base_rel)
            .map_err(|e| format!("open: {e}"))?;
        tr.discard(&tap);
        let lp = writer_loop(
            &session,
            &batches,
            base_rel.n_rows(),
            seed,
            host,
            &mut tr,
            &mut fail,
        )?;
        host = *lp.host.last().expect("one reading per segment");
        if trace_out.is_some() {
            tr.import(&tap);
        }
        // Untimed: the published cover must equal a from-scratch discovery
        // over the surviving rows.
        let (_, snap) = session.read();
        let scratch = Fastod::new(DiscoveryConfig::default().with_threads(1))
            .discover(&universe.select_rows(&lp.survivors).encode());
        if snap.n_live() != lp.survivors.len() {
            let msg = format!(
                "session has {} live rows, client tracked {}",
                snap.n_live(),
                lp.survivors.len()
            );
            fail.add(1, msg);
        }
        if snap.minimal_cover().sorted() != scratch.ods.sorted() {
            fail.add(
                1,
                "published cover differs from discovery over the survivors".into(),
            );
        }
        cover_ods = snap.minimal_cover().len();
        runs.push(lp);
    }

    let mut r = Report::default();
    let done: Vec<&Done> = runs.iter().flat_map(|l| &l.done).collect();
    let reads_of = |f: fn(&Reads) -> &Vec<f64>| -> Vec<f64> {
        runs.iter()
            .flat_map(|l| f(&l.reads).iter().copied())
            .collect()
    };
    let (read_us, load_ns, query_us) = (
        reads_of(|r| &r.total_us),
        reads_of(|r| &r.load_ns),
        reads_of(|r| &r.query_us),
    );
    let walls: Vec<f64> = runs.iter().map(Loop::wall_s).collect();
    let scaled: Vec<f64> = runs.iter().map(Loop::scaled_wall_s).collect();
    let host: Vec<f64> = runs.iter().flat_map(|l| l.host.iter().copied()).collect();
    r.int(
        "attempted",
        (3 * ROUNDS * runs.len() + read_us.len()) as u64,
    );
    r.int("cover_ods", cover_ods as u64);
    r.num("wall_s", median(&scaled));
    r.num("raw_wall_s", median(&walls));
    r.num("setup_s", median(&setup_s));
    r.num("raw_setup_s", median(&raw_setup_s));
    r.num("host_factor", median(&host));
    r.num("peak_rss_mb", peak_rss_mb()?);
    for op in [Op::Append, Op::Delete, Op::Update] {
        let v: Vec<f64> = done
            .iter()
            .filter(|d| d.op == op)
            .map(|d| d.latency_ms)
            .collect();
        r.int(&format!("{}_n", op.name()), v.len() as u64);
        for q in [0.5, 0.9] {
            let key = format!("{}_p{}_ms", op.name(), (q * 100.0) as u32);
            match percentile(&v, q, &key) {
                Ok(x) => r.num(&key, x),
                Err(e) => fail.add(1, e),
            }
        }
    }
    r.int("read_n", read_us.len() as u64);
    for q in [0.5, 0.99] {
        let key = format!("read_p{}_us", (q * 100.0) as u32);
        match percentile(&read_us, q, &key) {
            Ok(x) => r.num(&key, x),
            Err(e) => fail.add(1, e),
        }
    }

    if let Some(path) = trace_out {
        tr.write_jsonl(path)
            .map_err(|e| format!("writing trace: {e}"))?;
        let layers = tr.layer_self_s();
        r.num("traced_wall_s", walls.iter().sum());
        r.num(
            "trace.coverage",
            layers.values().sum::<f64>() / walls.iter().sum::<f64>(),
        );
        for op in [Op::Append, Op::Delete, Op::Update] {
            let pass_ms: Vec<f64> = done
                .iter()
                .filter(|d| d.op == op)
                .map(|d| d.report.elapsed.as_secs_f64() * 1e3)
                .collect();
            r.num(
                &format!("incremental.{}_pass_ms", op.name()),
                median(&pass_ms),
            );
        }
        let mut c = BatchCounters::default();
        for d in &done {
            c.absorb(&d.report.counters);
        }
        let skipped = c.skipped_clean + c.skipped_false;
        let settled = skipped + c.witness_skips;
        let touched = c.revalidated + c.delta_revalidated + c.recounted;
        r.int("incremental.revalidated", c.revalidated as u64);
        r.int("incremental.delta_revalidated", c.delta_revalidated as u64);
        r.int("incremental.recounted", c.recounted as u64);
        r.int("incremental.witness_skips", c.witness_skips as u64);
        r.int("incremental.skipped", skipped as u64);
        r.int(
            "incremental.escalated_searches",
            c.escalated_searches as u64,
        );
        r.int("incremental.nodes_reused", c.nodes_reused as u64);
        r.num(
            "incremental.reuse_ratio",
            settled as f64 / (settled + touched).max(1) as f64,
        );
        let publish: Vec<f64> = done
            .iter()
            .map(|d| d.latency_ms - d.report.elapsed.as_secs_f64() * 1e3)
            .collect();
        r.num("serve.publish_ms", median(&publish));
        r.num("serve.load_ns", median(&load_ns));
        r.num("theory.query_us", median(&query_us));
        // Maintenance passes run the lattice kernels on dirty nodes.
        for layer in ["core.candidates", "core.validate", "core.generate"] {
            r.num(
                &format!("{layer}_s"),
                layers.get(layer).copied().unwrap_or(0.0),
            );
        }
        for (layer, s) in &layers {
            r.num(&format!("self.{layer}"), *s);
        }
    }
    r.int("failed", fail.count);
    r.strings("errors", &fail.messages);
    Ok(r)
}

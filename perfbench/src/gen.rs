//! Seeded input generators. The benchmark owns these (rather than using
//! `fastod-datagen`) so that an edit to the program's generators cannot
//! shift a workload: for the default seed every file's size and digest is
//! pinned by `run.py`.
//!
//! The seed only draws values; each table's shape (columns, cardinalities,
//! dependencies) is fixed, so the lattice the program walks is the same
//! for every seed and run-to-run cost differences come from the program,
//! not from the input.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Rows of the `ingest_tall` table.
pub const TALL_ROWS: u64 = 500_000;
/// Rows of the `flight_lattice` table.
pub const FLIGHT_ROWS: u64 = 100_000;
/// Rows of the `ncvoter_validate` table.
pub const NCVOTER_ROWS: u64 = 50_000;
/// Rows of the `serve_mix` base table.
pub const SERVE_BASE_ROWS: u64 = 10_000;
/// Rows of the `serve_mix` arrival pool (appends and update replacements).
pub const SERVE_POOL_ROWS: u64 = 30_000;

/// SplitMix64: a small, fixed PRNG so the inputs never depend on a
/// dependency's RNG version.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; `n` is small).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    /// A uniform permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value functionally determined by `key` under a per-seed salt, with
/// an order unrelated to the key's (the `FdOf` shape).
fn fd_of(salt: u64, key: u64, card: u64) -> u64 {
    mix(salt ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % card
}

fn create(path: &Path) -> std::io::Result<BufWriter<File>> {
    Ok(BufWriter::with_capacity(1 << 20, File::create(path)?))
}

/// The warehouse shape: a sequence key, a 200-way and a 50K-way
/// categorical, a monotone plateau, a low-cardinality float and a tag.
/// Tall and narrow: ingest is a large share of the run.
pub fn write_tall(path: &Path, seed: u64) -> std::io::Result<()> {
    let mut rng = Rng::new(seed, 1);
    let mut w = create(path)?;
    writeln!(w, "seq,cat8,cat16,plateau,fval,tag")?;
    for i in 0..TALL_ROWS {
        let (cat8, cat16) = (rng.below(200), rng.below(50_000));
        let (fval, tag) = (rng.below(37) as f64 * 0.3, rng.below(23));
        writeln!(w, "{i},{cat8},{cat16},{},{fval:.1},tag{tag:02}", i / 1000)?;
    }
    w.flush()
}

/// Per-seed salts of the flight table's functional dependencies.
struct FlightSalts([u64; 3]);

impl FlightSalts {
    fn new(seed: u64) -> FlightSalts {
        let mut rng = Rng::new(seed, 2);
        FlightSalts([rng.next(), rng.next(), rng.next()])
    }
}

const FLIGHT_HEADER: &str =
    "year,flight_sk,day,month,quarter,carrier,flight_num,origin,origin_city,dest";

/// The first ten columns of the flight row with surrogate key `sk` (no
/// line end): a constant, an ordered key with a chain of monotone
/// coarsenings, and an FD cluster off the flight number.
fn flight_row(
    w: &mut impl Write,
    rng: &mut Rng,
    salts: &FlightSalts,
    sk: u64,
    day_plateau: u64,
) -> std::io::Result<()> {
    let day = sk / day_plateau;
    let (month, quarter) = (day / 30, day / 90);
    let carrier = rng.below(8);
    let flight_num = rng.below(500);
    let origin = fd_of(salts.0[0], flight_num, 40);
    let origin_city = fd_of(salts.0[1], origin, 35);
    let dest = fd_of(salts.0[2], flight_num, 40);
    write!(
        w,
        "2012,{sk},{day},{month},{quarter},c{carrier},{flight_num},{origin},{origin_city},{dest}"
    )
}

/// The flight-like table, widened by one more monotone coarsening of the
/// key and one independent categorical: its lattice is deep, so partition
/// products dominate discovery.
pub fn write_flight(path: &Path, seed: u64) -> std::io::Result<()> {
    let salts = FlightSalts::new(seed);
    let mut w = create(path)?;
    writeln!(w, "{FLIGHT_HEADER},sched,gate")?;
    for sk in 0..FLIGHT_ROWS {
        let mut rng = Rng::new(seed, 3 ^ (sk << 8));
        flight_row(&mut w, &mut rng, &salts, sk, FLIGHT_ROWS / 365)?;
        writeln!(w, ",{},g{}", sk / 8, rng.below(7))?;
    }
    w.flush()
}

/// The `serve_mix` inputs: the base table the session opens over and the
/// pool that appends and update replacements draw from, in order. Both
/// are cuts of one ten-column flight table in key order, so appended rows
/// continue the base's order.
pub fn write_serve(base: &Path, pool: &Path, seed: u64) -> std::io::Result<()> {
    let salts = FlightSalts::new(seed);
    let plateau = SERVE_BASE_ROWS / 365;
    let total = SERVE_BASE_ROWS + SERVE_POOL_ROWS;
    for (path, sks) in [(base, 0..SERVE_BASE_ROWS), (pool, SERVE_BASE_ROWS..total)] {
        let mut w = create(path)?;
        writeln!(w, "{FLIGHT_HEADER}")?;
        for sk in sks {
            // A row's draws depend on its key only.
            let mut rng = Rng::new(seed, 3 ^ (sk << 8));
            flight_row(&mut w, &mut rng, &salts, sk, plateau)?;
            writeln!(w)?;
        }
        w.flush()?;
    }
    Ok(())
}

/// The ncvoter-like table: two shuffled keys put swaps in every context,
/// so validation dominates discovery.
pub fn write_ncvoter(path: &Path, seed: u64) -> std::io::Result<()> {
    let mut rng = Rng::new(seed, 4);
    let voter_id = rng.permutation(NCVOTER_ROWS);
    let reg_num = rng.permutation(NCVOTER_ROWS);
    let salts = [rng.next(), rng.next(), rng.next(), rng.next()];
    let mut w = create(path)?;
    writeln!(
        w,
        "voter_id,county,city,zip,party,gender,age,status,precinct,reg_num,ward,label"
    )?;
    for i in 0..NCVOTER_ROWS as usize {
        let county = rng.below(50);
        let city = fd_of(salts[0], county, 40);
        let zip = fd_of(salts[1], county, 45);
        let party = rng.below(4);
        let (gender, age, status) = (rng.below(3), rng.below(80), rng.below(3));
        let precinct = fd_of(salts[2], county * 4 + party, 60);
        let ward = fd_of(salts[3], city, 10);
        let label = rng.below(12);
        writeln!(
            w,
            "{},{county},{city},{zip},p{party},{gender},{age},{status},{precinct},{},{ward},v{label:06}",
            voter_id[i], reg_num[i]
        )?;
    }
    w.flush()
}

//! Differential test of the single-pass CSV reader against the naive
//! reference reader (`fastod_testkit::oracle_read_csv`) on generated
//! files.
//!
//! The generator aims at the spellings where a byte-level reader with
//! typed dictionaries could drift from split-trim-parse: integers with `+`
//! and leading zeros (one Int value, several strings), `-0`, floats
//! including `-0.0`, `inf` and `NaN`, non-ASCII whitespace (`str::trim`
//! trims it, so padded cells and whitespace-only cells must match), blank
//! and whitespace-only lines, `\r\n` endings, a missing final newline, the
//! quoted empty string `""` (padded or not), nulls under both policies and
//! without one, and the odd ragged row. Both readers must produce the same
//! table or the same error.
//!
//! The reference reader knows no quoting, so RFC 4180 quoting is checked
//! by a round trip instead: any string relation `write_csv` writes reads
//! back equal.

use fastod_suite::relation::csv::{read_csv_encoded, read_csv_opts, write_csv};
use fastod_suite::relation::{CsvOptions, NullPolicy, RelationBuilder};
use fastod_testkit::oracle_read_csv;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const INTS: &[&str] = &[
    "0",
    "1",
    "-1",
    "+1",
    "01",
    "007",
    "-0",
    "+0",
    "12",
    "-12",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
];
const FLOATS: &[&str] = &[
    "1.5", "-0.0", "0.0", "inf", "-inf", "NaN", "nan", "1e3", "1.0", "+2.5", ".5", "5.", "-1.5e-3",
];
const STRS: &[&str] = &[
    "x", "abc", "a b", "é", "日本", "tag01", "a\"b", "\"\"", "0x1",
];
/// Padding: ASCII and non-ASCII `char::is_whitespace` characters.
const PAD: &[&str] = &[
    "", "", "", " ", "\t", "\u{a0}", "\u{3000}", "\u{2003}", "\u{85}", "\u{b}", "\u{c}",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// One cell of a column drawing mostly from `pool` (a column "kind").
fn cell(rng: &mut TestRng, pool: &[&str], nulls: bool) -> String {
    let value = match rng.below(40) {
        0 if nulls => String::new(),
        1 if nulls => pick(rng, PAD).to_string(),
        2 => pick(rng, STRS).to_string(),
        3 => pick(rng, FLOATS).to_string(),
        _ => pick(rng, pool).to_string(),
    };
    format!("{}{value}{}", pick(rng, PAD), pick(rng, PAD))
}

/// A generated CSV file: header or not, 1–4 columns of mixed kinds.
fn csv_text(seed: u64, has_header: bool, nulls: bool) -> String {
    let mut rng = TestRng::from_name(&format!("csv_differential::{seed}"));
    let n_cols = 1 + rng.below(4) as usize;
    let n_rows = rng.below(14) as usize;
    let pools: Vec<&[&str]> = (0..n_cols)
        .map(|_| match rng.below(3) {
            0 => INTS,
            1 => FLOATS,
            _ => STRS,
        })
        .collect();
    let mut lines: Vec<String> = Vec::new();
    if has_header {
        lines.push(
            (0..n_cols)
                .map(|c| format!("{}h{c}", pick(&mut rng, PAD)))
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    for _ in 0..n_rows {
        match rng.below(80) {
            0..=4 => lines.push(String::new()),
            5 => lines.push(pick(&mut rng, PAD).to_string()),
            _ => {}
        }
        let mut cells: Vec<String> = pools
            .iter()
            .map(|pool| cell(&mut rng, pool, nulls))
            .collect();
        if rng.below(150) == 0 {
            cells.push("9".into()); // ragged
        }
        lines.push(cells.join(","));
    }
    let mut text = String::new();
    for (i, line) in lines.iter().enumerate() {
        text.push_str(line);
        if i + 1 < lines.len() || rng.below(4) > 0 {
            text.push_str(if rng.below(3) == 0 { "\r\n" } else { "\n" });
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn single_pass_reader_matches_the_reference(
        seed in any::<u64>(),
        has_header in any::<bool>(),
        nulls in any::<bool>(),
        policy in 0u32..3,
    ) {
        let text = csv_text(seed, has_header, nulls);
        let mut opts = CsvOptions { has_header, null_policy: None };
        if policy > 0 {
            opts = opts.null_policy(if policy == 1 { NullPolicy::First } else { NullPolicy::Last });
        }
        match (oracle_read_csv(text.as_bytes(), opts), read_csv_encoded(text.as_bytes(), opts)) {
            (Ok(rel), Ok(table)) => {
                let enc = rel.encode();
                prop_assert_eq!(table.encoded().schema(), rel.schema());
                for a in 0..enc.n_attrs() {
                    prop_assert_eq!(table.encoded().codes(a), enc.codes(a));
                    prop_assert_eq!(table.encoded().cardinality(a), enc.cardinality(a));
                    prop_assert_eq!(table.null_mask(a), rel.column(a).null_mask());
                }
                // Debug, not `==`, so NaN cells and -0.0 compare by bits.
                prop_assert_eq!(format!("{:?}", table.decode()), format!("{rel:?}"));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("readers disagree on {text:?}: oracle {:?}, single-pass {:?}", a.err(), b.err()),
        }
    }
}

/// Pieces of generated strings: delimiters, quotes, line breaks and
/// whitespace that force quoting, plus plain letters.
const PIECES: &[&str] = &["a", "x", ",", "\"", "\n", "\r", "\r\n", " ", "\t", "\u{a0}", "é"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn quoted_strings_round_trip(seed in any::<u64>(), n_rows in 1usize..10) {
        let mut rng = TestRng::from_name(&format!("quoted_strings_round_trip::{seed}"));
        // Row 0 is never null: an all-null column would read back as Int.
        let column = |rng: &mut TestRng| -> Vec<Option<String>> {
            (0..n_rows)
                .map(|row| {
                    (row == 0 || rng.below(8) > 0)
                        .then(|| (0..rng.below(5)).map(|_| pick(rng, PIECES)).collect())
                })
                .collect()
        };
        let (s, t) = (column(&mut rng), column(&mut rng));
        let rel = RelationBuilder::new()
            .column_str_opt("s", s)
            .column_str_opt("t, \"u\"", t)
            .null_policy(NullPolicy::Last)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let opts = CsvOptions::with_header().null_policy(NullPolicy::Last);
        let back = read_csv_opts(&buf[..], opts).unwrap();
        prop_assert_eq!(back, rel);
    }
}

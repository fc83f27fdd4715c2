//! The single-pass CSV reader, pinned against the naive reference reader.
//!
//! `read_csv_encoded` tokenizes once and goes straight to dense-rank codes;
//! `fastod_testkit::oracle_read_csv` is the suite's original
//! split/parse/`rank_encode` reader. On every input here the two must agree
//! on schema, types, codes (plain and bit-packed), cardinalities, null
//! masks, the decoded `Relation` (null-slot placeholders included) and the
//! discovered cover, and must fail with identical errors. The inputs cover
//! the dialect corner cases: quoted-empty vs null, whitespace trimming,
//! blank lines, headerless files, both null policies and type fallbacks.
//! `CsvChunks` (the `serve --stream` replay) keeps its two passes and is
//! pinned here too, including truncation between the passes.

use fastod_suite::prelude::*;
use fastod_suite::relation::csv::{read_csv_encoded, read_csv_opts};
use fastod_suite::relation::{CsvChunks, CsvOptions, EncodedCsv, NullPolicy, RelationError};
use fastod_testkit::oracle_read_csv;
use std::io::{Cursor, Read, Seek, SeekFrom};

/// Asserts the single-pass reader's output equals the reference reader's.
fn assert_same_table(table: &EncodedCsv, rel: &Relation) {
    let enc = rel.encode();
    let got = table.encoded();
    assert_eq!(got.n_rows(), enc.n_rows());
    assert_eq!(got.schema(), rel.schema());
    let mut packed = got.clone();
    packed.pack();
    let mut buf = Vec::new();
    for a in 0..enc.n_attrs() {
        assert_eq!(got.codes(a), enc.codes(a), "attr {a} codes");
        assert_eq!(
            packed.codes_range(a, 0..enc.n_rows(), &mut buf),
            enc.codes(a),
            "attr {a} packed"
        );
        assert_eq!(
            got.cardinality(a),
            enc.cardinality(a),
            "attr {a} cardinality"
        );
        assert_eq!(
            table.null_mask(a),
            rel.column(a).null_mask(),
            "attr {a} null mask"
        );
    }
    // Debug, not `==`, so NaN cells and -0.0 compare by their bits.
    assert_eq!(format!("{:?}", table.decode()), format!("{rel:?}"));
}

/// Reads `text` with both readers and asserts they agree — on the table
/// and the cover when both succeed, on the error when both fail.
fn assert_equivalent(text: &str, opts: CsvOptions) {
    let oracle = oracle_read_csv(text.as_bytes(), opts);
    let ours = read_csv_encoded(text.as_bytes(), opts);
    match (oracle, ours) {
        (Ok(rel), Ok(table)) => {
            assert_same_table(&table, &rel);
            if rel.n_rows() > 0 {
                let cover = |e: &EncodedRelation| {
                    Fastod::new(DiscoveryConfig::default())
                        .discover(e)
                        .ods
                        .sorted()
                };
                assert_eq!(cover(table.encoded()), cover(&rel.encode()));
            }
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "input {text:?}"),
        (a, b) => panic!(
            "readers disagree on {text:?}: oracle {:?}, single-pass {:?}",
            a.err(),
            b.err()
        ),
    }
}

#[test]
fn plain_typed_file_matches() {
    assert_equivalent(
        "id,grp,score,name\n3,b,1.5,x\n1,a,2,y\n2,b,1.5,x\n10,a,0.5,z\n",
        CsvOptions::with_header(),
    );
}

#[test]
fn null_dialects_match_under_both_policies() {
    // Empty fields, whitespace-only fields (trimmed to empty = null) and the
    // quoted `""` (empty *string*, not null) in one file.
    let text = "s,n,f\nx,1,0.5\n, 2 ,\n\"\" ,3,1.5\n   ,,2.5\n";
    for policy in [NullPolicy::First, NullPolicy::Last] {
        assert_equivalent(text, CsvOptions::with_header().null_policy(policy));
    }
}

#[test]
fn quoting_and_whitespace_edges_match() {
    // Quoted-empty at field start/middle/end, padding around values, and an
    // all-quoted-empty row; no nulls so no policy is needed.
    assert_equivalent(
        "a,b,c\n\"\",mid,\"\"\n x , \"\" , y \nu,v,w\n\"\",\"\",\"\"\n",
        CsvOptions::with_header(),
    );
}

#[test]
fn blank_lines_and_headerless_files_match() {
    assert_equivalent("x,y\n\n1,a\n\n\n2,b\n3,a\n\n", CsvOptions::with_header());
    assert_equivalent("x,y\r\n\r\n1,a\r\n2,b", CsvOptions::with_header());
    // Headerless: columns are named c0, c1, ...
    assert_equivalent("5,q\n2,r\n9,q\n", CsvOptions::default());
    // A header with no rows is an empty relation.
    assert_equivalent("x,y\n", CsvOptions::with_header());
}

#[test]
fn integer_vs_float_vs_string_inference_matches() {
    // Column types flip as later rows arrive: int → float ("2.5" on row 3)
    // and int → str ("x" on row 4).
    assert_equivalent("a,b\n1,1\n2,2\n2.5,3\n3,x\n", CsvOptions::with_header());
    // Numeric strings that collide after parse ("1" vs "01") merge as Int
    // but stay apart once the column falls back to Str.
    assert_equivalent("n\n1\n01\n2\n002\n+2\n-0\n0\n", CsvOptions::with_header());
    assert_equivalent(
        "n,m\n1,1\n01,-0\n+1,0.0\nx,-0.0\n",
        CsvOptions::with_header(),
    );
}

#[test]
fn error_pins_match_the_reference() {
    // Ragged rows, both ways: same variant, line, field and message.
    assert_equivalent("a,b\n1,2\n1,2,3\n", CsvOptions::with_header());
    assert_equivalent("a,b\n1,2\n\n1\n", CsvOptions::with_header());
    let err = read_csv_encoded("a,b\n1,2\n1\n".as_bytes(), CsvOptions::with_header()).unwrap_err();
    assert!(
        matches!(
            err,
            RelationError::Csv {
                line: 3,
                field: 2,
                ..
            }
        ),
        "{err}"
    );
    // Header/row width mismatch and a header demanded but absent.
    assert_equivalent("a,b,c\n1,2\n", CsvOptions::with_header());
    assert_equivalent("", CsvOptions::with_header());
    let err = read_csv_encoded("".as_bytes(), CsvOptions::with_header()).unwrap_err();
    assert!(
        matches!(
            err,
            RelationError::Csv {
                line: 1,
                field: 1,
                ..
            }
        ),
        "{err}"
    );
    // Missing null policy names the first nullable column by index order.
    assert_equivalent("a,b\n1,x\n,y\n", CsvOptions::with_header());
    let err = read_csv_encoded("a,b\n1,x\n,y\n".as_bytes(), CsvOptions::with_header()).unwrap_err();
    assert!(matches!(err, RelationError::NullPolicyRequired { ref column } if column == "a"));
    // Duplicate names after trimming.
    assert_equivalent("a, a\n1,2\n", CsvOptions::with_header());
}

#[test]
fn file_reader_matches_the_reference() {
    let text = "seq,grp,val\n0,a,1\n1,b,2\n2,a,1\n3,c,3\n4,b,2\n5,a,1\n";
    let path = std::env::temp_dir().join(format!("fastod_reader_equiv_{}.csv", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let table = read_csv_encoded(file, CsvOptions::with_header()).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_same_table(
        &table,
        &oracle_read_csv(text.as_bytes(), CsvOptions::with_header()).unwrap(),
    );
}

/// A `Read + Seek` source that serves `full` until the first rewind to the
/// start, then serves `truncated` — the observable behaviour of a file that
/// shrank between the chunk reader's two passes.
struct ShrinkingSource {
    current: Cursor<Vec<u8>>,
    truncated: Option<Vec<u8>>,
}

impl ShrinkingSource {
    fn new(full: &str, truncated: &str) -> ShrinkingSource {
        ShrinkingSource {
            current: Cursor::new(full.as_bytes().to_vec()),
            truncated: Some(truncated.as_bytes().to_vec()),
        }
    }
}

impl Read for ShrinkingSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.current.read(buf)
    }
}

impl Seek for ShrinkingSource {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        if pos == SeekFrom::Start(0) {
            if let Some(next) = self.truncated.take() {
                self.current = Cursor::new(next);
            }
        }
        self.current.seek(pos)
    }
}

#[test]
fn chunks_concatenate_to_the_one_shot_relation() {
    let text = "s,n\nx,\n,2\n\"a,b\",3\n\"\",4\ny,5\n";
    let opts = CsvOptions::with_header().null_policy(NullPolicy::Last);
    let full = read_csv_opts(text.as_bytes(), opts).unwrap();
    for chunk_rows in [1, 2, 0] {
        let mut chunks = CsvChunks::new(Cursor::new(text), opts, chunk_rows).unwrap();
        assert_eq!(chunks.n_rows(), 5);
        let mut concat = chunks.next().unwrap().unwrap();
        for chunk in chunks {
            concat.extend(&chunk.unwrap()).unwrap();
        }
        assert_eq!(concat, full, "chunk_rows {chunk_rows}");
    }
}

#[test]
fn chunk_iterator_surfaces_truncation_and_stops() {
    let full = "a,b\n1,x\n2,y\n3,z\n4,x\n";
    let mut chunks = CsvChunks::new(
        ShrinkingSource::new(full, "a,b\n1,x\n2,y\n3,z\n"),
        CsvOptions::with_header(),
        2,
    )
    .unwrap();
    assert_eq!(chunks.n_rows(), 4);
    let first = chunks
        .next()
        .expect("first chunk exists")
        .expect("first chunk reads");
    assert_eq!(first.n_rows(), 2);
    // The second chunk hits end-of-input one row early: the short chunk must
    // NOT escape as `Ok` — truncation is the error, immediately.
    let second = chunks.next().expect("second item exists");
    let err = second.expect_err("truncated tail must error");
    assert!(
        err.to_string()
            .contains("file changed between streaming passes"),
        "unexpected error: {err}"
    );
    // After the first error the iterator fuses.
    assert!(chunks.next().is_none());
}

#[test]
fn chunk_iterator_surfaces_a_value_that_stopped_parsing() {
    let mut chunks = CsvChunks::new(
        ShrinkingSource::new("a\n1\n2\n", "a\n1\nx\n"),
        CsvOptions::with_header(),
        0,
    )
    .unwrap();
    let err = chunks.next().unwrap().unwrap_err();
    assert!(
        matches!(
            err,
            RelationError::Csv {
                line: 3,
                field: 1,
                ..
            }
        ),
        "{err}"
    );
}

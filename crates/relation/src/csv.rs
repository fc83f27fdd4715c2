//! The CSV reader and writer: one pass from bytes to dense-rank codes.
//!
//! # Dialect
//!
//! RFC 4180 with trimming (see the tokenizer): comma-separated, the first
//! line is an optional header, unquoted fields are trimmed, and quoted
//! fields may hold commas, doubled quotes and newlines. Type inference
//! tries `Int`, then `Float`, then falls back to `Str` (dates are written as
//! ISO strings and round-trip as strings, whose lexicographic order equals
//! chronological order — exactly the property discovery needs).
//!
//! # Nulls
//!
//! Empty and whitespace-only unquoted fields parse as **null**. Because
//! dense-rank encoding needs a total order, reading a null-bearing file
//! requires an explicit [`NullPolicy`] via [`CsvOptions`]; without one the
//! reader fails with [`RelationError::NullPolicyRequired`] naming the
//! column. A quoted field is never null, so `""` is the *empty string* and
//! the two stay distinguishable. [`write_csv`] renders nulls as empty
//! fields and quotes every string that needs it, so files round-trip.
//!
//! # One pass to codes
//!
//! [`parse_csv`] tokenizes the input once. Each cell gets a first-seen
//! provisional id from a per-column dictionary (canonically spelled
//! integers are keyed by value — small non-negative ones in a
//! direct-address table — and every other spelling by its bytes), and the
//! ids go into one `Vec<u32>` per column. The hash tables keep std's
//! collision-resistant hasher: their keys come from the input file.
//! [`ParsedCsv::encode`] then parses each column's *distinct* values at the
//! inferred type, sorts them once, and rewrites the ids in place to the
//! dense ranks (§4.6) that [`Relation::encode`] would assign, null rank
//! included. The result, an [`EncodedCsv`], holds the [`EncodedRelation`]
//! plus each code's typed value and the null masks; a [`Relation`] is
//! decoded from those only when a caller needs values ([`read_csv_opts`]
//! is that decode).

use crate::tokenize::{csv_error, Record, Tokenizer};
use crate::{
    Column, ColumnData, DataType, EncodedRelation, NullPolicy, Relation, RelationError, Schema,
    Value,
};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Options for the CSV readers.
#[derive(Clone, Copy, Debug, Default)]
pub struct CsvOptions {
    /// Whether the first line is a header. Without one, columns are named
    /// `c0, c1, ...`.
    pub has_header: bool,
    /// Null ordering policy for empty/whitespace-only fields. Files that
    /// contain such fields fail with [`RelationError::NullPolicyRequired`]
    /// when this is `None`.
    pub null_policy: Option<NullPolicy>,
}

impl CsvOptions {
    /// Options with a header line and no null policy.
    pub fn with_header() -> CsvOptions {
        CsvOptions {
            has_header: true,
            null_policy: None,
        }
    }

    /// Sets the null ordering policy.
    pub fn null_policy(mut self, policy: NullPolicy) -> CsvOptions {
        self.null_policy = Some(policy);
        self
    }
}

/// The provisional id of a null cell.
const NULL_ID: u32 = u32::MAX;

/// `bytes` as an `i64` when it is that integer's canonical spelling (no
/// `+`, no leading zeros, no `-0`). Canonical integers are keyed by value
/// and every other spelling by its bytes, so each provisional id still
/// stands for exactly one spelling — a later fallback to `Float` or `Str`
/// stays exact, and `"01"`/`"1"` merge only when the column ends up `Int`.
fn canonical_i64(bytes: &[u8]) -> Option<i64> {
    let (neg, digits) = match bytes {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, bytes),
    };
    if digits.is_empty() || digits.len() > 19 || (digits[0] == b'0' && (neg || digits.len() > 1)) {
        return None;
    }
    // Accumulate negatively so `i64::MIN` parses.
    let mut v: i64 = 0;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_sub(i64::from(d - b'0'))?;
    }
    if neg {
        Some(v)
    } else {
        v.checked_neg()
    }
}

/// One column during [`parse_csv`]: a provisional id per row, the
/// dictionaries that hand them out, and type-inference flags (set when a
/// spelling is first seen — parseability is a function of the spelling).
struct ColumnIngest {
    ids: Vec<u32>,
    /// Direct-address table for canonical integers in `0..small.len()`:
    /// `small[v]` is `v`'s id + 1, or 0 while unseen. Key and categorical
    /// columns hit it instead of a hash table; it grows to at most a few
    /// slots per row, and every other integer goes to `ints`.
    small: Vec<u32>,
    ints: HashMap<i64, u32>,
    texts: HashMap<Box<[u8]>, u32>,
    n_ids: u32,
    all_int: bool,
    all_float: bool,
    has_nulls: bool,
}

impl ColumnIngest {
    fn new() -> ColumnIngest {
        ColumnIngest {
            ids: Vec::new(),
            small: Vec::new(),
            ints: HashMap::new(),
            texts: HashMap::new(),
            n_ids: 0,
            all_int: true,
            all_float: true,
            has_nulls: false,
        }
    }

    fn push(&mut self, rec: &Record<'_>, i: usize) -> Result<(), RelationError> {
        let Some(bytes) = rec.cell(i) else {
            self.has_nulls = true;
            self.ids.push(NULL_ID);
            return Ok(());
        };
        let id = match canonical_i64(bytes) {
            Some(v) => self.int_id(v),
            None => match self.texts.get(bytes) {
                Some(&id) => id,
                None => {
                    let text = rec.text(i)?;
                    self.all_int &= text.parse::<i64>().is_ok();
                    self.all_float &= text.parse::<f64>().is_ok();
                    self.texts.insert(bytes.into(), self.n_ids);
                    self.next_id()
                }
            },
        };
        self.ids.push(id);
        Ok(())
    }

    fn next_id(&mut self) -> u32 {
        assert!(
            self.n_ids < NULL_ID - 1,
            "a column has more than 2^32 - 2 distinct values"
        );
        self.n_ids += 1;
        self.n_ids - 1
    }

    /// The provisional id of the canonical integer `v`.
    fn int_id(&mut self, v: i64) -> u32 {
        match usize::try_from(v) {
            Ok(i) if self.in_small(i) => match self.small[i] {
                0 => {
                    self.small[i] = self.n_ids + 1;
                    self.next_id()
                }
                slot => slot - 1,
            },
            _ => match self.ints.get(&v) {
                Some(&id) => id,
                None => {
                    self.ints.insert(v, self.n_ids);
                    self.next_id()
                }
            },
        }
    }

    /// Whether `i` has a slot in the direct table, which grows to cover
    /// `i` while it stays within two slots per row seen. An integer hashed
    /// before the table covered it gets a second id here; both ids spell
    /// the same value, so they get the same rank.
    fn in_small(&mut self, i: usize) -> bool {
        let limit = 2 * self.ids.len() + 1024;
        if i >= self.small.len() && i < limit {
            let len = (i + 1).max(2 * self.small.len()).min(limit);
            self.small.resize(len, 0);
        }
        i < self.small.len()
    }

    /// Resident bytes of the ids and dictionaries (hash tables estimated
    /// from their capacity).
    fn memory_bytes(&self) -> usize {
        let texts: usize = self.texts.keys().map(|k| k.len()).sum();
        (self.ids.capacity() + self.small.capacity()) * 4
            + self.ints.capacity() * 17
            + self.texts.capacity() * 25
            + texts
    }

    /// The value of every provisional id, converted from its spelling.
    fn values<T: Clone>(
        &self,
        fill: T,
        int: impl Fn(i64) -> T,
        text: impl Fn(&str) -> T,
    ) -> Vec<T> {
        let mut values = vec![fill; self.n_ids as usize];
        for (v, &slot) in self.small.iter().enumerate().filter(|&(_, &slot)| slot > 0) {
            values[slot as usize - 1] = int(v as i64);
        }
        for (&v, &id) in &self.ints {
            values[id as usize] = int(v);
        }
        for (bytes, &id) in &self.texts {
            values[id as usize] =
                text(std::str::from_utf8(bytes).expect("checked when first seen"));
        }
        values
    }

    /// Ranks the distinct values at type `ty` and rewrites the ids in place
    /// to dense-rank codes, the null rank spliced in per `policy` exactly as
    /// [`Column::rank_encode`] does. Returns the value of each code (the
    /// null code's slot holds a placeholder), the codes, the null mask and
    /// the cardinality.
    fn encode(
        self,
        ty: DataType,
        policy: NullPolicy,
    ) -> (ColumnData, Vec<u32>, Option<Vec<bool>>, u32) {
        let parse = "parseable: checked when first seen";
        let values = match ty {
            DataType::Int => ColumnData::Int(self.values(0, |v| v, |s| s.parse().expect(parse))),
            // `as` rounds to nearest exactly as parsing the digits does.
            DataType::Float => {
                ColumnData::Float(self.values(0.0, |v| v as f64, |s| s.parse().expect(parse)))
            }
            _ => ColumnData::Str(self.values(String::new(), |v| v.to_string(), str::to_string)),
        };
        let (rank, n_values) = values.rank_encode();
        let card = n_values + u32::from(self.has_nulls);
        let offset = u32::from(self.has_nulls && policy == NullPolicy::First);
        let null_code = if offset == 1 { 0 } else { n_values };
        let by_code = match values {
            ColumnData::Int(v) => ColumnData::Int(by_code(v, &rank, card, offset, 0)),
            ColumnData::Float(v) => ColumnData::Float(by_code(v, &rank, card, offset, 0.0)),
            ColumnData::Str(v) => ColumnData::Str(by_code(v, &rank, card, offset, String::new())),
            ColumnData::Date(_) => unreachable!("the reader never infers Date"),
        };
        let mut codes = self.ids;
        let mask = self
            .has_nulls
            .then(|| codes.iter().map(|&id| id == NULL_ID).collect());
        for c in &mut codes {
            *c = if *c == NULL_ID {
                null_code
            } else {
                rank[*c as usize] + offset
            };
        }
        (by_code, codes, mask, card)
    }
}

/// Places each value at its code (equal values share a rank and are equal,
/// so which one lands does not matter); unfilled slots keep `fill`.
fn by_code<T: Clone>(values: Vec<T>, rank: &[u32], card: u32, offset: u32, fill: T) -> Vec<T> {
    let mut out = vec![fill; card as usize];
    for (v, &r) in values.into_iter().zip(rank) {
        out[(r + offset) as usize] = v;
    }
    out
}

/// The tightest type given whether every spelling parses as an `Int` and
/// as a `Float` (all-null columns default to `Int`).
pub(crate) fn infer_type(all_int: bool, all_float: bool) -> DataType {
    if all_int {
        DataType::Int
    } else if all_float {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// A CSV input after the single tokenizing pass: schema, row count and one
/// provisional-id column per attribute. Finish with [`ParsedCsv::encode`].
pub struct ParsedCsv {
    schema: Schema,
    columns: Vec<ColumnIngest>,
    n_rows: usize,
    bytes: u64,
    null_policy: Option<NullPolicy>,
}

impl ParsedCsv {
    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Bytes read from the input.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Estimated resident bytes of the provisional ids and dictionaries —
    /// the ingest's peak, since encoding rewrites the ids in place.
    pub fn memory_bytes(&self) -> usize {
        self.columns.iter().map(ColumnIngest::memory_bytes).sum()
    }

    /// Sorts each column's distinct values once and rewrites the ids to
    /// dense-rank codes.
    pub fn encode(self) -> EncodedCsv {
        let policy = self.null_policy.unwrap_or(NullPolicy::First);
        let (mut codes, mut cards, mut null_masks) = (Vec::new(), Vec::new(), Vec::new());
        let dictionaries = (self.columns.into_iter().enumerate())
            .map(|(a, col)| {
                let (dict, c, mask, card) = col.encode(self.schema.data_type(a), policy);
                codes.push(c);
                cards.push(card);
                null_masks.push(mask);
                dict
            })
            .collect();
        EncodedCsv {
            encoded: EncodedRelation::from_ranks(self.schema, codes, cards),
            dictionaries,
            null_masks,
            null_policy: self.null_policy,
        }
    }
}

/// A CSV input encoded to dense ranks, with what it takes to decode it.
#[derive(Debug)]
pub struct EncodedCsv {
    encoded: EncodedRelation,
    dictionaries: Vec<ColumnData>,
    null_masks: Vec<Option<Vec<bool>>>,
    null_policy: Option<NullPolicy>,
}

impl EncodedCsv {
    /// The encoded relation (plain `u32` code columns).
    pub fn encoded(&self) -> &EncodedRelation {
        &self.encoded
    }

    /// Drops the dictionaries and keeps the codes.
    pub fn into_encoded(self) -> EncodedRelation {
        self.encoded
    }

    /// Column `a`'s value for each code, ascending: code `c` stands for
    /// `dictionary(a)[c]`. The null code's slot holds the placeholder `0`,
    /// `0.0` or `""`.
    pub fn dictionary(&self, a: usize) -> &ColumnData {
        &self.dictionaries[a]
    }

    /// Column `a`'s null mask, if it has nulls (`mask[row]` true ⇒ null).
    pub fn null_mask(&self, a: usize) -> Option<&[bool]> {
        self.null_masks[a].as_deref()
    }

    /// The relation the codes stand for, placeholders in the null slots.
    pub fn decode(&self) -> Relation {
        let columns = (self.dictionaries.iter().zip(&self.null_masks).enumerate())
            .map(|(a, (dict, mask))| {
                let rows: Vec<usize> = self.encoded.codes(a).iter().map(|&c| c as usize).collect();
                match mask {
                    Some(mask) => Column::with_nulls(dict.take(&rows), mask.clone()),
                    None => Column::new(dict.take(&rows)),
                }
            })
            .collect();
        Relation::with_policy(self.encoded.schema().clone(), columns, self.null_policy)
            .expect("the reader checked the schema and null policy")
    }
}

/// Column names from the header (which must match the rows' width when
/// there are rows) or `c0, c1, ...`.
pub(crate) fn column_names(
    header: Option<Vec<String>>,
    n_cols: usize,
) -> Result<Vec<String>, RelationError> {
    match header {
        Some(h) if n_cols > 0 && h.len() != n_cols => Err(csv_error(
            1,
            h.len().min(n_cols) + 1,
            format!("header has {} fields but rows have {}", h.len(), n_cols),
        )),
        Some(h) => Ok(h.into_iter().take(n_cols).collect()),
        None => Ok((0..n_cols).map(|i| format!("c{i}")).collect()),
    }
}

/// Reads the header line, if the options say there is one.
pub(crate) fn read_header<R: Read>(
    tok: &mut Tokenizer<R>,
    has_header: bool,
) -> Result<Option<Vec<String>>, RelationError> {
    if !has_header {
        return Ok(None);
    }
    let rec = tok
        .next_record(false)?
        .ok_or_else(|| csv_error(1, 1, "expected a header line"))?;
    (0..rec.len())
        .map(|i| rec.text(i).map(str::to_string))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The error for a record whose width differs from the first record's.
pub(crate) fn ragged(rec: &Record<'_>, expected: usize) -> RelationError {
    csv_error(
        rec.line(),
        rec.len().min(expected) + 1,
        format!("expected {} fields, found {}", expected, rec.len()),
    )
}

/// Tokenizes CSV text in one pass, giving every cell a provisional id
/// (phase one of [`read_csv_encoded`]).
///
/// # Errors
/// [`RelationError::Csv`] naming the line and field of a ragged row, an
/// unterminated quote or invalid UTF-8;
/// [`RelationError::NullPolicyRequired`] for nulls without a policy;
/// [`RelationError::Io`] when reading fails.
pub fn parse_csv<R: Read>(input: R, opts: CsvOptions) -> Result<ParsedCsv, RelationError> {
    let mut tok = Tokenizer::new(input);
    let header = read_header(&mut tok, opts.has_header)?;
    let mut columns: Vec<ColumnIngest> = Vec::new();
    while let Some(rec) = tok.next_record(true)? {
        if columns.is_empty() {
            columns = (0..rec.len()).map(|_| ColumnIngest::new()).collect();
        }
        if rec.len() != columns.len() {
            return Err(ragged(&rec, columns.len()));
        }
        for (i, col) in columns.iter_mut().enumerate() {
            col.push(&rec, i)?;
        }
    }
    let types = columns.iter().map(|c| infer_type(c.all_int, c.all_float));
    let schema = Schema::new(
        column_names(header, columns.len())?
            .into_iter()
            .zip(types)
            .collect(),
    )?;
    if opts.null_policy.is_none() {
        if let Some(a) = columns.iter().position(|c| c.has_nulls) {
            return Err(RelationError::NullPolicyRequired {
                column: schema.name(a).to_string(),
            });
        }
    }
    Ok(ParsedCsv {
        schema,
        n_rows: columns.first().map_or(0, |c| c.ids.len()),
        columns,
        bytes: tok.bytes(),
        null_policy: opts.null_policy,
    })
}

/// Reads CSV text straight to dense-rank codes: [`parse_csv`], then
/// [`ParsedCsv::encode`]. The input is read once and need not be seekable.
pub fn read_csv_encoded<R: Read>(input: R, opts: CsvOptions) -> Result<EncodedCsv, RelationError> {
    Ok(parse_csv(input, opts)?.encode())
}

/// Reads a relation from CSV text with no null policy — fails on files with
/// empty fields; see [`read_csv_opts`].
///
/// With `has_header == false`, columns are named `c0, c1, ...`.
pub fn read_csv<R: Read>(reader: R, has_header: bool) -> Result<Relation, RelationError> {
    read_csv_opts(
        reader,
        CsvOptions {
            has_header,
            null_policy: None,
        },
    )
}

/// Reads a relation from CSV text, resolving empty/whitespace-only fields
/// as nulls under the configured [`NullPolicy`]: [`read_csv_encoded`],
/// then [`EncodedCsv::decode`].
pub fn read_csv_opts<R: Read>(reader: R, opts: CsvOptions) -> Result<Relation, RelationError> {
    Ok(read_csv_encoded(reader, opts)?.decode())
}

/// Reads a relation from a CSV file on disk (no null policy — see
/// [`read_csv_file_opts`]).
pub fn read_csv_file<P: AsRef<Path>>(path: P, has_header: bool) -> Result<Relation, RelationError> {
    read_csv(std::fs::File::open(path)?, has_header)
}

/// Reads a relation from a CSV file on disk with explicit [`CsvOptions`].
pub fn read_csv_file_opts<P: AsRef<Path>>(
    path: P,
    opts: CsvOptions,
) -> Result<Relation, RelationError> {
    read_csv_opts(std::fs::File::open(path)?, opts)
}

/// Writes `text` as one field, quoted when it would not read back as
/// itself: empty, padded with whitespace, or holding a delimiter, quote or
/// line break.
fn write_field<W: Write>(w: &mut W, text: &str) -> std::io::Result<()> {
    let plain = !text.is_empty()
        && text.trim().len() == text.len()
        && !text.contains([',', '"', '\n', '\r']);
    if plain {
        return w.write_all(text.as_bytes());
    }
    w.write_all(b"\"")?;
    w.write_all(text.replace('"', "\"\"").as_bytes())?;
    w.write_all(b"\"")
}

/// Writes a relation as CSV (header included). Nulls become empty fields;
/// strings are quoted where needed, and floats are written in `{:?}` form
/// (`1.0`, not `1`) so an integral float column reads back as `Float`.
pub fn write_csv<W: Write>(rel: &Relation, writer: W) -> Result<(), RelationError> {
    let mut w = BufWriter::new(writer);
    for (a, name) in rel.schema().names().iter().enumerate() {
        if a > 0 {
            w.write_all(b",")?;
        }
        write_field(&mut w, name)?;
    }
    w.write_all(b"\n")?;
    for row in 0..rel.n_rows() {
        for a in 0..rel.n_attrs() {
            if a > 0 {
                w.write_all(b",")?;
            }
            match rel.value(row, a) {
                Value::Null => {}
                Value::Str(s) => write_field(&mut w, &s)?,
                Value::Float(x) => write!(w, "{x:?}")?,
                v => write!(w, "{v}")?,
            }
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a relation to a CSV file on disk.
pub fn write_csv_file<P: AsRef<Path>>(rel: &Relation, path: P) -> Result<(), RelationError> {
    let file = std::fs::File::create(path)?;
    write_csv(rel, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    #[test]
    fn integral_floats_round_trip_as_floats() {
        let rel = RelationBuilder::new()
            .column_f64("f", vec![1.0, 2.0, -0.0])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf.clone()).unwrap(),
            "f\n1.0\n2.0\n-0.0\n"
        );
        let back = read_csv(&buf[..], true).unwrap();
        assert_eq!(back.schema().data_type(0), crate::DataType::Float);
        let bits: Vec<u64> = (0..3)
            .map(|row| match back.value(row, 0) {
                Value::Float(x) => x.to_bits(),
                other => panic!("row {row} read back as {other:?}"),
            })
            .collect();
        assert_eq!(
            bits,
            [1.0f64.to_bits(), 2.0f64.to_bits(), (-0.0f64).to_bits()]
        );
    }

    #[test]
    fn roundtrip_with_header() {
        let rel = RelationBuilder::new()
            .column_i64("id", vec![2, 1])
            .column_str("name", vec!["bob", "amy"])
            .column_f64("score", vec![1.5, 2.0])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("id,name,score\n"));
        let back = read_csv(&buf[..], true).unwrap();
        assert_eq!(back.schema().name(0), "id");
        assert_eq!(back.schema().data_type(0), DataType::Int);
        assert_eq!(back.schema().data_type(2), DataType::Float);
        assert_eq!(back.value(1, 1), Value::Str("amy".into()));
    }

    #[test]
    fn headerless_names() {
        let rel = read_csv("1,x\n2,y\n".as_bytes(), false).unwrap();
        assert_eq!(rel.schema().name(0), "c0");
        assert_eq!(rel.schema().name(1), "c1");
        assert_eq!(rel.n_rows(), 2);
    }

    #[test]
    fn type_inference_fallbacks() {
        let rel = read_csv("a,b,c\n1,1.5,x\n2,2,y\n".as_bytes(), true).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.schema().data_type(1), DataType::Float);
        assert_eq!(rel.schema().data_type(2), DataType::Str);
    }

    #[test]
    fn mixed_int_str_becomes_str() {
        let rel = read_csv("a\n1\nx\n".as_bytes(), true).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Str);
    }

    #[test]
    fn integer_spellings_merge_only_as_ints() {
        // "01", "+1" and "1" are one Int value...
        let enc =
            read_csv_encoded("n\n1\n01\n+1\n2\n".as_bytes(), CsvOptions::with_header()).unwrap();
        assert_eq!(enc.encoded().codes(0), &[0, 0, 0, 1]);
        assert_eq!(enc.dictionary(0), &ColumnData::Int(vec![1, 2]));
        // ...but three strings once the column falls back to Str.
        let enc =
            read_csv_encoded("n\n1\n01\n+1\nx\n".as_bytes(), CsvOptions::with_header()).unwrap();
        assert_eq!(enc.encoded().codes(0), &[2, 1, 0, 3]);
        assert_eq!(canonical_i64(b"-9223372036854775808"), Some(i64::MIN));
        assert_eq!(canonical_i64(b"9223372036854775808"), None);
        assert_eq!(canonical_i64(b"-0"), None);
    }

    #[test]
    fn direct_table_growth_keeps_earlier_ids() {
        // 5000 arrives while the direct table only covers 0..1024, so it is
        // hashed; the table then grows past it and gives 5000 a second id,
        // which must rank with the first.
        let mut values: Vec<i64> = vec![5000, 7, -3];
        values.extend(0..6000);
        values.extend([5000, 1 << 40, -3]);
        let text: String = std::iter::once("n".to_string())
            .chain(values.iter().map(i64::to_string))
            .collect::<Vec<_>>()
            .join("\n");
        let enc = read_csv_encoded(text.as_bytes(), CsvOptions::with_header()).unwrap();
        let (codes, card) = ColumnData::Int(values).rank_encode();
        assert_eq!(enc.encoded().codes(0), codes.as_slice());
        assert_eq!(enc.encoded().cardinality(0), card);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = read_csv("a,b\n1,2\n3\n".as_bytes(), true).unwrap_err();
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
        let err = read_csv("a,b\n1,2\n3,4,5\n".as_bytes(), true).unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 3,
                    field: 3,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let err = read_csv(&b"a,b\n1,x\n2,\xc3\x28\n"[..], true).unwrap_err();
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
        let err = read_csv(&b"a,\xff\n1,2\n"[..], true).unwrap_err();
        assert!(
            matches!(
                err,
                RelationError::Csv {
                    line: 1,
                    field: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_lines_skipped() {
        let rel = read_csv("a\n1\n\n2\n".as_bytes(), true).unwrap();
        assert_eq!(rel.n_rows(), 2);
    }

    #[test]
    fn quoted_cells_round_trip_on_write() {
        let cells = vec!["a,b", "say \"hi\"", " padded ", "two\nlines", "\r", ""];
        let rel = RelationBuilder::new()
            .column_str("s,1", cells.clone())
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        assert!(String::from_utf8(buf.clone())
            .unwrap()
            .starts_with("\"s,1\"\n\"a,b\"\n\"say \"\"hi\"\"\"\n"));
        assert_eq!(read_csv(&buf[..], true).unwrap(), rel);
    }

    #[test]
    fn empty_fields_need_a_policy() {
        let err = read_csv("a,b\n1,x\n,y\n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "a"));
        // Whitespace-only fields are nulls too.
        let err = read_csv("a,b\n1,x\n2,   \n".as_bytes(), true).unwrap_err();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "b"));
    }

    #[test]
    fn empty_fields_parse_as_nulls_with_policy() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::First);
        let rel = read_csv_opts("a,b\n1,x\n,y\n3,\n".as_bytes(), opts).unwrap();
        // Nulls don't demote the column type: `a` stays Int.
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.value(1, 0), Value::Null);
        assert_eq!(rel.value(2, 1), Value::Null);
        assert_eq!(rel.value(2, 0), Value::Int(3));
        let enc = rel.encode();
        // Nulls-first: null < 1 < 3.
        assert_eq!(enc.codes(0), &[1, 0, 2]);
    }

    #[test]
    fn quoted_empty_is_empty_string_not_null() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::Last);
        let rel = read_csv_opts("s\n\"\"\n\nx\n".as_bytes(), opts).unwrap();
        // Line 3 is blank → skipped entirely (record separator semantics),
        // so rows are: empty string, then "x"... plus nothing else.
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(rel.value(0, 0), Value::Str(String::new()));
        assert_eq!(rel.value(1, 0), Value::Str("x".into()));
    }

    #[test]
    fn null_and_empty_string_roundtrip() {
        let rel = RelationBuilder::new()
            .column_str_opt("s", vec![Some("x"), None, Some("")])
            .column_i64_opt("n", vec![None, Some(2), Some(3)])
            .null_policy(crate::NullPolicy::Last)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_csv(&rel, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text, "s,n\nx,\n,2\n\"\",3\n");
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::Last);
        let back = read_csv_opts(&buf[..], opts).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn all_null_column_defaults_to_int() {
        let opts = CsvOptions::with_header().null_policy(crate::NullPolicy::First);
        let rel = read_csv_opts("a,b\n,1\n,2\n".as_bytes(), opts).unwrap();
        assert_eq!(rel.schema().data_type(0), DataType::Int);
        assert_eq!(rel.value(0, 0), Value::Null);
        assert_eq!(rel.encode().cardinality(0), 1);
    }

    #[test]
    fn file_roundtrip() {
        let rel = RelationBuilder::new()
            .column_i64("n", vec![1, 2, 3])
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join("fastod_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_csv_file(&rel, &path).unwrap();
        let back = read_csv_file(&path, true).unwrap();
        assert_eq!(back, rel);
    }
}

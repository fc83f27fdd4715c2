//! Replaying a CSV file as typed row chunks (`fastod serve --stream`).
//!
//! [`CsvChunks`] reads its input twice with the same tokenizer as
//! [`crate::csv::parse_csv`]. Pass one infers the global column types and
//! counts the rows in O(1) memory per column; pass two yields up to
//! `chunk_rows` rows at a time as [`Relation`]s that share that schema, so
//! each can be fed to [`crate::GrowableRelation::extend`]. A file that
//! changes between the passes fails with [`RelationError::Csv`] instead of
//! yielding a short or mistyped chunk.

use crate::csv::{column_names, infer_type, ragged, read_header};
use crate::tokenize::{csv_error, Tokenizer};
use crate::{
    Column, ColumnData, CsvOptions, DataType, NullPolicy, Relation, RelationError, Schema,
};
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// An iterator of typed [`Relation`] chunks over a CSV input, sharing one
/// globally inferred schema. After the first error it yields nothing more.
pub struct CsvChunks<R: Read> {
    tok: Tokenizer<R>,
    schema: Schema,
    policy: Option<NullPolicy>,
    n_rows: usize,
    chunk_rows: usize,
    emitted: usize,
    failed: bool,
}

fn changed(line: usize, what: &str) -> RelationError {
    csv_error(
        line,
        1,
        format!("file changed between streaming passes: {what}"),
    )
}

impl<R: Read + Seek> CsvChunks<R> {
    /// Builds the chunk reader: pass one infers the schema, then the input
    /// is rewound for iteration. `chunk_rows == 0` means whole-file.
    pub fn new(
        mut input: R,
        opts: CsvOptions,
        chunk_rows: usize,
    ) -> Result<CsvChunks<R>, RelationError> {
        let mut tok = Tokenizer::new(&mut input);
        let header = read_header(&mut tok, opts.has_header)?;
        // Per column: (all Int, all Float, has nulls).
        let mut flags: Vec<(bool, bool, bool)> = Vec::new();
        let mut n_rows = 0usize;
        while let Some(rec) = tok.next_record(true)? {
            if flags.is_empty() {
                flags = vec![(true, true, false); rec.len()];
            }
            if rec.len() != flags.len() {
                return Err(ragged(&rec, flags.len()));
            }
            for (i, (all_int, all_float, has_nulls)) in flags.iter_mut().enumerate() {
                if rec.cell(i).is_none() {
                    *has_nulls = true;
                    continue;
                }
                let text = rec.text(i)?;
                *all_int = *all_int && text.parse::<i64>().is_ok();
                *all_float = *all_float && text.parse::<f64>().is_ok();
            }
            n_rows += 1;
        }
        let names = column_names(header, flags.len())?;
        let types = flags.iter().map(|&(int, float, _)| infer_type(int, float));
        let schema = Schema::new(names.into_iter().zip(types).collect())?;
        if opts.null_policy.is_none() {
            if let Some(a) = flags.iter().position(|f| f.2) {
                return Err(RelationError::NullPolicyRequired {
                    column: schema.name(a).to_string(),
                });
            }
        }
        input.seek(SeekFrom::Start(0))?;
        let mut tok = Tokenizer::new(input);
        read_header(&mut tok, opts.has_header)?;
        Ok(CsvChunks {
            tok,
            schema,
            policy: opts.null_policy,
            n_rows,
            chunk_rows: if chunk_rows == 0 {
                usize::MAX
            } else {
                chunk_rows
            },
            emitted: 0,
            failed: false,
        })
    }
}

impl<R: Read> CsvChunks<R> {
    /// Total data rows counted by pass one.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn next_chunk(&mut self) -> Result<Option<Relation>, RelationError> {
        let n = self.schema.n_attrs();
        let mut data: Vec<ColumnData> = (0..n)
            .map(|a| match self.schema.data_type(a) {
                DataType::Int => ColumnData::Int(Vec::new()),
                DataType::Float => ColumnData::Float(Vec::new()),
                _ => ColumnData::Str(Vec::new()),
            })
            .collect();
        let mut masks: Vec<Vec<bool>> = vec![Vec::new(); n];
        let mut rows = 0usize;
        while rows < self.chunk_rows {
            let Some(rec) = self.tok.next_record(true)? else {
                // Truncation is reported the moment the end of input is
                // seen, so a short final chunk never escapes as `Ok`.
                if self.emitted + rows != self.n_rows {
                    return Err(changed(self.tok.line(), "the row count changed"));
                }
                break;
            };
            if rec.len() != n {
                return Err(ragged(&rec, n));
            }
            for (i, (col, mask)) in data.iter_mut().zip(&mut masks).enumerate() {
                let null = rec.cell(i).is_none();
                mask.push(null);
                let text = rec.text(i)?;
                let stopped = || {
                    rec.error(
                        i,
                        "file changed between streaming passes: a value stopped parsing",
                    )
                };
                match col {
                    ColumnData::Int(v) => v.push(if null {
                        0
                    } else {
                        text.parse().map_err(|_| stopped())?
                    }),
                    ColumnData::Float(v) => v.push(if null {
                        0.0
                    } else {
                        text.parse().map_err(|_| stopped())?
                    }),
                    ColumnData::Str(v) => v.push(text.to_string()),
                    ColumnData::Date(_) => unreachable!("the reader never infers Date"),
                }
            }
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        self.emitted += rows;
        if self.emitted > self.n_rows {
            return Err(changed(self.tok.line(), "the row count changed"));
        }
        let columns = data
            .into_iter()
            .zip(masks)
            .map(|(d, m)| Column::with_nulls(d, m))
            .collect();
        Relation::with_policy(self.schema.clone(), columns, self.policy).map(Some)
    }
}

impl<R: Read> Iterator for CsvChunks<R> {
    type Item = Result<Relation, RelationError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_chunk() {
            Ok(rel) => rel.map(Ok),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// [`CsvChunks`] over a file on disk.
pub fn read_csv_file_chunks<P: AsRef<Path>>(
    path: P,
    opts: CsvOptions,
    chunk_rows: usize,
) -> Result<CsvChunks<std::fs::File>, RelationError> {
    CsvChunks::new(std::fs::File::open(path)?, opts, chunk_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_opts;
    use std::io::Cursor;

    #[test]
    fn chunk_iterator_replays_the_file() {
        let text = "x,y\n10,a\n20,b\n30,\"a,\"\"q\"\"\"\n40,c\n50,b\n";
        let mut chunks = CsvChunks::new(Cursor::new(text), CsvOptions::with_header(), 2).unwrap();
        assert_eq!(chunks.n_rows(), 5);
        let full = read_csv_opts(text.as_bytes(), CsvOptions::with_header()).unwrap();
        let mut concat: Option<Relation> = None;
        for chunk in &mut chunks {
            let chunk = chunk.unwrap();
            match &mut concat {
                None => concat = Some(chunk),
                Some(base) => {
                    base.extend(&chunk).unwrap();
                }
            }
        }
        assert_eq!(concat.unwrap(), full);
    }

    #[test]
    fn null_without_policy_is_rejected() {
        let err = CsvChunks::new(Cursor::new("a,b\n1,x\n,y\n"), CsvOptions::with_header(), 0)
            .err()
            .unwrap();
        assert!(matches!(err, RelationError::NullPolicyRequired { column } if column == "a"));
    }
}

//! A naive CSV reader kept as the reference for the production one.
//!
//! It is the suite's original reader: split each line on `,`, trim every
//! field, collect a `String` per cell, infer each column's type (Int, then
//! Float, then Str) over every non-null cell, and build a [`Relation`],
//! whose [`Relation::encode`] sorts row indices per column. It knows no
//! quoting beyond the exact field `""` (the empty string), so differential
//! tests feed it quote-free text. Its errors match the production reader's
//! [`RelationError`] shapes, line and field included.

use fastod_relation::{Column, ColumnData, CsvOptions, Relation, RelationBuilder, RelationError};
use std::io::{BufRead, BufReader, Read};

fn csv_error(line: usize, field: usize, message: String) -> RelationError {
    RelationError::Csv {
        line,
        field,
        message,
    }
}

/// Reads `reader` the naive way; see the module docs.
pub fn oracle_read_csv<R: Read>(reader: R, opts: CsvOptions) -> Result<Relation, RelationError> {
    let mut lines = BufReader::new(reader).lines();
    let mut header: Option<Vec<String>> = None;
    let mut raw_columns: Vec<Vec<String>> = Vec::new();
    let mut line_no = 0usize;
    if opts.has_header {
        line_no += 1;
        let line = lines
            .next()
            .ok_or_else(|| csv_error(1, 1, "expected a header line".into()))??;
        header = Some(line.split(',').map(|s| s.trim().to_string()).collect());
    }
    for line in lines {
        line_no += 1;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if raw_columns.is_empty() {
            raw_columns = vec![Vec::new(); fields.len()];
        }
        if fields.len() != raw_columns.len() {
            return Err(csv_error(
                line_no,
                fields.len().min(raw_columns.len()) + 1,
                format!(
                    "expected {} fields, found {}",
                    raw_columns.len(),
                    fields.len()
                ),
            ));
        }
        for (col, field) in raw_columns.iter_mut().zip(fields) {
            col.push(field.trim().to_string());
        }
    }
    let n_cols = raw_columns.len();
    let names: Vec<String> = match header {
        Some(h) if n_cols > 0 && h.len() != n_cols => {
            return Err(csv_error(
                1,
                h.len().min(n_cols) + 1,
                format!("header has {} fields but rows have {}", h.len(), n_cols),
            ))
        }
        Some(h) => h,
        None => (0..n_cols).map(|i| format!("c{i}")).collect(),
    };
    let mut builder = RelationBuilder::new();
    if let Some(policy) = opts.null_policy {
        builder = builder.null_policy(policy);
    }
    for (name, raw) in names.iter().zip(raw_columns) {
        let (data, mask) = infer_column(raw);
        builder = builder.column_raw(name, Column::with_nulls(data, mask));
    }
    builder.build()
}

/// Infers the tightest type that parses every non-null cell and returns the
/// payload plus the null mask. Nulls are the empty (trimmed) fields; `""`
/// is the empty string; all-null columns default to Int.
fn infer_column(raw: Vec<String>) -> (ColumnData, Vec<bool>) {
    let mask: Vec<bool> = raw.iter().map(|s| s.is_empty()).collect();
    let cells: Vec<String> = raw
        .into_iter()
        .map(|s| if s == "\"\"" { String::new() } else { s })
        .collect();
    let live =
        |pred: &dyn Fn(&str) -> bool| cells.iter().zip(&mask).all(|(s, &null)| null || pred(s));
    if live(&|s| s.parse::<i64>().is_ok()) {
        let data = cells
            .iter()
            .zip(&mask)
            .map(|(s, &null)| if null { 0 } else { s.parse().unwrap() })
            .collect();
        return (ColumnData::Int(data), mask);
    }
    if live(&|s| s.parse::<f64>().is_ok()) {
        let data = cells
            .iter()
            .zip(&mask)
            .map(|(s, &null)| if null { 0.0 } else { s.parse().unwrap() })
            .collect();
        return (ColumnData::Float(data), mask);
    }
    (ColumnData::Str(cells), mask)
}

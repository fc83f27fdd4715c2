//! Error type for the relation substrate.

use std::fmt;

/// Errors raised when constructing or loading relations.
#[derive(Debug)]
pub enum RelationError {
    /// Two attributes share a name.
    DuplicateAttribute(String),
    /// More than 64 attributes (the [`crate::AttrSet`] width).
    TooManyAttributes(usize),
    /// Columns of differing lengths were supplied.
    RaggedColumns {
        /// Row count of the first column.
        expected: usize,
        /// Row count of the offending column.
        found: usize,
        /// Name of the offending column.
        column: String,
    },
    /// A cell value did not match its column's declared type.
    TypeMismatch {
        /// Column holding the mistyped value.
        column: String,
        /// Row index of the mistyped value.
        row: usize,
    },
    /// Appending rows from a relation whose schema differs from the target's
    /// (attribute names, order and types must all match).
    SchemaMismatch {
        /// Rendered schema of the append target.
        expected: String,
        /// Rendered schema of the batch.
        found: String,
    },
    /// A row id referenced by a mutation (delete/update) is outside the
    /// relation's physical slot range.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// Physical slot count of the relation (live + tombstoned).
        n_rows: usize,
    },
    /// A mutation referenced a row that is already tombstoned — including
    /// referencing the same row twice in one call. Deletes are not
    /// idempotent: a double delete almost always means the caller's row
    /// bookkeeping has drifted, so it is surfaced instead of ignored.
    DeadRow {
        /// The offending row id.
        row: usize,
    },
    /// A column contains nulls but the relation has no [`crate::NullPolicy`]
    /// configured. Dense-rank encoding needs a total order, and silently
    /// picking a null placement would change discovered dependencies — the
    /// caller must opt in to `First` or `Last` explicitly.
    NullPolicyRequired {
        /// Name of the first null-bearing column encountered.
        column: String,
    },
    /// CSV parsing failed.
    Csv {
        /// 1-based source line of the malformed field.
        line: usize,
        /// 1-based field index within its record (for a ragged record,
        /// the first field past the shorter of the two widths).
        field: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// An armed `fastod-faultkit` failpoint fired at `site` (test-only
    /// fault injection; never raised in production).
    Injected {
        /// The failpoint that fired.
        site: &'static str,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute name: {name}")
            }
            RelationError::TooManyAttributes(n) => {
                write!(f, "{n} attributes exceed the 64-attribute limit")
            }
            RelationError::RaggedColumns { expected, found, column } => write!(
                f,
                "column {column} has {found} rows but {expected} were expected"
            ),
            RelationError::TypeMismatch { column, row } => {
                write!(f, "value in column {column}, row {row} has the wrong type")
            }
            RelationError::SchemaMismatch { expected, found } => write!(
                f,
                "schema mismatch: cannot append rows of {found} to a relation over {expected}"
            ),
            RelationError::RowOutOfRange { row, n_rows } => {
                write!(f, "row {row} is out of range (relation has {n_rows} slots)")
            }
            RelationError::DeadRow { row } => {
                write!(f, "row {row} is already deleted")
            }
            RelationError::NullPolicyRequired { column } => write!(
                f,
                "column {column} contains nulls but no null ordering policy is set; \
                 configure NullPolicy::First or NullPolicy::Last"
            ),
            RelationError::Csv { line, field, message } => {
                write!(f, "CSV parse error at line {line}, field {field}: {message}")
            }
            RelationError::Injected { site } => write!(f, "fault injected at {site}"),
            RelationError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for RelationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelationError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RelationError {
    fn from(e: std::io::Error) -> Self {
        RelationError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RelationError::DuplicateAttribute("x".into())
            .to_string()
            .contains("duplicate"));
        assert!(RelationError::TooManyAttributes(70)
            .to_string()
            .contains("64-attribute"));
        let e = RelationError::from(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "gone",
        ));
        assert!(e.to_string().contains("gone"));
    }
}

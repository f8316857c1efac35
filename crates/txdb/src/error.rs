//! Error types for the transactional database substrate.

use std::fmt;

use crate::value::DataType;

/// All errors that the database engine can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum TxdbError {
    /// Referenced a table that does not exist in the catalog.
    UnknownTable(String),
    /// Referenced a column that does not exist on the given table.
    UnknownColumn { table: String, column: String },
    /// Attempted to create a table whose name is already taken.
    DuplicateTable(String),
    /// Attempted to create an index that already exists.
    DuplicateIndex { table: String, column: String },
    /// A value did not match the declared column type.
    TypeMismatch {
        expected: DataType,
        got: String,
        context: String,
    },
    /// A row violated a primary-key or unique constraint.
    DuplicateKey { table: String, key: String },
    /// A row referenced a non-existent parent row, or a delete would
    /// orphan child rows (referential actions are `RESTRICT`).
    ForeignKeyViolation { table: String, detail: String },
    /// A `NOT NULL` column received a null value.
    NotNullViolation { table: String, column: String },
    /// Row arity did not match the table schema.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// Referenced a stored procedure that does not exist.
    UnknownProcedure(String),
    /// Procedure invoked with missing or unexpected arguments.
    BadProcedureArgs { procedure: String, detail: String },
    /// The requested row id does not exist (possibly deleted).
    NoSuchRow { table: String },
    /// A value literal could not be parsed as the requested type.
    InvalidValue(String),
    /// SQL text could not be lexed or parsed.
    Parse(String),
    /// A transaction was explicitly aborted.
    Aborted(String),
    /// A write-write conflict under snapshot isolation: the row was
    /// modified by a transaction this one cannot see (first committer
    /// wins). The later writer must abort and retry on fresh state.
    Serialization { table: String, detail: String },
    /// A query's tracked memory footprint would exceed the configured
    /// execution budget and no degradation path (partitioned hash
    /// build) could absorb the overrun. The query failed atomically —
    /// no partial results were produced.
    ResourceExhausted {
        /// The configured budget, in bytes.
        budget: usize,
        /// The tracked footprint that the failed charge would have
        /// reached, in bytes.
        requested: usize,
    },
    /// An operating-system I/O failure on the durability path (WAL
    /// append, fsync, snapshot write, directory creation). Carries the
    /// rendered `std::io::Error` rather than the error itself so the
    /// variant stays `Clone + PartialEq` with the rest of the enum.
    Io {
        /// What the engine was doing (e.g. `"wal append"`).
        context: String,
        /// The rendered OS error.
        detail: String,
    },
    /// On-disk state failed validation on open: a bad magic number, an
    /// unsupported format version, a CRC-valid but undecodable record,
    /// or a snapshot/log generation mismatch. Unlike a torn tail (which
    /// recovery silently discards), corruption is never auto-repaired.
    Corrupt(String),
    /// A quiescent-point operation (checkpoint, dump) was refused
    /// because transactions are still in flight — their uncommitted
    /// versions would leak into the serialized state.
    ActiveTransactions {
        /// The refused operation (e.g. `"checkpoint"`).
        operation: String,
        /// How many transactions were active.
        count: usize,
    },
    /// Another open database holds the data directory's lock: two
    /// handles appending to one log would interleave their batches.
    DirectoryLocked(String),
}

impl TxdbError {
    /// Wrap an OS error on the durability path.
    pub(crate) fn io(context: impl Into<String>, err: &std::io::Error) -> TxdbError {
        TxdbError::Io {
            context: context.into(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for TxdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxdbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            TxdbError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` on table `{table}`")
            }
            TxdbError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            TxdbError::DuplicateIndex { table, column } => {
                write!(f, "index on `{table}.{column}` already exists")
            }
            TxdbError::TypeMismatch {
                expected,
                got,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, got {got}"
                )
            }
            TxdbError::DuplicateKey { table, key } => {
                write!(f, "duplicate key {key} for table `{table}`")
            }
            TxdbError::ForeignKeyViolation { table, detail } => {
                write!(f, "foreign key violation on `{table}`: {detail}")
            }
            TxdbError::NotNullViolation { table, column } => {
                write!(f, "null value in NOT NULL column `{table}.{column}`")
            }
            TxdbError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "row arity mismatch for `{table}`: expected {expected} values, got {got}"
                )
            }
            TxdbError::UnknownProcedure(p) => write!(f, "unknown procedure `{p}`"),
            TxdbError::BadProcedureArgs { procedure, detail } => {
                write!(f, "bad arguments for procedure `{procedure}`: {detail}")
            }
            TxdbError::NoSuchRow { table } => write!(f, "no such row in table `{table}`"),
            TxdbError::InvalidValue(s) => write!(f, "invalid value: {s}"),
            TxdbError::Parse(s) => write!(f, "SQL parse error: {s}"),
            TxdbError::Aborted(s) => write!(f, "transaction aborted: {s}"),
            TxdbError::Serialization { table, detail } => {
                write!(f, "serialization conflict on `{table}`: {detail}")
            }
            TxdbError::ResourceExhausted { budget, requested } => {
                write!(
                    f,
                    "memory budget exhausted: needed {requested} bytes against a budget of {budget}"
                )
            }
            TxdbError::Io { context, detail } => {
                write!(f, "I/O error during {context}: {detail}")
            }
            TxdbError::Corrupt(detail) => write!(f, "corrupt on-disk state: {detail}"),
            TxdbError::ActiveTransactions { operation, count } => {
                write!(
                    f,
                    "cannot {operation} with {count} active transaction(s): \
                     commit or roll back first"
                )
            }
            TxdbError::DirectoryLocked(dir) => {
                write!(f, "data directory `{dir}` is already open")
            }
        }
    }
}

impl std::error::Error for TxdbError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TxdbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_human_readable() {
        let e = TxdbError::UnknownColumn {
            table: "movie".into(),
            column: "titel".into(),
        };
        assert_eq!(e.to_string(), "unknown column `titel` on table `movie`");
        let e = TxdbError::NotNullViolation {
            table: "customer".into(),
            column: "name".into(),
        };
        assert!(e.to_string().contains("NOT NULL"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&TxdbError::UnknownTable("x".into()));
    }
}

//! Named columnar tables.

use crate::column::{Column, Keys, Measures};
use crate::domain::Domain;
use crate::error::EngineError;
use std::collections::HashMap;

/// An in-memory columnar table: equally long, uniquely named columns.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
    rows: usize,
}

impl Table {
    /// Builds a table; validates equal column lengths, unique names, and that
    /// every attribute code lies inside its declared domain.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, EngineError> {
        let name = name.into();
        if columns.is_empty() {
            return Err(EngineError::InvalidSchema(format!("table `{name}` has no columns")));
        }
        let rows = columns[0].len();
        if columns.iter().any(|c| c.len() != rows) {
            return Err(EngineError::LengthMismatch { table: name });
        }
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name().to_string(), i).is_some() {
                return Err(EngineError::DuplicateColumn(c.name().to_string()));
            }
            if let (Some(codes), Some(domain)) = (c.as_codes(), c.domain()) {
                if let Some(&bad) = codes.iter().find(|&&v| !domain.contains(v)) {
                    return Err(EngineError::CodeOutOfDomain {
                        column: c.name().to_string(),
                        code: bad,
                        domain: domain.size(),
                    });
                }
            }
        }
        Ok(Table { name, columns, by_name, rows })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// True iff a column with this name exists.
    pub fn has_column(&self, column: &str) -> bool {
        self.by_name.contains_key(column)
    }

    /// Looks up a column by name.
    pub fn column(&self, column: &str) -> Result<&Column, EngineError> {
        self.by_name.get(column).map(|&i| &self.columns[i]).ok_or_else(|| {
            EngineError::UnknownColumn { table: self.name.clone(), column: column.to_string() }
        })
    }

    /// Key values of a key column, at their stored width.
    pub fn key(&self, column: &str) -> Result<Keys<'_>, EngineError> {
        self.column(column)?.as_key().ok_or_else(|| EngineError::WrongColumnKind {
            table: self.name.clone(),
            column: column.to_string(),
            expected: "key",
        })
    }

    /// Codes of an attribute column.
    pub fn codes(&self, column: &str) -> Result<&[u32], EngineError> {
        self.column(column)?.as_codes().ok_or_else(|| EngineError::WrongColumnKind {
            table: self.name.clone(),
            column: column.to_string(),
            expected: "attribute",
        })
    }

    /// Values of a measure column, at their stored width.
    pub fn measure(&self, column: &str) -> Result<Measures<'_>, EngineError> {
        self.column(column)?.as_measure().ok_or_else(|| EngineError::WrongColumnKind {
            table: self.name.clone(),
            column: column.to_string(),
            expected: "measure",
        })
    }

    /// Domain of an attribute column.
    pub fn domain(&self, column: &str) -> Result<&Domain, EngineError> {
        self.column(column)?.domain().ok_or_else(|| EngineError::WrongColumnKind {
            table: self.name.clone(),
            column: column.to_string(),
            expected: "attribute",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let d = Domain::numeric("color", 3).unwrap();
        Table::new(
            "t",
            vec![
                Column::key("pk", vec![0, 1, 2, 3]),
                Column::attr("color", d, vec![0, 1, 2, 1]),
                Column::measure("price", vec![5, 10, 15, 20]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.key("pk").unwrap(), [0, 1, 2, 3][..]);
        assert_eq!(t.codes("color").unwrap(), &[0, 1, 2, 1]);
        assert_eq!(t.measure("price").unwrap(), [5, 10, 15, 20][..]);
        assert_eq!(t.domain("color").unwrap().size(), 3);
        assert!(t.has_column("pk") && !t.has_column("nope"));
        assert_eq!(t.columns().len(), 3);
    }

    #[test]
    fn wrong_kind_errors() {
        let t = sample();
        assert!(matches!(t.key("color"), Err(EngineError::WrongColumnKind { .. })));
        assert!(matches!(t.codes("pk"), Err(EngineError::WrongColumnKind { .. })));
        assert!(matches!(t.measure("color"), Err(EngineError::WrongColumnKind { .. })));
        assert!(matches!(t.domain("price"), Err(EngineError::WrongColumnKind { .. })));
        assert!(matches!(t.column("ghost"), Err(EngineError::UnknownColumn { .. })));
    }

    #[test]
    fn validation_rejects_bad_tables() {
        assert!(Table::new("empty", vec![]).is_err());
        let err =
            Table::new("ragged", vec![Column::key("a", vec![0]), Column::key("b", vec![0, 1])]);
        assert!(matches!(err, Err(EngineError::LengthMismatch { .. })));
        let err = Table::new("dup", vec![Column::key("a", vec![0]), Column::key("a", vec![1])]);
        assert!(matches!(err, Err(EngineError::DuplicateColumn(_))));
        let d = Domain::numeric("x", 2).unwrap();
        let err = Table::new("bad_code", vec![Column::attr("x", d, vec![0, 5])]);
        assert!(matches!(err, Err(EngineError::CodeOutOfDomain { .. })));
    }
}

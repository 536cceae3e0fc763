//! Star and snowflake schemas with validated foreign keys.

use crate::cost::CostModel;
use crate::error::EngineError;
use crate::table::Table;
use std::sync::{Arc, OnceLock};

/// A sub-dimension (snowflake normalization, one level deep): the parent
/// dimension holds a key column referencing this table's dense primary key.
/// The paper's example is `Date.MK → Month.MK` (§5.3, snowflake queries).
#[derive(Debug, Clone)]
pub struct SubDimension {
    /// The normalized-out table (e.g. `Month`).
    pub table: Table,
    /// Dense primary key column in `table`.
    pub pk: String,
    /// The key column *in the parent dimension* referencing `pk`.
    pub fk_in_dim: String,
}

/// A dimension table and the fact column referencing it.
#[derive(Debug, Clone)]
pub struct Dimension {
    /// The dimension table (e.g. `Customer`).
    pub table: Table,
    /// Dense primary key column in `table`.
    pub pk: String,
    /// Foreign key column in the fact table referencing `pk`.
    pub fk: String,
    /// Snowflake sub-dimensions hanging off this dimension.
    pub subdims: Vec<SubDimension>,
}

impl Dimension {
    /// A plain star dimension with no sub-dimensions.
    pub fn new(table: Table, pk: impl Into<String>, fk: impl Into<String>) -> Self {
        Dimension { table, pk: pk.into(), fk: fk.into(), subdims: Vec::new() }
    }

    /// Adds a snowflake sub-dimension.
    pub fn with_subdim(mut self, sub: SubDimension) -> Self {
        self.subdims.push(sub);
        self
    }
}

/// A validated star (or one-level snowflake) schema instance: one fact table
/// plus its dimensions, with referential integrity checked at construction.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Table,
    dims: Vec<Dimension>,
    /// The instance's sampled cost model, built on first use by
    /// [`crate::cost::cost_model_for`]. A clone holds identical data, so
    /// it shares the model.
    pub(crate) cost: OnceLock<Arc<CostModel>>,
}

impl StarSchema {
    /// Builds and validates a schema:
    ///
    /// * table names (fact, dimensions, sub-dimensions) are pairwise
    ///   distinct, so predicate and group-by resolution is unambiguous;
    /// * each dimension's `pk` is a dense key (`pk[i] == i`);
    /// * each fact `fk` is a key column whose values index dimension rows;
    /// * each sub-dimension's `fk_in_dim` exists in its parent and references
    ///   rows of the sub-table, whose `pk` is also dense.
    ///
    /// Construction-time validation is what lets the scan kernels index
    /// dimension bitsets by raw foreign-key value without bounds checks
    /// failing: a schema that would make `execute` read out of bounds is
    /// rejected here with a typed error instead of panicking mid-scan.
    pub fn new(fact: Table, dims: Vec<Dimension>) -> Result<Self, EngineError> {
        if dims.is_empty() {
            return Err(EngineError::InvalidSchema(
                "a star schema needs at least one dimension".into(),
            ));
        }
        let mut names = vec![fact.name()];
        for dim in &dims {
            for name in
                std::iter::once(dim.table.name()).chain(dim.subdims.iter().map(|s| s.table.name()))
            {
                if names.contains(&name) {
                    return Err(EngineError::DuplicateTable(name.to_string()));
                }
                names.push(name);
            }
        }
        for dim in &dims {
            check_dense_pk(&dim.table, &dim.pk)?;
            let fk = fact.key(&dim.fk)?;
            let rows = dim.table.num_rows();
            if let Some(bad) = fk.iter().find(|&v| v as usize >= rows) {
                return Err(EngineError::ForeignKeyOutOfRange {
                    column: dim.fk.clone(),
                    value: bad,
                    referenced_rows: rows,
                });
            }
            for sub in &dim.subdims {
                check_dense_pk(&sub.table, &sub.pk)?;
                let sub_fk = dim.table.key(&sub.fk_in_dim)?;
                let sub_rows = sub.table.num_rows();
                if let Some(bad) = sub_fk.iter().find(|&v| v as usize >= sub_rows) {
                    return Err(EngineError::ForeignKeyOutOfRange {
                        column: sub.fk_in_dim.clone(),
                        value: bad,
                        referenced_rows: sub_rows,
                    });
                }
            }
        }
        Ok(StarSchema { fact, dims, cost: OnceLock::new() })
    }

    /// The fact table.
    pub fn fact(&self) -> &Table {
        &self.fact
    }

    /// All dimensions.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }

    /// Number of dimensions (`n` in the paper's Definition 1.1).
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Looks a dimension up by table name.
    pub fn dim(&self, table_name: &str) -> Result<&Dimension, EngineError> {
        self.dims
            .iter()
            .find(|d| d.table.name() == table_name)
            .ok_or_else(|| EngineError::UnknownTable(table_name.to_string()))
    }

    /// Index of a dimension by table name.
    pub fn dim_index(&self, table_name: &str) -> Result<usize, EngineError> {
        self.dims
            .iter()
            .position(|d| d.table.name() == table_name)
            .ok_or_else(|| EngineError::UnknownTable(table_name.to_string()))
    }

    /// Finds the dimension owning a sub-dimension table, together with that
    /// sub-dimension. Used to resolve snowflake predicates.
    pub fn subdim(&self, table_name: &str) -> Option<(&Dimension, &SubDimension)> {
        for dim in &self.dims {
            for sub in &dim.subdims {
                if sub.table.name() == table_name {
                    return Some((dim, sub));
                }
            }
        }
        None
    }

    /// Every table name the schema answers queries against — fact,
    /// dimensions, and snowflake sub-dimensions, in declaration order. This
    /// is the ownership surface a multi-schema router indexes to plan which
    /// dataset a query's predicate tables belong to.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names = vec![self.fact.name()];
        for dim in &self.dims {
            names.push(dim.table.name());
            names.extend(dim.subdims.iter().map(|s| s.table.name()));
        }
        names
    }

    /// Total tuple count `N = |D_s|` across fact and dimension tables — the
    /// paper's input size.
    pub fn total_rows(&self) -> usize {
        self.fact.num_rows() + self.dims.iter().map(|d| d.table.num_rows()).sum::<usize>()
    }

    /// Consumes the schema returning its parts — used by the neighboring-
    /// instance constructors in `dp-starj` that rebuild edited instances.
    pub fn into_parts(self) -> (Table, Vec<Dimension>) {
        (self.fact, self.dims)
    }
}

fn check_dense_pk(table: &Table, pk: &str) -> Result<(), EngineError> {
    let keys = table.key(pk)?;
    if keys.iter().enumerate().any(|(i, k)| k as usize != i) {
        return Err(EngineError::NonDensePrimaryKey { table: table.name().to_string() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::domain::Domain;

    fn dim_table(name: &str, n: u32) -> Table {
        let d = Domain::numeric("attr", 4).unwrap();
        Table::new(
            name,
            vec![
                Column::key("pk", (0..n).collect()),
                Column::attr("attr", d, (0..n).map(|i| i % 4).collect()),
            ],
        )
        .unwrap()
    }

    fn fact_table(fks: Vec<(&str, Vec<u32>)>) -> Table {
        let rows = fks[0].1.len();
        let mut cols: Vec<Column> = fks.into_iter().map(|(n, v)| Column::key(n, v)).collect();
        cols.push(Column::measure("qty", vec![1; rows]));
        Table::new("Fact", cols).unwrap()
    }

    #[test]
    fn valid_schema_builds() {
        let fact = fact_table(vec![("fk_a", vec![0, 1, 2, 0]), ("fk_b", vec![1, 1, 0, 2])]);
        let schema = StarSchema::new(
            fact,
            vec![
                Dimension::new(dim_table("A", 3), "pk", "fk_a"),
                Dimension::new(dim_table("B", 3), "pk", "fk_b"),
            ],
        )
        .unwrap();
        assert_eq!(schema.num_dims(), 2);
        assert_eq!(schema.total_rows(), 4 + 3 + 3);
        assert_eq!(schema.dim("A").unwrap().table.name(), "A");
        assert_eq!(schema.dim_index("B").unwrap(), 1);
        assert!(schema.dim("C").is_err());
    }

    #[test]
    fn dangling_fk_rejected() {
        let fact = fact_table(vec![("fk_a", vec![0, 9])]);
        let err = StarSchema::new(fact, vec![Dimension::new(dim_table("A", 3), "pk", "fk_a")]);
        assert!(matches!(err, Err(EngineError::ForeignKeyOutOfRange { .. })));
    }

    #[test]
    fn non_dense_pk_rejected() {
        let d = Domain::numeric("attr", 4).unwrap();
        let table = Table::new(
            "A",
            vec![Column::key("pk", vec![5, 6]), Column::attr("attr", d, vec![0, 1])],
        )
        .unwrap();
        let fact = fact_table(vec![("fk_a", vec![0, 1])]);
        let err = StarSchema::new(fact, vec![Dimension::new(table, "pk", "fk_a")]);
        assert!(matches!(err, Err(EngineError::NonDensePrimaryKey { .. })));
    }

    #[test]
    fn no_dimensions_rejected() {
        let fact = fact_table(vec![("fk_a", vec![0])]);
        assert!(StarSchema::new(fact, vec![]).is_err());
    }

    #[test]
    fn duplicate_dimension_names_rejected() {
        let fact = fact_table(vec![("fk_a", vec![0, 1]), ("fk_b", vec![0, 1])]);
        let err = StarSchema::new(
            fact,
            vec![
                Dimension::new(dim_table("A", 2), "pk", "fk_a"),
                Dimension::new(dim_table("A", 2), "pk", "fk_b"),
            ],
        );
        assert!(matches!(err, Err(EngineError::DuplicateTable(t)) if t == "A"));
    }

    #[test]
    fn subdim_name_colliding_with_dimension_rejected() {
        // Sub-table named like another dimension would make predicate
        // resolution ambiguous.
        let sub = dim_table("B", 2);
        let d = Domain::numeric("attr", 4).unwrap();
        let a = Table::new(
            "A",
            vec![
                Column::key("pk", vec![0, 1]),
                Column::attr("attr", d, vec![0, 1]),
                Column::key("sk", vec![0, 1]),
            ],
        )
        .unwrap();
        let fact = fact_table(vec![("fk_a", vec![0, 1]), ("fk_b", vec![0, 1])]);
        let dim_a = Dimension::new(a, "pk", "fk_a").with_subdim(SubDimension {
            table: sub,
            pk: "pk".into(),
            fk_in_dim: "sk".into(),
        });
        let dim_b = Dimension::new(dim_table("B", 2), "pk", "fk_b");
        assert!(matches!(
            StarSchema::new(fact, vec![dim_a, dim_b]),
            Err(EngineError::DuplicateTable(t)) if t == "B"
        ));
    }

    #[test]
    fn fact_name_colliding_with_dimension_rejected() {
        let fact = fact_table(vec![("fk_a", vec![0, 1])]);
        let err = StarSchema::new(fact, vec![Dimension::new(dim_table("Fact", 2), "pk", "fk_a")]);
        assert!(matches!(err, Err(EngineError::DuplicateTable(_))));
    }

    #[test]
    fn snowflake_subdim_lookup() {
        // Dimension A references sub-table S via column `sk`.
        let sub = dim_table("S", 2);
        let d = Domain::numeric("attr", 4).unwrap();
        let a = Table::new(
            "A",
            vec![
                Column::key("pk", vec![0, 1, 2]),
                Column::attr("attr", d, vec![0, 1, 2]),
                Column::key("sk", vec![0, 1, 0]),
            ],
        )
        .unwrap();
        let fact = fact_table(vec![("fk_a", vec![0, 1, 2, 2])]);
        let dim = Dimension::new(a, "pk", "fk_a").with_subdim(SubDimension {
            table: sub,
            pk: "pk".into(),
            fk_in_dim: "sk".into(),
        });
        let schema = StarSchema::new(fact, vec![dim]).unwrap();
        let (parent, sub) = schema.subdim("S").expect("S should resolve");
        assert_eq!(parent.table.name(), "A");
        assert_eq!(sub.fk_in_dim, "sk");
        assert!(schema.subdim("nope").is_none());
    }

    #[test]
    fn table_names_cover_fact_dims_and_subdims() {
        let sub = dim_table("S", 2);
        let d = Domain::numeric("attr", 4).unwrap();
        let a = Table::new(
            "A",
            vec![
                Column::key("pk", vec![0, 1]),
                Column::attr("attr", d, vec![0, 1]),
                Column::key("sk", vec![0, 1]),
            ],
        )
        .unwrap();
        let fact = fact_table(vec![("fk_a", vec![0, 1]), ("fk_b", vec![0, 1])]);
        let dim_a = Dimension::new(a, "pk", "fk_a").with_subdim(SubDimension {
            table: sub,
            pk: "pk".into(),
            fk_in_dim: "sk".into(),
        });
        let dim_b = Dimension::new(dim_table("B", 2), "pk", "fk_b");
        let schema = StarSchema::new(fact, vec![dim_a, dim_b]).unwrap();
        assert_eq!(schema.table_names(), vec!["Fact", "A", "S", "B"]);
    }

    #[test]
    fn snowflake_dangling_subfk_rejected() {
        let sub = dim_table("S", 2);
        let d = Domain::numeric("attr", 4).unwrap();
        let a = Table::new(
            "A",
            vec![
                Column::key("pk", vec![0, 1]),
                Column::attr("attr", d, vec![0, 1]),
                Column::key("sk", vec![0, 7]),
            ],
        )
        .unwrap();
        let fact = fact_table(vec![("fk_a", vec![0, 1])]);
        let dim = Dimension::new(a, "pk", "fk_a").with_subdim(SubDimension {
            table: sub,
            pk: "pk".into(),
            fk_in_dim: "sk".into(),
        });
        assert!(matches!(
            StarSchema::new(fact, vec![dim]),
            Err(EngineError::ForeignKeyOutOfRange { .. })
        ));
    }
}

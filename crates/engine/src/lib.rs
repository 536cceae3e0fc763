//! Columnar star/snowflake-schema relational engine.
//!
//! This crate is the data substrate of the DP-starJ reproduction: an
//! in-memory, columnar implementation of exactly the relational fragment the
//! paper queries — a star schema (`R0 ⋈ R1 ⋈ … ⋈ Rn`, Definition 1.1) whose
//! fact table references each dimension through a foreign key, with
//! conjunctive point/range predicates on dimension attributes and
//! COUNT / SUM / GROUP BY aggregation over fact measures.
//!
//! Key representation choices (documented because the mechanisms rely on
//! them):
//!
//! * **Dense primary keys.** Every dimension's primary key is its row index
//!   (`pk[i] == i`), validated at schema construction. Fact foreign keys then
//!   index dimension rows directly, making the star join a bitmap semi-join
//!   — the execution strategy real OLAP engines use for star queries.
//! * **Coded attributes.** Dimension attributes are categorical/ordinal codes
//!   `0..domain`, mirroring the paper's finite domains `dom(a_i)` whose sizes
//!   calibrate the Predicate Mechanism noise.
//! * **Weighted predicates.** Besides 0/1 constraints, the engine evaluates
//!   real-valued weight vectors over a domain — the `Q = Φ·W` formulation
//!   (paper Eq. 11) that Workload Decomposition's reconstructed predicate
//!   matrices require.
//! * **One-level snowflake.** A dimension may reference sub-dimension tables
//!   (the paper's Date → Month normalization, §5.3); sub-dimension predicates
//!   are resolved into parent-dimension bitmaps before the fact scan.
//!
//! # Example
//!
//! ```
//! use starj_engine::{
//!     execute, Column, Dimension, Domain, Predicate, StarQuery, StarSchema, Table,
//! };
//!
//! // One dimension (3 products), five fact rows.
//! let category = Domain::categorical("category", vec!["FOOD", "TOYS"]).unwrap();
//! let product = Table::new("Product", vec![
//!     Column::key("pk", vec![0, 1, 2]),
//!     Column::attr("category", category, vec![0, 0, 1]),
//! ]).unwrap();
//! let sales = Table::new("Sales", vec![
//!     Column::key("product", vec![0, 0, 1, 2, 2]),
//!     Column::measure("amount", vec![10, 20, 5, 7, 3]),
//! ]).unwrap();
//! let schema = StarSchema::new(sales, vec![Dimension::new(product, "pk", "product")]).unwrap();
//!
//! // SELECT sum(amount) FROM Sales, Product WHERE category = 'FOOD'.
//! let q = StarQuery::sum("food_sales", "amount")
//!     .with(Predicate::point("Product", "category", 0));
//! assert_eq!(execute(&schema, &q).unwrap().scalar().unwrap(), 35.0);
//! ```

pub mod bitset;
pub mod canon;
pub mod column;
pub mod cost;
pub mod domain;
pub mod error;
pub mod exec;
pub mod plan;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod sql;
mod stage;
pub mod stats;
pub mod table;
pub mod whist;

pub use bitset::BitSet;
pub use canon::{canonicalize, CanonicalQuery};
pub use column::{Column, ColumnData, KeyData, Keys, MeasureData, Measures};
pub use cost::{cost_model_for, CostModel};
pub use domain::Domain;
pub use error::EngineError;
pub use exec::{
    execute, execute_batch, execute_batch_with, execute_weighted, execute_weighted_batch,
    execute_weighted_batch_with, execute_with,
};
pub use plan::{
    fact_scan_count, DimExplain, FilterExplain, PlanExplain, QueryExplain, ScanOptions, ScanPlan,
    DENSE_GROUP_CAP,
};
pub use predicate::{Constraint, Predicate, WeightedPredicate};
pub use query::{Agg, GroupAttr, QueryResult, StarQuery};
pub use schema::{Dimension, StarSchema, SubDimension};
pub use sql::{escape_label, to_sql, unescape_label};
pub use stats::{contributions, max_contribution, Contributions};
pub use table::Table;
pub use whist::{AxisNames, WeightHistogram, WeightedQuery, W_SPACE_CEILING};

//! Constructive neighboring-instance semantics (paper §3.2).
//!
//! The paper's Definition 3.7 defines neighbors per scenario:
//!
//! * `(1,0)`-private — instances differ by one *fact* tuple;
//! * `(0,k)`-private — delete one tuple from each private dimension **and
//!   every fact tuple referencing it** (the FK cascade), so the foreign-key
//!   constraints stay satisfied.
//!
//! These constructors actually build the neighboring instance, which lets
//! the test suite verify the central sensitivity claims *empirically*: the
//! change a dimension deletion induces in a query answer equals that
//! entity's contribution (`starj_engine::contributions`), and fact-tuple
//! deletion changes a COUNT by exactly 1.

use crate::error::CoreError;
use starj_engine::{Column, ColumnData, Dimension, StarSchema, Table};

/// Returns a `(1,0)`-neighbor: the instance with fact row `row` deleted.
pub fn delete_fact_tuple(schema: &StarSchema, row: usize) -> Result<StarSchema, CoreError> {
    if row >= schema.fact().num_rows() {
        return Err(CoreError::Invalid(format!(
            "fact row {row} out of range ({} rows)",
            schema.fact().num_rows()
        )));
    }
    let keep = |r: usize| r != row;
    let fact = filter_table(schema.fact(), keep)?;
    StarSchema::new(fact, schema.dims().to_vec()).map_err(Into::into)
}

/// Returns a `(0,1)`-neighbor: dimension tuple `key` of `dim` is deleted
/// together with every referencing fact row; the dimension's dense key space
/// is re-indexed and fact foreign keys are remapped accordingly.
pub fn delete_dim_tuple_cascade(
    schema: &StarSchema,
    dim_name: &str,
    key: u32,
) -> Result<StarSchema, CoreError> {
    let di = schema.dim_index(dim_name)?;
    let dim_rows = schema.dims()[di].table.num_rows();
    if key as usize >= dim_rows {
        return Err(CoreError::Invalid(format!(
            "key {key} out of range for dimension `{dim_name}` ({dim_rows} rows)"
        )));
    }

    // 1. Drop referencing fact rows.
    let fk_col = schema.dims()[di].fk.clone();
    let fks = schema.fact().key(&fk_col)?;
    let fact = filter_table(schema.fact(), |r| fks.get(r) != key)?;

    // 2. Drop the dimension row and re-densify its keys.
    let mut dims = schema.dims().to_vec();
    let new_dim_table = filter_table(&dims[di].table, |r| r as u32 != key)?;
    let new_dim_table = redensify_pk(&new_dim_table, &dims[di].pk)?;
    dims[di] = Dimension {
        table: new_dim_table,
        pk: dims[di].pk.clone(),
        fk: dims[di].fk.clone(),
        subdims: dims[di].subdims.clone(),
    };

    // 3. Remap surviving fact fks (> key shift down by one).
    let fact = remap_fk(&fact, &fk_col, key)?;
    StarSchema::new(fact, dims).map_err(Into::into)
}

/// Joint `(0,k)` deletion: one tuple per private dimension, FK cascades for
/// each, applied sequentially. Later keys refer to the *original* key space;
/// the function adjusts them as earlier deletions shift indices.
pub fn delete_joint(
    schema: &StarSchema,
    deletions: &[(String, u32)],
) -> Result<StarSchema, CoreError> {
    if deletions.is_empty() {
        return Err(CoreError::Invalid("delete_joint needs at least one deletion".into()));
    }
    let mut current = schema.clone();
    let mut applied: Vec<(String, u32)> = Vec::new();
    for (dim, key) in deletions {
        // Shift this key down by the number of earlier deletions in the same
        // dimension with a smaller original key.
        let shift = applied.iter().filter(|(d, k)| d == dim && *k < *key).count() as u32;
        if applied.iter().any(|(d, k)| d == dim && *k == *key) {
            return Err(CoreError::Invalid(format!(
                "duplicate deletion of key {key} in dimension `{dim}`"
            )));
        }
        current = delete_dim_tuple_cascade(&current, dim, key - shift)?;
        applied.push((dim.clone(), *key));
    }
    Ok(current)
}

fn filter_table(table: &Table, keep: impl Fn(usize) -> bool) -> Result<Table, CoreError> {
    let columns = table
        .columns()
        .iter()
        .map(|c| {
            let name = c.name().to_string();
            match c.data() {
                ColumnData::Key(k) => {
                    let rows = k.as_keys().iter().enumerate();
                    Column::from_keys(
                        name,
                        rows.filter(|(i, _)| keep(*i)).map(|(_, k)| k).collect(),
                    )
                }
                ColumnData::Code { domain, values } => {
                    Column::attr(name, domain.clone(), filtered(values, &keep))
                }
                ColumnData::Measure(m) => {
                    let rows = m.as_measures().iter().enumerate();
                    Column::from_measures(
                        name,
                        rows.filter(|(i, _)| keep(*i)).map(|(_, v)| v).collect(),
                    )
                }
            }
        })
        .collect();
    Table::new(table.name(), columns).map_err(Into::into)
}

fn filtered<T: Copy>(values: &[T], keep: &impl Fn(usize) -> bool) -> Vec<T> {
    values.iter().enumerate().filter(|(i, _)| keep(*i)).map(|(_, v)| *v).collect()
}

/// Rewrites the primary-key column to `0..rows` after a deletion.
fn redensify_pk(table: &Table, pk: &str) -> Result<Table, CoreError> {
    let rows = table.num_rows() as u32;
    let columns = table
        .columns()
        .iter()
        .map(|c| if c.name() == pk { Column::key(pk, (0..rows).collect()) } else { c.clone() })
        .collect();
    Table::new(table.name(), columns).map_err(Into::into)
}

/// Decrements fact fk values greater than `deleted_key`.
fn remap_fk(fact: &Table, fk_col: &str, deleted_key: u32) -> Result<Table, CoreError> {
    let columns = fact
        .columns()
        .iter()
        .map(|c| {
            if c.name() == fk_col {
                let remapped = c
                    .as_key()
                    .expect("fk is a key column")
                    .iter()
                    .map(|k| if k > deleted_key { k - 1 } else { k })
                    .collect();
                Column::from_keys(fk_col, remapped)
            } else {
                c.clone()
            }
        })
        .collect();
    Table::new(fact.name(), columns).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_engine::{contributions, execute, Predicate, StarQuery};
    use starj_ssb::{generate, qc1, SsbConfig};

    fn schema() -> StarSchema {
        generate(&SsbConfig { scale: 0.001, seed: 17, ..Default::default() }).unwrap()
    }

    #[test]
    fn fact_deletion_changes_count_by_one() {
        let s = schema();
        let q = StarQuery::count("all");
        let before = execute(&s, &q).unwrap().scalar().unwrap();
        let neighbor = delete_fact_tuple(&s, 0).unwrap();
        let after = execute(&neighbor, &q).unwrap().scalar().unwrap();
        assert_eq!(before - after, 1.0, "(1,0) neighbors differ by one tuple");
    }

    #[test]
    fn fact_deletion_out_of_range_rejected() {
        let s = schema();
        assert!(delete_fact_tuple(&s, usize::MAX).is_err());
    }

    #[test]
    fn dim_cascade_preserves_fk_integrity() {
        let s = schema();
        // StarSchema::new re-validates all FKs, so a successful build proves
        // integrity after re-indexing.
        let neighbor = delete_dim_tuple_cascade(&s, "Customer", 5).unwrap();
        assert_eq!(
            neighbor.dim("Customer").unwrap().table.num_rows(),
            s.dim("Customer").unwrap().table.num_rows() - 1
        );
        assert!(neighbor.fact().num_rows() < s.fact().num_rows());
    }

    #[test]
    fn dim_cascade_delta_equals_contribution() {
        // The paper's sensitivity story in one test: deleting customer `k`
        // changes the query answer by exactly `k`'s contribution.
        let s = schema();
        let q = qc1();
        let contrib = contributions(&s, &q, &["Customer".to_string()]).unwrap();
        let before = execute(&s, &q).unwrap().scalar().unwrap();
        for key in [0u32, 3, 7] {
            let neighbor = delete_dim_tuple_cascade(&s, "Customer", key).unwrap();
            let after = execute(&neighbor, &q).unwrap().scalar().unwrap();
            let expected = contrib.per_entity.get(&vec![key]).copied().unwrap_or(0.0);
            assert_eq!(before - after, expected, "delta for customer {key}");
        }
    }

    #[test]
    fn dim_cascade_remaps_attribute_alignment() {
        // After deleting customer k, customer k+1's attributes must follow it
        // down to index k.
        let s = schema();
        let cust = &s.dim("Customer").unwrap().table;
        let region_before = cust.codes("region").unwrap().to_vec();
        let neighbor = delete_dim_tuple_cascade(&s, "Customer", 2).unwrap();
        let region_after = neighbor.dim("Customer").unwrap().table.codes("region").unwrap();
        assert_eq!(region_after[2], region_before[3]);
        assert_eq!(region_after[0], region_before[0]);
    }

    #[test]
    fn joint_deletion_applies_all_cascades() {
        let s = schema();
        let neighbor =
            delete_joint(&s, &[("Customer".to_string(), 1), ("Supplier".to_string(), 0)]).unwrap();
        assert_eq!(
            neighbor.dim("Customer").unwrap().table.num_rows(),
            s.dim("Customer").unwrap().table.num_rows() - 1
        );
        assert_eq!(
            neighbor.dim("Supplier").unwrap().table.num_rows(),
            s.dim("Supplier").unwrap().table.num_rows() - 1
        );
    }

    #[test]
    fn joint_deletion_same_dim_twice_shifts_keys() {
        let s = schema();
        let n =
            delete_joint(&s, &[("Customer".to_string(), 1), ("Customer".to_string(), 3)]).unwrap();
        assert_eq!(
            n.dim("Customer").unwrap().table.num_rows(),
            s.dim("Customer").unwrap().table.num_rows() - 2
        );
        assert!(
            delete_joint(&s, &[("Customer".to_string(), 1), ("Customer".to_string(), 1)]).is_err()
        );
    }

    #[test]
    fn cascade_across_the_u16_boundary_rewidths_the_fk_column() {
        use starj_engine::{Domain, Keys};
        // A 65 537-row dimension: key 65 536 needs four bytes, and after
        // any cascade deletion the largest surviving key is 65 535 — two.
        let build = |dim_rows: u32, fks: Vec<u32>| {
            let dim = Table::new(
                "D",
                vec![
                    Column::key("pk", (0..dim_rows).collect()),
                    Column::attr("x", Domain::numeric("x", 2).unwrap(), vec![0; dim_rows as usize]),
                ],
            )
            .unwrap();
            let fact = Table::new("F", vec![Column::key("fk", fks)]).unwrap();
            StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
        };
        let wide = build(65_537, vec![0, 65_535, 65_536, 5, 65_536, 4]);
        assert!(matches!(wide.fact().key("fk").unwrap(), Keys::U32(_)));

        let neighbor = delete_dim_tuple_cascade(&wide, "D", 5).unwrap();
        let fk = neighbor.fact().key("fk").unwrap();
        assert!(matches!(fk, Keys::U16(_)), "no surviving key needs 32 bits");
        assert_eq!(fk, [0, 65_534, 65_535, 65_535, 4][..]);
        // Same columns, same widths, as the neighbor built from scratch.
        let direct = build(65_536, vec![0, 65_534, 65_535, 65_535, 4]);
        assert_eq!(neighbor.fact().columns(), direct.fact().columns());
        assert_eq!(neighbor.dims()[0].table.columns(), direct.dims()[0].table.columns());
        let all = StarQuery::count("all");
        assert_eq!(execute(&neighbor, &all).unwrap(), execute(&direct, &all).unwrap());

        // Dropping a fact row leaves the wide keys wide while one remains…
        let still_wide = delete_fact_tuple(&wide, 2).unwrap();
        assert_eq!(still_wide.fact().key("fk").unwrap(), [0, 65_535, 5, 65_536, 4][..]);
        assert!(matches!(still_wide.fact().key("fk").unwrap(), Keys::U32(_)));
        // …and narrows once the last one is gone.
        let narrowed = delete_fact_tuple(&still_wide, 3).unwrap();
        assert!(matches!(narrowed.fact().key("fk").unwrap(), Keys::U16(_)));
    }

    #[test]
    fn deleting_the_only_wide_measure_narrows_the_column() {
        use starj_engine::Domain;
        // Row 2 holds the one measure past `i8`; the rest fit one byte.
        let build = |fks: Vec<u32>, values: Vec<i64>| {
            let dim = Table::new(
                "D",
                vec![
                    Column::key("pk", vec![0, 1]),
                    Column::attr("x", Domain::numeric("x", 2).unwrap(), vec![0, 1]),
                ],
            )
            .unwrap();
            let fact = Table::new("F", vec![Column::key("fk", fks), Column::measure("m", values)])
                .unwrap();
            StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap()
        };
        let wide = build(vec![0, 1, 1, 0], vec![-128, 127, -129, 5]);
        assert_eq!(wide.fact().measure("m").unwrap().width_bytes(), 2);

        let neighbor = delete_fact_tuple(&wide, 2).unwrap();
        let direct = build(vec![0, 1, 0], vec![-128, 127, 5]);
        assert_eq!(neighbor.fact().measure("m").unwrap().width_bytes(), 1);
        assert_eq!(neighbor.fact().columns(), direct.fact().columns());
        assert_eq!(neighbor.fact().column("m").unwrap().measure_abs_max(), 128);
        let sum = StarQuery::sum("s", "m");
        assert_eq!(execute(&neighbor, &sum).unwrap(), execute(&direct, &sum).unwrap());
    }

    #[test]
    fn deleting_unreferenced_entity_changes_nothing_predicated() {
        // A customer outside the predicate's region contributes 0 to the
        // filtered count.
        let s = schema();
        let cust = &s.dim("Customer").unwrap().table;
        let regions = cust.codes("region").unwrap();
        // Find a customer NOT in region 2 (ASIA).
        let key = regions.iter().position(|&r| r != 2).unwrap() as u32;
        let q = StarQuery::count("asia").with(Predicate::point("Customer", "region", 2));
        let before = execute(&s, &q).unwrap().scalar().unwrap();
        let neighbor = delete_dim_tuple_cascade(&s, "Customer", key).unwrap();
        let after = execute(&neighbor, &q).unwrap().scalar().unwrap();
        assert_eq!(before, after);
    }
}

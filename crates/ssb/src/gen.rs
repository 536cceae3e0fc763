//! The SSB data generator.
//!
//! Cardinalities follow the SSB specification:
//!
//! | table     | rows                          |
//! |-----------|-------------------------------|
//! | Lineorder | 6,000,000 · SF                |
//! | Customer  | 30,000 · SF                   |
//! | Supplier  | 2,000 · SF                    |
//! | Part      | 200,000 · (1 + ⌊log₂ SF⌋) for SF ≥ 1; 200,000 · SF below |
//! | Date      | 2,556 (7 calendar years)      |
//!
//! Sub-unit scale factors (the paper sweeps 0.25–1) scale Part linearly —
//! the log formula is only defined for SF ≥ 1. Small floors keep tiny test
//! instances valid.

use crate::labels;
use starj_engine::{
    Column, Dimension, Domain, EngineError, KeyData, MeasureData, StarSchema, Table,
};
use starj_noise::samplers::{Exponential, Gamma, GaussianMixture};
use starj_noise::StarRng;

/// Distribution driving fact foreign keys and measures (paper Figs. 7 & 11).
///
/// Every variant produces a *unit sample* in `[0, 1)` that is then mapped
/// onto key spaces and measure ranges, so skew affects the join distribution
/// (COUNT queries) and the value distribution (SUM queries) alike.
#[derive(Debug, Clone)]
pub enum FactDistribution {
    /// Uniform over the key space.
    Uniform,
    /// Exponential with the given rate; unit-mapped as `x·rate/4` (≈98 % of
    /// mass inside the unit interval, remainder clamped).
    Exponential {
        /// Rate λ.
        rate: f64,
    },
    /// Gamma(shape, scale); unit-mapped as `x / (4·shape·scale)`.
    Gamma {
        /// Shape k.
        shape: f64,
        /// Scale θ.
        scale: f64,
    },
    /// Gaussian mixture with components in unit space
    /// (`(weight, mean, std)`, means in `[0,1]`); samples clamped to `[0,1)`.
    GaussianMixture(Vec<(f64, f64, f64)>),
}

impl FactDistribution {
    /// Draws a unit sample in `[0, 1)`.
    pub fn unit_sample(&self, rng: &mut StarRng) -> f64 {
        let x = match self {
            FactDistribution::Uniform => rng.unit(),
            FactDistribution::Exponential { rate } => {
                let d = Exponential::new(*rate).expect("validated in generate()");
                d.sample(rng) * rate / 4.0
            }
            FactDistribution::Gamma { shape, scale } => {
                let d = Gamma::new(*shape, *scale).expect("validated in generate()");
                d.sample(rng) / (4.0 * shape * scale)
            }
            FactDistribution::GaussianMixture(comps) => {
                let d = GaussianMixture::new(comps).expect("validated in generate()");
                d.sample(rng)
            }
        };
        x.clamp(0.0, 1.0 - 1e-9)
    }

    fn validate(&self) -> Result<(), EngineError> {
        let ok = match self {
            FactDistribution::Uniform => true,
            FactDistribution::Exponential { rate } => Exponential::new(*rate).is_ok(),
            FactDistribution::Gamma { shape, scale } => Gamma::new(*shape, *scale).is_ok(),
            FactDistribution::GaussianMixture(c) => GaussianMixture::new(c).is_ok(),
        };
        if ok {
            Ok(())
        } else {
            Err(EngineError::InvalidSchema(format!("invalid fact distribution: {self:?}")))
        }
    }
}

/// A planted heavy hitter: the first `fanout` fact rows reference `key` in
/// dimension `dim`. Used to realize a target global sensitivity (Figure 6).
#[derive(Debug, Clone)]
pub struct HotSpot {
    /// Dimension table name (`"Customer"`, …).
    pub dim: String,
    /// The key every planted row references.
    pub key: u32,
    /// Number of fact rows redirected to `key`.
    pub fanout: usize,
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SsbConfig {
    /// SSB scale factor (the paper sweeps 0.25–1).
    pub scale: f64,
    /// Seed; the same config always generates the same instance.
    pub seed: u64,
    /// Distribution of fact foreign keys and measures.
    pub distribution: FactDistribution,
    /// Optional heavy-hitter planting.
    pub hot: Option<HotSpot>,
}

impl Default for SsbConfig {
    fn default() -> Self {
        SsbConfig { scale: 0.01, seed: 42, distribution: FactDistribution::Uniform, hot: None }
    }
}

impl SsbConfig {
    /// Convenience constructor with uniform data.
    pub fn at_scale(scale: f64, seed: u64) -> Self {
        SsbConfig { scale, seed, ..SsbConfig::default() }
    }

    /// Lineorder cardinality for this scale.
    pub fn lineorder_rows(&self) -> usize {
        ((6_000_000.0 * self.scale) as usize).max(100)
    }

    /// Customer cardinality for this scale. The floor keeps every region
    /// populated with high probability in tiny test instances.
    pub fn customer_rows(&self) -> usize {
        ((30_000.0 * self.scale) as usize).max(50)
    }

    /// Supplier cardinality for this scale (floored as for customers).
    pub fn supplier_rows(&self) -> usize {
        ((2_000.0 * self.scale) as usize).max(25)
    }

    /// Part cardinality for this scale (log formula above SF 1, linear below).
    pub fn part_rows(&self) -> usize {
        if self.scale >= 1.0 {
            200_000 * (1 + self.scale.log2().floor() as usize)
        } else {
            ((200_000.0 * self.scale) as usize).max(50)
        }
    }
}

/// Days in the 7 SSB calendar years 1992–1998 (the spec's 2,556-row Date
/// table; one trailing day trimmed from the raw 2,557 calendar days to match
/// the published cardinality).
pub const DATE_ROWS: usize = 2_556;

const DAYS_PER_YEAR: [u32; 7] = [366, 365, 365, 365, 366, 365, 365];
const MONTH_CUM_DAYS: [u32; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 366];

/// Generates a full SSB star schema instance.
pub fn generate(config: &SsbConfig) -> Result<StarSchema, EngineError> {
    if !(config.scale.is_finite() && config.scale > 0.0) {
        return Err(EngineError::InvalidSchema(format!(
            "scale factor must be positive, got {}",
            config.scale
        )));
    }
    config.distribution.validate()?;
    let root = StarRng::from_seed(config.seed);

    let date = build_date()?;
    let customer = build_geo_dim("Customer", config.customer_rows(), &mut root.derive("customer"))?;
    let supplier = build_geo_dim("Supplier", config.supplier_rows(), &mut root.derive("supplier"))?;
    let part = build_part(config.part_rows(), &mut root.derive("part"))?;

    let fact = build_lineorder(
        config,
        customer.num_rows(),
        supplier.num_rows(),
        part.num_rows(),
        &mut root.derive("lineorder"),
    )?;

    StarSchema::new(
        fact,
        vec![
            Dimension::new(date, "dk", "orderdate"),
            Dimension::new(customer, "pk", "custkey"),
            Dimension::new(supplier, "pk", "suppkey"),
            Dimension::new(part, "pk", "partkey"),
        ],
    )
}

/// Builds the Date dimension: year (7), month (12), dayofyear (366).
pub fn build_date() -> Result<Table, EngineError> {
    let year_domain = Domain::categorical("year", labels::year_labels())?;
    let month_domain = Domain::numeric("month", 12)?;
    let doy_domain = Domain::numeric("dayofyear", 366)?;

    let mut years = Vec::with_capacity(DATE_ROWS);
    let mut months = Vec::with_capacity(DATE_ROWS);
    let mut doys = Vec::with_capacity(DATE_ROWS);
    'fill: for (y, &days) in DAYS_PER_YEAR.iter().enumerate() {
        for d in 0..days {
            if years.len() == DATE_ROWS {
                break 'fill;
            }
            years.push(y as u32);
            months.push(month_of_day(d));
            doys.push(d);
        }
    }
    Table::new(
        "Date",
        vec![
            Column::key("dk", (0..DATE_ROWS as u32).collect()),
            Column::attr("year", year_domain, years),
            Column::attr("month", month_domain, months),
            Column::attr("dayofyear", doy_domain, doys),
        ],
    )
}

fn month_of_day(day_of_year: u32) -> u32 {
    debug_assert!(day_of_year < 366);
    (MONTH_CUM_DAYS.iter().position(|&c| day_of_year < c).unwrap_or(12) as u32).saturating_sub(1)
}

/// Builds Customer/Supplier: region (5) → nation (25) → city (250), plus a
/// flat `address` attribute with the paper's 10⁴ domain (Figure 8).
fn build_geo_dim(name: &str, rows: usize, rng: &mut StarRng) -> Result<Table, EngineError> {
    let region_domain = Domain::categorical("region", labels::REGIONS.to_vec())?;
    let nation_domain = Domain::categorical("nation", labels::NATIONS.to_vec())?;
    let city_domain = Domain::categorical("city", labels::city_labels())?;
    let address_domain = Domain::numeric("address", 10_000)?;

    let mut regions = Vec::with_capacity(rows);
    let mut nations = Vec::with_capacity(rows);
    let mut cities = Vec::with_capacity(rows);
    let mut addresses = Vec::with_capacity(rows);
    for _ in 0..rows {
        let region = rng.below(5) as u32;
        let nation = region * 5 + rng.below(5) as u32;
        let city = nation * labels::CITIES_PER_NATION + rng.below(10) as u32;
        regions.push(region);
        nations.push(nation);
        cities.push(city);
        addresses.push(rng.below(10_000) as u32);
    }
    Table::new(
        name,
        vec![
            Column::key("pk", (0..rows as u32).collect()),
            Column::attr("region", region_domain, regions),
            Column::attr("nation", nation_domain, nations),
            Column::attr("city", city_domain, cities),
            Column::attr("address", address_domain, addresses),
        ],
    )
}

/// Builds Part: mfgr (5) → category (25) → brand (1000).
fn build_part(rows: usize, rng: &mut StarRng) -> Result<Table, EngineError> {
    let mfgr_domain = Domain::categorical("mfgr", labels::MFGRS.to_vec())?;
    let category_domain = Domain::categorical("category", labels::category_labels())?;
    let brand_domain = Domain::numeric("brand", 1_000)?;

    let mut mfgrs = Vec::with_capacity(rows);
    let mut categories = Vec::with_capacity(rows);
    let mut brands = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mfgr = rng.below(5) as u32;
        let category = mfgr * labels::CATEGORIES_PER_MFGR + rng.below(5) as u32;
        let brand = category * labels::BRANDS_PER_CATEGORY + rng.below(40) as u32;
        mfgrs.push(mfgr);
        categories.push(category);
        brands.push(brand);
    }
    Table::new(
        "Part",
        vec![
            Column::key("pk", (0..rows as u32).collect()),
            Column::attr("mfgr", mfgr_domain, mfgrs),
            Column::attr("category", category_domain, categories),
            Column::attr("brand", brand_domain, brands),
        ],
    )
}

fn build_lineorder(
    config: &SsbConfig,
    customers: usize,
    suppliers: usize,
    parts: usize,
    rng: &mut StarRng,
) -> Result<Table, EngineError> {
    let rows = config.lineorder_rows();
    let dist = &config.distribution;

    // The planted heavy hitter: (fk column, key, leading rows it owns).
    let hot = match &config.hot {
        None => None,
        Some(hot) => {
            let (column, limit) = match hot.dim.as_str() {
                "Date" => (0, DATE_ROWS),
                "Customer" => (1, customers),
                "Supplier" => (2, suppliers),
                "Part" => (3, parts),
                other => return Err(EngineError::UnknownTable(other.to_string())),
            };
            if hot.key as usize >= limit {
                return Err(EngineError::ForeignKeyOutOfRange {
                    column: hot.dim.clone(),
                    value: hot.key,
                    referenced_rows: limit,
                });
            }
            Some((column, hot.key, hot.fanout))
        }
    };

    // Keys and measures go straight into their stored width: at SF 1 three
    // of the four 6 M-row fk columns never exist in 4-byte form, and no
    // measure in 8-byte form.
    let mut fks: [KeyData; 4] = std::array::from_fn(|_| KeyData::with_capacity(rows));
    let [mut quantity, mut revenue, mut supplycost]: [MeasureData; 3] =
        std::array::from_fn(|_| MeasureData::with_capacity(rows));

    let key_of = |unit: f64, n: usize| ((unit * n as f64) as u32).min(n as u32 - 1);
    for row in 0..rows {
        let mut keys = [DATE_ROWS, customers, suppliers, parts]
            .map(|referenced| key_of(dist.unit_sample(rng), referenced));
        if let Some((column, key, _)) = hot.filter(|&(_, _, fanout)| row < fanout) {
            keys[column] = key;
        }
        for (column, key) in fks.iter_mut().zip(keys) {
            column.push(key);
        }
        quantity.push(1 + (dist.unit_sample(rng) * 49.0) as i64);
        revenue.push(1 + (dist.unit_sample(rng) * 9_999.0) as i64);
        supplycost.push(1 + (dist.unit_sample(rng) * 999.0) as i64);
    }

    let [orderdate, custkey, suppkey, partkey] = fks;
    Table::new(
        "Lineorder",
        vec![
            Column::from_keys("orderdate", orderdate),
            Column::from_keys("custkey", custkey),
            Column::from_keys("suppkey", suppkey),
            Column::from_keys("partkey", partkey),
            Column::from_measures("quantity", quantity),
            Column::from_measures("revenue", revenue),
            Column::from_measures("supplycost", supplycost),
        ],
    )
}

/// Finds a key in `dim` whose attribute `attr` equals `code` — used to plant
/// heavy hitters that still satisfy a query's predicates (Figure 6).
pub fn find_key_with(schema: &StarSchema, dim: &str, attr: &str, code: u32) -> Option<u32> {
    let d = schema.dim(dim).ok()?;
    let codes = d.table.codes(attr).ok()?;
    codes.iter().position(|&c| c == code).map(|p| p as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SsbConfig {
        SsbConfig { scale: 0.002, seed: 7, ..SsbConfig::default() }
    }

    #[test]
    fn generates_valid_schema() {
        let schema = generate(&tiny()).unwrap();
        assert_eq!(schema.num_dims(), 4);
        assert_eq!(schema.fact().name(), "Lineorder");
        assert_eq!(schema.dim("Date").unwrap().table.num_rows(), DATE_ROWS);
        assert!(schema.dim("Customer").unwrap().table.num_rows() >= 50);
    }

    #[test]
    fn cardinality_formulas() {
        let c = SsbConfig::at_scale(1.0, 1);
        assert_eq!(c.lineorder_rows(), 6_000_000);
        assert_eq!(c.customer_rows(), 30_000);
        assert_eq!(c.supplier_rows(), 2_000);
        assert_eq!(c.part_rows(), 200_000);
        let c = SsbConfig::at_scale(4.0, 1);
        assert_eq!(c.part_rows(), 600_000, "200k · (1 + log2 4)");
        let c = SsbConfig::at_scale(0.5, 1);
        assert_eq!(c.part_rows(), 100_000, "linear below SF 1");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&tiny()).unwrap();
        let b = generate(&tiny()).unwrap();
        assert_eq!(
            a.fact().key("custkey").unwrap(),
            b.fact().key("custkey").unwrap(),
            "same seed, same data"
        );
        let mut other = tiny();
        other.seed = 8;
        let c = generate(&other).unwrap();
        assert_ne!(a.fact().key("custkey").unwrap(), c.fact().key("custkey").unwrap());
    }

    #[test]
    fn geo_hierarchy_is_consistent() {
        let schema = generate(&tiny()).unwrap();
        let cust = &schema.dim("Customer").unwrap().table;
        let regions = cust.codes("region").unwrap();
        let nations = cust.codes("nation").unwrap();
        let cities = cust.codes("city").unwrap();
        for i in 0..cust.num_rows() {
            assert_eq!(nations[i] / 5, regions[i], "nation sits in its region block");
            assert_eq!(cities[i] / 10, nations[i], "city sits in its nation block");
        }
    }

    #[test]
    fn part_hierarchy_is_consistent() {
        let schema = generate(&tiny()).unwrap();
        let part = &schema.dim("Part").unwrap().table;
        let mfgrs = part.codes("mfgr").unwrap();
        let cats = part.codes("category").unwrap();
        let brands = part.codes("brand").unwrap();
        for i in 0..part.num_rows() {
            assert_eq!(cats[i] / 5, mfgrs[i]);
            assert_eq!(brands[i] / 40, cats[i]);
        }
    }

    #[test]
    fn date_dimension_is_calendar_like() {
        let date = build_date().unwrap();
        assert_eq!(date.num_rows(), DATE_ROWS);
        let years = date.codes("year").unwrap();
        assert_eq!(years[0], 0);
        assert_eq!(years[365], 0, "1992 is a leap year (366 days)");
        assert_eq!(years[366], 1);
        let months = date.codes("month").unwrap();
        assert_eq!(months[0], 0);
        assert_eq!(months[31], 1, "Feb 1st");
        let doys = date.codes("dayofyear").unwrap();
        assert_eq!(doys[366], 0, "day-of-year resets at the year boundary");
    }

    #[test]
    fn measures_are_in_declared_ranges() {
        let schema = generate(&tiny()).unwrap();
        let q = schema.fact().measure("quantity").unwrap();
        assert!(q.iter().all(|v| (1..=50).contains(&v)));
        let r = schema.fact().measure("revenue").unwrap();
        assert!(r.iter().all(|v| (1..=10_000).contains(&v)));
    }

    #[test]
    fn skewed_distributions_shift_mass_to_low_keys() {
        let uniform = generate(&tiny()).unwrap();
        let mut cfg = tiny();
        cfg.distribution = FactDistribution::Exponential { rate: 1.0 };
        let skewed = generate(&cfg).unwrap();
        let customers = uniform.dim("Customer").unwrap().table.num_rows() as u32;
        let low_cut = customers / 4;
        let frac_low = |s: &StarSchema| {
            let keys = s.fact().key("custkey").unwrap();
            keys.iter().filter(|&k| k < low_cut).count() as f64 / keys.len() as f64
        };
        assert!(
            frac_low(&skewed) > frac_low(&uniform) + 0.2,
            "exponential keys should pile up at low indices: {} vs {}",
            frac_low(&skewed),
            frac_low(&uniform)
        );
    }

    #[test]
    fn hot_spot_planting_creates_heavy_hitter() {
        let mut cfg = tiny();
        cfg.hot = Some(HotSpot { dim: "Customer".into(), key: 3, fanout: 500 });
        let schema = generate(&cfg).unwrap();
        let keys = schema.fact().key("custkey").unwrap();
        let fanout = keys.iter().filter(|&k| k == 3).count();
        assert!(fanout >= 500, "planted fanout missing: {fanout}");
    }

    #[test]
    fn hot_spot_key_out_of_range_rejected() {
        let mut cfg = tiny();
        cfg.hot = Some(HotSpot { dim: "Customer".into(), key: 1_000_000, fanout: 10 });
        assert!(generate(&cfg).is_err());
        let mut cfg = tiny();
        cfg.hot = Some(HotSpot { dim: "Nope".into(), key: 0, fanout: 10 });
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn invalid_scale_rejected() {
        assert!(generate(&SsbConfig::at_scale(0.0, 1)).is_err());
        assert!(generate(&SsbConfig::at_scale(-1.0, 1)).is_err());
        assert!(generate(&SsbConfig::at_scale(f64::NAN, 1)).is_err());
    }

    #[test]
    fn find_key_with_locates_matching_entity() {
        let schema = generate(&tiny()).unwrap();
        let key = find_key_with(&schema, "Customer", "region", 2).expect("some ASIA customer");
        let cust = &schema.dim("Customer").unwrap().table;
        assert_eq!(cust.codes("region").unwrap()[key as usize], 2);
        assert!(find_key_with(&schema, "Ghost", "region", 2).is_none());
    }
}

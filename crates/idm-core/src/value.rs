//! Atomic values, domains, attributes, schemas and the tuple component `τ`.
//!
//! Definition 1 of the paper defines the tuple component `τ = (W, T)` where
//! `W = ⟨a_j⟩` is a sequence of attributes (each the name of a role played by
//! some domain `D_j`) and `T = ⟨v_j⟩` is a sequence of atomic values with
//! `v_j ∈ D_j`. Unlike the relational model, the schema `W` is defined *per
//! tuple*; sets of views sharing a schema are expressed via resource view
//! classes (Section 3 of the paper).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{IdmError, Result};

/// A domain is a set of atomic values (paper footnote 3; conforms to
/// Elmasri/Navathe's definitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Unicode text.
    Text,
    /// 64-bit signed integers.
    Integer,
    /// 64-bit IEEE floats.
    Float,
    /// Booleans.
    Boolean,
    /// Timestamps with second precision (see [`Timestamp`]).
    Date,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::Text => "text",
            Domain::Integer => "integer",
            Domain::Float => "float",
            Domain::Boolean => "boolean",
            Domain::Date => "date",
        };
        f.write_str(s)
    }
}

/// A timestamp with second precision, stored as seconds since the Unix epoch.
///
/// The repository deliberately avoids external date-time crates; the civil
/// date conversions below implement the proleptic Gregorian calendar, which
/// is all the paper's `lastmodified < @12.06.2005` style predicates need.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Builds a timestamp from a civil date and time (UTC).
    ///
    /// `month` and `day` are 1-based. Invalid dates return a parse error.
    pub fn from_ymd_hms(year: i32, month: u32, day: u32, h: u32, m: u32, s: u32) -> Result<Self> {
        if !(1..=12).contains(&month) {
            return Err(IdmError::Parse {
                detail: format!("month {month} out of range"),
            });
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(IdmError::Parse {
                detail: format!("day {day} out of range for {year}-{month:02}"),
            });
        }
        if h > 23 || m > 59 || s > 59 {
            return Err(IdmError::Parse {
                detail: format!("time {h:02}:{m:02}:{s:02} out of range"),
            });
        }
        let days = days_from_civil(year, month, day);
        Ok(Timestamp(
            days * 86_400 + i64::from(h) * 3600 + i64::from(m) * 60 + i64::from(s),
        ))
    }

    /// Builds a timestamp at midnight of the given civil date (UTC).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self> {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Parses the iQL date literal format `@dd.mm.yyyy` (without the `@`).
    ///
    /// The evaluation in the paper (Table 4, Q3) uses `@12.06.2005`.
    pub fn parse_dmy(text: &str) -> Result<Self> {
        let mut parts = text.splitn(3, '.');
        let (d, m, y) = match (parts.next(), parts.next(), parts.next()) {
            (Some(d), Some(m), Some(y)) => (d, m, y),
            _ => {
                return Err(IdmError::Parse {
                    detail: format!("expected dd.mm.yyyy, got '{text}'"),
                })
            }
        };
        let parse = |s: &str, what: &str| -> Result<i64> {
            s.trim().parse::<i64>().map_err(|_| IdmError::Parse {
                detail: format!("invalid {what} '{s}' in date '{text}'"),
            })
        };
        let (d, m, y) = (parse(d, "day")?, parse(m, "month")?, parse(y, "year")?);
        Self::from_ymd(y as i32, m as u32, d as u32)
    }

    /// Returns the civil date `(year, month, day)` of this timestamp (UTC).
    pub fn to_ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0.div_euclid(86_400))
    }

    /// Returns the `(hour, minute, second)` of this timestamp (UTC).
    pub fn to_hms(self) -> (u32, u32, u32) {
        let secs = self.0.rem_euclid(86_400);
        (
            (secs / 3600) as u32,
            ((secs % 3600) / 60) as u32,
            (secs % 60) as u32,
        )
    }

    /// Returns a timestamp exactly `days` days later.
    pub fn plus_days(self, days: i64) -> Self {
        Timestamp(self.0 + days * 86_400)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d) = self.to_ymd();
        let (h, mi, s) = self.to_hms();
        write!(f, "{d:02}/{mo:02}/{y} {h:02}:{mi:02}:{s:02}")
    }
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // March-based month [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// An atomic value drawn from one of the supported [`Domain`]s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Unicode text.
    Text(String),
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Boolean.
    Boolean(bool),
    /// Timestamp.
    Date(Timestamp),
}

impl Value {
    /// The domain this value belongs to.
    pub fn domain(&self) -> Domain {
        match self {
            Value::Text(_) => Domain::Text,
            Value::Integer(_) => Domain::Integer,
            Value::Float(_) => Domain::Float,
            Value::Boolean(_) => Domain::Boolean,
            Value::Date(_) => Domain::Date,
        }
    }

    /// Returns the text content, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content, if this is an integer value.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the timestamp content, if this is a date value.
    pub fn as_date(&self) -> Option<Timestamp> {
        match self {
            Value::Date(t) => Some(*t),
            _ => None,
        }
    }

    /// Compares two values for query predicates.
    ///
    /// Numeric domains (integer/float) are mutually comparable; all other
    /// cross-domain comparisons return `None`, which makes predicates on
    /// mistyped attributes evaluate to false rather than erroring — the
    /// schema-agnostic behaviour a dataspace system needs (the same
    /// attribute name may play different roles in different views).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Integer(a), Value::Integer(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Integer(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Integer(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used for index size
    /// accounting (Table 3 of the paper).
    pub fn footprint(&self) -> usize {
        match self {
            Value::Text(s) => s.len() + std::mem::size_of::<String>(),
            _ => 16,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Date(t) => write!(f, "{t}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Boolean(b)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Date(t)
    }
}

/// An attribute: the name of a role played by some domain in a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    /// The attribute name.
    pub name: String,
    /// The domain the attribute draws its values from.
    pub domain: Domain,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        Attribute {
            name: name.into(),
            domain,
        }
    }
}

/// A schema `W = ⟨a_1, …, a_k⟩`: an ordered sequence of attributes.
///
/// Schemas are cheap to clone (`Arc`-backed) because iDM attaches one to
/// *every* tuple component, and in practice many views share the same
/// filesystem- or class-level schema (`W_FS`, `W_R`, `W_E`, …).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema(Arc<Vec<Attribute>>);

impl Schema {
    /// Creates a schema from an attribute sequence.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Schema(Arc::new(attrs))
    }

    /// Convenience constructor from `(name, domain)` pairs.
    pub fn of(pairs: &[(&str, Domain)]) -> Self {
        Schema::new(
            pairs
                .iter()
                .map(|(n, d)| Attribute::new(*n, *d))
                .collect::<Vec<_>>(),
        )
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema(Arc::new(Vec::new()))
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.0
    }

    /// The position of the attribute with the given name, if any.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|a| a.name == name)
    }

    /// Whether this schema contains every attribute of `other`
    /// (same name and domain), regardless of order.
    pub fn covers(&self, other: &Schema) -> bool {
        other.attributes().iter().all(|a| {
            self.position(&a.name)
                .is_some_and(|i| self.0[i].domain == a.domain)
        })
    }
}

/// The tuple component `τ = (W, T)` of a resource view (Def. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleComponent {
    schema: Schema,
    values: Vec<Value>,
}

impl TupleComponent {
    /// Builds a tuple component, validating that `T` conforms to `W`:
    /// same arity, and each `v_j ∈ D_j`.
    pub fn new(schema: Schema, values: Vec<Value>) -> Result<Self> {
        if schema.arity() != values.len() {
            return Err(IdmError::SchemaMismatch {
                detail: format!(
                    "schema has {} attributes but tuple has {} values",
                    schema.arity(),
                    values.len()
                ),
            });
        }
        for (attr, value) in schema.attributes().iter().zip(&values) {
            if attr.domain != value.domain() {
                return Err(IdmError::SchemaMismatch {
                    detail: format!(
                        "attribute '{}' has domain {} but value '{}' has domain {}",
                        attr.name,
                        attr.domain,
                        value,
                        value.domain()
                    ),
                });
            }
        }
        Ok(TupleComponent { schema, values })
    }

    /// Builds a tuple component from `(name, value)` pairs, deriving the
    /// schema from the value domains. Infallible by construction.
    pub fn of(pairs: Vec<(&str, Value)>) -> Self {
        let schema = Schema::new(
            pairs
                .iter()
                .map(|(n, v)| Attribute::new(*n, v.domain()))
                .collect(),
        );
        let values = pairs.into_iter().map(|(_, v)| v).collect();
        TupleComponent { schema, values }
    }

    /// The schema `W`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The value sequence `T`.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Looks an attribute value up by name.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.schema.position(attr).map(|i| &self.values[i])
    }

    /// Iterates over `(attribute, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Attribute, &Value)> {
        self.schema.attributes().iter().zip(self.values.iter())
    }

    /// Approximate in-memory footprint in bytes (values only; the schema is
    /// shared and accounted for once per distinct schema by the catalog).
    pub fn footprint(&self) -> usize {
        self.values.iter().map(Value::footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2005, 6, 12),
            (2006, 9, 12),
            (1969, 12, 31),
            (2100, 3, 1),
        ] {
            let t = Timestamp::from_ymd(y, m, d).unwrap();
            assert_eq!(t.to_ymd(), (y, m, d), "roundtrip for {y}-{m}-{d}");
        }
    }

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_ymd(1970, 1, 1).unwrap().0, 0);
    }

    #[test]
    fn parse_paper_date_literal() {
        // Q3 in Table 4 uses @12.06.2005 (dd.mm.yyyy).
        let t = Timestamp::parse_dmy("12.06.2005").unwrap();
        assert_eq!(t.to_ymd(), (2005, 6, 12));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Timestamp::parse_dmy("12.06").is_err());
        assert!(Timestamp::parse_dmy("99.99.2005").is_err());
        assert!(Timestamp::parse_dmy("aa.bb.cccc").is_err());
    }

    #[test]
    fn invalid_civil_dates_rejected() {
        assert!(Timestamp::from_ymd(2005, 2, 29).is_err());
        assert!(Timestamp::from_ymd(2005, 13, 1).is_err());
        assert!(Timestamp::from_ymd(2005, 0, 1).is_err());
        assert!(Timestamp::from_ymd_hms(2005, 1, 1, 24, 0, 0).is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(Timestamp::from_ymd(2000, 2, 29).is_ok()); // divisible by 400
        assert!(Timestamp::from_ymd(1900, 2, 29).is_err()); // divisible by 100 only
        assert!(Timestamp::from_ymd(2004, 2, 29).is_ok()); // divisible by 4
    }

    #[test]
    fn value_comparisons_respect_domains() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Integer(3).compare(&Value::Integer(4)), Some(Less));
        assert_eq!(Value::Integer(3).compare(&Value::Float(3.0)), Some(Equal));
        assert_eq!(Value::Text("a".into()).compare(&Value::Integer(1)), None);
        let d1 = Value::Date(Timestamp::from_ymd(2005, 6, 11).unwrap());
        let d2 = Value::Date(Timestamp::from_ymd(2005, 6, 12).unwrap());
        assert_eq!(d1.compare(&d2), Some(Less));
    }

    #[test]
    fn tuple_component_validates_schema() {
        let schema = Schema::of(&[("size", Domain::Integer), ("name", Domain::Text)]);
        assert!(TupleComponent::new(
            schema.clone(),
            vec![Value::Integer(4096), Value::Text("PIM".into())]
        )
        .is_ok());
        // Wrong arity.
        assert!(TupleComponent::new(schema.clone(), vec![Value::Integer(1)]).is_err());
        // Wrong domain.
        assert!(TupleComponent::new(
            schema,
            vec![Value::Text("x".into()), Value::Text("PIM".into())]
        )
        .is_err());
    }

    #[test]
    fn tuple_of_derives_schema() {
        let t = TupleComponent::of(vec![
            ("size", Value::Integer(4096)),
            ("creation time", Value::Date(Timestamp(0))),
        ]);
        assert_eq!(t.schema().arity(), 2);
        assert_eq!(t.get("size"), Some(&Value::Integer(4096)));
        assert_eq!(t.get("missing"), None);
    }

    #[test]
    fn schema_covers() {
        let big = Schema::of(&[("a", Domain::Integer), ("b", Domain::Text)]);
        let small = Schema::of(&[("b", Domain::Text)]);
        let wrong = Schema::of(&[("b", Domain::Integer)]);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(!big.covers(&wrong));
        assert!(big.covers(&Schema::empty()));
    }

    #[test]
    fn pim_folder_tuple_from_paper() {
        // Section 2.3 example: τ_PIM over W_FS.
        let tau = TupleComponent::of(vec![
            (
                "creation time",
                Value::Date(Timestamp::from_ymd_hms(2005, 3, 19, 11, 54, 0).unwrap()),
            ),
            ("size", Value::Integer(4096)),
            (
                "last modified time",
                Value::Date(Timestamp::from_ymd_hms(2005, 9, 22, 16, 14, 0).unwrap()),
            ),
        ]);
        assert_eq!(tau.get("size").unwrap().as_integer(), Some(4096));
        let (y, m, d) = tau
            .get("creation time")
            .unwrap()
            .as_date()
            .unwrap()
            .to_ymd();
        assert_eq!((y, m, d), (2005, 3, 19));
    }
}

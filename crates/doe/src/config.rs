use std::fmt;

use serde::{Deserialize, Serialize};

/// A single parameter value: one coordinate of a [`Config`].
///
/// [`Config`]: crate::Config
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// A continuous value.
    Float(f64),
    /// An integer value.
    Int(i64),
    /// The ordinal of an enumeration choice.
    Enum(usize),
    /// A boolean switch.
    Bool(bool),
}

impl ParamValue {
    /// The contained float, or `None` for other kinds.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained integer, or `None` for other kinds.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained boolean, or `None` for other kinds.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// A numeric view of the value, regardless of kind. Used by models that
    /// only care about magnitude (booleans map to 0/1, enums to their
    /// ordinal).
    pub fn to_f64(&self) -> f64 {
        match self {
            ParamValue::Float(v) => *v,
            ParamValue::Int(v) => *v as f64,
            ParamValue::Enum(v) => *v as f64,
            ParamValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Enum(v) => write!(f, "#{v}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One concrete tool-parameter configuration: an ordered list of
/// [`ParamValue`]s matching a [`ParamSpace`]'s coordinate order.
///
/// # Example
///
/// ```
/// use doe::{Config, ParamValue};
///
/// let c = Config::new(vec![ParamValue::Float(0.8), ParamValue::Bool(true)]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.values()[1].as_bool(), Some(true));
/// ```
///
/// [`ParamSpace`]: crate::ParamSpace
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    values: Vec<ParamValue>,
}

impl Config {
    /// Wraps an ordered value list into a configuration.
    pub fn new(values: Vec<ParamValue>) -> Self {
        Config { values }
    }

    /// Number of parameter values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the configuration has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the ordered values.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }
}

impl FromIterator<ParamValue> for Config {
    fn from_iter<T: IntoIterator<Item = ParamValue>>(iter: T) -> Self {
        Config::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_kinds() {
        assert_eq!(ParamValue::Float(1.5).as_float(), Some(1.5));
        assert_eq!(ParamValue::Float(1.5).as_int(), None);
        assert_eq!(ParamValue::Int(3).as_int(), Some(3));
        assert_eq!(ParamValue::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn to_f64_views() {
        assert_eq!(ParamValue::Float(2.5).to_f64(), 2.5);
        assert_eq!(ParamValue::Int(-3).to_f64(), -3.0);
        assert_eq!(ParamValue::Enum(4).to_f64(), 4.0);
        assert_eq!(ParamValue::Bool(true).to_f64(), 1.0);
        assert_eq!(ParamValue::Bool(false).to_f64(), 0.0);
    }

    #[test]
    fn config_collects_and_displays() {
        let c: Config = vec![ParamValue::Int(1), ParamValue::Bool(false)]
            .into_iter()
            .collect();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.to_string(), "(1, false)");
    }
}

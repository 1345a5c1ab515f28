//! The unified error type of the query API.
//!
//! Before this crate each layer had its own failure vocabulary —
//! [`maly_units::UnitError`] for validation, `CostError` for model
//! evaluation, ad-hoc `String`s in the CLI — and every caller stitched
//! them together differently. The query API consolidates them behind
//! one [`Error`] with `From` impls, so a query evaluates to a single
//! `Result<QueryResponse, Error>` no matter which subsystem failed, and
//! the wire protocol maps each variant to a stable `kind` tag.
//!
//! The `kind` tags form a *registry* — a compatibility contract with
//! deployed clients (DESIGN.md §15.4). [`KIND_REGISTRY`] is the
//! committed list; a test pins every variant's tag against it, so
//! renaming or reusing a tag fails loudly.

use maly_cost_model::CostError;
use maly_units::UnitError;

/// Any failure the query API can produce, from parsing a request to
/// evaluating the model.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Input validation failed in the units layer.
    Unit(UnitError),
    /// Model evaluation failed (die too large, yield collapsed, …).
    Cost(CostError),
    /// The request was not valid JSON.
    Parse {
        /// Parser diagnostic.
        message: String,
    },
    /// The request's `type` tag names no query this server supports —
    /// possibly a newer client's query. The tag is echoed back so the
    /// client can tell *which* capability is missing.
    UnsupportedQuery {
        /// The offending tag.
        found: String,
    },
    /// The request envelope's `v` names a protocol version this server
    /// does not speak (it speaks version 1; an absent `v` means 1).
    UnsupportedVersion {
        /// The requested version.
        version: u64,
    },
    /// A required request field is absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A request field is present but unusable.
    InvalidField {
        /// The field name.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// A Table 3 row id outside 1..=17.
    UnknownTableRow {
        /// The requested id.
        id: u32,
    },
    /// A request line exceeded the server's size bound.
    PayloadTooLarge {
        /// The configured bound in bytes.
        limit: usize,
    },
    /// The server's accept queue was full; retry later.
    Overloaded,
    /// A transport-level failure (socket read/write).
    Io(String),
}

/// The committed wire-tag registry, sorted: every [`Error::kind`] value,
/// exactly once. Changing this list is a protocol-compatibility event —
/// tags may be *added*, never renamed or reused (DESIGN.md §15.4).
pub const KIND_REGISTRY: &[&str] = &[
    "cost",
    "invalid-field",
    "io",
    "missing-field",
    "overloaded",
    "parse",
    "payload-too-large",
    "unit",
    "unknown-table-row",
    "unsupported-query",
    "unsupported-version",
];

impl Error {
    /// The stable machine-readable tag the wire protocol carries for
    /// this variant. Every tag is listed in [`KIND_REGISTRY`].
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Unit(_) => "unit",
            Error::Cost(_) => "cost",
            Error::Parse { .. } => "parse",
            Error::UnsupportedQuery { .. } => "unsupported-query",
            Error::UnsupportedVersion { .. } => "unsupported-version",
            Error::MissingField { .. } => "missing-field",
            Error::InvalidField { .. } => "invalid-field",
            Error::UnknownTableRow { .. } => "unknown-table-row",
            Error::PayloadTooLarge { .. } => "payload-too-large",
            Error::Overloaded => "overloaded",
            Error::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Unit(e) => write!(f, "{e}"),
            Error::Cost(e) => write!(f, "{e}"),
            Error::Parse { message } => write!(f, "invalid JSON: {message}"),
            Error::UnsupportedQuery { found } => {
                write!(f, "unsupported query type `{found}`")
            }
            Error::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version}; this server speaks 1"
                )
            }
            Error::MissingField { field } => write!(f, "missing field `{field}`"),
            Error::InvalidField { field, message } => {
                write!(f, "invalid field `{field}`: {message}")
            }
            Error::UnknownTableRow { id } => {
                write!(f, "Table 3 has rows 1..=17; no row {id}")
            }
            Error::PayloadTooLarge { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            Error::Overloaded => write!(f, "server overloaded; retry later"),
            Error::Io(message) => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<UnitError> for Error {
    fn from(e: UnitError) -> Self {
        Error::Unit(e)
    }
}

impl From<CostError> for Error {
    fn from(e: CostError) -> Self {
        // A model error that is really an input-validation error keeps
        // its unit identity, so the wire `kind` distinguishes "you sent
        // a bad number" from "the physics said no".
        match e {
            CostError::InvalidInput(unit) => Error::Unit(unit),
            other => Error::Cost(other),
        }
    }
}

impl From<crate::json::ParseError> for Error {
    fn from(e: crate::json::ParseError) -> Self {
        Error::Parse {
            message: e.to_string(),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar of every variant — extending [`Error`] without
    /// extending this list fails the registry test below.
    fn exemplars() -> Vec<Error> {
        vec![
            Error::Unit(UnitError::NotFinite { quantity: "x" }),
            Error::Cost(CostError::InvalidInput(UnitError::NotFinite {
                quantity: "x",
            })),
            Error::Parse {
                message: "x".into(),
            },
            Error::UnsupportedQuery { found: "x".into() },
            Error::UnsupportedVersion { version: 2 },
            Error::MissingField { field: "f" },
            Error::InvalidField {
                field: "f",
                message: "m".into(),
            },
            Error::UnknownTableRow { id: 99 },
            Error::PayloadTooLarge { limit: 1 },
            Error::Overloaded,
            Error::Io("broken pipe".into()),
        ]
    }

    #[test]
    fn kind_registry_is_exhaustive_unique_and_stable() {
        // Uniqueness + stability: the set of kinds emitted by the enum
        // is exactly the committed registry, which is itself sorted and
        // duplicate-free. A new variant must add its tag to the
        // registry; renaming a tag breaks deployed clients and fails
        // here.
        let mut kinds: Vec<&str> = exemplars().iter().map(Error::kind).collect();
        kinds.sort_unstable();
        let deduped: Vec<&str> = {
            let mut k = kinds.clone();
            k.dedup();
            k
        };
        assert_eq!(kinds, deduped, "duplicate wire kind");
        assert_eq!(kinds, KIND_REGISTRY, "wire-kind registry drifted");
        let mut sorted = KIND_REGISTRY.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KIND_REGISTRY, "registry must stay sorted");
    }

    #[test]
    fn cost_invalid_input_folds_to_unit() {
        let unit = UnitError::NotFinite { quantity: "x" };
        let e: Error = CostError::InvalidInput(unit.clone()).into();
        assert_eq!(e, Error::Unit(unit));
        assert_eq!(e.kind(), "unit");
    }

    #[test]
    fn displays_are_informative() {
        let e = Error::UnknownTableRow { id: 42 };
        assert!(e.to_string().contains("42"));
        let e = Error::MissingField { field: "lambda" };
        assert!(e.to_string().contains("lambda"));
        let e = Error::UnsupportedQuery {
            found: "chiplet_cost".into(),
        };
        assert!(e.to_string().contains("chiplet_cost"));
        let e = Error::UnsupportedVersion { version: 7 };
        assert!(e.to_string().contains('7'));
    }
}

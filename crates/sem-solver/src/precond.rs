//! Preconditioner configuration: which preconditioner a solve runs, as
//! plain serde-friendly data.
//!
//! [`PrecondSpec`] is the configuration half (it travels inside backend
//! registry strings like `cpu:specialized+fdm` — see `sem-accel`);
//! [`AnyPreconditioner`] is the runtime half, a concrete instance built by
//! [`crate::PoissonProblem::preconditioner`] that dispatches to the
//! identity, Jacobi or FDM implementation without boxing.

use crate::cg::{IdentityPreconditioner, Preconditioner};
use crate::fdm::FdmPreconditioner;
use crate::jacobi::JacobiPreconditioner;
use sem_mesh::ElementField;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which preconditioner a solve uses.  The default is Jacobi — the
/// behaviour every solve in this workspace had before preconditioning
/// became configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PrecondSpec {
    /// No preconditioning (plain CG).
    Identity,
    /// The assembled-diagonal (Jacobi) preconditioner.
    #[default]
    Jacobi,
    /// The two-level fast-diagonalization preconditioner (element-patch
    /// tensor solves plus a Galerkin coarse correction).
    Fdm,
}

impl PrecondSpec {
    /// Every spec, in presentation order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::Identity, Self::Jacobi, Self::Fdm]
    }

    /// Short human-readable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Identity => "identity",
            Self::Jacobi => "jacobi",
            Self::Fdm => "fdm",
        }
    }

    /// The registry-name suffix of this spec (`None` for the default, which
    /// is written without a suffix so existing names keep meaning what they
    /// always meant).
    #[must_use]
    pub fn name_suffix(&self) -> Option<&'static str> {
        match self {
            Self::Identity => Some("none"),
            Self::Jacobi => None,
            Self::Fdm => Some("fdm"),
        }
    }

    /// Parse a registry-name suffix (the part after `+`).
    #[must_use]
    pub fn from_name_suffix(suffix: &str) -> Option<Self> {
        match suffix {
            "none" | "identity" => Some(Self::Identity),
            "jacobi" => Some(Self::Jacobi),
            "fdm" => Some(Self::Fdm),
            _ => None,
        }
    }
}

impl fmt::Display for PrecondSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete preconditioner instance behind a [`PrecondSpec`].
///
/// The FDM variant is boxed: it carries eigendecompositions, tables and a
/// coarse factor, orders of magnitude larger than the other variants (and
/// `AnyPreconditioner` values are moved around by the session builder).
#[derive(Debug, Clone)]
pub enum AnyPreconditioner {
    /// Plain CG.
    Identity(IdentityPreconditioner),
    /// Assembled operator diagonal.
    Jacobi(JacobiPreconditioner),
    /// Two-level fast diagonalisation.
    Fdm(Box<FdmPreconditioner>),
}

impl AnyPreconditioner {
    /// The spec this instance realises.
    #[must_use]
    pub fn spec(&self) -> PrecondSpec {
        match self {
            Self::Identity(_) => PrecondSpec::Identity,
            Self::Jacobi(_) => PrecondSpec::Jacobi,
            Self::Fdm(_) => PrecondSpec::Fdm,
        }
    }

    /// Attach a modelled per-application cost (used when an accelerator
    /// backend claims the preconditioner pass on-device).  The identity has
    /// nothing to model and ignores it.
    #[must_use]
    pub fn with_modeled_seconds(self, seconds: f64) -> Self {
        match self {
            Self::Identity(p) => Self::Identity(p),
            Self::Jacobi(p) => Self::Jacobi(p.with_modeled_seconds(seconds)),
            Self::Fdm(p) => Self::Fdm(Box::new(p.with_modeled_seconds(seconds))),
        }
    }
}

impl Preconditioner for AnyPreconditioner {
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        match self {
            Self::Identity(p) => p.apply_into(r, z),
            Self::Jacobi(p) => p.apply_into(r, z),
            Self::Fdm(p) => p.apply_into(r, z),
        }
    }

    fn seconds_per_application(&self) -> Option<f64> {
        match self {
            Self::Identity(p) => p.seconds_per_application(),
            Self::Jacobi(p) => p.seconds_per_application(),
            Self::Fdm(p) => p.seconds_per_application(),
        }
    }

    fn pointwise_inverse(&self) -> Option<&ElementField> {
        match self {
            Self::Identity(p) => p.pointwise_inverse(),
            Self::Jacobi(p) => p.pointwise_inverse(),
            Self::Fdm(p) => p.pointwise_inverse(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixes_round_trip() {
        for spec in PrecondSpec::all() {
            match spec.name_suffix() {
                Some(suffix) => {
                    assert_eq!(PrecondSpec::from_name_suffix(suffix), Some(spec));
                }
                None => assert_eq!(spec, PrecondSpec::default()),
            }
        }
        assert_eq!(
            PrecondSpec::from_name_suffix("identity"),
            Some(PrecondSpec::Identity)
        );
        assert_eq!(
            PrecondSpec::from_name_suffix("jacobi"),
            Some(PrecondSpec::Jacobi)
        );
        assert_eq!(PrecondSpec::from_name_suffix("ilu"), None);
    }

    #[test]
    fn serde_round_trip() {
        for spec in PrecondSpec::all() {
            let json = serde::json::to_string(&spec);
            let back: PrecondSpec = serde::json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = PrecondSpec::all().iter().map(PrecondSpec::label).collect();
        assert_eq!(labels, vec!["identity", "jacobi", "fdm"]);
        assert_eq!(format!("{}", PrecondSpec::Fdm), "fdm");
    }
}

//! The RPKI-based delegation record.
//!
//! Appendix A: "Rather than taking the announcements of P and P', we
//! now check whether those prefixes have Route Origin Authorizations
//! (ROAs) assigned to different ASes." A delegation `(P', S, T)` is
//! inferred from a snapshot when some ROA authorizes S for P, another
//! authorizes T ≠ S for P', and P strictly covers P'. The inference is
//! the BGP step (iv) sweep, `delegation::base::infer_rpki_delegations`;
//! the record lives here because [`crate::consistency`] reads it.

use nettypes::asn::Asn;
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};

/// A delegation inferred from RPKI data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct RpkiDelegation {
    /// The delegated (more-specific) prefix P'.
    pub prefix: Prefix,
    /// The delegator AS S (holder of a covering ROA).
    pub delegator: Asn,
    /// The delegatee AS T (holder of the P' ROA).
    pub delegatee: Asn,
}

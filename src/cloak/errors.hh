/**
 * @file
 * Typed failure codes shared across the cloak layer.
 *
 * CloakError used to live in engine.hh, but the metadata store's
 * Expected-based lookup/unseal API returns the same codes, and
 * metadata.hh cannot include engine.hh (the engine owns a store).
 * Every error travels in an Expected<T, CloakError>; the engine
 * records each one in the audit ring at the point of failure, so
 * callers never translate sentinels back into causes.
 */

#ifndef OSH_CLOAK_ERRORS_HH
#define OSH_CLOAK_ERRORS_HH

#include <cstdint>

namespace osh::cloak
{

/** Typed failure reasons for the cloak layer's fallible operations. */
enum class CloakError : std::uint8_t
{
    UnknownDomain,          ///< Operation on a domain id that does not exist.
    NoCtcHash,              ///< CTC verified before any record was saved.
    CtcHashMismatch,        ///< CTC contents differ from the VMM-held copy.
    BadForkToken,           ///< Fork token unknown, for another domain, or
                            ///< presented by a pid other than the child.
    ForkAlreadySnapshotted, ///< snapshotFork called twice for one token.
    ForkNotSnapshotted,     ///< forkAttach before snapshotFork.
    UnknownResource,        ///< Resource id absent from the metadata store.
    ForeignResource,        ///< Resource belongs to another domain.
    NotAFileResource,       ///< File operation on a private memory resource.
    IntegrityViolation,     ///< Page hash mismatch (kernel tampering/replay).
    RegionOverlap,          ///< Region overlaps one the domain has.

    // Metadata-store typed failures of sealed-bundle import.
    SealBadMac,             ///< Sealed bundle MAC did not verify.
    SealBadIdentity,        ///< Bundle sealed under another identity.
    SealRollback,           ///< Bundle older than the witnessed floor.
    SealMalformed,          ///< Bundle truncated or structurally invalid.
    SealMissing,            ///< No bundle for a file key with a floor.
};

/** Stable short name for an error (used as the audit-event reason). */
inline const char*
cloakErrorName(CloakError e)
{
    switch (e) {
      case CloakError::UnknownDomain: return "unknown_domain";
      case CloakError::NoCtcHash: return "no_ctc_hash";
      case CloakError::CtcHashMismatch: return "ctc_hash_mismatch";
      case CloakError::BadForkToken: return "bad_fork_token";
      case CloakError::ForkAlreadySnapshotted:
        return "fork_already_snapshotted";
      case CloakError::ForkNotSnapshotted: return "fork_not_snapshotted";
      case CloakError::UnknownResource: return "unknown_resource";
      case CloakError::ForeignResource: return "foreign_resource";
      case CloakError::NotAFileResource: return "not_a_file_resource";
      case CloakError::IntegrityViolation: return "integrity_violation";
      case CloakError::RegionOverlap: return "region_overlap";
      case CloakError::SealBadMac: return "seal_bad_mac";
      case CloakError::SealBadIdentity: return "seal_bad_identity";
      case CloakError::SealRollback: return "seal_rollback";
      case CloakError::SealMalformed: return "seal_malformed";
      case CloakError::SealMissing: return "seal_missing";
    }
    return "?";
}

} // namespace osh::cloak

#endif // OSH_CLOAK_ERRORS_HH

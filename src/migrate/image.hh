/**
 * @file
 * Migration image format.
 *
 * A checkpoint (and each live pre-copy round) serializes protected
 * state into a stream of typed records. Every record carries a chain
 * MAC: HMAC over the previous record's MAC plus this record's header
 * and payload, keyed by the migration key both VMMs derive from the
 * shared platform secret and the migration nonce. The chain makes
 * tampering, reordering, record replay and truncation all detectable —
 * the target refuses the image instead of resuming a corrupted victim.
 *
 * Rollback of a whole image (replaying an older checkpoint of the same
 * victim) is caught one level up: the out-of-band Ticket names the
 * image version the target must see, and the manifest's version is
 * covered by the first chain MAC.
 *
 * The format is canonical: serializing identical protected state under
 * the same (nonce, image version) produces identical bytes, which the
 * round-trip tests assert (checkpoint -> restore -> re-checkpoint).
 */

#ifndef OSH_MIGRATE_IMAGE_HH
#define OSH_MIGRATE_IMAGE_HH

#include "base/expected.hh"
#include "base/types.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace osh::migrate
{

/** Typed failure reasons for checkpoint/restore/migration. */
enum class MigrateError : std::uint8_t
{
    BadMagic,            ///< Manifest magic or leading record malformed.
    UnsupportedVersion,  ///< Image format version unknown.
    BadMac,              ///< A record's chain MAC failed to verify.
    Truncated,           ///< Stream ended before the End record.
    BadRecord,           ///< Record type/length/payload malformed.
    IdentityMismatch,    ///< Manifest identity differs from the ticket's.
    ImageRollback,       ///< Image version differs from the ticket's.
    UnknownProgram,      ///< Target has no program of the manifest name.
    UnsupportedState,    ///< Victim not checkpointable (open fds, files).
    NoCloaking,          ///< Machine runs without a cloak engine.
};

/** Stable short name for an error (logs, campaign tables). */
const char* migrateErrorName(MigrateError e);

/** Record types of the image stream. */
enum class RecordType : std::uint32_t
{
    Manifest = 1,      ///< Format/image versions, identity, program, argv.
    Process = 2,       ///< Address-space cursors, CTC/bounce layout.
    Vma = 3,           ///< One virtual memory area.
    Region = 4,        ///< One cloaked region (resource by canonical index).
    Resource = 5,      ///< One resource's per-page protection metadata.
    PageData = 6,      ///< One page image (ciphertext for cloaked pages).
    // 7 carried a sealed file bundle in format 1; restore refuses it.
    SealVersion = 8,   ///< One rollback floor the victim's identity owns.
    End = 9,           ///< Terminator; absence means truncation.
};

/** Image format version this build reads and writes (2: no sealed
 *  bundles, owner-filtered floors, no file fields in Resource). */
constexpr std::uint64_t imageFormatVersion = 2;

/** Manifest magic ("OSHMIG1\0"). */
constexpr std::array<std::uint8_t, 8> imageMagic = {'O', 'S', 'H', 'M',
                                                    'I', 'G', '1', '\0'};

/**
 * Out-of-band migration ticket. In the paper's model the source VMM
 * hands this to the target over the trusted VMM-to-VMM channel; the
 * untrusted transport only ever carries the image bytes. The ticket
 * pins the victim identity, the expected image version (rollback
 * detection) and the nonce the chain key is derived from.
 */
struct Ticket
{
    crypto::Digest identity{};
    std::uint64_t imageVersion = 0;
    std::uint64_t nonce = 0;
};

/** One parsed record. */
struct Record
{
    RecordType type = RecordType::End;
    std::vector<std::uint8_t> payload;
};

/**
 * Serializes records into a chain-MAC'd image. The writer owns the
 * output buffer; every append() extends the chain.
 */
class ImageWriter
{
  public:
    explicit ImageWriter(const crypto::Digest& key);

    /** Append one record (header + payload + chain MAC). */
    void append(RecordType type, std::span<const std::uint8_t> payload);

    /** Finish the stream with the End record and take the bytes. */
    std::vector<std::uint8_t> finish();

  private:
    crypto::HmacKey key_;
    crypto::Digest prevMac_{};
    std::vector<std::uint8_t> out_;
    bool finished_ = false;
};

/**
 * Verifying reader over an image. next() authenticates each record
 * against the chain before handing it out; any verification failure
 * poisons the reader (every later call fails the same way).
 */
class ImageReader
{
  public:
    ImageReader(const crypto::Digest& key,
                std::span<const std::uint8_t> image);

    /**
     * The next authenticated record. Returns End exactly once for a
     * well-formed stream; BadMac/Truncated/BadRecord otherwise.
     */
    Expected<Record, MigrateError> next();

    /** Whether the End record has been reached cleanly. */
    bool atEnd() const { return atEnd_; }

  private:
    crypto::HmacKey key_;
    crypto::Digest prevMac_{};
    std::span<const std::uint8_t> image_;
    std::size_t pos_ = 0;
    bool atEnd_ = false;
    std::optional<MigrateError> poison_; ///< Set by the first failure.
};

} // namespace osh::migrate

#endif // OSH_MIGRATE_IMAGE_HH

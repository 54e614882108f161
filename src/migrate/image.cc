#include "migrate/image.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

namespace osh::migrate
{

const char*
migrateErrorName(MigrateError e)
{
    switch (e) {
      case MigrateError::BadMagic: return "bad_magic";
      case MigrateError::UnsupportedVersion: return "unsupported_version";
      case MigrateError::BadMac: return "bad_mac";
      case MigrateError::Truncated: return "truncated";
      case MigrateError::BadRecord: return "bad_record";
      case MigrateError::IdentityMismatch: return "identity_mismatch";
      case MigrateError::ImageRollback: return "image_rollback";
      case MigrateError::UnknownProgram: return "unknown_program";
      case MigrateError::UnsupportedState: return "unsupported_state";
      case MigrateError::NoCloaking: return "no_cloaking";
    }
    return "unknown";
}

namespace
{

constexpr std::size_t macSize = crypto::sha256DigestSize;
constexpr std::size_t headerSize = 4 + 8; // le32 type + le64 length.

/** MAC chaining: HMAC(key, prev_mac || header || payload). */
crypto::Digest
chainMac(const crypto::HmacKey& key, const crypto::Digest& prev,
         std::span<const std::uint8_t> header,
         std::span<const std::uint8_t> payload)
{
    crypto::HmacSha256 mac(key);
    mac.update(prev);
    mac.update(header);
    mac.update(payload);
    return mac.final();
}

} // namespace

// ---------------------------------------------------------------------------
// ImageWriter
// ---------------------------------------------------------------------------

ImageWriter::ImageWriter(const crypto::Digest& key) : key_(key) {}

void
ImageWriter::append(RecordType type, std::span<const std::uint8_t> payload)
{
    osh_assert(!finished_, "append to a finished image");
    PayloadWriter header;
    header.u32(static_cast<std::uint32_t>(type));
    header.u64(payload.size());

    crypto::Digest mac = chainMac(key_, prevMac_, header.view(), payload);
    out_.insert(out_.end(), header.view().begin(), header.view().end());
    out_.insert(out_.end(), payload.begin(), payload.end());
    out_.insert(out_.end(), mac.begin(), mac.end());
    prevMac_ = mac;
}

std::vector<std::uint8_t>
ImageWriter::finish()
{
    osh_assert(!finished_, "finish on a finished image");
    append(RecordType::End, {});
    finished_ = true;
    return std::move(out_);
}

// ---------------------------------------------------------------------------
// ImageReader
// ---------------------------------------------------------------------------

ImageReader::ImageReader(const crypto::Digest& key,
                         std::span<const std::uint8_t> image)
    : key_(key), image_(image)
{
}

Expected<Record, MigrateError>
ImageReader::next()
{
    if (poison_)
        return Error(*poison_);
    auto poison = [this](MigrateError e) {
        poison_ = e;
        return Error(e);
    };
    if (atEnd_)
        return poison(MigrateError::BadRecord);

    PayloadReader in(image_.subspan(pos_));
    std::span<const std::uint8_t> header = in.span(headerSize);
    PayloadReader fields(header);
    std::uint32_t type = fields.u32();
    std::span<const std::uint8_t> payload = in.span(fields.u64());
    std::span<const std::uint8_t> mac = in.span(macSize);
    if (!in.ok())
        return poison(MigrateError::Truncated);

    crypto::Digest expect = chainMac(key_, prevMac_, header, payload);
    if (!constantTimeEqual(expect, mac))
        return poison(MigrateError::BadMac);

    if (type < static_cast<std::uint32_t>(RecordType::Manifest) ||
        type > static_cast<std::uint32_t>(RecordType::End))
        return poison(MigrateError::BadRecord);
    prevMac_ = expect;
    pos_ = image_.size() - in.remaining();

    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.payload.assign(payload.begin(), payload.end());
    if (rec.type == RecordType::End) {
        if (!in.done())
            return poison(MigrateError::BadRecord); // Trailing bytes.
        atEnd_ = true;
    }
    return rec;
}

} // namespace osh::migrate

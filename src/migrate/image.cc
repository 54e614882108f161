#include "migrate/image.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

#include <cstring>

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
    std::vector<std::uint8_t> buf;
    buf.reserve(prev.size() + header.size() + payload.size());
    buf.insert(buf.end(), prev.begin(), prev.end());
    buf.insert(buf.end(), header.begin(), header.end());
    buf.insert(buf.end(), payload.begin(), payload.end());
    return crypto::hmacSha256(key, buf);
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
    std::array<std::uint8_t, headerSize> header;
    storeLe32(header.data(), static_cast<std::uint32_t>(type));
    storeLe64(header.data() + 4, payload.size());

    crypto::Digest mac = chainMac(key_, prevMac_, header, payload);
    out_.insert(out_.end(), header.begin(), header.end());
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
    if (poisoned_)
        return Error(poison_);
    auto poison = [this](MigrateError e) {
        poisoned_ = true;
        poison_ = e;
        return Error(e);
    };
    if (atEnd_)
        return poison(MigrateError::BadRecord);
    if (image_.size() - pos_ < headerSize + macSize)
        return poison(MigrateError::Truncated);

    std::span<const std::uint8_t> header =
        image_.subspan(pos_, headerSize);
    std::uint32_t type = loadLe32(header.data());
    std::uint64_t len = loadLe64(header.data() + 4);
    if (len > image_.size() - pos_ - headerSize - macSize)
        return poison(MigrateError::Truncated);
    std::span<const std::uint8_t> payload =
        image_.subspan(pos_ + headerSize, len);
    std::span<const std::uint8_t> mac =
        image_.subspan(pos_ + headerSize + len, macSize);

    crypto::Digest expect = chainMac(key_, prevMac_, header, payload);
    if (!constantTimeEqual(expect, mac))
        return poison(MigrateError::BadMac);

    if (type < static_cast<std::uint32_t>(RecordType::Manifest) ||
        type > static_cast<std::uint32_t>(RecordType::End))
        return poison(MigrateError::BadRecord);

    std::memcpy(prevMac_.data(), mac.data(), macSize);
    pos_ += headerSize + len + macSize;

    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.payload.assign(payload.begin(), payload.end());
    if (rec.type == RecordType::End) {
        if (pos_ != image_.size())
            return poison(MigrateError::BadRecord); // Trailing bytes.
        atEnd_ = true;
    }
    return rec;
}

// ---------------------------------------------------------------------------
// Payload helpers
// ---------------------------------------------------------------------------

void
PayloadWriter::u32(std::uint32_t v)
{
    std::uint8_t b[4];
    storeLe32(b, v);
    bytes_.insert(bytes_.end(), b, b + 4);
}

void
PayloadWriter::u64(std::uint64_t v)
{
    std::uint8_t b[8];
    storeLe64(b, v);
    bytes_.insert(bytes_.end(), b, b + 8);
}

void
PayloadWriter::str(const std::string& s)
{
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::uint8_t
PayloadReader::u8()
{
    if (!ok_ || bytes_.size() - pos_ < 1) {
        ok_ = false;
        return 0;
    }
    return bytes_[pos_++];
}

std::uint32_t
PayloadReader::u32()
{
    if (!ok_ || bytes_.size() - pos_ < 4) {
        ok_ = false;
        return 0;
    }
    std::uint32_t v = loadLe32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
PayloadReader::u64()
{
    if (!ok_ || bytes_.size() - pos_ < 8) {
        ok_ = false;
        return 0;
    }
    std::uint64_t v = loadLe64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
}

void
PayloadReader::bytes(std::span<std::uint8_t> out)
{
    if (!ok_ || bytes_.size() - pos_ < out.size()) {
        ok_ = false;
        std::memset(out.data(), 0, out.size());
        return;
    }
    std::memcpy(out.data(), bytes_.data() + pos_, out.size());
    pos_ += out.size();
}

std::string
PayloadReader::str()
{
    std::uint64_t len = u64();
    if (!ok_ || len > bytes_.size() - pos_) {
        ok_ = false;
        return {};
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  len);
    pos_ += len;
    return s;
}

} // namespace osh::migrate

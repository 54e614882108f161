/**
 * @file
 * Byte-manipulation helpers: endian-explicit loads/stores, hex encoding,
 * span conveniences used throughout the crypto and memory code, and the
 * one little-endian writer and bounds-checked reader that every
 * variable-length format the VMM hands out (checkpoint images, sealed
 * metadata bundles) is built on.
 */

#ifndef OSH_BASE_BYTES_HH
#define OSH_BASE_BYTES_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace osh
{

/** Load a little-endian 16/32/64-bit value from raw bytes. */
inline std::uint16_t
loadLe16(const std::uint8_t* p)
{
    return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

inline std::uint32_t
loadLe32(const std::uint8_t* p)
{
    return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
           (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

inline std::uint64_t
loadLe64(const std::uint8_t* p)
{
    return std::uint64_t{loadLe32(p)} |
           (std::uint64_t{loadLe32(p + 4)} << 32);
}

/** Store a little-endian 16/32/64-bit value to raw bytes. */
inline void
storeLe16(std::uint8_t* p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void
storeLe32(std::uint8_t* p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
storeLe64(std::uint8_t* p, std::uint64_t v)
{
    storeLe32(p, static_cast<std::uint32_t>(v));
    storeLe32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

/** Load a big-endian 32/64-bit value (SHA-256 uses big-endian words). */
inline std::uint32_t
loadBe32(const std::uint8_t* p)
{
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void
storeBe32(std::uint8_t* p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

inline void
storeBe64(std::uint8_t* p, std::uint64_t v)
{
    storeBe32(p, static_cast<std::uint32_t>(v >> 32));
    storeBe32(p + 4, static_cast<std::uint32_t>(v));
}

/** Render bytes as lowercase hex. */
inline std::string
toHex(std::span<const std::uint8_t> bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

/** Parse a hex string into bytes; returns empty on malformed input. */
inline std::vector<std::uint8_t>
fromHex(const std::string& hex)
{
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    };
    if (hex.size() % 2 != 0)
        return {};
    std::vector<std::uint8_t> out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = nibble(hex[i]);
        int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return {};
        out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return out;
}

/**
 * Constant-time byte comparison. Used for every integrity-hash check so
 * a malicious guest cannot learn hash prefixes through timing.
 */
inline bool
constantTimeEqual(std::span<const std::uint8_t> a,
                  std::span<const std::uint8_t> b)
{
    if (a.size() != b.size())
        return false;
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

/** Little-endian byte-stream builder. */
class PayloadWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void flag(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }
    void
    bytes(std::span<const std::uint8_t> b)
    {
        bytes_.insert(bytes_.end(), b.begin(), b.end());
    }
    /** A u64 length, then the characters. */
    void
    str(const std::string& s)
    {
        u64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    std::span<const std::uint8_t> view() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    void
    le(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i, v >>= 8)
            bytes_.push_back(static_cast<std::uint8_t>(v));
    }

    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked parser over bytes another party controls. Its error
 * is sticky: the first overrun or malformed value turns ok() false and
 * every later read returns zeros, so a decoder may read a whole record
 * and check ok() or done() once.
 */
class PayloadReader
{
  public:
    explicit PayloadReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    std::uint8_t u8() { return fixed<1>()[0]; }
    /** A flag byte; any value but 0 or 1 fails the reader. */
    bool
    flag()
    {
        std::uint8_t v = u8();
        ok_ = ok_ && v <= 1;
        return v == 1;
    }
    std::uint32_t u32() { return loadLe32(fixed<4>().data()); }
    std::uint64_t u64() { return loadLe64(fixed<8>().data()); }
    /** Fill @p out; zeros on overrun. */
    void
    bytes(std::span<std::uint8_t> out)
    {
        std::span<const std::uint8_t> in = span(out.size());
        std::fill(out.begin(), out.end(), 0);
        std::copy(in.begin(), in.end(), out.begin());
    }
    /** What PayloadWriter::str() wrote. */
    std::string
    str()
    {
        std::span<const std::uint8_t> in = span(u64());
        return std::string(in.begin(), in.end());
    }
    /** The next @p n bytes, in place; empty on overrun. */
    std::span<const std::uint8_t>
    span(std::uint64_t n)
    {
        ok_ = ok_ && n <= bytes_.size() - pos_;
        if (!ok_)
            return {};
        pos_ += n;
        return bytes_.subspan(pos_ - n, n);
    }

    /** Fail the reader on a value the format does not allow. */
    void fail() { ok_ = false; }
    /** Bytes not yet read (0 once failed). */
    std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
    bool ok() const { return ok_; }
    /** ok(), and every byte read. */
    bool done() const { return ok_ && pos_ == bytes_.size(); }

  private:
    template <std::size_t N>
    std::array<std::uint8_t, N>
    fixed()
    {
        std::array<std::uint8_t, N> out;
        bytes(out);
        return out;
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace osh

#endif // OSH_BASE_BYTES_HH

/**
 * @file
 * FNV-1a 64-bit hashing: the one digest construction behind program
 * fingerprints, result-store keys, live-point capture digests and
 * library content hashes, farm admission digests, and coherence
 * workload fingerprints.
 *
 * Multi-byte fields are folded in little-endian byte order regardless
 * of the host, so every digest is a pure function of its field values.
 * Stored digests (.imores keys, .imolib headers) depend on this
 * encoding staying fixed; tests/test_hash.cc pins known values.
 */

#ifndef IMO_COMMON_HASH_HH
#define IMO_COMMON_HASH_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace imo
{

constexpr std::uint64_t fnv1aOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnv1aPrime = 0x100000001b3ull;

/** FNV-1a over @p len bytes, continuing from @p seed (pass a previous
 *  result to hash a concatenation incrementally). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = fnv1aOffsetBasis)
{
    std::uint64_t h = seed;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= fnv1aPrime;
    }
    return h;
}

/** Order-sensitive FNV-1a field mixer. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        _h = fnv1a64(data, len, _h);
    }

    void u32(std::uint32_t v) { littleEndian(v, 4); }
    void u64(std::uint64_t v) { littleEndian(v, 8); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    /** Length-prefixed, so ("ab","c") never aliases ("a","bc"). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return _h; }

  private:
    void
    littleEndian(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i) {
            _h ^= (v >> (i * 8)) & 0xff;
            _h *= fnv1aPrime;
        }
    }

    std::uint64_t _h = fnv1aOffsetBasis;
};

} // namespace imo

#endif // IMO_COMMON_HASH_HH

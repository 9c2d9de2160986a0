#include "common/checkpoint.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace imo
{

namespace
{

constexpr std::array<char, 8> kMagic =
    {'I', 'M', 'O', 'C', 'K', 'P', 'T', '\0'};

constexpr std::size_t kHeaderBytes = kMagic.size() + 4 + 4;

/** CRC-32 lookup tables for slicing-by-8: tables[0] is the classic
 *  byte-at-a-time table, tables[k][b] carries byte b through k further
 *  zero bytes, so the hot loop folds eight input bytes per step. */
std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            tables[k][i] = tables[0][tables[k - 1][i] & 0xff] ^
                           (tables[k - 1][i] >> 8);
    }
    return tables;
}

void
append(std::vector<std::uint8_t> &out, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    out.insert(out.end(), p, p + len);
}

void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    append(out, &v, 4);
}

void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    append(out, &v, 8);
}

} // anonymous namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const std::array<std::array<std::uint32_t, 256>, 8> tables =
        makeCrcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    // Slicing-by-8: identical result to the byte loop below, ~6x the
    // throughput. The u32 loads lean on the same little-endian layout
    // the container format itself mandates.
    while (len >= 8) {
        std::uint32_t one, two;
        std::memcpy(&one, p, 4);
        std::memcpy(&two, p + 4, 4);
        one ^= c;
        c = tables[7][one & 0xff] ^ tables[6][(one >> 8) & 0xff] ^
            tables[5][(one >> 16) & 0xff] ^ tables[4][one >> 24] ^
            tables[3][two & 0xff] ^ tables[2][(two >> 8) & 0xff] ^
            tables[1][(two >> 16) & 0xff] ^ tables[0][two >> 24];
        p += 8;
        len -= 8;
    }
    for (std::size_t i = 0; i < len; ++i)
        c = tables[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

// --- Compression codecs ---------------------------------------------

namespace
{

/** LEB128 varint append. */
void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** LEB128 varint read with bounds and overlong-encoding checks. */
std::uint64_t
readVarint(const std::uint8_t *data, std::size_t len, std::size_t *pos)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        sim_throw_if(*pos >= len, ErrCode::BadCheckpoint,
                     "packed array truncated inside a varint");
        const std::uint8_t b = data[(*pos)++];
        // The 10th byte holds the top bit only; anything above
        // overflows u64 (an overlong or corrupt encoding).
        sim_throw_if(shift == 63 && b > 1, ErrCode::BadCheckpoint,
                     "packed array varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throwSimError(ErrCode::BadCheckpoint,
                  "packed array varint longer than 10 bytes");
}

/** readVarint() minus the per-byte bounds checks: the caller has
 *  already proven at least 10 readable bytes (a varint's maximum
 *  length), so only the overlong-encoding checks remain. */
std::uint64_t
readVarintUnchecked(const std::uint8_t *data, std::size_t *pos)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const std::uint8_t b = data[(*pos)++];
        sim_throw_if(shift == 63 && b > 1, ErrCode::BadCheckpoint,
                     "packed array varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throwSimError(ErrCode::BadCheckpoint,
                  "packed array varint longer than 10 bytes");
}

std::uint64_t
zigzag(std::uint64_t delta)
{
    return (delta << 1) ^
           static_cast<std::uint64_t>(
               static_cast<std::int64_t>(delta) >> 63);
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

} // anonymous namespace

std::vector<std::uint8_t>
packDeltaU64(const std::vector<std::uint64_t> &v)
{
    std::vector<std::uint8_t> out;
    out.reserve(v.size() + v.size() / 4);
    std::uint64_t prev = 0;
    for (const std::uint64_t x : v) {
        appendVarint(out, zigzag(x - prev));
        prev = x;
    }
    return out;
}

std::vector<std::uint64_t>
unpackDeltaU64(const std::uint8_t *data, std::size_t len,
               std::uint64_t count)
{
    // Each element costs at least one byte, so a valid stream is never
    // shorter than its element count; rejecting that up front bounds
    // the allocation below against the input size. This decode is the
    // dominant cost of restoring a checkpoint or live-point image, so
    // the loop body stays branch-light: while a varint's maximum 10
    // bytes provably remain, elements decode with no per-byte bounds
    // checks, and the common one-byte delta (a run of equal values)
    // never enters the multi-byte loop at all.
    sim_throw_if(count > len, ErrCode::BadCheckpoint,
                 "packed u64 array claims %llu elements in %zu bytes",
                 static_cast<unsigned long long>(count), len);
    std::vector<std::uint64_t> v(count);
    std::size_t pos = 0;
    std::uint64_t prev = 0;
    const std::size_t safe = len >= 10 ? len - 10 : 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t z;
        if (pos <= safe) {
            const std::uint8_t b = data[pos];
            if (!(b & 0x80)) {
                ++pos;
                z = b;
            } else {
                z = readVarintUnchecked(data, &pos);
            }
        } else {
            z = readVarint(data, len, &pos);
        }
        prev += unzigzag(z);
        v[i] = prev;
    }
    sim_throw_if(pos != len, ErrCode::BadCheckpoint,
                 "packed u64 array has %zu trailing bytes",
                 len - pos);
    return v;
}

std::vector<std::uint8_t>
packDeltaU64Bounded(const std::vector<std::uint64_t> &v,
                    std::size_t bound)
{
    // Encodes through a small stack buffer flushed in chunks: the hot
    // loop writes through a raw pointer with no capacity checks, and
    // well-compressing arrays (the common case) never allocate more
    // than they produce. Abandons as soon as the output provably
    // reaches @p bound.
    std::vector<std::uint8_t> out;
    std::array<std::uint8_t, 4096> buf;
    std::size_t fill = 0;
    std::uint64_t prev = 0;
    for (const std::uint64_t x : v) {
        if (fill + 10 > buf.size()) {
            out.insert(out.end(), buf.data(), buf.data() + fill);
            fill = 0;
        }
        if (out.size() + fill >= bound)
            return {};
        std::uint8_t *p = buf.data() + fill;
        std::uint64_t z = zigzag(x - prev);
        prev = x;
        while (z >= 0x80) {
            *p++ = static_cast<std::uint8_t>(z) | 0x80;
            z >>= 7;
        }
        *p++ = static_cast<std::uint8_t>(z);
        fill = static_cast<std::size_t>(p - buf.data());
    }
    if (out.size() + fill >= bound)
        return {};
    out.insert(out.end(), buf.data(), buf.data() + fill);
    return out;
}

std::vector<std::uint8_t>
packZeroRleU8(const std::vector<std::uint8_t> &v)
{
    std::vector<std::uint8_t> out;
    out.reserve(v.size() / 4 + 16);
    const std::uint8_t *const begin = v.data();
    const std::uint8_t *const end = begin + v.size();
    for (const std::uint8_t *p = begin; p < end;) {
        // Nonzero bytes copy through verbatim, a whole span at a time.
        const void *zero = std::memchr(p, 0, end - p);
        const std::uint8_t *const lit_end =
            zero ? static_cast<const std::uint8_t *>(zero) : end;
        out.insert(out.end(), p, lit_end);
        p = lit_end;
        if (p == end)
            break;
        const std::uint8_t *run_end = p + 1;
        while (run_end < end && *run_end == 0)
            ++run_end;
        out.push_back(0);
        appendVarint(out, static_cast<std::uint64_t>(run_end - p));
        p = run_end;
    }
    return out;
}

std::vector<std::uint8_t>
unpackZeroRleU8(const std::uint8_t *data, std::size_t len,
                std::uint64_t count)
{
    std::vector<std::uint8_t> v;
    v.reserve(count);
    std::size_t pos = 0;
    while (v.size() < count) {
        sim_throw_if(pos >= len, ErrCode::BadCheckpoint,
                     "RLE byte array truncated at %zu of %llu bytes",
                     v.size(), static_cast<unsigned long long>(count));
        if (data[pos] != 0) {
            // A span of literal bytes, cut at the next zero, the end of
            // the input or the element count, whichever comes first.
            const std::size_t room = static_cast<std::size_t>(std::min<
                std::uint64_t>(len - pos, count - v.size()));
            const void *zero = std::memchr(data + pos, 0, room);
            const std::size_t lit = zero
                ? static_cast<std::size_t>(
                      static_cast<const std::uint8_t *>(zero) -
                      (data + pos))
                : room;
            v.insert(v.end(), data + pos, data + pos + lit);
            pos += lit;
            continue;
        }
        ++pos;
        const std::uint64_t run = readVarint(data, len, &pos);
        sim_throw_if(run == 0 || run > count - v.size(),
                     ErrCode::BadCheckpoint,
                     "RLE zero run of %llu bytes overflows the %llu-byte "
                     "array at offset %zu",
                     static_cast<unsigned long long>(run),
                     static_cast<unsigned long long>(count), v.size());
        v.insert(v.end(), run, 0);
    }
    sim_throw_if(pos != len, ErrCode::BadCheckpoint,
                 "RLE byte array has %zu trailing bytes", len - pos);
    return v;
}

// --- Serializer -----------------------------------------------------

void
Serializer::beginSection(const std::string &name)
{
    panic_if(_open, "checkpoint section '%s' opened inside another",
             name.c_str());
    _sections.push_back(Section{name, {}});
    _open = true;
}

void
Serializer::endSection()
{
    panic_if(!_open, "endSection() with no open checkpoint section");
    _open = false;
}

void
Serializer::raw(const void *data, std::size_t len)
{
    panic_if(!_open, "checkpoint write outside any section");
    append(_sections.back().payload, data, len);
}

std::vector<std::uint8_t>
Serializer::finish() const
{
    panic_if(_open, "finish() with an unsealed checkpoint section");
    std::size_t total = kHeaderBytes;
    for (const Section &s : _sections)
        total += 4 + s.name.size() + 8 + 4 + s.payload.size();
    std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
    out.reserve(total);
    appendU32(out, checkpointFormatVersion);
    appendU32(out, static_cast<std::uint32_t>(_sections.size()));
    for (const Section &s : _sections) {
        appendU32(out, static_cast<std::uint32_t>(s.name.size()));
        append(out, s.name.data(), s.name.size());
        appendU64(out, s.payload.size());
        appendU32(out, crc32(s.payload.data(), s.payload.size()));
        append(out, s.payload.data(), s.payload.size());
    }
    return out;
}

void
Serializer::writeFile(const std::string &path) const
{
    writeCheckpointFile(path, finish());
}

void
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &image)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    sim_throw_if(!f, ErrCode::BadCheckpoint,
                 "cannot open '%s' for writing", tmp.c_str());
    const std::size_t written =
        std::fwrite(image.data(), 1, image.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (written != image.size() || !closed) {
        std::remove(tmp.c_str());
        throwSimError(ErrCode::BadCheckpoint,
                      "short write while saving checkpoint '%s'",
                      path.c_str());
    }
    sim_throw_if(std::rename(tmp.c_str(), path.c_str()) != 0,
                 ErrCode::BadCheckpoint,
                 "cannot move checkpoint into place at '%s'",
                 path.c_str());
}

// --- Deserializer ---------------------------------------------------

std::vector<std::uint8_t>
Deserializer::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    sim_throw_if(!f, ErrCode::BadCheckpoint,
                 "cannot open checkpoint '%s'", path.c_str());
    std::vector<std::uint8_t> image;
    std::array<std::uint8_t, 64 * 1024> buf;
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        image.insert(image.end(), buf.data(), buf.data() + n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    sim_throw_if(failed, ErrCode::BadCheckpoint,
                 "read error on checkpoint '%s'", path.c_str());
    return image;
}

Deserializer::Deserializer(std::vector<std::uint8_t> image)
    : _image(std::move(image))
{
    sim_throw_if(_image.size() < kHeaderBytes, ErrCode::BadCheckpoint,
                 "checkpoint truncated: %zu bytes is smaller than the "
                 "%zu-byte header", _image.size(), kHeaderBytes);
    sim_throw_if(std::memcmp(_image.data(), kMagic.data(),
                             kMagic.size()) != 0,
                 ErrCode::BadCheckpoint,
                 "not a checkpoint (bad magic)");

    std::size_t off = kMagic.size();
    auto readU32 = [&]() {
        std::uint32_t v;
        std::memcpy(&v, _image.data() + off, 4);
        off += 4;
        return v;
    };

    const std::uint32_t version = readU32();
    sim_throw_if(version != checkpointFormatVersion,
                 ErrCode::BadCheckpoint,
                 "checkpoint format version %u unsupported (this build "
                 "reads version %u)", version, checkpointFormatVersion);

    const std::uint32_t count = readU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        sim_throw_if(off + 4 > _image.size(), ErrCode::BadCheckpoint,
                     "checkpoint truncated in section %u header", i);
        const std::uint32_t name_len = readU32();
        sim_throw_if(off + name_len + 12 > _image.size(),
                     ErrCode::BadCheckpoint,
                     "checkpoint truncated in section %u header", i);
        Section s;
        s.name.assign(reinterpret_cast<const char *>(_image.data() + off),
                      name_len);
        off += name_len;
        std::uint64_t payload_len;
        std::memcpy(&payload_len, _image.data() + off, 8);
        off += 8;
        const std::uint32_t want_crc = readU32();
        sim_throw_if(payload_len > _image.size() - off,
                     ErrCode::BadCheckpoint,
                     "checkpoint truncated: section '%s' claims %llu "
                     "payload bytes but only %zu remain", s.name.c_str(),
                     static_cast<unsigned long long>(payload_len),
                     _image.size() - off);
        const std::uint32_t got_crc =
            crc32(_image.data() + off, payload_len);
        sim_throw_if(got_crc != want_crc, ErrCode::BadCheckpoint,
                     "checkpoint section '%s' is corrupt "
                     "(CRC %08x, expected %08x)", s.name.c_str(),
                     got_crc, want_crc);
        s.offset = off;
        s.length = payload_len;
        off += payload_len;
        _sections.push_back(std::move(s));
    }
    sim_throw_if(off != _image.size(), ErrCode::BadCheckpoint,
                 "checkpoint has %zu trailing bytes after the last "
                 "section", _image.size() - off);
}

bool
Deserializer::hasSection(const std::string &name) const
{
    for (const Section &s : _sections) {
        if (s.name == name)
            return true;
    }
    return false;
}

void
Deserializer::openSection(const std::string &name)
{
    for (std::size_t i = 0; i < _sections.size(); ++i) {
        if (_sections[i].name == name) {
            _current = i;
            _cursor = 0;
            return;
        }
    }
    throwSimError(ErrCode::BadCheckpoint,
                  "checkpoint has no '%s' section", name.c_str());
}

void
Deserializer::closeSection()
{
    panic_if(_current == static_cast<std::size_t>(-1),
             "closeSection() with no open checkpoint section");
    const Section &s = _sections[_current];
    sim_throw_if(_cursor != s.length, ErrCode::BadCheckpoint,
                 "checkpoint section '%s' decoded %zu of %zu bytes "
                 "(format drift?)", s.name.c_str(), _cursor, s.length);
    _current = static_cast<std::size_t>(-1);
}

void
Deserializer::raw(void *out, std::size_t len)
{
    sim_throw_if(_current == static_cast<std::size_t>(-1),
                 ErrCode::BadCheckpoint,
                 "checkpoint read outside any section");
    const Section &s = _sections[_current];
    sim_throw_if(len > s.length - _cursor, ErrCode::BadCheckpoint,
                 "checkpoint section '%s' truncated: read of %zu bytes "
                 "at offset %zu exceeds %zu-byte payload",
                 s.name.c_str(), len, _cursor, s.length);
    if (len != 0) // an empty vector's data() may be null
        std::memcpy(out, _image.data() + s.offset + _cursor, len);
    _cursor += len;
}

void
Deserializer::requireRemaining(std::uint64_t bytes)
{
    sim_throw_if(_current == static_cast<std::size_t>(-1),
                 ErrCode::BadCheckpoint,
                 "checkpoint read outside any section");
    const Section &s = _sections[_current];
    sim_throw_if(bytes > s.length - _cursor, ErrCode::BadCheckpoint,
                 "checkpoint section '%s' truncated: %llu bytes claimed "
                 "but only %zu remain", s.name.c_str(),
                 static_cast<unsigned long long>(bytes),
                 s.length - _cursor);
}

std::uint64_t
Deserializer::countedLength(std::size_t elem_bytes)
{
    const std::uint64_t n = u64();
    requireCount(n, elem_bytes);
    return n;
}

void
Deserializer::requireCount(std::uint64_t n, std::size_t elem_bytes)
{
    const Section &s = _sections[_current];
    sim_throw_if(n > (s.length - _cursor) / elem_bytes,
                 ErrCode::BadCheckpoint,
                 "checkpoint section '%s' truncated: %llu elements "
                 "do not fit in the remaining %zu bytes",
                 s.name.c_str(), static_cast<unsigned long long>(n),
                 s.length - _cursor);
}

} // namespace imo

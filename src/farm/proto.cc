#include "farm/proto.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/hash.hh"

namespace imo::farm
{

namespace
{

constexpr std::uint32_t kFrameMagic = 0x464f4d49u; // "IMOF" little-endian

bool
validFrameType(std::uint32_t t)
{
    return t >= static_cast<std::uint32_t>(FrameType::Hello) &&
           t <= static_cast<std::uint32_t>(FrameType::Stats);
}

template <typename T>
void
put(std::vector<std::uint8_t> &out, T v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof v);
}

template <typename T>
T
get(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** The fields of a frame header after the magic. */
struct Header
{
    FrameType type;
    std::uint64_t len;
    std::uint32_t crc;
};

/**
 * Parse and validate the frame header at @p p. Throws WorkerLost on
 * garbage so both the blocking reader and the incremental parser
 * reject identically.
 */
Header
parseHeader(const std::uint8_t *p)
{
    const auto magic = get<std::uint32_t>(p);
    const auto type = get<std::uint32_t>(p + 4);
    const auto len = get<std::uint64_t>(p + 8);
    sim_throw_if(magic != kFrameMagic, ErrCode::WorkerLost,
                 "farm protocol: bad frame magic %08x", magic);
    sim_throw_if(!validFrameType(type), ErrCode::WorkerLost,
                 "farm protocol: unknown frame type %u", type);
    sim_throw_if(len > maxFramePayload, ErrCode::WorkerLost,
                 "farm protocol: frame claims %llu payload bytes "
                 "(limit %llu)",
                 static_cast<unsigned long long>(len),
                 static_cast<unsigned long long>(maxFramePayload));
    return {static_cast<FrameType>(type), len,
            get<std::uint32_t>(p + 16)};
}

void
checkPayloadCrc(const std::vector<std::uint8_t> &payload,
                std::uint32_t want)
{
    const std::uint32_t got = crc32(payload.data(), payload.size());
    sim_throw_if(got != want, ErrCode::WorkerLost,
                 "farm protocol: frame payload CRC %08x, expected %08x",
                 got, want);
}

/** Read exactly @p len bytes. @return bytes read (< len only at EOF). */
std::size_t
readFull(int fd, std::uint8_t *out, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::read(fd, out + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwSimError(ErrCode::WorkerLost,
                          "farm protocol: read failed: %s",
                          std::strerror(errno));
        }
        if (n == 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    return done;
}

} // anonymous namespace

std::vector<std::uint8_t>
buildFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> buf;
    buf.reserve(frameHeaderBytes + payload.size());
    put<std::uint32_t>(buf, kFrameMagic);
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(type));
    put<std::uint64_t>(buf, payload.size());
    put<std::uint32_t>(buf, crc32(payload.data(), payload.size()));
    buf.insert(buf.end(), payload.begin(), payload.end());
    return buf;
}

void
writeFrame(int fd, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> buf = buildFrame(type, payload);

    std::size_t done = 0;
    while (done < buf.size()) {
        const ssize_t n = ::write(fd, buf.data() + done,
                                  buf.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwSimError(ErrCode::WorkerLost,
                          "farm protocol: write failed: %s",
                          std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

bool
readFrame(int fd, Frame *out)
{
    std::uint8_t header[frameHeaderBytes];
    const std::size_t got = readFull(fd, header, sizeof header);
    if (got == 0)
        return false; // clean EOF between frames
    sim_throw_if(got < sizeof header, ErrCode::WorkerLost,
                 "farm protocol: EOF inside a frame header");

    const Header h = parseHeader(header);
    out->type = h.type;
    out->payload.resize(static_cast<std::size_t>(h.len));
    sim_throw_if(readFull(fd, out->payload.data(), out->payload.size()) <
                     out->payload.size(),
                 ErrCode::WorkerLost,
                 "farm protocol: EOF inside a frame payload");
    checkPayloadCrc(out->payload, h.crc);
    return true;
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t len)
{
    _buf.insert(_buf.end(), data, data + len);
}

bool
FrameParser::next(Frame *out)
{
    if (_buf.size() < frameHeaderBytes)
        return false;
    const Header h = parseHeader(_buf.data());
    if (_buf.size() < frameHeaderBytes + h.len)
        return false;

    const auto end =
        _buf.begin() + frameHeaderBytes + static_cast<std::size_t>(h.len);
    out->type = h.type;
    out->payload.assign(_buf.begin() + frameHeaderBytes, end);
    _buf.erase(_buf.begin(), end);
    checkPayloadCrc(out->payload, h.crc);
    return true;
}

// --- Message payload codecs -----------------------------------------

std::uint64_t
authDigest(const std::string &token, std::uint64_t nonce)
{
    // FNV-1a over token || nonce || token: the token both prefixes and
    // suffixes the nonce so neither an empty token nor a truncated
    // token aliases another. Intentionally lightweight — see proto.hh.
    Fnv1a h;
    h.str(token);
    h.u64(nonce);
    h.bytes(token.data(), token.size());
    return h.value();
}

std::vector<std::uint8_t>
encodeChallenge(const ChallengeMsg &msg)
{
    return encodeSection("challenge", [&](Serializer &s) {
        s.u32(msg.protoVersion);
        s.u32(msg.schemaVersion);
        s.u64(msg.nonce);
        s.str(msg.runId);
    });
}

ChallengeMsg
decodeChallenge(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("challenge", payload, [](Deserializer &d) {
        ChallengeMsg msg;
        msg.protoVersion = d.u32();
        msg.schemaVersion = d.u32();
        msg.nonce = d.u64();
        msg.runId = d.str();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeHello(const HelloMsg &msg)
{
    return encodeSection("hello", [&](Serializer &s) {
        s.u32(msg.protoVersion);
        s.u32(msg.schemaVersion);
        s.u64(msg.response);
    });
}

HelloMsg
decodeHello(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("hello", payload, [](Deserializer &d) {
        HelloMsg msg;
        msg.protoVersion = d.u32();
        msg.schemaVersion = d.u32();
        msg.response = d.u64();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeHeartbeat(std::uint64_t slot)
{
    return encodeSection("heartbeat",
                         [&](Serializer &s) { s.u64(slot); });
}

std::uint64_t
decodeHeartbeat(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("heartbeat", payload,
                         [](Deserializer &d) { return d.u64(); });
}

std::vector<std::uint8_t>
encodeResult(const ResultMsg &msg)
{
    return encodeSection("result", [&](Serializer &s) {
        s.u64(msg.slot);
        s.vecU8(msg.fragment);
    });
}

ResultMsg
decodeResult(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("result", payload, [](Deserializer &d) {
        ResultMsg msg;
        msg.slot = d.u64();
        msg.fragment = d.vecU8();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeError(const ErrorMsg &msg)
{
    return encodeSection("error", [&](Serializer &s) {
        s.u64(msg.slot);
        s.u8(static_cast<std::uint8_t>(msg.error.code));
        s.str(msg.error.message);
        s.u32(static_cast<std::uint32_t>(msg.error.context.size()));
        for (const std::string &note : msg.error.context)
            s.str(note);
    });
}

ErrorMsg
decodeError(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("error", payload, [](Deserializer &d) {
        ErrorMsg msg;
        msg.slot = d.u64();
        const std::uint8_t code = d.u8();
        // A "no error" or out-of-range code is wire garbage, not a
        // valid diagnosis.
        sim_throw_if(code == 0 ||
                         code > static_cast<std::uint8_t>(
                                    ErrCode::AuthFailed),
                     ErrCode::WorkerLost,
                     "farm protocol: invalid error code %u", code);
        msg.error.code = static_cast<ErrCode>(code);
        msg.error.message = d.str();
        const std::uint32_t notes = d.u32();
        for (std::uint32_t i = 0; i < notes; ++i)
            msg.error.context.push_back(d.str());
        return msg;
    });
}

std::vector<std::uint8_t>
encodeStats(const StatsMsg &msg)
{
    return encodeSection("stats", [&](Serializer &s) {
        s.u64(msg.slot);
        s.u64(msg.simulateMs);
        s.u64(msg.serializeMs);
        s.u64(msg.cycles);
        s.u64(msg.instructions);
    });
}

StatsMsg
decodeStats(const std::vector<std::uint8_t> &payload)
{
    return decodeSection("stats", payload, [](Deserializer &d) {
        StatsMsg msg;
        msg.slot = d.u64();
        msg.simulateMs = d.u64();
        msg.serializeMs = d.u64();
        msg.cycles = d.u64();
        msg.instructions = d.u64();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeFragmentBundle(
    const std::vector<std::vector<std::uint8_t>> &fragments)
{
    return encodeSection("bundle", [&](Serializer &s) {
        s.u32(static_cast<std::uint32_t>(fragments.size()));
        for (const std::vector<std::uint8_t> &f : fragments)
            s.vecU8(f);
    });
}

std::vector<std::vector<std::uint8_t>>
decodeFragmentBundle(const std::vector<std::uint8_t> &bundle)
{
    return decodeSection("bundle", bundle, [](Deserializer &d) {
        const std::uint32_t n = d.u32();
        std::vector<std::vector<std::uint8_t>> fragments;
        fragments.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            fragments.push_back(d.vecU8());
        return fragments;
    });
}

} // namespace imo::farm

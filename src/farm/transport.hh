/**
 * @file
 * Byte-stream transports for the farm protocol.
 *
 * The coordinator's poll loop drives every peer — a fork+pipe local
 * worker or a TCP socket from another machine — through one seam:
 *
 *  - Transport: a non-blocking bidirectional framed stream. Reads are
 *    pumped into the incremental FrameParser (partial frames buffer
 *    until complete), writes go through a completion queue so a short
 *    write never tears a frame: sendFrame() flushes what the kernel
 *    accepts and queues the rest, and flush() finishes the job when
 *    poll() reports the fd writable again.
 *  - Listener: a non-blocking TCP accept socket (loopback or LAN) the
 *    coordinator polls alongside its peers.
 *  - connectTcp(): the worker daemon's non-blocking connect with a
 *    deadline, returned in blocking mode for the worker's simple
 *    read loop.
 *
 * Socket sends use MSG_NOSIGNAL so a vanished peer surfaces as a
 * structured WorkerLost error, never a process-killing SIGPIPE.
 */

#ifndef IMO_FARM_TRANSPORT_HH
#define IMO_FARM_TRANSPORT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "farm/proto.hh"

namespace imo::farm
{

/** One peer connection as the coordinator sees it. */
class Transport
{
  public:
    /** Adopt a pipe pair (coordinator side of a fork+pipe worker).
     *  Both fds are switched to non-blocking. */
    static std::unique_ptr<Transport> pipePair(int rfd, int wfd);

    /** Adopt a connected TCP socket (switched to non-blocking). */
    static std::unique_ptr<Transport> socket(int fd);

    ~Transport();
    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    int readFd() const { return _rfd; }
    int writeFd() const { return _wfd; }

    /**
     * Queue one frame and flush as much as the kernel will take.
     * Throws SimException(WorkerLost) on a hard connection error; a
     * full kernel buffer (EAGAIN) just leaves bytes queued.
     */
    void sendFrame(FrameType type, const std::vector<std::uint8_t> &payload);

    /** Continue draining the write queue (call when poll() reports the
     *  write fd ready). Throws WorkerLost on a hard error. */
    void flush();

    /** @return true while queued bytes await a writable fd. */
    bool wantsWrite() const { return _outAt < _out.size(); }

    /**
     * Drain everything readable into the frame parser.
     * @return false on EOF (peer closed). Throws WorkerLost if the
     * stream is unparseable (cannot be resynchronized).
     */
    bool pump();

    /** @return true and fill @p out if a complete frame is buffered. */
    bool nextFrame(Frame *out) { return _parser.next(out); }

    /** Close both fds (idempotent). */
    void close();

  private:
    Transport(int rfd, int wfd, bool socket);

    int _rfd = -1;
    int _wfd = -1;
    bool _socket = false;
    FrameParser _parser;
    std::vector<std::uint8_t> _out; //!< unflushed frame bytes
    std::size_t _outAt = 0;         //!< first unsent byte in _out
};

/** Non-blocking TCP listening socket. */
class Listener
{
  public:
    /**
     * Bind and listen on @p host:@p port (port 0 picks an ephemeral
     * port; boundPort() reports the real one).
     * Throws SimException(BadConfig) on a bad address or bind failure.
     */
    Listener(const std::string &host, std::uint16_t port);
    ~Listener();
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    int fd() const { return _fd; }
    std::uint16_t boundPort() const { return _port; }

    /** Accept one pending connection; nullptr when none is queued. */
    std::unique_ptr<Transport> accept();

    void close();

  private:
    int _fd = -1;
    std::uint16_t _port = 0;
};

/**
 * Worker-side connect: non-blocking connect to @p host:@p port with a
 * @p timeoutMs deadline, returned as a *blocking* fd for the worker's
 * sequential frame loop. Throws SimException(WorkerLost) on refusal,
 * timeout, or resolution failure.
 */
int connectTcp(const std::string &host, std::uint16_t port,
               std::uint64_t timeoutMs);

} // namespace imo::farm

#endif // IMO_FARM_TRANSPORT_HH

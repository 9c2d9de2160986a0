#include "farm/transport.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"

namespace imo::farm
{

namespace
{

void
setNonBlocking(int fd, bool on = true)
{
    const int flags = ::fcntl(fd, F_GETFL);
    sim_throw_if(flags < 0 ||
                     ::fcntl(fd, F_SETFL,
                             on ? flags | O_NONBLOCK
                                : flags & ~O_NONBLOCK) < 0,
                 ErrCode::WorkerLost,
                 "farm transport: cannot set O_NONBLOCK=%d: %s", on,
                 std::strerror(errno));
}

struct sockaddr_in
parseAddr(const std::string &host, std::uint16_t port, ErrCode errCode)
{
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    sim_throw_if(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1,
                 errCode,
                 "farm transport: '%s' is not an IPv4 address",
                 host.c_str());
    return addr;
}

} // anonymous namespace

Transport::Transport(int rfd, int wfd, bool socket)
    : _rfd(rfd), _wfd(wfd), _socket(socket)
{
    setNonBlocking(_rfd);
    if (_wfd != _rfd)
        setNonBlocking(_wfd);
}

Transport::~Transport()
{
    close();
}

std::unique_ptr<Transport>
Transport::pipePair(int rfd, int wfd)
{
    return std::unique_ptr<Transport>(new Transport(rfd, wfd, false));
}

std::unique_ptr<Transport>
Transport::socket(int fd)
{
    return std::unique_ptr<Transport>(new Transport(fd, fd, true));
}

void
Transport::close()
{
    if (_rfd >= 0)
        ::close(_rfd);
    if (_wfd >= 0 && _wfd != _rfd)
        ::close(_wfd);
    _rfd = _wfd = -1;
}

void
Transport::sendFrame(FrameType type,
                     const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> bytes = buildFrame(type, payload);
    // Compact the queue before growing it: everything before _outAt is
    // already on the wire.
    if (_outAt > 0) {
        _out.erase(_out.begin(),
                   _out.begin() + static_cast<long>(_outAt));
        _outAt = 0;
    }
    _out.insert(_out.end(), bytes.begin(), bytes.end());
    flush();
}

void
Transport::flush()
{
    sim_throw_if(_wfd < 0, ErrCode::WorkerLost,
                 "farm transport: write on a closed connection");
    while (_outAt < _out.size()) {
        const std::uint8_t *data = _out.data() + _outAt;
        const std::size_t len = _out.size() - _outAt;
        const ssize_t n =
            _socket ? ::send(_wfd, data, len, MSG_NOSIGNAL)
                    : ::write(_wfd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // completion queue: retry on the next POLLOUT
            throwSimError(ErrCode::WorkerLost,
                          "farm transport: write failed: %s",
                          std::strerror(errno));
        }
        _outAt += static_cast<std::size_t>(n);
    }
    _out.clear();
    _outAt = 0;
}

bool
Transport::pump()
{
    std::uint8_t buf[65536];
    for (;;) {
        const ssize_t n = ::read(_rfd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            return false; // ECONNRESET and friends: the peer is gone
        }
        if (n == 0)
            return false; // EOF
        _parser.feed(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof buf))
            return true;
    }
}

Listener::Listener(const std::string &host, std::uint16_t port)
{
    struct sockaddr_in addr =
        parseAddr(host, port, ErrCode::BadConfig);

    _fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sim_throw_if(_fd < 0, ErrCode::BadConfig,
                 "farm listener: cannot create socket: %s",
                 std::strerror(errno));
    const int one = 1;
    ::setsockopt(_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(_fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(_fd, 64) != 0) {
        const int err = errno;
        ::close(_fd);
        _fd = -1;
        throwSimError(ErrCode::BadConfig,
                      "farm listener: cannot listen on %s:%u: %s",
                      host.c_str(), static_cast<unsigned>(port),
                      std::strerror(err));
    }
    setNonBlocking(_fd);

    struct sockaddr_in bound{};
    socklen_t len = sizeof bound;
    sim_throw_if(::getsockname(_fd,
                               reinterpret_cast<struct sockaddr *>(&bound),
                               &len) != 0,
                 ErrCode::BadConfig,
                 "farm listener: getsockname failed: %s",
                 std::strerror(errno));
    _port = ntohs(bound.sin_port);
}

Listener::~Listener()
{
    close();
}

void
Listener::close()
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
}

std::unique_ptr<Transport>
Listener::accept()
{
    for (;;) {
        const int fd = ::accept4(_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return nullptr; // EAGAIN, or a connection that went away
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        return Transport::socket(fd);
    }
}

int
connectTcp(const std::string &host, std::uint16_t port,
           std::uint64_t timeoutMs)
{
    struct sockaddr_in addr =
        parseAddr(host, port, ErrCode::WorkerLost);

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sim_throw_if(fd < 0, ErrCode::WorkerLost,
                 "farm connect: cannot create socket: %s",
                 std::strerror(errno));
    try {
        setNonBlocking(fd);
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) != 0) {
            sim_throw_if(errno != EINPROGRESS, ErrCode::WorkerLost,
                         "farm connect: cannot reach %s:%u: %s",
                         host.c_str(), static_cast<unsigned>(port),
                         std::strerror(errno));
            struct pollfd pfd = {fd, POLLOUT, 0};
            const int rc = ::poll(&pfd, 1,
                                  static_cast<int>(timeoutMs));
            sim_throw_if(rc <= 0, ErrCode::WorkerLost,
                         "farm connect: %s:%u did not answer within "
                         "%llums",
                         host.c_str(), static_cast<unsigned>(port),
                         static_cast<unsigned long long>(timeoutMs));
            int err = 0;
            socklen_t len = sizeof err;
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
            sim_throw_if(err != 0, ErrCode::WorkerLost,
                         "farm connect: cannot reach %s:%u: %s",
                         host.c_str(), static_cast<unsigned>(port),
                         std::strerror(err));
        }
        setNonBlocking(fd, false);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    } catch (...) {
        ::close(fd);
        throw;
    }
    return fd;
}

} // namespace imo::farm

#include "service/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "harness/executor.hh"
#include "harness/figures.hh"
#include "harness/serialize.hh"
#include "harness/session.hh"
#include "prog/workloads/workloads.hh"
#include "service/http.hh"

namespace svw::service {

namespace {

/** Stop streaming into a connection whose client reads this far
 * behind; the session resumes once the buffer drains. */
constexpr std::size_t writeBackpressureBytes = 4 * 1024 * 1024;

/** parseFlagNumber's contract (bench_common.hh), restated here so the
 * service layer does not depend on bench headers: digits only,
 * fits uint64, else a usage error (exit 2). */
std::uint64_t
parseDaemonNumber(const std::string &text, const char *flag)
{
    const bool allDigits = !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    if (allDigits) {
        try {
            return std::stoull(text);
        } catch (const std::exception &) {  // out of range
        }
    }
    std::fprintf(stderr, "error: bad number '%s' for %s\n", text.c_str(),
                 flag);
    std::exit(2);
}

/** Form-parameter number: returns false on malformed/oversized input
 * instead of exiting (a bad request is the client's bug, not ours). */
bool
parseParamNumber(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    try {
        out = std::stoull(text);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

} // namespace

SweepdOptions
parseSweepdArgs(int argc, char **argv)
{
    SweepdOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--port=", 0) == 0) {
            const std::uint64_t p =
                parseDaemonNumber(a.substr(7), "--port");
            if (p > 65535) {
                std::fprintf(stderr,
                             "error: --port value '%s' out of range\n",
                             a.substr(7).c_str());
                std::exit(2);
            }
            opts.port = static_cast<unsigned>(p);
        } else if (a.rfind("--bind=", 0) == 0) {
            opts.bindAddr = a.substr(7);
            if (opts.bindAddr.empty()) {
                std::fprintf(stderr,
                             "error: --bind needs an address\n");
                std::exit(2);
            }
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            opts.cacheDir = a.substr(12);
        } else if (a.rfind("--mem-cache-max-mb=", 0) == 0) {
            opts.memCacheMaxMb =
                parseDaemonNumber(a.substr(19), "--mem-cache-max-mb");
        } else if (a == "--quiet") {
            opts.quiet = true;
        } else {
            std::fprintf(stderr,
                         "error: unknown arg %s\n"
                         "usage: %s [--port=N] [--bind=ADDR]"
                         " [--cache-dir=D] [--mem-cache-max-mb=N]"
                         " [--quiet]\n",
                         a.c_str(), argv[0]);
            std::exit(2);
        }
    }
    return opts;
}

/**
 * One client connection's state machine: reading the request, then
 * (for /sweep) producing the streamed response from an incremental
 * SweepSession, then draining the write buffer and closing.
 */
struct SweepServer::Conn
{
    Conn(int f, const SweepdOptions &o)
        : fd(f), parser(o.maxHeadBytes, o.maxBodyBytes)
    {}

    int fd = -1;
    HttpParser parser;
    std::string out;            ///< bytes awaiting the socket
    bool responding = false;    ///< request complete; producing output
    bool closeAfterFlush = false;
    bool dead = false;
    std::unique_ptr<harness::SweepSession> session;
};

SweepServer::SweepServer(SweepdOptions opts) : opts_(std::move(opts))
{
    if (::pipe2(stopPipe_, O_NONBLOCK | O_CLOEXEC) != 0)
        throw std::runtime_error("sweepd: pipe2 failed");

    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("sweepd: socket failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.bindAddr.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("sweepd: bad bind address " +
                                 opts_.bindAddr);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw std::runtime_error(
            "sweepd: cannot bind " + opts_.bindAddr + ":" +
            std::to_string(opts_.port) + ": " + std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        throw std::runtime_error("sweepd: listen failed");

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    harness::processMemoryResultCache().setMaxBytes(
        opts_.memCacheMaxMb * 1024ull * 1024ull);
}

SweepServer::~SweepServer()
{
    // Conn dtors run first conceptually: an active SweepSession's own
    // destructor discards pending cells and joins its workers, so
    // tearing the server down mid-sweep is safe.
    for (auto &c : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : stopPipe_)
        if (fd >= 0)
            ::close(fd);
}

void
SweepServer::requestStop()
{
    const char b = 's';
    // Async-signal-safe: one write syscall, no locks, no allocation.
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &b, 1);
}

void
SweepServer::acceptClients()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            return;  // EAGAIN or transient accept error: poll again
        conns_.push_back(std::make_unique<Conn>(fd, opts_));
    }
}

void
SweepServer::readConn(Conn &c)
{
    char chunk[8192];
    for (;;) {
        const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            failConn(c);
            return;
        }
        if (n == 0) {
            // EOF. Mid-request it is an abandoned request; mid-stream
            // it is the client disconnect that must abort only this
            // connection's session.
            failConn(c);
            return;
        }
        if (c.responding) {
            // One request per connection: bytes after the request are
            // a protocol violation, not a second request.
            failConn(c);
            return;
        }
        const HttpParser::Status st =
            c.parser.feed(chunk, static_cast<std::size_t>(n));
        if (st == HttpParser::Status::Error) {
            c.out += simpleResponse(
                400, "Bad Request", "text/plain",
                "error: " + c.parser.error() + "\n");
            c.responding = true;
            c.closeAfterFlush = true;
            flushConn(c);
            return;
        }
        if (st == HttpParser::Status::Complete) {
            c.responding = true;
            dispatch(c);
            return;
        }
    }
}

std::string
SweepServer::statusJson() const
{
    const auto &mem = harness::processMemoryResultCache();
    std::size_t active = 0;
    for (const auto &c : conns_)
        if (c->session)
            ++active;
    std::string j = "{";
    j += "\"programBuilds\":" +
        std::to_string(harness::processProgramCache().builds());
    j += ",\"runCellCalls\":" +
        std::to_string(harness::execCounters().cellRuns());
    j += ",\"memCacheEntries\":" + std::to_string(mem.entries());
    j += ",\"memCacheBytes\":" + std::to_string(mem.bytes());
    j += ",\"memCacheMaxBytes\":" + std::to_string(mem.maxBytes());
    j += ",\"memCacheHits\":" + std::to_string(mem.hits());
    j += ",\"memCacheEvictions\":" + std::to_string(mem.evictions());
    j += ",\"activeSessions\":" + std::to_string(active);
    j += ",\"sessionsServed\":" + std::to_string(sessionsServed_);
    j += std::string(",\"draining\":") +
        (stopping_ ? "true" : "false");
    j += "}\n";
    return j;
}

void
SweepServer::dispatch(Conn &c)
{
    const HttpRequest &req = c.parser.request();
    if (!opts_.quiet)
        std::fprintf(stderr, "sweepd: %s %s\n", req.method.c_str(),
                     req.target.c_str());

    if (req.method == "GET" && req.target == "/status") {
        c.out += simpleResponse(200, "OK", "application/json",
                                statusJson());
        c.closeAfterFlush = true;
    } else if (req.method == "GET" && req.target == "/figures") {
        std::string j = "[";
        bool first = true;
        for (const auto &def : harness::figureRegistry()) {
            if (!first)
                j += ",";
            first = false;
            j += "{\"name\":\"" + harness::jsonEscape(def.name) +
                "\",\"title\":\"" + harness::jsonEscape(def.title) +
                "\"}";
        }
        j += "]\n";
        c.out += simpleResponse(200, "OK", "application/json", j);
        c.closeAfterFlush = true;
    } else if (req.method == "POST" && req.target == "/sweep") {
        startSweep(c);
    } else {
        c.out += simpleResponse(404, "Not Found", "text/plain",
                                "error: no such endpoint\n");
        c.closeAfterFlush = true;
    }
    flushConn(c);
}

void
SweepServer::startSweep(Conn &c)
{
    const auto params = parseFormBody(c.parser.request().body);
    auto reject = [&](const std::string &why) {
        c.out += simpleResponse(400, "Bad Request", "text/plain",
                                "error: " + why + "\n");
        c.closeAfterFlush = true;
    };

    if (stopping_)
        return reject("daemon is draining");

    // A misspelled or retired field would otherwise be silently
    // ignored and the sweep run with defaults the client did not ask
    // for.
    for (const auto &[name, value] : params) {
        if (name != "figure" && name != "families" && name != "bench" &&
            name != "quick" && name != "insts" && name != "threads")
            return reject("unknown parameter '" + name + "'");
    }

    auto figIt = params.find("figure");
    if (figIt == params.end() || figIt->second.empty())
        return reject("missing 'figure' parameter");
    const harness::FigureDef *def = harness::findFigure(figIt->second);
    if (!def)
        return reject("unknown figure '" + figIt->second +
                      "' (GET /figures lists them)");

    harness::Families families = harness::Families::Paper;
    if (auto it = params.find("families"); it != params.end())
        if (!harness::parseFamilies(it->second, families))
            return reject("bad 'families' value '" + it->second +
                          "' (want paper|synth|all)");

    std::vector<std::string> suite;
    if (auto it = params.find("bench");
        it != params.end() && !it->second.empty()) {
        std::string err;
        if (!workloads::validate(it->second, err))
            return reject("bad 'bench' workload: " + err);
        suite = {it->second};
    } else {
        suite = harness::familySuite(families, def->paperSuite());
    }

    std::uint64_t insts = 100'000;
    if (auto it = params.find("quick");
        it != params.end() && it->second != "0")
        insts = 20'000;
    if (auto it = params.find("insts"); it != params.end())
        if (!parseParamNumber(it->second, insts) || insts == 0)
            return reject("bad 'insts' value '" + it->second + "'");

    std::uint64_t threads = 0;
    if (auto it = params.find("threads"); it != params.end())
        if (!parseParamNumber(it->second, threads) || threads > 256)
            return reject("bad 'threads' value '" + it->second + "'");

    harness::SweepOptions sopts;
    sopts.threads = static_cast<unsigned>(threads);
    sopts.cacheDir = opts_.cacheDir;
    // The daemon's reason to exist: the process-wide memory result
    // cache serves warm repeats even with no disk cache configured.
    sopts.memCache = true;

    c.out += chunkedResponseHead(200, "OK", "application/x-ndjson");

    Conn *conn = &c;
    auto cb = [this, conn](const harness::CellEvent &ev) {
        const char *kind =
            ev.kind == harness::CellEventKind::Started ? "started"
            : ev.kind == harness::CellEventKind::CachedHit ? "cached"
                                                           : "done";
        std::string line = std::string("{\"event\":\"") + kind +
            "\",\"cell\":" + std::to_string(ev.index) + ",\"name\":\"" +
            harness::jsonEscape(ev.cell->name()) + "\"";
        if (ev.outcome)
            line += std::string(",\"ok\":") +
                (ev.outcome->ok ? "true" : "false");
        line += "}\n";
        conn->out += encodeChunk(line);
        // The lossless per-cell result, byte-identical to the CLI
        // binaries' --emit-cells lines, as its own stream line.
        if (!ev.resultLine.empty())
            conn->out += encodeChunk(ev.resultLine + "\n");
    };

    try {
        c.session = std::make_unique<harness::SweepSession>(
            def->build(suite, insts), sopts);
        c.session->start(cb);
    } catch (const std::exception &e) {
        // Headers are already queued, so stream the failure as the
        // final event rather than a status line.
        c.session.reset();
        c.out += encodeChunk(std::string("{\"event\":\"error\",") +
                             "\"message\":\"" +
                             harness::jsonEscape(e.what()) + "\"}\n");
        c.out += finalChunk();
        c.closeAfterFlush = true;
        ++sessionsServed_;
        return;
    }
    if (c.session->finished())
        finishSession(c);
}

void
SweepServer::finishSession(Conn &c)
{
    const std::size_t cells = c.session->cellsSelected();
    const std::size_t failures = c.session->failuresSoFar();
    const std::size_t hits = c.session->cacheHits();
    c.session->finish();
    c.session.reset();
    std::string line = "{\"event\":\"finished\",\"cells\":" +
        std::to_string(cells) + ",\"failures\":" +
        std::to_string(failures) + ",\"cacheHits\":" +
        std::to_string(hits) + "}\n";
    c.out += encodeChunk(line);
    c.out += finalChunk();
    c.closeAfterFlush = true;
    ++sessionsServed_;
    if (!opts_.quiet)
        std::fprintf(stderr,
                     "sweepd: session done (%zu cells, %zu cached,"
                     " %zu failed)\n",
                     cells, hits, failures);
}

void
SweepServer::failConn(Conn &c)
{
    if (c.session) {
        // Abort only this connection's session: pending cells are
        // dropped; in-flight ones (if threaded) complete inside
        // finish() and their results still reach the caches.
        c.session->abort();
        c.session->finish();
        c.session.reset();
        ++sessionsServed_;
        if (!opts_.quiet)
            std::fprintf(stderr,
                         "sweepd: client disconnected; session"
                         " aborted\n");
    }
    c.dead = true;
}

void
SweepServer::flushConn(Conn &c)
{
    while (!c.out.empty()) {
        const ssize_t n =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            c.out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        failConn(c);  // EPIPE/ECONNRESET: the mid-stream disconnect
        return;
    }
    if (c.closeAfterFlush)
        c.dead = true;
}

void
SweepServer::stepConn(Conn &c)
{
    if (!c.session)
        return;
    try {
        const bool more = c.session->step();
        if (!more || c.session->finished())
            finishSession(c);
    } catch (const std::exception &e) {
        // step() contains per-cell failures; anything escaping is an
        // engine-level fault. Report it on this stream and keep the
        // daemon alive.
        c.session.reset();
        c.out += encodeChunk(std::string("{\"event\":\"error\",") +
                             "\"message\":\"" +
                             harness::jsonEscape(e.what()) + "\"}\n");
        c.out += finalChunk();
        c.closeAfterFlush = true;
        ++sessionsServed_;
    }
    flushConn(c);
}

void
SweepServer::run()
{
    std::vector<pollfd> fds;
    std::vector<Conn *> owner;
    while (!(stopping_ && conns_.empty())) {
        fds.clear();
        owner.clear();
        fds.push_back(pollfd{stopPipe_[0], POLLIN, 0});
        owner.push_back(nullptr);
        if (!stopping_ && listenFd_ >= 0) {
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
            owner.push_back(nullptr);
        }

        bool runnable = false;
        for (auto &cp : conns_) {
            Conn &c = *cp;
            short events = POLLIN;
            if (!c.out.empty())
                events |= POLLOUT;
            fds.push_back(pollfd{c.fd, events, 0});
            owner.push_back(&c);
            if (c.session) {
                const bool backpressured =
                    c.out.size() >= writeBackpressureBytes;
                const int wake = c.session->wakeFd();
                if (wake >= 0 && !backpressured) {
                    // Threaded session: completions arrive via pipe.
                    fds.push_back(pollfd{wake, POLLIN, 0});
                    owner.push_back(&c);
                } else if (wake < 0 && !backpressured &&
                           !c.session->finished()) {
                    // In-caller session: a cell runs this loop turn.
                    runnable = true;
                }
            }
        }

        const int timeout = runnable ? 0 : -1;
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }

        if (fds[0].revents & POLLIN) {
            char drain[64];
            while (::read(stopPipe_[0], drain, sizeof(drain)) > 0) {
            }
            if (!stopping_) {
                stopping_ = true;
                ::close(listenFd_);
                listenFd_ = -1;
                if (!opts_.quiet)
                    std::fprintf(stderr, "sweepd: draining (%zu"
                                         " connection(s) open)\n",
                                 conns_.size());
            }
        }

        for (std::size_t i = 1; i < fds.size(); ++i) {
            Conn *c = owner[i];
            if (!c) {
                if (fds[i].revents & POLLIN)
                    acceptClients();
                continue;
            }
            if (c->dead || fds[i].revents == 0)
                continue;
            if (fds[i].fd == c->fd) {
                if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                    // POLLHUP with streamed data still buffered means
                    // the peer is gone; treat like a failed write.
                    if (c->responding || !(fds[i].revents & POLLIN)) {
                        failConn(*c);
                        continue;
                    }
                }
                if (fds[i].revents & POLLOUT)
                    flushConn(*c);
                if (!c->dead && (fds[i].revents & POLLIN))
                    readConn(*c);
            } else if (fds[i].revents & POLLIN) {
                stepConn(*c);  // session wakeFd: drain completions
            }
        }

        // One in-caller cell per loop turn per session:
        // long sweeps interleave with socket work and each other.
        for (auto &cp : conns_) {
            Conn &c = *cp;
            if (!c.dead && c.session && c.session->wakeFd() < 0 &&
                c.out.size() < writeBackpressureBytes)
                stepConn(c);
        }

        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->dead) {
                ::close((*it)->fd);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

} // namespace svw::service

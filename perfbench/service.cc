/**
 * @file
 * The sweepd_mix workload: the real sweepd binary driven by a seeded,
 * closed-loop generator. One process holds three client connections;
 * each sends its next request only after the previous response's
 * `finished` trailer. Every request is `POST /sweep` with one figure
 * and one `bench=` row at the quick size. About one request in four is
 * cold: it names a synth:<kind>:<seed> whose seed has never been sent
 * before. The rest repeat a (figure, paper row) pair primed during
 * set-up, which the daemon's memory cache serves.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common.hh"
#include "harness/figures.hh"
#include "harness/session.hh"
#include "prog/synth.hh"
#include "service/http.hh"

namespace perfbench {

using namespace svw;
using namespace svw::harness;

namespace {

constexpr unsigned numClients = 3;
constexpr double requestTimeoutS = 120.0;
/** Seconds per window segment; the host is gauged between segments. */
constexpr double gaugeInterval = 1.0;

/** A sweepd child process on an ephemeral port. */
class Daemon
{
  public:
    explicit Daemon(const std::string &path)
    {
        int errPipe[2];
        if (::pipe2(errPipe, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        std::fflush(stdout);
        std::fflush(stderr);
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(errPipe[1], 2);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, 1);
            ::execl(path.c_str(), path.c_str(), "--port=0", "--quiet",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(errPipe[1]);
        errFd_ = errPipe[0];

        // "sweepd: listening on 127.0.0.1:<port>"
        std::string text;
        const double deadline = nowS() + 30.0;
        while (text.find('\n') == std::string::npos && nowS() < deadline) {
            pollfd p{errFd_, POLLIN, 0};
            if (::poll(&p, 1, 200) <= 0)
                continue;
            char buf[256];
            const ssize_t n = ::read(errFd_, buf, sizeof(buf));
            if (n <= 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
        }
        const std::size_t colon = text.rfind(':', text.find('\n'));
        if (text.find("listening on") == std::string::npos ||
            colon == std::string::npos) {
            stop();
            throw std::runtime_error("sweepd did not start: " + text);
        }
        port_ = static_cast<unsigned>(std::stoul(text.substr(colon + 1)));
        ::fcntl(errFd_, F_SETFL, O_NONBLOCK);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    unsigned port() const { return port_; }
    int pid() const { return pid_; }

    /** SIGTERM (graceful drain), then SIGKILL after 10 s; waits. */
    void stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            int status = 0;
            const double deadline = nowS() + 10.0;
            while (::waitpid(pid_, &status, WNOHANG) == 0) {
                if (nowS() > deadline) {
                    ::kill(pid_, SIGKILL);
                    ::waitpid(pid_, &status, 0);
                    break;
                }
                ::usleep(2000);
            }
            pid_ = -1;
        }
        if (errFd_ >= 0) {
            ::close(errFd_);
            errFd_ = -1;
        }
    }

    /** User+system CPU seconds from /proc/<pid>/stat. */
    double cpuSeconds() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and
        // stime are fields 14 and 15 of the whole line.
        std::istringstream rest(all.substr(all.rfind(')') + 2));
        std::string field;
        double utime = 0, stime = 0;
        for (int i = 3; i <= 15 && rest >> field; ++i) {
            if (i == 14)
                utime = std::stod(field);
            if (i == 15)
                stime = std::stod(field);
        }
        return (utime + stime) / double(::sysconf(_SC_CLK_TCK));
    }

  private:
    pid_t pid_ = -1;
    int errFd_ = -1;
    unsigned port_ = 0;
};

int
connectTo(unsigned port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Blocking GET; @return the body, empty on any failure. */
std::string
httpGet(unsigned port, const std::string &path)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return {};
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const std::string req = "GET " + path +
        " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    std::string resp;
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
        char buf[4096];
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof(buf))) > 0)
            resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t body = resp.find("\r\n\r\n");
    if (resp.rfind("HTTP/1.1 200", 0) != 0 || body == std::string::npos)
        return {};
    return resp.substr(body + 4);
}

/** Integer field "key":N of a flat JSON object; -1 if absent. */
double
jsonField(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const std::size_t at = json.find(pat);
    if (at == std::string::npos)
        return -1;
    return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

/** /status counters the workload reports as deltas or end values. */
struct Status
{
    double runCellCalls = 0, programBuilds = 0, memHits = 0,
           memEvictions = 0, memBytes = 0;
    bool ok = false;
};

Status
readStatus(unsigned port)
{
    const std::string j = httpGet(port, "/status");
    Status s;
    s.runCellCalls = jsonField(j, "runCellCalls");
    s.programBuilds = jsonField(j, "programBuilds");
    s.memHits = jsonField(j, "memCacheHits");
    s.memEvictions = jsonField(j, "memCacheEvictions");
    s.memBytes = jsonField(j, "memCacheBytes");
    s.ok = !j.empty() && s.runCellCalls >= 0 && s.programBuilds >= 0;
    return s;
}

std::string
formEncode(const std::string &v)
{
    static const char hex[] = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : v) {
        if (std::isalnum(c) || c == '.' || c == '_' || c == '-') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

/** One (figure, bench) request target. */
struct Pair
{
    std::string figure, bench;
    bool operator<(const Pair &o) const
    {
        return std::tie(figure, bench) < std::tie(o.figure, o.bench);
    }
};

/** One request and everything observed about its response. */
struct Request
{
    std::uint32_t id = 0;
    Pair pair;
    bool cold = false;
    std::string bytes;    ///< the whole HTTP request

    int fd = -1;
    std::size_t sent = 0;
    std::string raw;      ///< bytes received, not yet decoded
    std::string body;     ///< dechunked body, not yet split into lines
    bool headDone = false, bodyDone = false;
    int status = 0;
    double tSend = 0, tHead = 0, tFirst = 0, tTrailer = 0, tEnd = 0;

    std::map<std::size_t, std::string> lines;  ///< cell -> result line
    std::size_t lastCell = 0;
    bool lastDone = false;
    std::uint64_t doneCells = 0, insts = 0;
    bool trailer = false;
    double trailerCells = -1, trailerFailures = -1, trailerHits = -1;
    std::string failure;  ///< why the request failed; empty = ok

    void fail(const std::string &why)
    {
        if (failure.empty())
            failure = why;
    }

    void onLine(const std::string &line, double now)
    {
        if (line.rfind("{\"event\":\"", 0) == 0) {
            const std::string kind = line.substr(10, line.find('"', 10) - 10);
            if (kind == "done" || kind == "cached") {
                lastCell = static_cast<std::size_t>(jsonField(line, "cell"));
                lastDone = kind == "done";
                doneCells += lastDone ? 1 : 0;
                if (line.find("\"ok\":false") != std::string::npos)
                    fail("cell failed: " + line);
            } else if (kind == "finished") {
                trailer = true;
                tTrailer = now;
                trailerCells = jsonField(line, "cells");
                trailerFailures = jsonField(line, "failures");
                trailerHits = jsonField(line, "cacheHits");
            } else if (kind == "error") {
                fail("error event: " + line);
            }
            return;
        }
        if (tFirst == 0)
            tFirst = now;
        lines[lastCell] = line;
        if (lastDone)
            insts += static_cast<std::uint64_t>(jsonField(line, "insts"));
    }

    /** Decode what has arrived: status line, chunks, lines. */
    void decode(double now)
    {
        if (!headDone) {
            const std::size_t eol = raw.find("\r\n");
            if (tHead == 0 && eol != std::string::npos) {
                tHead = now;
                status = raw.rfind("HTTP/1.1 ", 0) == 0
                    ? std::atoi(raw.c_str() + 9)
                    : 0;
                if (status != 200)
                    fail("HTTP status " + std::to_string(status));
            }
            const std::size_t end = raw.find("\r\n\r\n");
            if (end == std::string::npos)
                return;
            raw.erase(0, end + 4);
            headDone = true;
        }
        while (!bodyDone) {
            const std::size_t eol = raw.find("\r\n");
            if (eol == std::string::npos)
                break;
            const std::size_t size =
                std::strtoul(raw.substr(0, eol).c_str(), nullptr, 16);
            if (raw.size() < eol + 2 + size + 2)
                break;
            body.append(raw, eol + 2, size);
            raw.erase(0, eol + 2 + size + 2);
            bodyDone = size == 0;
        }
        std::size_t nl;
        while ((nl = body.find('\n')) != std::string::npos) {
            onLine(body.substr(0, nl), now);
            body.erase(0, nl + 1);
        }
    }

    /** Connection closed: settle the outcome. A request ends at its
     * trailer; one without a trailer ends at the close. */
    void finish(double now)
    {
        tEnd = trailer ? tTrailer : now;
        if (status != 200)
            return;  // already failed on the status line
        if (!trailer || !bodyDone)
            fail("missing finished trailer");
        else if (trailerFailures != 0)
            fail("trailer reports failed cells");
        else if (trailerCells != double(lines.size()))
            fail("trailer cell count differs from the result lines");
    }

    double ms() const { return (tEnd - tSend) * 1e3; }
};

std::string
requestBytes(const Pair &p, std::uint64_t insts)
{
    std::string body = "figure=" + formEncode(p.figure) +
        "&bench=" + formEncode(p.bench);
    body += insts == 20'000 ? "&quick=1" : "&insts=" + std::to_string(insts);
    return "POST /sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/x-www-form-urlencoded\r\n"
           "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

/**
 * Closed loop over @p clients concurrent connections: a client takes
 * the next request only when its previous one has completed. next()
 * fills in the next request, or returns false to stop; completed
 * requests are appended to @p done.
 */
template <typename Next>
void
closedLoop(unsigned port, unsigned clients, Next next,
           std::vector<Request> &done)
{
    std::vector<std::optional<Request>> slot(clients);
    bool more = true;
    for (;;) {
        for (auto &s : slot) {
            if (s || !more)
                continue;
            Request req;
            if (!(more = next(req)))
                break;
            req.tSend = nowS();
            req.fd = connectTo(port);
            if (req.fd < 0) {
                req.fail("connect refused");
                req.tEnd = nowS();
                done.push_back(std::move(req));
                continue;
            }
            ::fcntl(req.fd, F_SETFL, O_NONBLOCK);
            const ssize_t n = ::send(req.fd, req.bytes.data(),
                                     req.bytes.size(), MSG_NOSIGNAL);
            req.sent = n > 0 ? static_cast<std::size_t>(n) : 0;
            s = std::move(req);
        }
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < slot.size(); ++i) {
            if (!slot[i])
                continue;
            const short ev = slot[i]->sent < slot[i]->bytes.size()
                ? POLLOUT
                : POLLIN;
            fds.push_back(pollfd{slot[i]->fd, ev, 0});
            owner.push_back(i);
        }
        if (fds.empty())
            break;  // nothing in flight and nothing more to send
        ::poll(fds.data(), fds.size(), 100);
        const double now = nowS();
        for (std::size_t k = 0; k < fds.size(); ++k) {
            Request &req = *slot[owner[k]];
            bool closed = false;
            if (fds[k].revents & POLLOUT) {
                const ssize_t n = ::send(req.fd, req.bytes.data() + req.sent,
                                         req.bytes.size() - req.sent,
                                         MSG_NOSIGNAL);
                if (n > 0)
                    req.sent += static_cast<std::size_t>(n);
                else if (n < 0 && errno != EAGAIN && errno != EINTR)
                    closed = true, req.fail("send failed");
            } else if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[16384];
                for (;;) {
                    const ssize_t n = ::read(req.fd, buf, sizeof(buf));
                    if (n > 0) {
                        req.raw.append(buf, static_cast<std::size_t>(n));
                        continue;
                    }
                    if (n == 0 || (errno != EAGAIN && errno != EINTR))
                        closed = true;
                    break;
                }
                req.decode(now);
            }
            if (!closed && now - req.tSend > requestTimeoutS) {
                req.fail("request timed out");
                closed = true;
            }
            if (closed) {
                ::close(req.fd);
                req.fd = -1;
                req.finish(now);
                done.push_back(std::move(req));
                slot[owner[k]].reset();
            }
        }
    }
}

/** The warm set: every paper row of every figure. Priming all of them
 * keeps set-up the same work for every seed. */
std::vector<Pair>
warmPairs()
{
    std::vector<Pair> pairs;
    for (const char *fig : figureNames)
        for (const std::string &row : findFigure(fig)->paperSuite())
            pairs.push_back({fig, row});
    return pairs;
}

struct Setup
{
    std::unique_ptr<Daemon> daemon;
    std::vector<Request> priming;
};

/** Start a daemon, wait until /status answers, prime the warm set. */
Setup
setUp(const Args &a, const std::vector<Pair> &warm)
{
    Setup s;
    s.daemon = std::make_unique<Daemon>(a.sweepd);
    const double deadline = nowS() + 30.0;
    while (!readStatus(s.daemon->port()).ok) {
        if (nowS() > deadline)
            throw std::runtime_error("sweepd /status never answered");
        ::usleep(1000);
    }
    std::size_t i = 0;
    closedLoop(
        s.daemon->port(), 1,
        [&](Request &req) {
            if (i == warm.size())
                return false;
            req.pair = warm[i++];
            req.bytes = requestBytes(req.pair, a.insts);
            return true;
        },
        s.priming);
    return s;
}

} // namespace

void
runSweepdMix(const Args &a, Report &r, Tracer &t)
{
    const std::vector<Pair> warm = warmPairs();

    std::vector<double> setups;
    Setup live;
    for (unsigned rep = 0; rep < a.setupReps; ++rep) {
        live = Setup{};  // stops the previous repetition's daemon
        const double t0 = nowS();
        live = setUp(a, warm);
        setups.push_back(nowS() - t0);
    }
    Daemon &d = *live.daemon;

    // The seeded request sequence. Cold synth seeds count up from a
    // per-seed base and are never reused.
    Rng gen(a.seed * 0x9e3779b97f4a7c15ull + 0x51ed);
    const std::uint64_t coldBase = 1'000'000'000ull + a.seed * 1'000'000ull;
    const std::vector<std::string> &kinds = synth::kindNames();
    std::uint32_t nextId = 0;
    std::size_t coldCount = 0;

    // The window runs in segments of gaugeInterval. At the end of one,
    // clients stop sending, the requests in flight finish, and an
    // untraced run gauges the host while the daemon is idle; those
    // pauses are not part of the window's time.
    const Status s0 = readStatus(d.port());
    const double cpu0 = d.cpuSeconds();
    HostGauge gauge(0);
    const double w0 = nowS(), deadline = w0 + a.seconds;
    double paused = 0, segmentEnd = 0;
    std::vector<Request> done;
    auto next = [&](Request &req) {
        if (nowS() >= segmentEnd)
            return false;
        req.id = ++nextId;
        req.cold = gen.below(4) == 0;
        const char *fig = figureNames[gen.below(4)];
        if (req.cold) {
            // Kinds differ in cost; cycling through them keeps every
            // seed's cold work the same mix.
            const std::string &kind = kinds[coldCount++ % kinds.size()];
            req.pair = {fig, "synth:" + kind + ":" +
                                 std::to_string(coldBase + req.id)};
        } else {
            req.pair = warm[gen.below(warm.size())];
        }
        req.bytes = requestBytes(req.pair, a.insts);
        return true;
    };
    while (nowS() < deadline) {
        segmentEnd = std::min(deadline, nowS() + gaugeInterval);
        closedLoop(d.port(), numClients, next, done);
        if (!t.on() && nowS() < deadline)
            paused += gauge.pause();
    }
    const double window = nowS() - w0 - paused;
    const double cpu = d.cpuSeconds() - cpu0;
    const Status s1 = readStatus(d.port());
    const double rss = peakRssMb(d.pid());
    live.daemon.reset();  // SIGTERM, drain, wait

    // Reference: a sequential runSweep of every distinct (figure,
    // bench) spec requested, priming included.
    std::map<Pair, std::size_t> specIndex;
    std::vector<SweepSpec> specs;
    auto indexOf = [&](const Pair &p) {
        auto [it, fresh] = specIndex.emplace(p, specs.size());
        if (fresh)
            specs.push_back(findFigure(p.figure)->build({p.bench}, a.insts));
        return it->second;
    };
    for (const Request &req : live.priming)
        indexOf(req.pair);
    for (const Request &req : done)
        indexOf(req.pair);
    std::vector<std::string> refErrors;
    const auto ref = referenceLines(specs, 3, a.workDir, refErrors);
    for (const std::string &e : refErrors)
        r.error(e);

    auto check = [&](Request &req) {
        const std::size_t s = specIndex.at(req.pair);
        for (std::size_t c = 0; c < specs[s].size(); ++c) {
            auto it = req.lines.find(c);
            if (it == req.lines.end() || it->second != ref[s][c])
                req.fail("result line differs from the reference: " +
                         specs[s].cell(c).name());
        }
    };
    for (Request &req : live.priming) {
        check(req);
        if (!req.failure.empty())
            r.error("priming " + req.pair.figure + "/" + req.pair.bench +
                    ": " + req.failure);
    }

    // A failed request misses every latency limit: it enters the
    // latency distributions as +infinity.
    constexpr double missed = 1e12;
    std::vector<double> opMs, warmMs, coldMs, ttfcMs, headMs, streamMs;
    std::uint64_t ok = 0, cells = 0, hits = 0, simulated = 0, insts = 0;
    for (Request &req : done) {
        check(req);
        const bool good = req.failure.empty();
        if (!good)
            r.error("request " + req.pair.figure + "/" + req.pair.bench +
                    ": " + req.failure);
        ok += good ? 1 : 0;
        const double ms = good ? req.ms() : missed;
        opMs.push_back(ms);
        (req.cold ? coldMs : warmMs).push_back(ms);
        ttfcMs.push_back(good ? (req.tFirst - req.tSend) * 1e3 : missed);
        cells += static_cast<std::uint64_t>(std::max(0.0, req.trailerCells));
        hits += static_cast<std::uint64_t>(std::max(0.0, req.trailerHits));
        simulated += req.doneCells;
        insts += req.insts;
        if (good) {
            headMs.push_back((req.tHead - req.tSend) * 1e3);
            streamMs.push_back((req.tEnd - req.tFirst) * 1e3);
        }
        if (t.on()) {
            const std::uint32_t lane = req.id % numClients;
            const std::uint32_t p = t.add("request", req.tSend, req.tEnd, 0,
                                          req.id, lane);
            t.add("service.head", req.tSend, req.tHead, p, req.id, lane);
            if (req.tFirst > 0)
                t.add("service.stream", req.tFirst, req.tEnd, p, req.id,
                      lane);
        }
    }
    const double n = double(done.size());
    r.attempted = done.size();
    r.failed = done.size() - ok;

    r.metric("setup_s", median(setups), "s");
    r.metric("op_ms_p50", median(opMs), "ms");
    r.metric("op_ms_p90", quantile(opMs, 0.9), "ms");
    r.metric("warm_op_ms_p90", quantile(warmMs, 0.9), "ms");
    r.metric("cold_op_ms_p50", median(coldMs), "ms");
    r.metric("ttfc_ms_p50", median(ttfcMs), "ms");
    r.metric("ops_per_s", double(ok) / window, "1/s");
    r.metric("cpu_ms_per_op", cpu * 1e3 / n, "ms");
    r.metric("minsts_per_cpu_s", double(insts) / 1e6 / cpu, "Minst/s");
    r.metric("peak_rss_mb", rss, "MB");
    r.metric("failed_frac", double(r.failed) / n, "ratio");
    r.metric("op_samples", n, "count");
    r.metric("warm_op_samples", double(warmMs.size()), "count");
    r.metric("cold_op_samples", double(coldMs.size()), "count");
    r.notApplicable("sweep_s", "cold_figures only: requests here are "
                               "single rows, not whole sweeps");
    r.notApplicable("mem_op_ms_p50", "warm_rerun only; here warm requests "
                                     "are reported as warm_op_ms_p90");

    r.metric("service.head_ms_p50", median(headMs), "ms");
    r.metric("service.stream_ms_p50", median(streamMs), "ms");
    r.metric("service.cells_simulated", s1.runCellCalls - s0.runCellCalls,
             "count");
    r.metric("service.mem_hits", s1.memHits - s0.memHits, "count");
    r.metric("service.mem_evictions", s1.memEvictions - s0.memEvictions,
             "count");
    r.metric("service.program_builds", s1.programBuilds - s0.programBuilds,
             "count");
    r.metric("service.mem_cache_mb", s1.memBytes / (1024.0 * 1024.0), "MB");
    r.reconcile("cells_attempted", double(cells));
    r.reconcile("cache_hits", double(hits));
    r.reconcile("cells_simulated", double(simulated));
    r.reconcile("status_run_cell_calls", s1.runCellCalls - s0.runCellCalls);

    if (!t.on()) {
        r.normalize(gauge);
        return;
    }

    // service.parse_us: HttpParser::feed over the generated requests.
    double parseS = 0;
    for (const Request &req : done) {
        service::HttpParser parser(16 * 1024, 64 * 1024);
        const double t0 = nowS();
        const auto st = parser.feed(req.bytes.data(), req.bytes.size());
        parseS += nowS() - t0;
        if (st != service::HttpParser::Status::Complete)
            r.error("HttpParser rejected a generated request");
    }
    r.metric("service.parse_us", parseS * 1e6 / n, "us");

    // Layer replay over a sample of the cold requests: the session
    // layer as the daemon drives it (a cold session into the memory
    // front, then a warm repeat), then each cell through the public
    // cell functions. Lines must match the daemon's stream.
    constexpr std::size_t coldSample = 8;
    Replayer rep(t, a.workDir + "/replay-cache");
    std::vector<std::string> errors;
    std::size_t sampled = 0;
    std::uint32_t op = nextId;
    SweepOptions opts;
    opts.memCache = true;
    for (const Request &req : done) {
        if (!req.cold || !req.failure.empty() || sampled == coldSample)
            continue;
        ++sampled;
        const SweepSpec &spec = specs[specIndex.at(req.pair)];
        std::vector<std::string> lines(spec.size());
        for (const auto &[c, line] : req.lines)
            if (c < lines.size())
                lines[c] = line;
        for (int pass = 0; pass < 2; ++pass) {
            ++op;
            Scope opSpan(t, "replay.request", op);
            SweepSession session(spec, opts);
            std::vector<std::string> got(spec.size());
            auto cb = [&got](const CellEvent &ev) {
                if (!ev.resultLine.empty())
                    got[ev.index] = ev.resultLine;
            };
            {
                Scope sp(t, "session.start", op);
                session.start(cb);
            }
            while (!session.finished()) {
                Scope sp(t, "session.step", op);
                session.step();
            }
            {
                Scope sp(t, "session.finish", op);
                session.finish();
            }
            if (got != lines)
                r.error("session replay differs from the stream: " +
                        req.pair.figure + "/" + req.pair.bench);
        }
        rep.replay(spec, lines, ++op, errors);
        rep.profile(spec);
    }
    for (const std::string &e : errors)
        r.error(e);
    rep.report(r);
    reportSessionSpans(t, r);
    const double perCellSim =
        rep.cells() ? rep.simulateS() / double(rep.cells()) : 0;
    const double perCellGolden =
        rep.cells() ? rep.goldenS() / double(rep.cells()) : 0;
    const double daemonCells = s1.runCellCalls - s0.runCellCalls;
    // Share of the daemon's CPU time its simulated cells cost, at the
    // replay's per-cell cost.
    r.metric("cpu.share", perCellSim * daemonCells / cpu, "ratio");
    r.metric("func.share", perCellGolden * daemonCells / cpu, "ratio");
    r.metric("harness.cells_simulated", daemonCells, "count");
    r.metric("harness.cache_hit_ratio", cells ? double(hits) / double(cells)
                                              : 0,
             "ratio");
    r.metric("prog.programs_built", s1.programBuilds, "count");
    r.notApplicable("trace.overhead_ms",
                    "request spans are built from client timestamps after "
                    "the window, so traced and untraced requests run the "
                    "same code; cold_figures and warm_rerun measure it");
}

} // namespace perfbench

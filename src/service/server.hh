/**
 * @file
 * sweepd: the long-lived sweep service daemon's server core. A
 * single-threaded poll(2) event loop (modeled on pazpar2's
 * single-process metasearch server) multiplexes non-blocking client
 * sockets with per-connection state machines, keeping the process-wide
 * ProgramCache / MemoryResultCache / disk ResultCache warm across
 * requests — a warm repeat request simulates nothing.
 *
 * Protocol (one request per connection, Connection: close):
 *
 *  - POST /sweep — form-urlencoded body selects the work:
 *      figure=fig5         figure-registry name (required)
 *      quick=1             20k insts per cell (else insts=N, def 100k)
 *      insts=N             explicit per-cell instruction target
 *      bench=W             restrict to one workload row
 *      families=paper|synth|all   row families (default paper)
 *      threads=N           per-session worker threads (0 = run cells
 *                          on the event-loop thread, the default)
 *    Any other field is answered with a 400 naming it.
 *    The response streams chunked JSON lines as the session advances:
 *    {"event":"started"|"done"|"cached"...} progress lines, each
 *    successful cell's lossless RunResult JSON line (byte-identical
 *    to the CLI binaries' --emit-cells output), and a final
 *    {"event":"finished",...} trailer.
 *
 *  - GET /status — JSON: cache occupancy (entries/bytes/hits/
 *    evictions), program-cache builds, total cell simulations,
 *    in-flight and served session counts.
 *
 *  - GET /figures — JSON list of openable figure names and titles.
 *
 * Sessions run incrementally (SweepSession::start/step): with
 * threads=0 each loop turn runs one cell of one runnable
 * session, so many sessions and socket I/O interleave on one thread;
 * with threads=N the session's workers simulate while the loop polls
 * the session wakeFd and drains completions as they land. A client
 * that disconnects mid-stream (EPIPE) aborts only its own session.
 * requestStop() (the SIGTERM path) closes the listener and drains:
 * in-flight sessions finish streaming, then run() returns.
 */

#ifndef SVW_SERVICE_SERVER_HH
#define SVW_SERVICE_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>

namespace svw::service {

struct SweepdOptions
{
    /** TCP port; 0 = ephemeral (tests read the bound port back). */
    unsigned port = 8573;
    std::string bindAddr = "127.0.0.1";
    std::string cacheDir;  ///< optional persistent result cache
    /** In-memory result cache cap in MB; 0 = unbounded. */
    std::uint64_t memCacheMaxMb = 512;
    std::size_t maxHeadBytes = 16 * 1024;
    std::size_t maxBodyBytes = 64 * 1024;
    bool quiet = false;  ///< suppress per-request stderr log lines
};

/**
 * Parse sweepd's command line:
 *   --port=N --bind=ADDR --cache-dir=D --mem-cache-max-mb=N --quiet
 * Unknown flags, malformed numbers, and out-of-range ports are usage
 * errors (exit 2), matching the bench binaries' contract.
 */
SweepdOptions parseSweepdArgs(int argc, char **argv);

/**
 * The server. Construction binds and listens (throws std::runtime_error
 * on failure); run() drives the event loop until requestStop() — which
 * is async-signal-safe — has been called and every connection drained.
 */
class SweepServer
{
  public:
    explicit SweepServer(SweepdOptions opts);
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** The bound port (resolves port=0 to the kernel's pick). */
    unsigned port() const { return port_; }

    /** Event loop; blocks until stopped and drained. */
    void run();

    /** Begin graceful shutdown. Safe from signal handlers and other
     * threads: writes one byte to the loop's stop pipe. */
    void requestStop();

    /** Sweep sessions completed (finished or aborted) so far. */
    std::uint64_t sessionsServed() const { return sessionsServed_; }

  private:
    struct Conn;

    void acceptClients();
    void readConn(Conn &c);
    void dispatch(Conn &c);
    void startSweep(Conn &c);
    void stepConn(Conn &c);
    void finishSession(Conn &c);
    void failConn(Conn &c);
    void flushConn(Conn &c);
    std::string statusJson() const;

    SweepdOptions opts_;
    unsigned port_ = 0;
    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    bool stopping_ = false;
    std::uint64_t sessionsServed_ = 0;
    std::list<std::unique_ptr<Conn>> conns_;
};

} // namespace svw::service

#endif // SVW_SERVICE_SERVER_HH

/**
 * @file
 * Multi-shard sweep driver: runs any bench binary's sweep as N
 * concurrent `--shard=i/n` invocations and produces the merged full
 * report.
 *
 * The merge medium is the persistent result cache (harness/sweep.hh
 * ResultCache): every shard is launched with a shared `--cache-dir`,
 * so each populates the store with its groups' results; the driver
 * then re-invokes the binary once, unsharded, against the same cache.
 * That merge pass formats the full figure from pure cache reads —
 * zero simulations — and its output is byte-identical to a
 * single-process run by construction (the cache stores the
 * engine's lossless wire format). If a shard died, the merge pass
 * transparently re-simulates the missing cells in-process, so the
 * report is still correct; the driver's exit status flags the failure.
 *
 * Shards are local subprocesses by default. `--launch` is a command
 * template for wrapped or remote execution: `{cmd}` expands to the
 * shard command (word-quoted for the *local* shell — right for local
 * wrappers like `nice -n19 {cmd}`), `{qcmd}` to the same command
 * quoted once more into a single word (right for remote shells that
 * re-split, e.g. `--launch='ssh build{i} {qcmd}'`), and `{i}`/`{n}`
 * to the shard index/count. A remote cache dir must be a shared
 * filesystem. ssh is a template, not a dependency: nothing here
 * links or shells to it unless the template says so.
 *
 * usage: sweep_driver --bin=PATH [--shards=N] [--threads=M]
 *                     [--cache-dir=D] [--launch=TEMPLATE]
 *                     [-- BENCH_ARGS...]
 *
 *   --bin=PATH      bench binary to drive (any of the 13)
 *   --shards=N      number of shard invocations (default 2)
 *   --threads=M     worker threads per shard (default 0: each shard
 *                   runs its cells on its main thread). Shards are
 *                   separate processes, so a crashing cell takes down
 *                   only its shard.
 *   --cache-dir=D   shared result cache (default: a private temp
 *                   directory, removed after a fully successful run)
 *   --launch=T      shard command template (default "{cmd}" = local)
 *   -- ARGS         everything after "--" is passed to every bench
 *                   invocation (e.g. --quick, --insts=N, --bench=X)
 *
 * Per-shard stdout/stderr go to <cache-dir>/shard-<i>.log; only the
 * merge pass writes to the driver's stdout. Shard stderr additionally
 * streams through the driver live: every shard is launched with
 * --progress, its stderr rides a pipe, and the driver tees each line
 * into the shard log while forwarding "progress:" (per-cell
 * completion) and "warning:"/"warn:" lines to its own stderr as they
 * arrive — a long multi-shard sweep shows per-cell progress instead
 * of going dark until the merge pass.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hh"

using svw::bench::parseFlagUnsigned;

namespace {

/** Single-quote @p s for /bin/sh. */
std::string
shQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/** Replace every occurrence of @p what in @p s with @p with. */
std::string
replaceAll(std::string s, const std::string &what, const std::string &with)
{
    std::size_t pos = 0;
    while ((pos = s.find(what, pos)) != std::string::npos) {
        s.replace(pos, what.size(), with);
        pos += with.size();
    }
    return s;
}

/** Fork and run @p cmd via /bin/sh with the driver's own
 * stdout/stderr (the merge pass). @return child pid, or -1. */
pid_t
launch(const std::string &cmd)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
            static_cast<char *>(nullptr));
    ::_exit(127);
}

/** Wait for @p pid; @return its exit status (or 128+signal). */
int
waitStatus(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0)
        return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

/** Write all of @p data to @p fd, retrying short writes. */
void
writeFull(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n <= 0)
            return;  // log tee is best effort
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

/**
 * One launched shard: its pid, the log file (child stdout writes it
 * directly; the driver tees stderr lines into it through the shared
 * file description, so offsets never collide), the read end of the
 * child's stderr pipe, and a partial-line buffer.
 */
struct Shard
{
    pid_t pid = -1;
    int logFd = -1;
    int errFd = -1;
    std::string buf;
    bool reaped = false;  ///< pumpShardStderr collected the status
    int status = -1;      ///< exit status once reaped
};

/**
 * Tee one complete shard-stderr line into the shard log and forward
 * the interesting prefixes to the driver's stderr as they arrive:
 * "progress:" (per-cell completion — shards run with --progress) and
 * both diagnostic prefixes in use, the executor's plain "warning:"
 * lines and the svw_warn macro's "warn:" lines (e.g. a shard whose
 * cache writes are failing, or a split with more shards than groups).
 */
void
relayLine(const Shard &s, unsigned shard, const std::string &line)
{
    writeFull(s.logFd, line.data(), line.size());
    if (line.rfind("progress:", 0) == 0 ||
        line.rfind("warning:", 0) == 0 || line.rfind("warn:", 0) == 0) {
        std::fprintf(stderr, "shard %u: %s", shard, line.c_str());
        std::fflush(stderr);
    }
}

/**
 * Pump every shard's stderr pipe until all hit EOF (shards run
 * concurrently, so this multiplexes with poll rather than draining
 * them in order). Lines are relayed as they complete; a final
 * unterminated fragment is flushed with a newline appended.
 *
 * A shard is reaped the moment its stderr hits EOF, and a failure is
 * announced on stderr right then — a long multi-shard run (or a log
 * follower on a daemon-era box) sees "# shard i/n FAILED" at failure
 * time, not minutes later after every sibling finishes. The merge
 * pass re-simulates a failed shard's cells, hence "(resimulated)".
 */
void
pumpShardStderr(std::vector<Shard> &procs)
{
    for (;;) {
        std::vector<pollfd> fds;
        std::vector<unsigned> owner;
        for (unsigned i = 0; i < procs.size(); ++i) {
            if (procs[i].errFd >= 0) {
                fds.push_back(pollfd{procs[i].errFd, POLLIN, 0});
                owner.push_back(i);
            }
        }
        if (fds.empty())
            return;
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Shard &s = procs[owner[k]];
            char chunk[4096];
            const ssize_t n = ::read(s.errFd, chunk, sizeof(chunk));
            if (n > 0) {
                s.buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t pos;
                while ((pos = s.buf.find('\n')) != std::string::npos) {
                    relayLine(s, owner[k], s.buf.substr(0, pos + 1));
                    s.buf.erase(0, pos + 1);
                }
            } else if (n == 0 || errno != EINTR) {
                if (!s.buf.empty())
                    relayLine(s, owner[k], s.buf + "\n");
                s.buf.clear();
                ::close(s.errFd);
                s.errFd = -1;
                s.status = waitStatus(s.pid);
                s.reaped = true;
                if (s.status != 0) {
                    std::fprintf(stderr,
                                 "# shard %u/%zu FAILED (resimulated)\n",
                                 owner[k], procs.size());
                    std::fflush(stderr);
                }
            }
        }
    }
}

/**
 * Fork a shard of @p cmd via /bin/sh: stdout to @p logFd, stderr to a
 * fresh pipe whose read end is returned in @p errFdOut for live
 * relaying. Both parent-side fds are close-on-exec so sibling shards
 * never hold a dead shard's pipe open. @return child pid, or -1.
 */
pid_t
launchShard(const std::string &cmd, int logFd, int &errFdOut)
{
    int p[2];
    if (::pipe2(p, O_CLOEXEC) < 0)
        return -1;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(p[0]);
        ::close(p[1]);
        return -1;
    }
    if (pid != 0) {
        ::close(p[1]);
        errFdOut = p[0];
        return pid;
    }
    ::dup2(logFd, 1);
    ::dup2(p[1], 2);
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
            static_cast<char *>(nullptr));
    ::_exit(127);
}

/** Copy the tail of @p path to stderr (shard post-mortem). */
void
dumpLogTail(const std::string &path, std::size_t maxBytes = 2048)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    const long start = size > static_cast<long>(maxBytes)
                           ? size - static_cast<long>(maxBytes)
                           : 0;
    std::fseek(f, start, SEEK_SET);
    std::vector<char> buf(maxBytes);
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
    std::fwrite(buf.data(), 1, n, stderr);
    if (n > 0 && buf[n - 1] != '\n')
        std::fputc('\n', stderr);
}

[[noreturn]] void
usage(const char *argv0, const char *complaint)
{
    std::fprintf(stderr,
                 "error: %s\n"
                 "usage: %s --bin=PATH [--shards=N]"
                 " [--threads=M]"
                 " [--cache-dir=D] [--launch=TEMPLATE]"
                 " [-- BENCH_ARGS...]\n",
                 complaint, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bin;
    unsigned shards = 2;
    unsigned threads = 0;
    std::string cacheDir;
    std::string launchTemplate = "{cmd}";
    std::vector<std::string> benchArgs;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--") {
            for (int j = i + 1; j < argc; ++j) {
                const std::string b = argv[j];
                // The driver owns sharding, threads, and the cache;
                // letting these through would poison the merge pass
                // (a user --shard would make the "full" report
                // partial, --no-cache would discard all shard work).
                if (b.rfind("--shard=", 0) == 0 ||
                    b.rfind("--threads=", 0) == 0 ||
                    b.rfind("--cache-dir=", 0) == 0 ||
                    b == "--no-cache") {
                    usage(argv[0],
                          (b + " is managed by the driver; use its"
                               " --shards=N/--threads=M/"
                               "--cache-dir=D flags (to bypass the"
                               " cache, run the bench binary directly)")
                              .c_str());
                }
                benchArgs.push_back(b);
            }
            break;
        } else if (a.rfind("--bin=", 0) == 0) {
            bin = a.substr(6);
        } else if (a.rfind("--shards=", 0) == 0) {
            shards = parseFlagUnsigned(a.substr(9), "--shards");
        } else if (a.rfind("--threads=", 0) == 0) {
            threads = parseFlagUnsigned(a.substr(10), "--threads");
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            cacheDir = a.substr(12);
        } else if (a.rfind("--launch=", 0) == 0) {
            launchTemplate = a.substr(9);
        } else {
            usage(argv[0], ("unknown arg " + a).c_str());
        }
    }
    if (bin.empty())
        usage(argv[0], "--bin is required");
    if (shards < 1)
        usage(argv[0], "need --shards>=1");
    if (launchTemplate.find("{cmd}") == std::string::npos &&
        launchTemplate.find("{qcmd}") == std::string::npos) {
        usage(argv[0],
              "--launch template must contain {cmd} (local wrapper)"
              " or {qcmd} (re-quoted for a remote shell)");
    }
    // A remote template with the default private temp cache would
    // scatter each shard's results across machine-local /tmp dirs and
    // leave the local merge pass an empty cache — every cell silently
    // re-simulated. Remote launches must name the shared cache.
    if (launchTemplate != "{cmd}" && cacheDir.empty()) {
        usage(argv[0],
              "--launch requires an explicit --cache-dir on a"
              " filesystem shared with the launched hosts");
    }

    // The cache is the merge medium, so a directory is always needed;
    // without --cache-dir use a private temp store, removed only after
    // a fully clean run (kept for post-mortem otherwise).
    bool tempCache = false;
    if (cacheDir.empty()) {
        char tmpl[] = "/tmp/svw-sweep-cache-XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        if (!dir) {
            std::perror("mkdtemp");
            return 1;
        }
        cacheDir = dir;
        tempCache = true;
    } else {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir, ec);
        if (ec && !std::filesystem::is_directory(cacheDir)) {
            std::fprintf(stderr,
                         "error: cannot create cache dir %s: %s\n",
                         cacheDir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    // Common (quoted) command prefix: binary + user args + cache dir.
    std::string base = shQuote(bin);
    for (const std::string &a : benchArgs)
        base += " " + shQuote(a);
    base += " --cache-dir=" + shQuote(cacheDir);

    // Launch all shards, then pump their stderr pipes until every
    // shard hits EOF (relaying progress/warning lines live) and wait
    // for all of them.
    std::vector<Shard> procs(shards);
    std::vector<std::string> logs(shards);
    for (unsigned i = 0; i < shards; ++i) {
        const std::string shardCmd =
            base + " --progress --threads=" + std::to_string(threads) +
            " --shard=" + std::to_string(i) + "/" +
            std::to_string(shards);
        // Expand {i}/{n} on the template BEFORE inserting the quoted
        // command, so the placeholders stay confined to the template
        // and never rewrite literal braces in user args or paths.
        // {qcmd} goes first for the same reason: it must not re-quote
        // an already-inserted {cmd}.
        std::string cmd = replaceAll(launchTemplate, "{i}",
                                     std::to_string(i));
        cmd = replaceAll(cmd, "{n}", std::to_string(shards));
        cmd = replaceAll(cmd, "{qcmd}", shQuote(shardCmd));
        cmd = replaceAll(cmd, "{cmd}", shardCmd);
        logs[i] = cacheDir + "/shard-" + std::to_string(i) + ".log";
        // The parent owns the log file; the child's stdout writes it
        // directly (shared file description, so the stderr tee and the
        // figure output never overwrite each other). Never fall
        // through to the driver's stdout: a shard's figure output
        // interleaving ahead of the merge pass would break the
        // byte-identity contract — skip the shard instead; the merge
        // pass re-simulates its cells.
        procs[i].logFd = ::open(logs[i].c_str(),
                                O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                                0644);
        if (procs[i].logFd < 0) {
            std::fprintf(stderr,
                         "error: cannot open shard log %s: %s\n",
                         logs[i].c_str(), std::strerror(errno));
            continue;
        }
        procs[i].pid = launchShard(cmd, procs[i].logFd, procs[i].errFd);
        if (procs[i].pid < 0)
            std::fprintf(stderr, "error: fork failed for shard %u\n", i);
    }

    pumpShardStderr(procs);

    unsigned failedShards = 0;
    for (unsigned i = 0; i < shards; ++i) {
        const int st = procs[i].reaped ? procs[i].status
                       : procs[i].pid >= 0 ? waitStatus(procs[i].pid)
                                           : -1;
        if (procs[i].logFd >= 0)
            ::close(procs[i].logFd);
        if (st != 0) {
            ++failedShards;
            std::fprintf(stderr,
                         "error: shard %u/%u exited with status %d;"
                         " log tail (%s):\n",
                         i, shards, st, logs[i].c_str());
            dumpLogTail(logs[i]);
        }
    }
    if (failedShards > 0) {
        std::fprintf(stderr,
                     "warning: %u shard(s) failed; the merge pass will"
                     " re-simulate their cells in-process\n",
                     failedShards);
    }

    // Merge pass: unsharded replay against the populated cache,
    // inheriting the driver's stdout — this is the full report.
    const pid_t mergePid = launch(base);
    const int mergeStatus = mergePid >= 0 ? waitStatus(mergePid) : 1;
    if (mergePid < 0) {
        std::fprintf(stderr, "error: fork failed for merge pass\n");
    } else if (mergeStatus != 0) {
        std::fprintf(stderr, "error: merge pass exited with status %d\n",
                     mergeStatus);
    }

    if (tempCache) {
        if (mergeStatus == 0 && failedShards == 0) {
            std::error_code ec;
            std::filesystem::remove_all(cacheDir, ec);
        } else {
            std::fprintf(stderr, "note: keeping cache/logs in %s\n",
                         cacheDir.c_str());
        }
    }
    if (mergeStatus != 0)
        return mergeStatus > 0 && mergeStatus < 256 ? mergeStatus : 1;
    return failedShards > 0 ? 1 : 0;
}

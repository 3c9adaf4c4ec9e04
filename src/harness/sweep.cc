#include "harness/sweep.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/logging.hh"
#include "harness/serialize.hh"
#include "prog/workloads/workloads.hh"

namespace svw::harness {

std::size_t
SweepSpec::add(SweepCell cell)
{
    // Validate before any mutation: the panics throw, and a caught
    // rejection must leave the spec usable.
    const std::string n = cell.name();
    svw_assert(!byName_.count(n), "duplicate sweep cell ", n);
    if (cell.baseline) {
        svw_assert(!baselineByGroup_.count(cell.group),
                   "two baselines in group ", cell.group);
    }

    const std::size_t idx = cells_.size();
    byName_[n] = idx;
    if (!groupIndex_.count(cell.group)) {
        groupIndex_[cell.group] = groups_.size();
        groups_.push_back(cell.group);
    }
    if (cell.baseline)
        baselineByGroup_[cell.group] = idx;
    cells_.push_back(std::move(cell));
    return idx;
}

std::size_t
SweepSpec::groupIndex(const std::string &group) const
{
    auto it = groupIndex_.find(group);
    svw_assert(it != groupIndex_.end(), "unknown sweep group ", group);
    return it->second;
}

std::size_t
SweepSpec::index(const std::string &group, const std::string &label) const
{
    auto it = byName_.find(group + "/" + label);
    svw_assert(it != byName_.end(), "unknown sweep cell ", group, "/",
               label);
    return it->second;
}

std::size_t
SweepSpec::baselineIndex(const std::string &group) const
{
    auto it = baselineByGroup_.find(group);
    svw_assert(it != baselineByGroup_.end(), "group ", group,
               " has no baseline cell");
    return it->second;
}

SweepResults::SweepResults(SweepSpec spec, std::vector<CellOutcome> outcomes)
    : spec_(std::move(spec)), outcomes_(std::move(outcomes))
{
    svw_assert(outcomes_.size() == spec_.size(),
               "outcome count does not match spec ", spec_.name());
}

const RunResult &
SweepResults::result(const std::string &group, const std::string &label) const
{
    const CellOutcome &o = outcomes_.at(spec_.index(group, label));
    svw_assert(o.ran, "cell ", group, "/", label,
               " was not selected by this shard");
    svw_assert(o.ok, "cell ", group, "/", label, " failed: ", o.error);
    return o.result;
}

const RunResult &
SweepResults::baseline(const std::string &group) const
{
    const std::size_t idx = spec_.baselineIndex(group);
    const CellOutcome &o = outcomes_.at(idx);
    svw_assert(o.ran && o.ok, "baseline of group ", group,
               " unavailable: ", o.error);
    return o.result;
}

std::vector<std::string>
SweepResults::shardGroups() const
{
    std::vector<std::string> out;
    for (const std::string &g : spec_.groups()) {
        for (std::size_t i = 0; i < spec_.size(); ++i) {
            if (spec_.cell(i).group == g && outcomes_[i].ran) {
                out.push_back(g);
                break;
            }
        }
    }
    return out;
}

bool
SweepResults::groupOk(const std::string &group) const
{
    bool any = false;
    for (std::size_t i = 0; i < spec_.size(); ++i) {
        if (spec_.cell(i).group != group)
            continue;
        any = true;
        if (!outcomes_[i].ran || !outcomes_[i].ok)
            return false;
    }
    return any;
}

std::size_t
SweepResults::failures() const
{
    std::size_t n = 0;
    for (const CellOutcome &o : outcomes_) {
        if (o.ran && !o.ok)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------------
// Persistent result cache
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t fnvOffset = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

/** Continue an FNV-1a 64 hash over @p s. */
std::uint64_t
fnv1a(std::uint64_t h, std::string_view s)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= fnvPrime;
    }
    return h;
}

/**
 * The config-derived head of every cell key — the code version, the
 * config label and the expanded CoreParams text — with the FNV-1a
 * state after it. A sweep has many cells per config (fig5-fig8 at
 * --families=all: 396 cells, 21 configs), so the head is derived once
 * per distinct ExperimentConfig. The memo is keyed on the whole
 * ExperimentConfig (its defaulted operator==), so a field added to the
 * struct joins the identity without an edit here. Bounded at
 * cellKeyMemoEntries: when full, the oldest entry is replaced.
 */
class KeyHeadMemo
{
  public:
    /** Append @p cfg's head to @p out, reserving @p extra bytes more;
     * @return the hash state after the head. */
    std::uint64_t append(const ExperimentConfig &cfg, std::string &out,
                         std::size_t extra)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const Head &h : heads_) {
                if (h.config == cfg)
                    return emit(h, out, extra);
            }
        }
        Head h{cfg, "version=", 0};
        h.text += resultCacheCodeVersion;
        h.text += "|label=";
        h.text += configLabel(cfg);
        h.text += '|';
        h.text += coreParamsKeyText(buildParams(cfg));
        h.hash = fnv1a(fnvOffset, h.text);
        const std::uint64_t hash = emit(h, out, extra);
        std::lock_guard<std::mutex> lock(mutex_);
        if (heads_.size() < cellKeyMemoEntries) {
            heads_.push_back(std::move(h));
        } else {
            heads_[victim_] = std::move(h);
            victim_ = (victim_ + 1) % cellKeyMemoEntries;
        }
        return hash;
    }

  private:
    struct Head
    {
        ExperimentConfig config;
        std::string text;
        std::uint64_t hash;
    };

    static std::uint64_t emit(const Head &h, std::string &out,
                              std::size_t extra)
    {
        out.reserve(out.size() + h.text.size() + extra);
        out += h.text;
        return h.hash;
    }

    std::mutex mutex_;
    std::vector<Head> heads_;
    std::size_t victim_ = 0;  ///< next slot to replace once full
};

KeyHeadMemo &
keyHeadMemo()
{
    static KeyHeadMemo memo;
    return memo;
}

} // namespace

std::string
CellKey::fileName() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx.json",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CellKey
cellKey(const SweepCell &cell)
{
    // The config *label* is keyed alongside the expanded CoreParams:
    // the cached RunResult embeds it, and two ExperimentConfigs can
    // normalize to identical machine knobs while labeling differently
    // (e.g. svwReplace with SVW disabled) — sharing their entry would
    // serve a result stamped with the other experiment's name.
    // Intentional cross-figure sharing is unaffected: identical
    // ExperimentConfigs have identical labels.
    //
    // Content identity for workloads whose name is not a complete
    // recipe (trace files) is derived afresh every time, never
    // memoized: the file can change between sweeps. It is empty for
    // every other workload.
    const std::string augment = workloads::cacheKeyAugment(cell.workload);
    CellKey key;
    std::string &m = key.material;
    const std::uint64_t head = keyHeadMemo().append(
        cell.config, m, 48 + cell.workload.size() + augment.size());
    const std::size_t tail = m.size();
    m += "|workload=";
    m += cell.workload;
    m += "|insts=";
    char digits[24];
    const auto res =
        std::to_chars(digits, digits + sizeof(digits), cell.targetInsts);
    m.append(digits, res.ptr);
    m += "|golden=";
    m += cell.goldenCheck ? '1' : '0';
    m += augment;
    key.hash = fnv1a(head, std::string_view(m).substr(tail));
    return key;
}

bool
cellCacheable(const SweepCell &cell)
{
    return !cell.hook;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec && !std::filesystem::is_directory(dir_)) {
        svw_fatal("cannot create result-cache directory ", dir_, ": ",
                  ec.message());
    }
}

void
ResultCache::collectTempLitter() const
{
    // GC temp droppings from writers that died between open and
    // rename (e.g. an OOM-killed driver shard). An hour of age is far
    // beyond any live put(), so this never races a healthy writer;
    // all errors are ignored — litter is cosmetic, not correctness.
    // Only temp-named files are ever stat'ed, and the walk runs once
    // per process from the first put(), so fully warm (read-only)
    // runs never pay the directory scan.
    namespace fs = std::filesystem;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (fs::directory_iterator it(dir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().filename().string().find(".tmp.") ==
            std::string::npos) {
            continue;
        }
        std::error_code fec;
        const auto mtime = fs::last_write_time(it->path(), fec);
        if (!fec && now - mtime > std::chrono::hours(1))
            fs::remove(it->path(), fec);
    }
}

namespace {

/** Entries are ~2 KB; a file past this bound is not one of ours. */
constexpr std::size_t maxEntryBytes = 1u << 20;

/** Read the whole entry file behind @p fd into @p buf (reused across
 * calls); @return its length, or 0 on an error or an oversized file. */
std::size_t
readEntry(int fd, std::string &buf)
{
    if (buf.size() < 4096)
        buf.resize(4096);
    std::size_t len = 0;
    for (;;) {
        if (len == buf.size()) {
            if (buf.size() >= maxEntryBytes)
                return 0;
            buf.resize(2 * buf.size());
        }
        const ssize_t n = ::read(fd, buf.data() + len, buf.size() - len);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return n < 0 ? 0 : len;
        len += static_cast<std::size_t>(n);
        // A short read of a regular file is its end, which saves the
        // read that would return 0. Were it not, the entry would be
        // cut short and fail to parse: a miss, never a wrong hit.
        if (len < buf.size())
            return len;
    }
}

} // namespace

bool
ResultCache::get(const CellKey &key, RunResult &out) const
{
    // One open and one read per probe into per-thread buffers; the
    // entry is parsed and its material checked in place.
    thread_local std::string buf;
    const std::string path = dir_ + "/" + key.fileName();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const std::size_t len = readEntry(fd, buf);
    // A corrupt or foreign file, or a hash collision (the stored
    // material differs), is a miss: never serve a wrong result.
    const bool hit =
        len > 0 && cacheEntryMatches(std::string_view(buf.data(), len),
                                     key.material, out);
    if (hit) {
        // Refresh the entry's access stamp so trimToBytes evicts
        // genuinely cold entries first. mtime, not atime: most mounts
        // are noatime/relatime, so atime is not a usable recency
        // signal. Best effort — a read-only cache dir still serves
        // hits, it just trims FIFO.
        const timespec stamp[2] = {{0, UTIME_OMIT}, {0, UTIME_NOW}};
        (void)::futimens(fd, stamp);
    }
    ::close(fd);
    return hit;
}

void
ResultCache::trimToBytes(std::uint64_t maxBytes) const
{
    namespace fs = std::filesystem;

    // Entry files only: 16 hex digits + ".json". Anything else in the
    // directory — .tmp. files mid-put, user droppings — is not ours to
    // delete here (temp litter has its own age-gated GC).
    auto isEntryName = [](const std::string &name) {
        if (name.size() != 21 || name.compare(16, 5, ".json") != 0)
            return false;
        return name.find_first_not_of("0123456789abcdef") == 16;
    };

    struct Entry
    {
        fs::file_time_type mtime;
        std::uint64_t size;
        fs::path path;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!isEntryName(it->path().filename().string()))
            continue;
        std::error_code fec;
        const auto mtime = fs::last_write_time(it->path(), fec);
        if (fec)
            continue;
        const auto size = fs::file_size(it->path(), fec);
        if (fec)
            continue;
        total += size;
        entries.push_back(Entry{mtime, size, it->path()});
    }
    if (total <= maxBytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const Entry &e : entries) {
        if (total <= maxBytes)
            break;
        std::error_code rec;
        fs::remove(e.path, rec);
        if (!rec)
            total -= e.size;
    }
}

void
ResultCache::put(const CellKey &key, const RunResult &r) const
{
    namespace fs = std::filesystem;
    if (!gcDone_) {
        gcDone_ = true;
        collectTempLitter();
    }
    const std::string target = dir_ + "/" + key.fileName();
    // Same-directory temp + rename: rename(2) is atomic, so a
    // concurrent reader (or a sibling sweep_driver shard writing the
    // same key) sees a complete entry or none. The hostname+pid
    // suffix keeps concurrent writers off each other's temp files —
    // pid alone is not unique across the hosts of an ssh-launched
    // shard set sharing one cache dir.
    char host[64] = "localhost";
    (void)::gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    const std::string tmp = target + ".tmp." + host + "." +
                            std::to_string(::getpid());
    {
        std::ofstream outf(tmp, std::ios::trunc);
        if (!outf) {
            svw_warn("result cache: cannot write ", tmp);
            return;
        }
        outf << cacheEntryToLine(key.material, r);
        outf.flush();
        if (!outf) {
            svw_warn("result cache: short write to ", tmp);
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) {
        svw_warn("result cache: rename to ", target, " failed: ",
                 ec.message());
        fs::remove(tmp, ec);
    }
}

} // namespace svw::harness

#include "harness/serialize.hh"

#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>

namespace svw::harness {

namespace {

// ---------------------------------------------------------------------------
// Writer helpers: std::string appends and std::to_chars, no streams
// ---------------------------------------------------------------------------

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendDouble(std::string &out, double v)
{
    // Non-finite doubles as distinguished strings: %.17g would emit
    // bare nan/inf tokens, which are not JSON, and the result cache
    // persists these lines for external tools to read.
    if (std::isnan(v)) {
        out += "\"NaN\"";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
        return;
    }
    // to_chars(general, 17) is specified as printf's %.17g.
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            const char u[6] = {'\\', 'u', '0', '0', hex[c >> 4],
                               hex[c & 15]};
            out.append(u, sizeof(u));
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

// ---------------------------------------------------------------------------
// The RunResult field list, shared by the writer and the reader
// ---------------------------------------------------------------------------

/** One always-written RunResult field: its JSON name and exactly one
 * member pointer. */
struct Field
{
    std::string_view name;
    std::string RunResult::*str = nullptr;
    bool RunResult::*flag = nullptr;
    std::uint64_t RunResult::*count = nullptr;
    double RunResult::*real = nullptr;
};

// Writer order. The profiler's prof_* keys follow these only for
// profiled runs (appendRunResult).
constexpr Field runResultFields[] = {
    {.name = "workload", .str = &RunResult::workload},
    {.name = "config", .str = &RunResult::config},
    {.name = "halted", .flag = &RunResult::halted},
    {.name = "golden_ok", .flag = &RunResult::goldenOk},
    {.name = "cycles", .count = &RunResult::cycles},
    {.name = "insts", .count = &RunResult::insts},
    {.name = "loads", .count = &RunResult::loads},
    {.name = "stores", .count = &RunResult::stores},
    {.name = "ipc", .real = &RunResult::ipc},
    {.name = "loads_marked", .count = &RunResult::loadsMarked},
    {.name = "loads_reexecuted", .count = &RunResult::loadsReExecuted},
    {.name = "loads_filtered_by_svw",
     .count = &RunResult::loadsFilteredBySvw},
    {.name = "rex_flushes", .count = &RunResult::rexFlushes},
    {.name = "rex_rate", .real = &RunResult::rexRate},
    {.name = "marked_rate", .real = &RunResult::markedRate},
    {.name = "elim_rate", .real = &RunResult::elimRate},
    {.name = "bypass_share", .real = &RunResult::bypassShare},
    {.name = "fsq_load_share", .real = &RunResult::fsqLoadShare},
    {.name = "branch_squashes", .count = &RunResult::branchSquashes},
    {.name = "ordering_squashes", .count = &RunResult::orderingSquashes},
    {.name = "wrap_drains", .count = &RunResult::wrapDrains},
};
constexpr std::size_t numFields = std::size(runResultFields);
static_assert(numFields <= 32, "the reader's seen-mask is 32 bits");
constexpr std::uint32_t allFieldsSeen = (1ull << numFields) - 1;

void
appendRunResult(std::string &out, const RunResult &r)
{
    char sep = '{';
    for (const Field &f : runResultFields) {
        out += sep;
        sep = ',';
        out += '"';
        out += f.name;
        out += "\":";
        if (f.str) {
            out += '"';
            appendEscaped(out, r.*f.str);
            out += '"';
        } else if (f.flag) {
            out += r.*f.flag ? "true" : "false";
        } else if (f.count) {
            appendU64(out, r.*f.count);
        } else {
            appendDouble(out, r.*f.real);
        }
    }
    // Profile attribution keys ("prof_<stage>_ns") are emitted only
    // for profiled runs: profiled results never enter the result
    // cache, and unprofiled lines stay byte-identical to the pre-
    // profiler wire format.
    if (r.profTicks) {
        for (unsigned s = 0; s < prof::NumStages; ++s) {
            out += ",\"prof_";
            out += prof::stageName(prof::Stage(s));
            out += "_ns\":";
            appendU64(out, r.profStageNs[s]);
        }
        out += ",\"prof_ticks\":";
        appendU64(out, r.profTicks);
        out += ",\"prof_cell_ns\":";
        appendU64(out, r.profCellNs);
    }
    out += '}';
}

// ---------------------------------------------------------------------------
// Reader: one pass over the bytes, views into the input where possible
// ---------------------------------------------------------------------------

/**
 * Cursor over the wire format. Values are strings, numbers, booleans,
 * or one level of nested object; that is everything the writers above
 * produce.
 */
struct Cursor
{
    const char *p;
    const char *end;

    bool atEnd() const { return p >= end; }
    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r')) {
            ++p;
        }
    }
    bool consume(char c)
    {
        skipWs();
        if (atEnd() || *p != c)
            return false;
        ++p;
        return true;
    }
};

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/**
 * Parse a JSON string. An escape-free string comes back as a view into
 * the input; otherwise it is decoded into @p scratch and @p out views
 * that. `\u` escapes name single bytes (the writer escapes control
 * bytes only), so a code point above 0xff is rejected.
 */
bool
parseString(Cursor &c, std::string_view &out, std::string &scratch)
{
    if (!c.consume('"'))
        return false;
    const char *start = c.p;
    const std::size_t left = static_cast<std::size_t>(c.end - start);
    const char *quote =
        static_cast<const char *>(std::memchr(start, '"', left));
    if (!quote)
        return false;
    const char *esc = static_cast<const char *>(
        std::memchr(start, '\\', static_cast<std::size_t>(quote - start)));
    if (!esc) {
        out = std::string_view(start, static_cast<std::size_t>(quote - start));
        c.p = quote + 1;
        return true;
    }
    scratch.assign(start, esc);
    c.p = esc;
    while (!c.atEnd() && *c.p != '"') {
        const char ch = *c.p++;
        if (ch != '\\') {
            scratch += ch;
            continue;
        }
        if (c.atEnd())
            return false;
        switch (*c.p++) {
          case '"':  scratch += '"'; break;
          case '\\': scratch += '\\'; break;
          case '/':  scratch += '/'; break;
          case 'n':  scratch += '\n'; break;
          case 't':  scratch += '\t'; break;
          case 'r':  scratch += '\r'; break;
          case 'u': {
            if (c.end - c.p < 4)
                return false;
            int v = 0;
            for (int i = 0; i < 4; ++i) {
                const int d = hexValue(c.p[i]);
                if (d < 0)
                    return false;
                v = v * 16 + d;
            }
            if (v > 0xff)
                return false;
            scratch += static_cast<char>(v);
            c.p += 4;
            break;
          }
          default:
            return false;
        }
    }
    if (c.atEnd())
        return false;
    ++c.p;
    out = scratch;
    return true;
}

bool
isDelimiter(char ch)
{
    switch (ch) {
      case ',': case ':': case '{': case '}': case '[': case ']':
      case '"': case ' ': case '\t': case '\n': case '\r':
        return true;
      default:
        return false;
    }
}

/** A bare scalar token: the run of characters up to the next
 * delimiter. Empty if the value starts with a delimiter. */
std::string_view
scalarToken(Cursor &c)
{
    c.skipWs();
    const char *start = c.p;
    while (!c.atEnd() && !isDelimiter(*c.p))
        ++c.p;
    return std::string_view(start, static_cast<std::size_t>(c.p - start));
}

/** A whole-token unsigned decimal: no sign, no tail, no overflow. */
bool
parseU64(Cursor &c, std::uint64_t &v)
{
    const std::string_view tok = scalarToken(c);
    const char *last = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), last, v);
    return !tok.empty() && res.ec == std::errc() && res.ptr == last;
}

bool
parseDouble(Cursor &c, double &v, std::string &scratch)
{
    c.skipWs();
    if (!c.atEnd() && *c.p == '"') {
        // appendDouble's non-finite encoding.
        std::string_view s;
        if (!parseString(c, s, scratch))
            return false;
        if (s == "NaN")
            v = std::numeric_limits<double>::quiet_NaN();
        else if (s == "Infinity")
            v = std::numeric_limits<double>::infinity();
        else if (s == "-Infinity")
            v = -std::numeric_limits<double>::infinity();
        else
            return false;
        return true;
    }
    // A bare token must be a finite number consumed whole: from_chars
    // also reads inf/nan spellings, which only the strings above may
    // carry.
    const std::string_view tok = scalarToken(c);
    const char *last = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), last, v);
    return !tok.empty() && res.ec == std::errc() && res.ptr == last &&
           std::isfinite(v);
}

bool
parseBool(Cursor &c, bool &v)
{
    const std::string_view tok = scalarToken(c);
    if (tok == "true")
        v = true;
    else if (tok == "false")
        v = false;
    else
        return false;
    return true;
}

/** Skip any scalar or (one-level) object value we don't recognize. */
bool
skipValue(Cursor &c, std::string &scratch)
{
    std::string_view s;
    c.skipWs();
    if (!c.atEnd() && *c.p == '"')
        return parseString(c, s, scratch);
    if (c.consume('{')) {
        if (c.consume('}'))
            return true;
        do {
            if (!parseString(c, s, scratch) || !c.consume(':'))
                return false;
            c.skipWs();
            if (!c.atEnd() && *c.p == '"') {
                if (!parseString(c, s, scratch))
                    return false;
            } else if (scalarToken(c).empty()) {
                return false;
            }
        } while (c.consume(','));
        return c.consume('}');
    }
    return !scalarToken(c).empty();
}

/** Index of @p key in runResultFields, trying @p hint (the field the
 * writer puts next) first; numFields if it is not one of them. */
std::size_t
fieldIndex(std::string_view key, std::size_t hint)
{
    if (hint < numFields && runResultFields[hint].name == key)
        return hint;
    for (std::size_t i = 0; i < numFields; ++i) {
        if (runResultFields[i].name == key)
            return i;
    }
    return numFields;
}

/** Parse the value of a prof_<stage>_ns key; false if @p key is not
 * one (the caller then skips the value). */
bool
profStageSlot(std::string_view key, std::uint64_t *&slot, RunResult &r)
{
    constexpr std::string_view pre = "prof_", post = "_ns";
    if (key.size() <= pre.size() + post.size() ||
        key.substr(0, pre.size()) != pre ||
        key.substr(key.size() - post.size()) != post) {
        return false;
    }
    const std::string_view stage =
        key.substr(pre.size(), key.size() - pre.size() - post.size());
    for (unsigned s = 0; s < prof::NumStages; ++s) {
        if (stage == prof::stageName(prof::Stage(s))) {
            slot = &r.profStageNs[s];
            return true;
        }
    }
    return false;
}

/**
 * Parse a RunResult object. Every field the writer always emits must
 * be present, and profiler keys are accepted only as a profiled run
 * writes them (all zero unless prof_ticks is set), so everything
 * accepted re-serializes to an object that parses back the same.
 * Unknown keys are skipped (forward compat).
 */
bool
parseRunResultObject(Cursor &c, RunResult &r, std::string &scratch)
{
    if (!c.consume('{'))
        return false;
    std::uint32_t seen = 0;
    std::size_t next = 0;
    if (!c.consume('}')) {
        do {
            std::string_view key;
            if (!parseString(c, key, scratch) || !c.consume(':'))
                return false;
            const std::size_t i = fieldIndex(key, next);
            bool good;
            if (i < numFields) {
                const Field &f = runResultFields[i];
                if (f.str) {
                    std::string_view s;
                    good = parseString(c, s, scratch);
                    if (good)
                        (r.*f.str).assign(s);
                } else if (f.flag) {
                    good = parseBool(c, r.*f.flag);
                } else if (f.count) {
                    good = parseU64(c, r.*f.count);
                } else {
                    good = parseDouble(c, r.*f.real, scratch);
                }
                seen |= 1u << i;
                next = i + 1;
            } else if (std::uint64_t *slot = nullptr;
                       profStageSlot(key, slot, r)) {
                good = parseU64(c, *slot);
            } else if (key == "prof_ticks") {
                good = parseU64(c, r.profTicks);
            } else if (key == "prof_cell_ns") {
                good = parseU64(c, r.profCellNs);
            } else {
                good = skipValue(c, scratch);
            }
            if (!good)
                return false;
        } while (c.consume(','));
        if (!c.consume('}'))
            return false;
    }
    if (seen != allFieldsSeen)
        return false;
    if (!r.profTicks) {
        if (r.profCellNs)
            return false;
        for (std::uint64_t ns : r.profStageNs) {
            if (ns)
                return false;
        }
    }
    return true;
}

/** True if nothing but whitespace is left. */
bool
atTrailingWs(Cursor &c)
{
    c.skipWs();
    return c.atEnd();
}

/**
 * Parse a cache entry. @p material views the stored key material
 * (into @p text, or into @p scratch when it had escapes).
 */
bool
parseCacheEntry(std::string_view text, std::string_view &material,
                std::string &materialScratch, RunResult &r)
{
    Cursor c{text.data(), text.data() + text.size()};
    std::string scratch;
    std::uint64_t version = 0;
    bool sawMaterial = false, sawResult = false;
    if (!c.consume('{'))
        return false;
    do {
        std::string_view key;
        if (!parseString(c, key, scratch) || !c.consume(':'))
            return false;
        bool good;
        if (key == "v") {
            good = parseU64(c, version);
        } else if (key == "material") {
            good = parseString(c, material, materialScratch);
            sawMaterial = good;
        } else if (key == "result") {
            r = RunResult{};
            good = parseRunResultObject(c, r, scratch);
            sawResult = good;
        } else {
            good = skipValue(c, scratch);
        }
        if (!good)
            return false;
    } while (c.consume(','));
    return c.consume('}') && atTrailingWs(c) && version == 1 &&
           sawMaterial && sawResult;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
jsonDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

std::string
runResultToJson(const RunResult &r)
{
    std::string out;
    out.reserve(512);
    appendRunResult(out, r);
    return out;
}

bool
runResultFromJson(const std::string &json, RunResult &out)
{
    Cursor c{json.data(), json.data() + json.size()};
    RunResult r;
    std::string scratch;
    if (!parseRunResultObject(c, r, scratch) || !atTrailingWs(c))
        return false;
    out = std::move(r);
    return true;
}

// Key material must enumerate EVERY field: a knob missing from this
// list would let two different machines share one cache entry. The
// size checks cannot prove the lists are complete, but they force a
// human through this file whenever either struct changes shape —
// update coreParamsKeyText (and, for RunResult, runResultFields: the
// reader requires every listed field, so an unlisted new metric would
// never be written or read back) AND bump resultCacheCodeVersion
// (harness/sweep.hh) if the change alters results. The sizes are
// ABI-specific, so the tripwire is pinned to the toolchain CI enforces
// rather than breaking other builds over std::string layout.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(CoreParams) == 272,
              "CoreParams changed: revisit coreParamsKeyText and the "
              "result-cache code version");
static_assert(sizeof(RunResult) == 288,
              "RunResult changed: update the JSON writer/parser and "
              "bump the result-cache code version");
#endif

// Runs once per distinct config (cellKey memoizes its output), so it
// keeps the plain stream writer.
std::string
coreParamsKeyText(const CoreParams &p)
{
    std::ostringstream os;
    auto cache = [&os](const char *name, const CacheParams &c) {
        os << '|' << name << '=' << c.sizeBytes << '/' << c.assoc << '/'
           << c.lineBytes << '/' << c.latency;
    };
    os << "fetchWidth=" << p.fetchWidth
       << "|dispatchWidth=" << p.dispatchWidth
       << "|issueWidth=" << p.issueWidth
       << "|commitWidth=" << p.commitWidth
       << "|intIssue=" << p.intIssue
       << "|loadIssue=" << p.loadIssue
       << "|branchIssue=" << p.branchIssue
       << "|robEntries=" << p.robEntries
       << "|iqEntries=" << p.iqEntries
       << "|numPhysRegs=" << p.numPhysRegs
       << "|frontendDepth=" << p.frontendDepth
       << "|mispredictRedirect=" << p.mispredictRedirect
       << "|rexTransit=" << p.rexTransit
       << "|dcachePorts=" << p.dcachePorts
       << "|bpred.hybridEntries=" << p.bpred.hybridEntries
       << "|bpred.btbEntries=" << p.bpred.btbEntries
       << "|bpred.btbAssoc=" << p.bpred.btbAssoc
       << "|bpred.rasEntries=" << p.bpred.rasEntries;
    cache("mem.l1i", p.mem.l1i);
    cache("mem.l1d", p.mem.l1d);
    cache("mem.l2", p.mem.l2);
    os << "|mem.memLatency=" << p.mem.memLatency
       << "|mem.l2BusCyclesPerLine=" << p.mem.l2BusCyclesPerLine
       << "|mem.memBusCyclesPerLine=" << p.mem.memBusCyclesPerLine
       << "|mem.l1dBanks=" << p.mem.l1dBanks
       << "|lsu.lqEntries=" << p.lsu.lqEntries
       << "|lsu.sqEntries=" << p.lsu.sqEntries
       << "|lsu.nlq=" << p.lsu.nlq
       << "|lsu.ssq=" << p.lsu.ssq
       << "|lsu.fsqEntries=" << p.lsu.fsqEntries
       << "|lsu.fsqPorts=" << p.lsu.fsqPorts
       << "|lsu.fwdBufEntriesPerBank=" << p.lsu.fwdBufEntriesPerBank
       << "|lsu.loadExtraLatency=" << p.lsu.loadExtraLatency
       << "|lsu.lqValueCheck=" << p.lsu.lqValueCheck
       << "|lsu.storeIssueWidth=" << p.lsu.storeIssueWidth
       << "|lsu.steeringEntries=" << p.lsu.steeringEntries
       << "|svw.enabled=" << p.svw.enabled
       << "|svw.updateOnForward=" << p.svw.updateOnForward
       << "|svw.ssnBits=" << p.svw.ssnBits
       << "|svw.ssbf.entries=" << p.svw.ssbf.entries
       << "|svw.ssbf.granularityBytes=" << p.svw.ssbf.granularityBytes
       << "|svw.ssbf.dualHash=" << p.svw.ssbf.dualHash
       << "|svw.ssbf.infinite=" << p.svw.ssbf.infinite
       << "|svw.speculativeSsbfUpdate=" << p.svw.speculativeSsbfUpdate
       << "|rex.enabled=" << p.rex.enabled
       << "|rex.perfect=" << p.rex.perfect
       << "|rex.width=" << p.rex.width
       << "|rex.storeBufferEntries=" << p.rex.storeBufferEntries
       << "|rex.cacheLatency=" << p.rex.cacheLatency
       << "|rex.regfileReadLatency=" << p.rex.regfileReadLatency
       << "|rex.svwReplacesReExecution=" << p.rex.svwReplacesReExecution
       << "|rle.enabled=" << p.rle.enabled
       << "|rle.itEntries=" << p.rle.itEntries
       << "|rle.itAssoc=" << p.rle.itAssoc
       << "|rle.squashReuse=" << p.rle.squashReuse
       << "|rle.integrateAlu=" << p.rle.integrateAlu
       << "|rle.maxPinnedRegs=" << p.rle.maxPinnedRegs
       << "|nlqsm=" << p.nlqsm;
    return os.str();
}

std::string
cacheEntryToLine(const std::string &material, const RunResult &r)
{
    std::string out;
    out.reserve(material.size() + 576);
    out += "{\"v\":1,\"material\":\"";
    appendEscaped(out, material);
    out += "\",\"result\":";
    appendRunResult(out, r);
    out += "}\n";
    return out;
}

bool
cacheEntryFromLine(const std::string &line, std::string &material,
                   RunResult &r)
{
    std::string_view mat;
    std::string matScratch;
    RunResult res;
    if (!parseCacheEntry(line, mat, matScratch, res))
        return false;
    material.assign(mat);
    r = std::move(res);
    return true;
}

bool
cacheEntryMatches(std::string_view text, std::string_view material,
                  RunResult &r)
{
    // Reused per thread: an escaped material decodes here without an
    // allocation per probe.
    thread_local std::string matScratch;
    std::string_view mat;
    RunResult res;
    if (!parseCacheEntry(text, mat, matScratch, res) || mat != material)
        return false;
    r = std::move(res);
    return true;
}

} // namespace svw::harness

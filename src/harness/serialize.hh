/**
 * @file
 * Exact-round-trip JSON serialization of RunResult — the sweep engine's
 * wire format.
 *
 * The result cache stores one JSON line per cell, sweepd streams the
 * same line to its clients, and --emit-cells writes it for CI diffs.
 * A result served from any of them must be byte-identical to a fresh
 * run, so every double is printed with %.17g (guaranteed lossless for
 * IEEE-754 binary64) and every integer as a full-width decimal. The
 * parser accepts exactly the flat two-level objects the writer emits —
 * it is a wire format written and read by this code base, not a
 * general JSON implementation.
 */

#ifndef SVW_HARNESS_SERIALIZE_HH
#define SVW_HARNESS_SERIALIZE_HH

#include <cstddef>
#include <string>

#include "harness/runner.hh"

namespace svw::harness {

/** One-line JSON object with every RunResult field. */
std::string runResultToJson(const RunResult &r);

/** Parse runResultToJson output. @return false on malformed input. */
bool runResultFromJson(const std::string &json, RunResult &out);

/** Escape a string for embedding in a JSON literal (quotes excluded). */
std::string jsonEscape(const std::string &s);

/**
 * Lossless double literal (%.17g). Non-finite values are encoded as
 * the distinguished strings "NaN"/"Infinity"/"-Infinity" — %.17g's
 * bare `nan`/`inf` tokens are not JSON, and a cached stat file must
 * stay parseable by any JSON reader. The parser maps them back, so
 * the round trip is exact for every double.
 */
std::string jsonDouble(double v);

/**
 * Deterministic flat rendering of every CoreParams field (nested
 * param structs included), `name=value` joined with `|`. This is the
 * result cache's key material (harness/sweep.hh cellKey): any
 * configuration difference — including a newly added knob, once it is
 * listed here — changes the text and therefore the key. A
 * static_assert on sizeof(CoreParams) in serialize.cc forces this
 * list to be revisited whenever the struct changes shape.
 */
std::string coreParamsKeyText(const CoreParams &p);

/**
 * Result-cache entry: one JSON line holding the schema version, the
 * full key material (so a reader can verify the hash-named file
 * really belongs to its key — a collision or corruption degrades to a
 * cache miss, never a wrong result), and the RunResult.
 */
std::string cacheEntryToLine(const std::string &material,
                             const RunResult &r);

/** Parse cacheEntryToLine output (with or without the trailing
 * newline). @return false on malformed input or schema mismatch. */
bool cacheEntryFromLine(const std::string &line, std::string &material,
                        RunResult &r);

} // namespace svw::harness

#endif // SVW_HARNESS_SERIALIZE_HH

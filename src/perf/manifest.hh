/**
 * @file
 * Run manifests: the provenance block every bench/CLI run record
 * carries so that any two records are mechanically comparable. A
 * manifest pins the record schema version, the git revision and
 * build configuration of the producing binary, the fingerprint of
 * the dataset that was processed, and the full run configuration.
 * The bench differ refuses to compare silently across manifest
 * mismatches -- it warns on mixed schemas or mixed revisions and
 * flags fingerprint drift per paired run.
 */

#ifndef ALPHA_PIM_PERF_MANIFEST_HH
#define ALPHA_PIM_PERF_MANIFEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hh"

namespace alphapim::perf
{

/** Schema tag of the run-record format. The first records predate
 * manifests and carry no tag; the differ warns when the two sides'
 * tags differ. The optional blocks (xfer, timeline, imbalance, host,
 * serve) are self-describing: a reader takes the keys it knows and a
 * record without a block parses with the block absent, so adding a
 * block or a key needs no new tag. Each block's fields are listed
 * once: see forEachBlock() in record.hh, and kHostFields in
 * telemetry/host_prof.hh for the host block. */
inline constexpr const char *kRunSchema = "alpha-pim-run-v6";

/** Provenance of one recorded run. */
struct RunManifest
{
    std::string schema;     ///< record schema tag ("" = legacy v1)
    std::string gitSha;     ///< producing revision (may be "+dirty")
    std::string buildType;  ///< CMAKE_BUILD_TYPE
    std::string buildFlags; ///< sanitizers etc., "" when none
    std::uint64_t datasetFingerprint = 0; ///< 0 = not fingerprinted

    /** Full run configuration as ordered (key, JSON-encoded value)
     * pairs -- e.g. {"dpus","256"}, {"quick","true"}. Kept encoded
     * so heterogeneous producers (bench harness, CLI) need no shared
     * config struct; the differ compares pairs verbatim. */
    std::vector<std::pair<std::string, std::string>> config;

    /** Convenience: append one config entry. */
    void addConfig(const std::string &key, const std::string &json);
    void addConfig(const std::string &key, std::uint64_t v);
    void addConfig(const std::string &key, double v);
    void addConfig(const std::string &key, bool v);
    void addConfigString(const std::string &key,
                         const std::string &v);
};

/** Manifest pre-filled from the build info (schema, git SHA, build
 * type/flags); fingerprint and config are the caller's. */
RunManifest currentManifest();

/** Write the manifest's fields into an open JSON object. */
void writeManifestFields(telemetry::JsonWriter &w,
                         const RunManifest &m);

/** Read manifest fields back out of a parsed record object.
 * Unknown / absent fields default; never fails (legacy records are
 * valid manifests with empty schema). */
RunManifest parseManifestFields(const telemetry::JsonValue &record);

} // namespace alphapim::perf

#endif // ALPHA_PIM_PERF_MANIFEST_HH

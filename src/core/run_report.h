// JSON run reports: a machine-readable summary of an engine run.
//
// Downstream tooling (dashboards, sweep scripts) consumes the engine's
// outcome without parsing stdout. The writer emits a self-contained JSON
// object; no external JSON dependency is used (output only).

#pragma once

#include <string>

#include "common/status.h"
#include "core/engine.h"

namespace fastft {

/// Serializes the result of an engine run (scores, evaluation counts,
/// counted metrics, generated-feature expressions, and the per-step trace)
/// as a JSON object. What depends on the schedule or the thread count —
/// timing buckets, latency histograms, pool counters — sits in one
/// single-line "runtime" section, so the rest is byte-identical at any
/// thread count.
std::string RunReportJson(const Dataset& original, const EngineResult& result);

/// Writes RunReportJson to `path`.
Status WriteRunReport(const Dataset& original, const EngineResult& result,
                      const std::string& path);

/// Escapes a string for embedding in JSON (quotes, backslashes, control
/// characters). Exposed for tests.
std::string JsonEscape(const std::string& text);

}  // namespace fastft


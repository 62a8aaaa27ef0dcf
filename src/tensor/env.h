// env.h — the one place `SNE_*` environment overrides are parsed. Used
// by the thread pool (SNE_NUM_THREADS), RuntimeConfig (SNE_PREFETCH,
// SNE_TRACE, SNE_PRECISION) and the bench binaries' scale knobs. Values
// that fail to parse — including out-of-range ones (ERANGE), which
// strtoll/strtod would otherwise silently clamp to LLONG_MAX/HUGE_VAL —
// fall back.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sne::env {

/// Strict scalar parse: the whole string must be one base-10 integer —
/// no trailing junk, no empty input, no silent clamp on overflow
/// (ERANGE is a failure, unlike bare strtoll/std::stoll). This is the
/// single parsing routine behind both the SNE_* overrides below and the
/// CLI's flag values (tools/sne_cli.cpp), so "12abc" and "1e99" are
/// rejected everywhere the same way.
std::optional<std::int64_t> parse_int64(const std::string& text);

/// Strict float parse with the same whole-string / no-clamp rules.
std::optional<double> parse_float64(const std::string& text);

/// Integer override: reads SNE_<name>; returns `fallback` when the
/// variable is unset, unparsable, has trailing junk, or overflows.
std::int64_t int64(const std::string& name, std::int64_t fallback);

/// Floating-point override with the same fallback rules.
double float64(const std::string& name, double fallback);

/// String override: reads SNE_<name>; returns `fallback` when unset.
std::string string(const std::string& name, const std::string& fallback);

}  // namespace sne::env

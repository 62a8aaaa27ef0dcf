// tables.h — plain-text/markdown/CSV emitters used by every bench binary
// to print the rows of the paper's tables and the series of its figures
// in a uniform, diff-friendly format.
#pragma once

#include <string>
#include <vector>

namespace sne::eval {

/// A simple column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Column-aligned rendering with a header separator.
  std::string to_string() const;

  /// GitHub-markdown rendering.
  std::string to_markdown() const;

  /// RFC-4180-ish CSV (no quoting of commas; cells must not contain them).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string fmt(double value, int precision = 4);

/// Formats "mean ± std".
std::string fmt_pm(double mean, double std, int precision = 3);

/// Renders an (x, y) series as "x<TAB>y" lines — the figure-series dump
/// format consumed by EXPERIMENTS.md plots.
std::string series_to_tsv(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace sne::eval

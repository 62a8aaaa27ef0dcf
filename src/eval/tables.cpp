#include "eval/tables.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace sne::eval {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TextTable: need at least one column");
  }
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("TextTable: row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c], '-') << "  ";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::to_markdown() const {
  std::ostringstream os;
  os << '|';
  for (const auto& h : headers_) os << ' ' << h << " |";
  os << "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& row : rows_) {
    os << '|';
    for (const auto& cell : row) os << ' ' << cell << " |";
    os << '\n';
  }
  return os.str();
}

std::string TextTable::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_pm(double mean, double std, int precision) {
  return fmt(mean, precision) + " ± " + fmt(std, precision);
}

std::string series_to_tsv(const std::vector<double>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("series_to_tsv: length mismatch");
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < x.size(); ++i) {
    os << x[i] << '\t' << y[i] << '\n';
  }
  return os.str();
}

}  // namespace sne::eval

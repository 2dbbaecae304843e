#include "src/common/table_printer.h"

#include <algorithm>

namespace optum {

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string FormatFixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void TablePrinter::AddRow(const std::vector<double>& cells, int precision) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double c : cells) {
    row.push_back(FormatDouble(c, precision));
  }
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(FILE* out) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::fprintf(out, "|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::fprintf(out, " %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(headers_);
  std::fprintf(out, "|");
  for (size_t c = 0; c < widths.size(); ++c) {
    for (size_t i = 0; i < widths[c] + 2; ++i) {
      std::fputc('-', out);
    }
    std::fprintf(out, "|");
  }
  std::fprintf(out, "\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

}  // namespace optum

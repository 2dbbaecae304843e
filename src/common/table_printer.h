// Plain-text table printer used by the bench harness to print the rows and
// series corresponding to each paper figure/table.
#ifndef OPTUM_SRC_COMMON_TABLE_PRINTER_H_
#define OPTUM_SRC_COMMON_TABLE_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

namespace optum {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Convenience: formats doubles with the given precision.
  void AddRow(const std::vector<double>& cells, int precision = 4);

  // Renders the table to stdout with column alignment.
  void Print(FILE* out = stdout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double compactly ("%.*g" with sensible width). `precision` is
// significant digits, so large values switch to exponent form (20412 at
// precision 1 is "2e+04"); use FormatFixed for throughputs and totals.
std::string FormatDouble(double v, int precision = 4);

// Formats a double in fixed notation with `decimals` digits after the point
// ("%.*f"): 20412.34 at 1 decimal is "20412.3".
std::string FormatFixed(double v, int decimals);

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_TABLE_PRINTER_H_

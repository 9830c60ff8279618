// Fixed-width table printing for the benchmark harnesses.
//
// Every bench binary regenerates one paper figure/table as aligned text rows (the paper's
// "same rows/series" requirement); this helper keeps the formatting uniform across benches.
#ifndef MIND_SRC_COMMON_TABLE_PRINTER_H_
#define MIND_SRC_COMMON_TABLE_PRINTER_H_

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace mind {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int column_width = 14)
      : headers_(std::move(headers)), width_(column_width) {}

  void PrintHeader(std::ostream& os = std::cout) const {
    for (const auto& h : headers_) {
      PrintPadded(os, h);
    }
    os << "\n";
    os << std::string(headers_.size() * static_cast<size_t>(width_), '-') << "\n";
  }

  template <typename... Cells>
  void PrintRow(Cells&&... cells) const {
    std::ostream& os = std::cout;
    (PrintCell(os, std::forward<Cells>(cells)), ...);
    os << "\n";
  }

  static std::string Fmt(double v, int precision = 3) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << v;
    return ss.str();
  }

 private:
  template <typename T>
  void PrintCell(std::ostream& os, T&& cell) const {
    std::ostringstream text;
    text.copyfmt(os);  // Numbers format exactly as they would on `os`.
    text << cell;
    PrintPadded(os, text.str());
  }

  // Left-aligned in the column; text that fills the column gets one trailing space so it
  // never runs into the next cell.
  void PrintPadded(std::ostream& os, const std::string& text) const {
    os << std::left << std::setw(width_) << text;
    if (text.size() >= static_cast<size_t>(width_)) {
      os << ' ';
    }
  }

  std::vector<std::string> headers_;
  int width_;
};

inline void PrintSectionHeader(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace mind

#endif  // MIND_SRC_COMMON_TABLE_PRINTER_H_

// Fixed-width table printing used by every bench binary so that reproduced
// figures/tables come out as aligned, copy-pasteable text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pmemolap {

/// Collects rows of string cells and renders them as an aligned text table.
///
/// Example output:
///   Threads | 64B  | 256B | 4KB
///   --------+------+------+-----
///   1       | 2.1  | 2.4  | 2.6
class TablePrinter {
 public:
  /// Creates a printer with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a data row; the row is padded or truncated to the header width.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string Cell(double value, int precision = 1);
  static std::string Cell(uint64_t value);

  /// Renders the table with ' | ' separators and a header underline.
  std::string ToString() const;

  /// Prints ToString() to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pmemolap

#include "common/table_printer.h"

#include <algorithm>
#include <cstdio>

namespace pmemolap {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Cell(double value, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::Cell(uint64_t value) {
  return std::to_string(value);
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::string cell = c < row.size() ? row[c] : "";
      cell.resize(widths[c], ' ');
      if (c > 0) line += " | ";
      line += cell;
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) out += "-+-";
    out += std::string(widths[c], '-');
  }
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

}  // namespace pmemolap

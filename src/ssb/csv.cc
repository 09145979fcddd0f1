#include "ssb/csv.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace pmemolap::ssb {

namespace {

/// Splits a '|'-separated line into fields (no quoting in dbgen format).
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t begin = 0;
  while (begin <= line.size()) {
    size_t end = line.find('|', begin);
    if (end == std::string_view::npos) {
      fields.push_back(line.substr(begin));
      break;
    }
    fields.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return fields;
}

/// Parses one integer field; false on garbage or overflow.
template <typename T>
bool ParseField(std::string_view field, T* out) {
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || ptr != field.data() + field.size()) return false;
  if (value < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
      value > static_cast<int64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

Status LineError(const char* table, size_t line_number) {
  return Status::InvalidArgument(std::string("malformed ") + table +
                                 " CSV at line " +
                                 std::to_string(line_number));
}

}  // namespace

void WriteCsv(const std::vector<DateRow>& rows, std::ostream& out) {
  for (const DateRow& r : rows) {
    out << r.datekey << '|' << r.yearmonthnum << '|' << r.year << '|'
        << static_cast<int>(r.monthnuminyear) << '|'
        << static_cast<int>(r.daynuminweek) << '|'
        << static_cast<int>(r.weeknuminyear) << '\n';
  }
}

void WriteCsv(const std::vector<CustomerRow>& rows, std::ostream& out) {
  for (const CustomerRow& r : rows) {
    out << r.custkey << '|' << static_cast<int>(r.nation) << '|'
        << static_cast<int>(r.region) << '|' << static_cast<int>(r.city)
        << '|' << static_cast<int>(r.mktsegment) << '\n';
  }
}

void WriteCsv(const std::vector<SupplierRow>& rows, std::ostream& out) {
  for (const SupplierRow& r : rows) {
    out << r.suppkey << '|' << static_cast<int>(r.nation) << '|'
        << static_cast<int>(r.region) << '|' << static_cast<int>(r.city)
        << '\n';
  }
}

void WriteCsv(const std::vector<PartRow>& rows, std::ostream& out) {
  for (const PartRow& r : rows) {
    out << r.partkey << '|' << static_cast<int>(r.mfgr) << '|'
        << static_cast<int>(r.category) << '|' << static_cast<int>(r.brand)
        << '|' << static_cast<int>(r.color) << '|'
        << static_cast<int>(r.size) << '\n';
  }
}

void WriteCsv(const std::vector<LineorderRow>& rows, std::ostream& out) {
  for (const LineorderRow& r : rows) {
    out << r.orderkey << '|' << r.linenumber << '|' << r.custkey << '|'
        << r.partkey << '|' << r.suppkey << '|' << r.orderdate << '|'
        << r.commitdate << '|' << r.quantity << '|' << r.discount << '|'
        << r.extendedprice << '|' << r.ordtotalprice << '|' << r.revenue
        << '|' << r.supplycost << '|' << r.tax << '|'
        << static_cast<int>(r.shipmode) << '|'
        << static_cast<int>(r.priority) << '\n';
  }
}

Result<std::vector<DateRow>> ReadDateCsv(std::istream& in) {
  std::vector<DateRow> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = SplitFields(line);
    DateRow r;
    if (fields.size() != 6 || !ParseField(fields[0], &r.datekey) ||
        !ParseField(fields[1], &r.yearmonthnum) ||
        !ParseField(fields[2], &r.year) ||
        !ParseField(fields[3], &r.monthnuminyear) ||
        !ParseField(fields[4], &r.daynuminweek) ||
        !ParseField(fields[5], &r.weeknuminyear)) {
      return LineError("date", line_number);
    }
    rows.push_back(r);
  }
  return rows;
}

Result<std::vector<CustomerRow>> ReadCustomerCsv(std::istream& in) {
  std::vector<CustomerRow> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = SplitFields(line);
    CustomerRow r;
    if (fields.size() != 5 || !ParseField(fields[0], &r.custkey) ||
        !ParseField(fields[1], &r.nation) ||
        !ParseField(fields[2], &r.region) ||
        !ParseField(fields[3], &r.city) ||
        !ParseField(fields[4], &r.mktsegment)) {
      return LineError("customer", line_number);
    }
    rows.push_back(r);
  }
  return rows;
}

Result<std::vector<SupplierRow>> ReadSupplierCsv(std::istream& in) {
  std::vector<SupplierRow> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = SplitFields(line);
    SupplierRow r;
    if (fields.size() != 4 || !ParseField(fields[0], &r.suppkey) ||
        !ParseField(fields[1], &r.nation) ||
        !ParseField(fields[2], &r.region) ||
        !ParseField(fields[3], &r.city)) {
      return LineError("supplier", line_number);
    }
    rows.push_back(r);
  }
  return rows;
}

Result<std::vector<PartRow>> ReadPartCsv(std::istream& in) {
  std::vector<PartRow> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = SplitFields(line);
    PartRow r;
    if (fields.size() != 6 || !ParseField(fields[0], &r.partkey) ||
        !ParseField(fields[1], &r.mfgr) ||
        !ParseField(fields[2], &r.category) ||
        !ParseField(fields[3], &r.brand) ||
        !ParseField(fields[4], &r.color) ||
        !ParseField(fields[5], &r.size)) {
      return LineError("part", line_number);
    }
    rows.push_back(r);
  }
  return rows;
}

Result<std::vector<LineorderRow>> ReadLineorderCsv(std::istream& in) {
  std::vector<LineorderRow> rows;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    auto fields = SplitFields(line);
    LineorderRow r;
    if (fields.size() != 16 || !ParseField(fields[0], &r.orderkey) ||
        !ParseField(fields[1], &r.linenumber) ||
        !ParseField(fields[2], &r.custkey) ||
        !ParseField(fields[3], &r.partkey) ||
        !ParseField(fields[4], &r.suppkey) ||
        !ParseField(fields[5], &r.orderdate) ||
        !ParseField(fields[6], &r.commitdate) ||
        !ParseField(fields[7], &r.quantity) ||
        !ParseField(fields[8], &r.discount) ||
        !ParseField(fields[9], &r.extendedprice) ||
        !ParseField(fields[10], &r.ordtotalprice) ||
        !ParseField(fields[11], &r.revenue) ||
        !ParseField(fields[12], &r.supplycost) ||
        !ParseField(fields[13], &r.tax) ||
        !ParseField(fields[14], &r.shipmode) ||
        !ParseField(fields[15], &r.priority)) {
      return LineError("lineorder", line_number);
    }
    rows.push_back(r);
  }
  return rows;
}

namespace {

template <typename Row>
Status ExportTable(const std::vector<Row>& rows,
                   const std::string& directory, const char* name) {
  std::ofstream out(directory + "/" + name + ".tbl");
  if (!out.is_open()) {
    return Status::Internal(std::string("cannot open ") + name +
                            ".tbl for writing in " + directory);
  }
  WriteCsv(rows, out);
  return out.good() ? Status::OK()
                    : Status::Internal(std::string("write failed for ") +
                                       name);
}

}  // namespace

Status ExportDatabase(const Database& db, const std::string& directory) {
  PMEMOLAP_RETURN_NOT_OK(ExportTable(db.date, directory, "date"));
  PMEMOLAP_RETURN_NOT_OK(ExportTable(db.customer, directory, "customer"));
  PMEMOLAP_RETURN_NOT_OK(ExportTable(db.supplier, directory, "supplier"));
  PMEMOLAP_RETURN_NOT_OK(ExportTable(db.part, directory, "part"));
  PMEMOLAP_RETURN_NOT_OK(ExportTable(db.lineorder, directory, "lineorder"));
  return Status::OK();
}

Result<Database> ImportDatabase(const std::string& directory) {
  Database db;
  auto open = [&](const char* name,
                  std::ifstream* stream) -> Status {
    stream->open(directory + "/" + name + ".tbl");
    if (!stream->is_open()) {
      return Status::NotFound(std::string(name) + ".tbl not found in " +
                              directory);
    }
    return Status::OK();
  };
  std::ifstream in;
  PMEMOLAP_RETURN_NOT_OK(open("date", &in));
  PMEMOLAP_ASSIGN_OR_RETURN(db.date, ReadDateCsv(in));
  in.close();

  std::ifstream cust;
  PMEMOLAP_RETURN_NOT_OK(open("customer", &cust));
  PMEMOLAP_ASSIGN_OR_RETURN(db.customer, ReadCustomerCsv(cust));

  std::ifstream supp;
  PMEMOLAP_RETURN_NOT_OK(open("supplier", &supp));
  PMEMOLAP_ASSIGN_OR_RETURN(db.supplier, ReadSupplierCsv(supp));

  std::ifstream part;
  PMEMOLAP_RETURN_NOT_OK(open("part", &part));
  PMEMOLAP_ASSIGN_OR_RETURN(db.part, ReadPartCsv(part));

  std::ifstream lo;
  PMEMOLAP_RETURN_NOT_OK(open("lineorder", &lo));
  PMEMOLAP_ASSIGN_OR_RETURN(db.lineorder, ReadLineorderCsv(lo));
  PMEMOLAP_RETURN_NOT_OK(
      CheckForeignKeys(db, db.lineorder.data(), db.lineorder.size()));
  return db;
}

}  // namespace pmemolap::ssb

#include <cstdio>

#include "core/api.h"

namespace pmemolap::core {

void PrintTotals(int total) {
  std::printf("%d %d %d\n", total,
              total, UsedAfterAComma(total));
}

}  // namespace pmemolap::core

int main() {
  int total = 0;
  pmemolap::core::QualifiedAtLineStart(&total, 1);
  std::printf("%d %s\n", pmemolap::core::UsedByBench(total),
              pmemolap::core::QualifiedAsArgument(total));
  pmemolap::core::PrintTotals(total);
  return 0;
}

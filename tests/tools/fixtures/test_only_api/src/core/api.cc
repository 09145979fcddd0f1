#include "core/api.h"

namespace pmemolap::core {

int PrivateHelper(int x) { return x + 1; }

int OnlyTestsCallThis(int x) { return x; }

int UsedByBench(int x) {
  return PrivateHelper(x);
}

int UsedByPerfbench(int x) { return x; }

int UsedByExample(int x) { return x; }

void QualifiedAtLineStart(int* out, int x) { *out = x; }

const char* QualifiedAsArgument(int x) { return x > 0 ? "yes" : "no"; }

int UsedAfterAComma(int x) { return x; }

const char* AllowedName(int x) { return x > 0 ? "one" : "zero"; }

}  // namespace pmemolap::core

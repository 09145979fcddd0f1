// Uses from tests/ never count: both functions below stay test-only.
#include "core/api.h"

int main() {
  return pmemolap::core::OnlyTestsCallThis(0) +
         (pmemolap::core::AllowedName(0)[0] == 'z' ? 0 : 1);
}
